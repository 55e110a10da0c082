"""The least-squares solve in polynomial.fit, RMSprop step and finite differences.

The solve tests run a second, independent route (numpy direct solve of
the normal equations, a conjugate-gradient minimizer built from gradient
information only, or numpy's lstsq on the raw design) next to fit; the
two must agree.
"""

import warnings

import numpy as np
import pytest

from gradcheck import finite_diff_gradient
from lagcast.data import TimeSeries, WindowedDataset, make_windows, synth_seasonal
from lagcast.errors import FitError
from lagcast.harness import windowed_split
from lagcast.polynomial import _design_matrix, fit, rolling_forecast
from lagcast.rbf import RbfTrainConfig, init_centers, rmsprop_step, set_widths, train


def random_spd(rng, n, cond=100.0):
    """SPD matrix with eigenvalues spread over [1, cond]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = np.geomspace(1.0, cond, n)
    return q @ np.diag(eig) @ q.T


def cg_minimize(a, b, x0=None, tol=1e-14, max_iter=None):
    """Conjugate gradient on 0.5 x'Ax - b'x, descent directions built from
    residual gradients only.  Independent oracle for the fit's solve."""
    n = len(b)
    x = np.zeros(n) if x0 is None else x0.copy()
    r = b - a @ x
    p = r.copy()
    rs = r @ r
    for _ in range(max_iter or 20 * n):
        ap = a @ p
        alpha = rs / (p @ ap)
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = r @ r
        if np.sqrt(rs_new) <= tol * (1.0 + np.linalg.norm(b)):
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


def gaussian_windows(n, d, seed):
    """Windows over iid N(0, 1) values: a well-conditioned design."""
    values = np.random.default_rng(seed).standard_normal(n)
    return make_windows(TimeSeries(name="g", values=values), d)


def design_of(model, data):
    """The design in row-major order, as rolling_forecast multiplies it."""
    return np.ascontiguousarray(_design_matrix(model.basis, data.inputs))


# ------------------------------------------------ least-squares solve in fit

def test_solve_residual_bound_up_to_dim_200():
    for d, k in ((2, 1), (3, 2), (5, 3), (8, 3)):  # 3, 10, 56, 165 terms
        data = gaussian_windows(1000, d, seed=42 + d)
        model = fit(data, degree_k=k)
        m = design_of(model, data)
        b = m.T @ data.targets
        resid = np.max(np.abs(m.T @ (m @ model.weights) - b))
        assert resid <= 1e-8 * (1.0 + np.max(np.abs(b)))


def test_solve_matches_gradient_based_minimizer():
    for d, k in ((3, 1), (2, 2), (4, 2)):
        data = gaussian_windows(500, d, seed=7 + d)
        model = fit(data, degree_k=k)
        m = design_of(model, data)
        w_cg = cg_minimize(m.T @ m, m.T @ data.targets)
        assert np.max(np.abs(model.weights - w_cg)) <= 1e-6


def test_solve_ridge_equals_direct_shifted_solve():
    rng = np.random.default_rng(3)
    values = np.sin(np.arange(300) / 4.0) + 0.1 * rng.standard_normal(300)
    data = make_windows(TimeSeries(name="s", values=values), 3)
    lam = 0.75
    model = fit(data, degree_k=2, ridge_lambda=lam)
    m = design_of(model, data)
    direct = np.linalg.solve(m.T @ m + lam * np.eye(m.shape[1]), m.T @ data.targets)
    assert np.allclose(model.weights, direct, rtol=0.0, atol=1e-10)


def test_solve_input_validation():
    data = gaussian_windows(50, 2, seed=0)
    for lam in (-0.1, float("nan"), float("inf")):
        with pytest.raises(FitError, match="ridge_lambda"):
            fit(data, degree_k=1, ridge_lambda=lam)


def test_solve_singular_warns_then_ridge_recovers():
    # a constant series makes every lag column equal the constant column
    data = make_windows(TimeSeries(name="c", values=np.full(20, 3.0)), 2)
    with pytest.warns(UserWarning, match="minimum-norm.*ridge_lambda"):
        fit(data, degree_k=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = fit(data, degree_k=1, ridge_lambda=1.0)
    m = design_of(model, data)
    direct = np.linalg.solve(m.T @ m + np.eye(3), m.T @ data.targets)
    assert np.allclose(model.weights, direct, rtol=0.0, atol=1e-12)


def test_solve_matches_lstsq_on_ill_conditioned_walk():
    # 20k-point walk whose degree-2 normal equations are ill-conditioned
    # enough that a jittered Cholesky solve once returned test RMSE 108.6
    # where least squares gives 1.012
    steps = np.random.default_rng([0, 2]).normal(0.02, 1.0, 19_999)
    values = 1000.0 + np.concatenate([[0.0], np.cumsum(steps)])
    train, test = windowed_split(TimeSeries(name="w", values=values), 8, 0.8)
    model = fit(train, degree_k=2)
    got = np.sqrt(np.mean((rolling_forecast(model, test) - test.targets) ** 2))
    w_ref, *_ = np.linalg.lstsq(design_of(model, train), train.targets, rcond=None)
    ref = np.sqrt(np.mean((design_of(model, test) @ w_ref - test.targets) ** 2))
    assert got == pytest.approx(ref, rel=1e-6)


def walk_split():
    values = np.cumsum(np.random.default_rng([3, 7]).standard_normal(2000))
    return windowed_split(TimeSeries(name="w", values=values), 8, 0.8)


def readme_split():
    series = synth_seasonal(n=240, period=12, amplitude=1.0, trend=0.05, noise_sd=0.1, seed=0)
    return windowed_split(series, 8, 0.8)


@pytest.mark.parametrize("make_split, degrees", [(walk_split, (1, 2, 3)),
                                                 (readme_split, (4, 5))],
                         ids=["walk-full-rank", "readme-rank-deficient"])
@pytest.mark.parametrize("ridge_lambda", [0.0, 0.1])
def test_fit_and_forecast_byte_equal_to_lstsq_on_row_major_design(make_split, degrees,
                                                                   ridge_lambda):
    # fit solves on a column-major design; lstsq copies a row-major one into
    # that order itself, so the weights keep the bits of the plain call
    train, test = make_split()
    for k in degrees:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # degrees 4 and 5 are rank-deficient
            model = fit(train, degree_k=k, ridge_lambda=ridge_lambda)
            m = design_of(model, train)
            assert m.flags.c_contiguous
            t = train.targets
            if ridge_lambda:
                m = np.vstack([m, np.sqrt(ridge_lambda) * np.eye(model.basis.count)])
                t = np.concatenate([t, np.zeros(model.basis.count)])
            w, *_ = np.linalg.lstsq(m, t, rcond=None)
        assert model.weights.tobytes() == w.tobytes()
        got = rolling_forecast(model, test)
        assert got.tobytes() == (design_of(model, test) @ w).tobytes()


def test_one_row_design_is_row_major_and_forecasts_its_batch_row():
    # the one-row design is that row of the batch design, bit for bit, and
    # its forecast is that row's dot product; BLAS may sum a one-row
    # product in another order than a many-row one, so the batch forecast
    # agrees to rounding only
    train, test = readme_split()
    model = fit(train, degree_k=2)
    batch_design = design_of(model, test)
    batch = rolling_forecast(model, test)
    for i in (0, 17, len(test) - 1):
        row = WindowedDataset(8, test.inputs[i:i + 1], test.targets[i:i + 1])
        design = _design_matrix(model.basis, row.inputs)
        assert design.flags.c_contiguous  # so rolling_forecast does not copy it
        assert design.tobytes() == batch_design[i].tobytes()
        got = rolling_forecast(model, row)
        assert got.tobytes() == np.array([batch_design[i] @ model.weights]).tobytes()
        assert got[0] == pytest.approx(batch[i], rel=1e-12)


# ------------------------------------------------------------------- rmsprop

RHO, EPS = 0.9, 1e-8  # the rbf module's _RMSPROP_RHO and _RMSPROP_EPS


def test_rmsprop_hand_step():
    params, accum = np.array([0.0]), np.zeros(1)
    rmsprop_step(params, accum, np.array([4.0]), 0.1)
    assert accum[0] == pytest.approx(1.6, abs=1e-12)
    assert params[0] == pytest.approx(-0.31623, abs=1e-5)


def test_rmsprop_zero_gradient_only_decays_accum():
    params, accum = np.array([1.0, -1.0]), np.array([2.0, 8.0])
    rmsprop_step(params, accum, np.zeros(2), 0.5)
    assert np.array_equal(params, [1.0, -1.0])
    assert np.allclose(accum, [1.8, 7.2], atol=1e-15)


def test_rmsprop_equal_gradients_equal_updates():
    p = np.zeros(2)
    rmsprop_step(p, np.zeros(2), np.array([3.0, 3.0]), 0.01)
    assert p[0] == p[1]


def test_rmsprop_updates_in_place():
    params, accum, grads = np.array([5.0]), np.array([1.0]), np.array([2.0])
    rmsprop_step(params, accum, grads, 0.1)
    assert accum[0] == RHO * 1.0 + (1.0 - RHO) * 4.0
    assert params[0] == 5.0 - 0.1 * 2.0 / (np.sqrt(accum[0]) + EPS)
    assert grads[0] == 2.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_rmsprop_non_finite_gradient_leaves_its_parameter_non_finite(bad):
    # the step does not check its gradient: train's epoch-loss check relies
    # on a NaN or infinite entry poisoning the matching parameter
    params, accum = np.zeros(2), np.ones(2)
    with np.errstate(over="ignore", invalid="ignore"):
        rmsprop_step(params, accum, np.array([1.0, bad]), 0.1)
    assert np.isfinite(params[0])
    assert not np.isfinite(params[1])


def test_train_diverging_rate_fails_at_the_epoch_check():
    t = np.arange(120)
    data = make_windows(TimeSeries(name="s", values=np.sin(2 * np.pi * t / 12) + 0.01 * t), 6)
    centers = init_centers(data.inputs, 8, seed=0)
    widths = set_widths(centers, 1.0)
    cfg = RbfTrainConfig(units=8, batch_size=16, epochs=3, learning_rate=1e200)
    with pytest.raises(FitError, match="non-finite at epoch 1;"):
        train(data.inputs, data.targets, centers, widths, cfg)


def test_rmsprop_descends_convex_quadratic():
    # fixed-seed property: loss never increases over 1000 small-lr steps
    rng = np.random.default_rng(11)
    a = random_spd(rng, 4, cond=30.0)
    b = rng.standard_normal(4)

    def loss(x):
        return 0.5 * x @ a @ x - b @ x

    x = rng.standard_normal(4)
    accum = np.zeros(4)
    prev = loss(x)
    for _ in range(1000):
        g = a @ x - b
        rmsprop_step(x, accum, g, 1e-3)
        cur = loss(x)
        assert cur <= prev + 1e-12
        prev = cur


# ---------------------------------------------------------- finite_diff_grad

def test_finite_diff_quadratic():
    g = finite_diff_gradient(lambda x: float(np.sum(x * x)), np.array([1.0, 2.0]), h=1e-5)
    assert np.allclose(g, [2.0, 4.0], atol=1e-8)


def test_finite_diff_constant():
    g = finite_diff_gradient(lambda x: 3.0, np.array([1.0, 2.0, 3.0]))
    assert np.allclose(g, 0.0, atol=1e-12)


def test_finite_diff_product():
    g = finite_diff_gradient(lambda x: float(x[0] * x[1]), np.array([3.0, 5.0]), h=1e-6)
    assert np.allclose(g, [5.0, 3.0], atol=1e-7)


def test_finite_diff_rejects_nonfinite_evaluation():
    with pytest.raises(FitError):
        finite_diff_gradient(lambda x: float("nan"), np.array([1.0]))
