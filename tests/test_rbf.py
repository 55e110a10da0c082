"""Center seeding, widths, activations and the RMSprop output layer."""

import json
import math
import warnings
from itertools import product

import numpy as np
import pytest

from gradcheck import finite_diff_gradient
from lagcast import rbf
from lagcast.data import make_windows, synth_seasonal
from lagcast.errors import ConfigError, DataError
from lagcast.rbf import (
    RbfNetwork,
    RbfTrainConfig,
    TrainTrace,
    batch_forward,
    fit_fixed,
    from_json,
    grow_until_target,
    init_centers,
    load,
    loss_gradient,
    save,
    set_widths,
    to_json,
    train,
)


def sinusoid_windows(n=240, period=12, d=12, noise=0.0, seed=0):
    ts = synth_seasonal(n=n, period=period, amplitude=1.0, trend=0.0,
                        noise_sd=noise, seed=seed)
    return make_windows(ts, d)


def two_means_oracle(points):
    """Best 2-cluster SSE by trying every nonempty bipartition."""
    n = len(points)
    best = (math.inf, None)
    for mask in range(1, 2 ** (n - 1)):
        left = points[[bool(mask >> i & 1) for i in range(n)]]
        right = points[[not bool(mask >> i & 1) for i in range(n)]]
        if len(left) == 0 or len(right) == 0:
            continue
        sse = (
            float(np.sum((left - left.mean(axis=0)) ** 2))
            + float(np.sum((right - right.mean(axis=0)) ** 2))
        )
        if sse < best[0]:
            best = (sse, (left.mean(axis=0), right.mean(axis=0)))
    return best


def kmeans_sse(points, centers):
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return float(d2.min(axis=1).sum())


# ------------------------------------------------------------------- centers

def test_centers_m_equals_n_is_a_permutation():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((7, 3))
    centers = init_centers(pts, m=7, seed=1)
    a = sorted(map(tuple, np.round(pts, 12)))
    b = sorted(map(tuple, np.round(centers, 12)))
    assert a == b


def test_single_center_is_the_mean():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((40, 2))
    centers = init_centers(pts, m=1, seed=0)
    assert np.allclose(centers[0], pts.mean(axis=0), atol=1e-9)


def test_two_blobs_match_exhaustive_two_means():
    rng = np.random.default_rng(2)
    pts = np.vstack([
        rng.standard_normal((6, 2)) * 0.1 + [0.0, 0.0],
        rng.standard_normal((6, 2)) * 0.1 + [10.0, 10.0],
    ])
    centers = init_centers(pts, m=2, seed=3)
    oracle_sse, oracle_centers = two_means_oracle(pts)
    assert kmeans_sse(pts, centers) == pytest.approx(oracle_sse, rel=1e-9)
    got = sorted(map(tuple, np.round(centers, 9)))
    want = sorted(map(tuple, np.round(np.vstack(oracle_centers), 9)))
    assert got == want


def test_centers_deterministic():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((50, 4))
    c1 = init_centers(pts, m=8, seed=9)
    c2 = init_centers(pts, m=8, seed=9)
    assert np.array_equal(c1, c2)


def test_centers_bad_m():
    pts = np.zeros((5, 2))
    with pytest.raises(ConfigError):
        init_centers(pts, m=0, seed=0)
    with pytest.raises(ConfigError):
        init_centers(pts, m=6, seed=0)


def mask_loop_init_centers(inputs, m, seed):
    """init_centers with the Lloyd update as a boolean mask per cluster.

    Returns the centers and how many empty clusters were revived.
    """
    n = inputs.shape[0]
    rng = np.random.default_rng([seed, 0xC3])
    centers = np.empty((m, inputs.shape[1]))
    centers[0] = inputs[rng.integers(n)]
    sq = np.sum((inputs - centers[0]) ** 2, axis=1)
    for j in range(1, m):
        total = float(sq.sum())
        if total <= 0.0:
            centers[j] = inputs[rng.integers(n)]
        else:
            centers[j] = inputs[np.searchsorted(np.cumsum(sq / total), rng.random())]
        sq = np.minimum(sq, np.sum((inputs - centers[j]) ** 2, axis=1))
    revived = 0
    for _ in range(100):
        d2 = np.sum((inputs[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        assign = np.argmin(d2, axis=1)
        new_centers = centers.copy()
        taken = set()
        for j in range(m):
            members = inputs[assign == j]
            if members.shape[0] > 0:
                new_centers[j] = members.mean(axis=0)
            else:
                worst = np.argsort(d2[np.arange(n), assign])[::-1]
                pick = next(int(i) for i in worst if int(i) not in taken)
                taken.add(pick)
                new_centers[j] = inputs[pick]
                revived += 1
        shift = float(np.linalg.norm(new_centers - centers))
        scale = float(np.linalg.norm(centers)) + 1e-12
        centers = new_centers
        if shift / scale < 1e-6:
            break
    return centers, revived


def test_centers_byte_equal_to_mask_loop_lloyd():
    rng = np.random.default_rng(4)
    spread = rng.standard_normal((300, 8)) * [1, 2, 3, 4, 5, 6, 7, 8]
    # 6 distinct points and 10 centers: seeding repeats points, and the
    # repeats start out as empty clusters that must be revived; tiling
    # puts different points next to each other in the worst-fit order
    repeats = np.tile(rng.standard_normal((6, 3)), (20, 1))
    # |x|^2 - 2 x.c + |c|^2 near 8e14 is rounded to 1/8, coarser than the
    # gaps between near-tied centers, so init_centers' GEMM screen alone
    # would assign some of these rows elsewhere than the direct sums
    offset = 1e7 + rng.standard_normal((400, 8))
    # a lattice of step 0.1 with repeated rows: many rows tie exactly
    # between centers in the direct sums, but not in the screen
    lattice = 0.1 * rng.integers(0, 3, (300, 4))
    # the screen's squared norms overflow to inf, the direct sums do not
    far = 1e154 + spread * 1e150
    # the screen and the direct sums both overflow to inf
    huge = spread * 1e160
    revived = 0
    for pts, m, seed in ((spread, 12, 0), (spread, 1, 1), (repeats, 10, 1),
                         (offset, 12, 0), (lattice, 9, 2)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # init_centers warns on none of these
            got = init_centers(pts, m, seed=seed)
        want, r = mask_loop_init_centers(pts, m, seed)
        revived += r
        assert got.tobytes() == want.tobytes()
    assert revived > 0
    # the convergence test's norm of the centers overflows on both, and
    # the seeding on huge; those warn in the reference too
    with np.errstate(over="ignore", invalid="ignore"):
        for pts, m, seed in ((far, 12, 0), (huge, 10, 3)):
            want, _ = mask_loop_init_centers(pts, m, seed)
            assert init_centers(pts, m, seed=seed).tobytes() == want.tobytes()


# -------------------------------------------------------------------- widths

def test_widths_two_centers_neighbor_distance():
    w = set_widths(np.array([[0.0], [4.0]]), 1.0)
    assert w.tolist() == [4.0, 4.0]


def test_widths_equilateral_triangle():
    s = 2.0
    centers = np.array([
        [0.0, 0.0],
        [s, 0.0],
        [s / 2.0, s * math.sqrt(3.0) / 2.0],
    ])
    w = set_widths(centers, 1.0)
    assert np.allclose(w, s, atol=1e-12)


def test_widths_mean_of_two_nearest_peers():
    # on a line at 0, 1, 3, 7 the two nearest peers of 7 are 3 and 1
    w = set_widths(np.array([[0.0], [1.0], [3.0], [7.0]]), 1.0)
    assert w.tolist() == [2.0, 1.5, 2.5, 5.0]


def test_widths_duplicate_centers_stay_positive():
    # a zero scale still leaves the 1e-6 floor
    w = set_widths(np.zeros((3, 2)), 0.0)
    assert np.all(w > 0)


def test_widths_duplicate_centers_use_scale_hint():
    w = set_widths(np.zeros((3, 2)), 2.5)
    assert np.allclose(w, 2.5)


def test_widths_validation():
    with pytest.raises(DataError):
        set_widths(np.zeros((0, 2)), 1.0)
    with pytest.raises(DataError):
        set_widths(np.zeros(3), 1.0)


# --------------------------------------------------------------- activations

def activations_row(net, x):
    """Hidden-unit responses to one window, through the batch path."""
    row = np.asarray(x, float)[None, :]
    return rbf._activation_matrix(net.centers, net.widths, row)[0]


def output_row(net, x):
    """Network output for one window, through batch_forward on a (1, d) row."""
    out = batch_forward(net, np.asarray(x, float)[None, :])
    assert out.shape == (1,)
    return float(out[0])


def unit_net(center, width, weight=1.0, bias=0.0):
    return RbfNetwork(
        centers=np.atleast_2d(np.asarray(center, float)),
        widths=np.array([float(width)]),
        out_weights=np.array([float(weight)]),
        bias=float(bias),
    )


def test_activation_peaks_at_center():
    net = unit_net([1.0, 2.0], 0.7)
    assert activations_row(net, np.array([1.0, 2.0]))[0] == 1.0


def test_activation_e_minus_one_at_rms_distance():
    sigma = 0.8
    net = unit_net([0.0], sigma)
    x = np.array([sigma * math.sqrt(2.0)])
    assert activations_row(net, x)[0] == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_activation_far_away_underflows_cleanly():
    net = unit_net([0.0], 1e-3)
    a = activations_row(net, np.array([1e6]))[0]
    assert a == 0.0 and np.isfinite(a)


def test_activation_bounds():
    rng = np.random.default_rng(4)
    net = RbfNetwork(
        centers=rng.standard_normal((5, 3)),
        widths=np.abs(rng.standard_normal(5)) + 0.1,
        out_weights=np.zeros(5),
        bias=0.0,
    )
    for _ in range(50):
        a = activations_row(net, rng.standard_normal(3) * 10)
        assert np.all(a >= 0.0) and np.all(a <= 1.0)


def test_blocked_activations_byte_equal_to_direct_expression():
    # two full row blocks and a ragged third
    rng = np.random.default_rng(7)
    net = RbfNetwork(
        centers=rng.standard_normal((7, 8)) * 3,
        widths=np.abs(rng.standard_normal(7)) + 0.5,
        out_weights=rng.standard_normal(7),
        bias=0.2,
    )
    x = rng.standard_normal((2 * rbf._ROW_BLOCK + 7, 8)) * 3
    sq = np.sum((x[:, None, :] - net.centers[None, :, :]) ** 2, axis=2)
    phi = np.exp(-sq / (2.0 * net.widths[None, :] ** 2))
    assert rbf._activation_matrix(net.centers, net.widths, x).tobytes() == phi.tobytes()
    assert batch_forward(net, x).tobytes() == (phi @ net.out_weights + net.bias).tobytes()


# ------------------------------------------------------------------- forward

def test_forward_zero_weights_is_bias():
    net = unit_net([0.0, 0.0], 1.0, weight=0.0, bias=3.25)
    assert output_row(net, np.array([5.0, -2.0])) == 3.25


def test_forward_unit_weight_at_center():
    net = unit_net([1.5, -0.5], 1.0, weight=1.0, bias=0.0)
    assert output_row(net, np.array([1.5, -0.5])) == 1.0


def test_forward_is_linear_in_weights():
    rng = np.random.default_rng(5)
    centers = rng.standard_normal((4, 2))
    widths = np.full(4, 0.9)
    x = rng.standard_normal(2)
    w1, w2 = rng.standard_normal(4), rng.standard_normal(4)
    f = lambda w: output_row(
        RbfNetwork(centers=centers, widths=widths, out_weights=w, bias=0.0), x
    )
    assert f(w1 + w2) == pytest.approx(f(w1) + f(w2), rel=1e-12)


def test_batch_forward_matches_forward():
    rng = np.random.default_rng(6)
    net = RbfNetwork(
        centers=rng.standard_normal((3, 2)),
        widths=np.full(3, 1.1),
        out_weights=rng.standard_normal(3),
        bias=0.4,
    )
    xs = rng.standard_normal((10, 2))
    batch = batch_forward(net, xs)
    assert np.allclose(batch, [output_row(net, x) for x in xs], atol=1e-12)


def test_forward_length_mismatch():
    net = unit_net([0.0, 0.0], 1.0)
    with pytest.raises(DataError):
        batch_forward(net, np.zeros((1, 3)))


def test_network_validation():
    with pytest.raises(DataError):
        RbfNetwork(centers=np.zeros((2, 2)), widths=np.array([1.0, -1.0]),
                   out_weights=np.zeros(2), bias=0.0)
    with pytest.raises(DataError):
        RbfNetwork(centers=np.zeros((2, 2)), widths=np.ones(3),
                   out_weights=np.zeros(2), bias=0.0)


# ------------------------------------------------------------------ training

def test_train_zero_targets_never_moves():
    rng = np.random.default_rng(7)
    inputs = rng.standard_normal((30, 2))
    centers = init_centers(inputs, m=4, seed=0)
    widths = set_widths(centers, rbf._input_scale(inputs))
    cfg = RbfTrainConfig(units=4, epochs=20, learning_rate=0.05, seed=0)
    net, trace = train(inputs, np.zeros(30), centers, widths, cfg)
    assert np.all(net.out_weights == 0.0) and net.bias == 0.0
    assert np.all(trace.epoch_mse == 0.0)


def test_train_single_unit_identical_inputs_learns_the_mean():
    inputs = np.tile([1.0, 2.0], (40, 1))
    rng = np.random.default_rng(8)
    targets = 5.0 + 0.1 * rng.standard_normal(40)
    centers = np.array([[1.0, 2.0]])
    widths = np.array([1.0])
    cfg = RbfTrainConfig(units=1, epochs=800, learning_rate=0.05,
                         batch_size=40, seed=0)
    net, _ = train(inputs, targets, centers, widths, cfg)
    assert output_row(net, np.array([1.0, 2.0])) == pytest.approx(
        float(targets.mean()), abs=1e-3
    )


def test_train_keeps_the_best_epoch():
    data = sinusoid_windows(n=120, d=6, noise=0.05)
    centers = init_centers(data.inputs, m=8, seed=1)
    widths = set_widths(centers, rbf._input_scale(data.inputs))
    cfg = RbfTrainConfig(units=8, epochs=60, learning_rate=0.02, seed=1)
    net, trace = train(data.inputs, data.targets, centers, widths, cfg)
    refit_mse = float(np.mean((batch_forward(net, data.inputs) - data.targets) ** 2))
    assert trace.best_mse == pytest.approx(refit_mse, rel=1e-12)
    assert trace.best_mse <= trace.epoch_mse[0]
    assert trace.best_mse == min(trace.epoch_mse)


def test_trace_length_equals_epochs_run():
    data = sinusoid_windows(n=80, d=4)
    net, trace = fit_fixed(
        data.inputs, data.targets,
        RbfTrainConfig(units=6, epochs=15, learning_rate=0.02, seed=2),
    )
    assert len(trace.epoch_mse) == trace.epochs_run == 15
    assert trace.stop_reason == "epochs"
    assert trace.final_units == net.n_units == 6


def test_train_deterministic():
    data = sinusoid_windows(n=100, d=5, noise=0.02)
    cfg = RbfTrainConfig(units=7, epochs=25, learning_rate=0.03, seed=11)
    n1, t1 = fit_fixed(data.inputs, data.targets, cfg)
    n2, t2 = fit_fixed(data.inputs, data.targets, cfg)
    assert np.array_equal(n1.out_weights, n2.out_weights)
    assert n1.bias == n2.bias
    assert np.array_equal(t1.epoch_mse, t2.epoch_mse)


def test_train_diverging_rate_is_a_fit_error():
    from lagcast.errors import FitError

    data = sinusoid_windows(n=80, d=4)
    centers = init_centers(data.inputs, m=4, seed=0)
    widths = set_widths(centers, rbf._input_scale(data.inputs))
    cfg = RbfTrainConfig(units=4, epochs=400, learning_rate=1e12, seed=0)
    try:
        net, trace = train(data.inputs, data.targets, centers, widths, cfg)
    except FitError:
        return  # overflowed mid-training, as documented
    # huge steps may still stay finite; the checkpoint must then be sane
    assert np.all(np.isfinite(net.out_weights))



@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("centers, widths", [
    (np.zeros((2, 2)), np.zeros(2)),
    (np.array([[0.0, 0.0], [np.nan, 1.0]]), np.ones(2)),
    (np.zeros((2, 2)), np.array([1.0, -1.0])),
    (np.zeros((2, 2)), np.ones(3)),
], ids=["zero-widths", "nan-center", "negative-width", "wrong-length-widths"])
def test_train_checks_the_hidden_layer_before_any_step(monkeypatch, centers, widths):
    def no_step(*args):
        raise AssertionError("an RMSprop step ran on a bad hidden layer")

    monkeypatch.setattr(rbf, "rmsprop_step", no_step)
    rng = np.random.default_rng(9)
    cfg = RbfTrainConfig(units=2, epochs=5, learning_rate=0.01)
    with pytest.raises(DataError):
        train(rng.standard_normal((20, 2)), rng.standard_normal(20), centers, widths, cfg)

def out_of_place_train(inputs, targets, centers, widths, config):
    """train() as a copy-per-step loop: concatenated gradient, then
    out-of-place accumulator and parameter updates.  The reference that
    the in-place loop must match bit for bit."""
    phi = np.exp(-np.sum((inputs[:, None, :] - centers[None, :, :]) ** 2, axis=2)
                 / (2.0 * widths[None, :] ** 2))
    m, n = centers.shape[0], inputs.shape[0]
    rho, eps, lr = rbf._RMSPROP_RHO, rbf._RMSPROP_EPS, config.learning_rate
    params, accum = np.zeros(m + 1), np.zeros(m + 1)
    rng = np.random.default_rng([config.seed, 0xB7])
    best, best_mse, history = params.copy(), np.inf, []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            rows = order[start:start + config.batch_size]
            phi_b = phi[rows]
            err = phi_b @ params[:m] + params[m] - targets[rows]
            grad = np.concatenate([2.0 * phi_b.T @ err / rows.size,
                                   [2.0 * float(err.mean())]])
            accum = rho * accum + (1.0 - rho) * grad**2
            params = params - lr * grad / (np.sqrt(accum) + eps)
        mse = float(np.mean((phi @ params[:m] + params[m] - targets) ** 2))
        history.append(mse)
        if mse < best_mse:
            best_mse, best = mse, params.copy()
    net = RbfNetwork(centers=centers, widths=widths, out_weights=best[:m],
                     bias=float(best[m]))
    return net, TrainTrace(epoch_mse=np.array(history),
                           final_units=m, stop_reason="epochs")


def assert_same_bits(got, want):
    (net, trace), (ref_net, ref_trace) = got, want
    assert trace.epoch_mse.tobytes() == ref_trace.epoch_mse.tobytes()
    assert net.out_weights.tobytes() == ref_net.out_weights.tobytes()
    assert np.float64(net.bias).tobytes() == np.float64(ref_net.bias).tobytes()


def small_training_args(batch_size):
    data = sinusoid_windows(n=111, d=6, noise=0.05, seed=4)  # 105 rows
    centers = init_centers(data.inputs, m=10, seed=4)
    widths = set_widths(centers, rbf._input_scale(data.inputs))
    cfg = RbfTrainConfig(units=10, batch_size=batch_size, epochs=30,
                         learning_rate=0.02, seed=4)
    return data.inputs, data.targets, centers, widths, cfg


def workload_training_args(batch_size):
    """The rbf-train workload's shape: a trending seasonal series, d = 8 and
    36 units, where 3.4% of the activations are exactly 0 and 0.4% are
    subnormal.  1595 rows leave a ragged last batch at 8 and at 109."""
    ts = synth_seasonal(n=1603, period=12, amplitude=1.0, trend=0.05,
                        noise_sd=0.1, seed=0)
    data = make_windows(ts, 8)
    centers = init_centers(data.inputs, m=36, seed=0)
    widths = set_widths(centers, rbf._input_scale(data.inputs))
    phi = rbf._activation_matrix(centers, widths, data.inputs)
    assert np.mean(phi == 0.0) > 0.03
    assert np.mean((phi > 0.0) & (phi < np.finfo(np.float64).tiny)) > 0.004
    cfg = RbfTrainConfig(units=36, batch_size=batch_size, epochs=3,
                         learning_rate=0.01, seed=0)
    return data.inputs, data.targets, centers, widths, cfg


@pytest.mark.parametrize("make_args, batch_size", [
    (small_training_args, 8),
    (small_training_args, 500),
    (workload_training_args, 8),
    (workload_training_args, 109),
], ids=["ragged-batch-8", "batch-over-n", "workload-batch-8", "workload-batch-109"])
def test_train_bit_identical_to_out_of_place_loop(make_args, batch_size):
    args = make_args(batch_size)
    assert_same_bits(train(*args), out_of_place_train(*args))


def test_grow_bit_identical_to_out_of_place_loop(monkeypatch):
    data = sinusoid_windows(n=111, d=6, noise=0.05, seed=5)
    cfg = RbfTrainConfig(units=4, batch_size=16, epochs=10, learning_rate=0.02,
                         seed=5, target_mse=1e-9, max_units=7)
    got = grow_until_target(data.inputs, data.targets, cfg)
    monkeypatch.setattr(rbf, "train", out_of_place_train)
    want = grow_until_target(data.inputs, data.targets, cfg)
    assert got[0].n_units == want[0].n_units == 7
    assert got[0].centers.tobytes() == want[0].centers.tobytes()
    assert_same_bits(got, want)


# ---------------------------------------------------------------- gradients

def test_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    for trial in range(5):
        m, d, n = 3, 2, 25
        centers = rng.standard_normal((m, d))
        widths = np.abs(rng.standard_normal(m)) + 0.5
        inputs = rng.standard_normal((n, d))
        targets = rng.standard_normal(n)
        params = rng.standard_normal(m + 1)

        def loss_at(p):
            net = RbfNetwork(centers=centers, widths=widths,
                             out_weights=p[:-1], bias=float(p[-1]))
            e = batch_forward(net, inputs) - targets
            return float(np.mean(e**2))

        net = RbfNetwork(centers=centers, widths=widths,
                         out_weights=params[:-1], bias=float(params[-1]))
        _, analytic = loss_gradient(net, inputs, targets)
        numeric = finite_diff_gradient(loss_at, params, h=1e-6)
        denom = np.maximum(1.0, np.abs(analytic))
        assert np.max(np.abs(analytic - numeric) / denom) <= 1e-4


def test_trained_layer_approaches_least_squares_optimum():
    # scaled-down version of the acceptance fixture
    data = sinusoid_windows(n=120, d=6, noise=0.05, seed=3)
    centers = init_centers(data.inputs, m=8, seed=3)
    widths = set_widths(centers, rbf._input_scale(data.inputs))
    # constant-rate RMSprop hovers near the optimum at a floor set by the
    # rate, so this needs a small rate and patience
    cfg = RbfTrainConfig(units=8, epochs=12000, learning_rate=0.002,
                         batch_size=len(data), seed=3)
    net, trace = train(data.inputs, data.targets, centers, widths, cfg)

    phi = np.column_stack([
        np.exp(-((data.inputs[:, None, :] - centers[None, :, :]) ** 2).sum(2)
               / (2.0 * widths**2)),
        np.ones(len(data)),
    ])
    ls, *_ = np.linalg.lstsq(phi, data.targets, rcond=None)
    best = float(np.mean((phi @ ls - data.targets) ** 2))
    assert trace.best_mse <= 1.05 * best


# ---------------------------------------------------------------------- grow

def test_grow_huge_target_stops_after_first_round():
    data = sinusoid_windows(n=100, d=5)
    cfg = RbfTrainConfig(units=24, epochs=10, learning_rate=0.02, seed=0,
                         target_mse=1e18, max_units=40)
    net, trace = grow_until_target(data.inputs, data.targets, cfg)
    assert net.n_units == 4  # the starting size
    assert trace.stop_reason == "target_mse"


def test_grow_max_units_at_start_size_stops_immediately():
    data = sinusoid_windows(n=100, d=5)
    cfg = RbfTrainConfig(units=24, epochs=10, learning_rate=0.02, seed=0,
                         target_mse=1e-12, max_units=4)
    net, trace = grow_until_target(data.inputs, data.targets, cfg)
    assert net.n_units == 4
    assert trace.stop_reason == "max_units"


def test_grow_adds_units_and_respects_cap():
    data = sinusoid_windows(n=120, d=6, noise=0.05)
    cfg = RbfTrainConfig(units=24, epochs=15, learning_rate=0.02, seed=1,
                         target_mse=1e-12, max_units=9)
    net, trace = grow_until_target(data.inputs, data.targets, cfg)
    assert 4 <= net.n_units <= 9
    assert trace.final_units == net.n_units
    assert len(trace.epoch_mse) == trace.epochs_run


def test_grow_requires_target_and_cap():
    data = sinusoid_windows(n=80, d=4)
    with pytest.raises(ConfigError):
        grow_until_target(data.inputs, data.targets,
                          RbfTrainConfig(units=4, max_units=8))
    with pytest.raises(ConfigError):
        grow_until_target(data.inputs, data.targets,
                          RbfTrainConfig(units=4, target_mse=0.1))
    with pytest.raises(ConfigError, match="requires target_mse and max_units"):
        grow_until_target(data.inputs, data.targets, RbfTrainConfig(units=4))


def test_grow_golden_sinusoid_reaches_target():
    # noiseless seasonal fixture must hit MSE 1e-2 well under the cap
    data = sinusoid_windows(n=240, period=12, d=12, noise=0.0, seed=0)
    cfg = RbfTrainConfig(units=64, epochs=150, learning_rate=0.05,
                         batch_size=32, seed=0, target_mse=1e-2, max_units=64)
    net, trace = grow_until_target(data.inputs, data.targets, cfg)
    assert trace.stop_reason == "target_mse"
    assert trace.best_mse <= 1e-2
    assert net.n_units < 64


# ------------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ConfigError):
        RbfTrainConfig(units=0)
    with pytest.raises(ConfigError):
        RbfTrainConfig(units=4, batch_size=0)
    with pytest.raises(ConfigError):
        RbfTrainConfig(units=4, epochs=0)
    with pytest.raises(ConfigError):
        RbfTrainConfig(units=4, max_units=0)
    with pytest.raises(ConfigError, match="seed"):
        RbfTrainConfig(units=4, seed=-1)
    # growth settings come as a pair
    with pytest.raises(ConfigError, match="both target_mse and max_units"):
        RbfTrainConfig(units=4, target_mse=0.1)
    with pytest.raises(ConfigError, match="both target_mse and max_units"):
        RbfTrainConfig(units=4, max_units=40)
    bad_floats = {
        "learning_rate": (0.0, math.nan, math.inf),
        "target_mse": (0.0, math.nan, math.inf),
    }
    for key, values in bad_floats.items():
        for value in values:
            with pytest.raises(ConfigError, match=key):
                RbfTrainConfig(units=4, **{key: value})


# ------------------------------------------------------------- serialization

def trained_net():
    data = sinusoid_windows(n=80, d=4, noise=0.02)
    net, _ = fit_fixed(
        data.inputs, data.targets,
        RbfTrainConfig(units=5, epochs=10, learning_rate=0.02, seed=4),
    )
    return net


def test_json_round_trip_bit_exact():
    net = trained_net()
    again = from_json(to_json(net))
    assert np.array_equal(again.centers, net.centers)
    assert np.array_equal(again.widths, net.widths)
    assert np.array_equal(again.out_weights, net.out_weights)
    assert again.bias == net.bias


def test_json_document_shape():
    doc = json.loads(to_json(trained_net()))
    assert set(doc) == {"schema_version", "d", "centers", "widths",
                        "out_weights", "bias"}
    assert doc["schema_version"] == 1


def test_file_round_trip(tmp_path):
    net = trained_net()
    path = tmp_path / "net.json"
    save(net, path)
    again = load(path)
    assert np.array_equal(again.out_weights, net.out_weights)


def test_from_json_rejects_bad_version():
    doc = json.loads(to_json(trained_net()))
    doc["schema_version"] = 2
    with pytest.raises(DataError):
        from_json(json.dumps(doc))


@pytest.mark.parametrize("text", ['"centers"', "1", "[]", "null"])
def test_from_json_rejects_non_object(text):
    with pytest.raises(DataError, match="JSON object"):
        from_json(text)
