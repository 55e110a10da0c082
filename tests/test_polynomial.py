"""Monomial basis, closed-form fit, prediction and model serialization.

A single window goes through the same batch paths as many: the design
matrix and rolling_forecast on one-row inputs.
"""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagcast import polynomial
from lagcast.data import TimeSeries, WindowedDataset, make_windows, synth_ar
from lagcast.errors import ConfigError, DataError, FitError
from lagcast.polynomial import (
    MonomialBasis,
    PolynomialModel,
    _design_matrix,
    enumerate_monomials,
    fit,
    from_json,
    load,
    rolling_forecast,
    save,
    to_json,
)


def windows_from(values, d):
    return make_windows(TimeSeries(name="t", values=np.asarray(values, float)), d)


def train_sse(model, data):
    r = rolling_forecast(model, data) - data.targets
    return float(r @ r)


def design_row(basis, x):
    """Monomial feature vector of one window, through the batch design."""
    return _design_matrix(basis, np.asarray(x, float)[None, :])[0]


def forecast_row(model, x):
    """Forecast after one window, through rolling_forecast on one row."""
    x = np.asarray(x, float)
    row = WindowedDataset(window_d=x.size, inputs=x[None, :], targets=np.zeros(1))
    out = rolling_forecast(model, row)
    assert out.shape == (1,)
    return float(out[0])


def noisy_windows(n=400, d=2, seed=0):
    rng = np.random.default_rng(seed)
    vals = np.sin(np.arange(n) / 3.0) + 0.1 * rng.standard_normal(n)
    return windows_from(vals, d)


# --------------------------------------------------------------- enumeration

def test_basis_d2_k2_order():
    b = enumerate_monomials(2, 2)
    assert b.exponents == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def test_basis_univariate_powers():
    b = enumerate_monomials(1, 3)
    assert b.exponents == ((0,), (1,), (2,), (3,))


def test_basis_linear_terms():
    b = enumerate_monomials(3, 1)
    assert b.count == 4
    assert b.exponents == ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_basis_cardinality_full_grid():
    for d in range(1, 7):
        for k in range(1, 6):
            b = enumerate_monomials(d, k)
            assert b.count == math.comb(d + k, k)
            assert len(set(b.exponents)) == b.count
            assert b.exponents[0] == (0,) * d
            degrees = [sum(e) for e in b.exponents]
            assert degrees == sorted(degrees)
            assert all(t <= k for t in degrees)


def test_basis_cap():
    with pytest.raises(ConfigError, match="cap"):
        enumerate_monomials(30, 10)


def test_basis_cap_refuses_huge_d_and_k_at_once():
    # math.comb(2e6, 1e6) alone runs for well over 20 s
    with pytest.raises(ConfigError, match="cap"):
        enumerate_monomials(10 ** 6, 10 ** 6)


def test_basis_bad_args():
    with pytest.raises(ConfigError):
        enumerate_monomials(0, 2)
    with pytest.raises(ConfigError):
        enumerate_monomials(2, 0)


def test_basis_takes_no_exponents():
    with pytest.raises(TypeError):
        MonomialBasis(window_d=2, degree_k=1, exponents=((0, 0), (2, 0)))


@pytest.mark.parametrize("d, k", [(0, 2), (2, 0), (30, 10)])
def test_basis_checks_itself_at_construction(monkeypatch, d, k):
    # each is refused before any term is built: (30, 10) by counting its terms
    def refuse(*args):
        raise AssertionError("enumerated a refused basis")
    monkeypatch.setattr(polynomial, "combinations_with_replacement", refuse)
    with pytest.raises(ConfigError):
        MonomialBasis(d, k)


def test_basis_is_its_window_and_degree():
    assert MonomialBasis(3, 2) == enumerate_monomials(3, 2)
    assert hash(MonomialBasis(3, 2)) == hash(enumerate_monomials(3, 2))
    assert MonomialBasis(3, 2).exponents == enumerate_monomials(3, 2).exponents
    assert MonomialBasis(3, 2) != MonomialBasis(2, 3)


def test_basis_factor_plan_hand_case():
    b = enumerate_monomials(2, 2)
    assert b.factors == ((), ((0, 0),), ((1, 0),), ((0, 1),), ((0, 0), (1, 0)), ((1, 1),))


@pytest.mark.parametrize("d, k", [(1, 3), (3, 2), (8, 2), (4, 5)])
def test_basis_factor_plan_is_built_once_in_ascending_lag_order(d, k):
    canonical = enumerate_monomials(d, k)
    plan = canonical.factors
    assert canonical.factors is plan
    assert len(plan) == canonical.count
    for exp, factors in zip(canonical.exponents, plan):
        lags = [j for j, _ in factors]
        assert lags == sorted(set(lags))
        rebuilt = [0] * d
        for j, i in factors:
            rebuilt[j] = i + 1
        assert tuple(rebuilt) == exp
    # the plan is kept beside the fields: equality and hash are the fields'
    assert canonical == enumerate_monomials(d, k)
    assert hash(canonical) == hash(enumerate_monomials(d, k))


# ------------------------------------------------------------ one-row design

def test_expand_hand_case():
    b = enumerate_monomials(2, 2)
    assert design_row(b, np.array([2.0, 3.0])).tolist() == [1, 2, 3, 4, 6, 9]


def test_expand_zeros():
    b = enumerate_monomials(3, 2)
    v = design_row(b, np.zeros(3))
    assert v[0] == 1.0 and np.all(v[1:] == 0.0)


def test_expand_linear_is_identity_plus_constant():
    b = enumerate_monomials(4, 1)
    x = np.array([2.0, -1.0, 0.5, 7.0])
    assert design_row(b, x).tolist() == [1.0, 2.0, -1.0, 0.5, 7.0]


def test_expand_length_mismatch():
    b = enumerate_monomials(2, 2)
    with pytest.raises(DataError):
        design_row(b, np.array([1.0, 2.0, 3.0]))


def reference_design(basis, inputs, order):
    """The design as a plain loop: each column starts from a column of ones
    and multiplies in each factor from a full table of powers, p = 0 included."""
    n = inputs.shape[0]
    powers = [[np.ones(n)] + [inputs[:, j] ** p for p in range(1, basis.degree_k + 1)]
              for j in range(basis.window_d)]
    m = np.empty((n, basis.count), order=order)
    for col, exp in enumerate(basis.exponents):
        acc = np.ones(n)
        for j, p in enumerate(exp):
            if p:
                acc = acc * powers[j][p]
        m[:, col] = acc
    return m


@pytest.mark.parametrize("d", [1, 3, 8])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_design_bytes_equal_reference_loop(d, k):
    rng = np.random.default_rng([d, k])
    canonical = enumerate_monomials(d, k)
    # huge, tiny and signed zero entries: products overflow to +-inf from
    # k = 2 on, and with two lags or more inf * 0 makes nan from k = 3 on
    extremes = rng.choice([1e200, -1e200, 1e-200, 0.0, -0.0, 3.0], size=(200, d))
    for inputs in (rng.standard_normal((200, d)), extremes):
        for rows in (inputs[:1], inputs):
            for order in "CF":
                with np.errstate(all="ignore"):
                    want = reference_design(canonical, rows, order)
                got = _design_matrix(canonical, rows, order)
                assert got.strides == want.strides
                assert got.tobytes(order="A") == want.tobytes(order="A")
    with np.errstate(all="ignore"):
        overflowed = _design_matrix(canonical, extremes)
    assert np.isinf(overflowed).any() == (k >= 2)
    assert np.isnan(overflowed).any() == (k >= 3 and d >= 2)


# ----------------------------------------------------------------------- fit

def test_fit_noiseless_linear_series():
    # t_i = 2i + 1 satisfies t_{i+2} = 2 t_{i+1} - t_i, so degree 1 on two
    # lags represents it exactly; the design is collinear and the fit must
    # still come back with near-zero residuals via the fallback.
    vals = 2.0 * np.arange(30) + 1.0
    data = windows_from(vals, 2)
    with pytest.warns(UserWarning, match="minimum-norm"):
        model = fit(data, degree_k=1)
    resid = rolling_forecast(model, data) - data.targets
    assert np.max(np.abs(resid)) < 1e-8


def test_fit_constant_series_predicts_the_constant():
    data = windows_from([7.5] * 20, 3)
    with pytest.warns(UserWarning, match="minimum-norm"):
        model = fit(data, degree_k=1)
    preds = rolling_forecast(model, data)
    assert np.allclose(preds, 7.5, atol=1e-9)


def test_fit_recovers_ar_coefficients():
    ts = synth_ar([0.6, 0.3], n=2000, noise_sd=0.05, seed=1)
    model = fit(make_windows(ts, 2), degree_k=1)
    # column order: constant, older lag, newer lag
    assert model.weights[1] == pytest.approx(0.3, abs=0.05)
    assert model.weights[2] == pytest.approx(0.6, abs=0.05)


def test_fit_warns_when_underdetermined():
    data = windows_from(np.sin(np.arange(10.0)), 4)
    with pytest.warns(UserWarning) as caught:
        fit(data, degree_k=3)
    assert len(caught) == 1  # one warning, from the rank lstsq reports
    messages = " / ".join(str(w.message) for w in caught)
    assert "rows" in messages  # too few rows for the basis
    assert "minimum-norm" in messages  # and the fallback actually fired


def test_ridge_fit_with_fewer_rows_than_terms_does_not_warn():
    # the stacked sqrt(lambda) I gives the design full rank
    data = windows_from(np.sin(np.arange(10.0)), 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = fit(data, degree_k=3, ridge_lambda=0.1)
    assert len(data) < model.basis.count


def test_fit_overflow_is_a_fit_error():
    data = windows_from(np.full(12, 1e200), 2)
    with pytest.raises(FitError, match="overflow"):
        fit(data, degree_k=3)


def test_fit_refuses_a_non_finite_window_as_data():
    # NaN at row 0, lag 0 sits in no other row, so the dataset's overlap check passes it
    data = WindowedDataset(2, np.array([[np.nan, 1.0], [1.0, 2.0], [2.0, 3.0]]),
                           np.array([2.0, 3.0, 4.0]))
    with pytest.raises(DataError,
                       match=r"training windows must be finite, got nan at index \(0, 0\)"):
        fit(data, degree_k=1)
    last_target = WindowedDataset(2, data.inputs[1:], np.array([3.0, np.inf]))
    with pytest.raises(DataError, match="training targets must be finite, got inf at index 1"):
        fit(last_target, degree_k=1)


def test_fit_deterministic_bit_identical():
    data = noisy_windows()
    w1 = fit(data, degree_k=2).weights
    w2 = fit(data, degree_k=2).weights
    assert np.array_equal(w1, w2)


def test_fit_ridge_shrinks_weight_norm():
    data = noisy_windows()
    w0 = fit(data, degree_k=3, ridge_lambda=0.0).weights
    w1 = fit(data, degree_k=3, ridge_lambda=100.0).weights
    assert np.linalg.norm(w1) < np.linalg.norm(w0)


def test_fit_single_weight_perturbation_cannot_improve():
    data = noisy_windows()
    model = fit(data, degree_k=2)
    base = train_sse(model, data)
    for j in range(model.basis.count):
        for delta in (1e-3, -1e-3):
            w = model.weights.copy()
            w[j] += delta
            bumped = PolynomialModel(basis=model.basis, weights=w, ridge_lambda=0.0)
            assert train_sse(bumped, data) >= base - 1e-9 * (1.0 + base)


def test_fit_gradient_stationarity():
    data = noisy_windows()
    model = fit(data, degree_k=2)
    m = _design_matrix(model.basis, data.inputs)
    sse = train_sse(model, data)
    grad = 2.0 * m.T @ (m @ model.weights - data.targets)
    assert np.max(np.abs(grad)) <= 1e-5 * (1.0 + sse)


def test_fit_degree_monotone_on_training_sse():
    data = noisy_windows()
    sse = [train_sse(fit(data, degree_k=k), data) for k in (1, 2, 3, 4)]
    for lo, hi in zip(sse[1:], sse[:-1]):
        assert lo <= hi + 1e-8


# ------------------------------------------------------- one-window forecast

@pytest.mark.parametrize("weights, ridge_lambda, match", [
    (np.ones(2), 0.0, r"shape \(2,\), not \(3,\)"),
    (np.ones((1, 3)), 0.0, "model weights must be a non-empty 1-D array"),
    (np.array([1.0, np.nan, 0.0]), 0.0, "model weights must be finite, got nan at index 1"),
    (np.array([1.0, np.inf, 0.0]), 0.0, "model weights must be finite, got inf at index 1"),
    (np.ones(3), -1.0, "lambda"),
    (np.ones(3), float("nan"), "lambda"),
    (np.ones(3), float("inf"), "lambda"),
    (np.ones(3), 10 ** 400, "lambda"),
    (np.ones(3), True, "lambda"),
    (np.ones(3), np.True_, "lambda"),
    (np.ones(3), "0.5", "model lambda must be numbers within float range"),
    ([10 ** 400, 0, 0], 0.0, "model weights must be numbers within float range"),
], ids=["short", "two-dimensional", "nan-weight", "inf-weight", "negative-lambda",
        "nan-lambda", "inf-lambda", "int-past-float-lambda", "boolean-lambda",
        "numpy-boolean-lambda", "text-lambda", "int-past-float-weight"])
def test_model_checks_itself(weights, ridge_lambda, match):
    with pytest.raises(DataError, match=match):
        PolynomialModel(enumerate_monomials(2, 1), weights, ridge_lambda)


def test_model_weights_are_float64():
    model = PolynomialModel(enumerate_monomials(2, 1), [1, -2, 3], 0)
    assert model.weights.dtype == np.float64
    assert model.weights.tolist() == [1.0, -2.0, 3.0]


def test_predict_constant_model():
    b = enumerate_monomials(2, 1)
    model = PolynomialModel(basis=b, weights=np.array([4.2, 0.0, 0.0]),
                            ridge_lambda=0.0)
    assert forecast_row(model, np.array([100.0, -3.0])) == 4.2


def test_predict_linear_series_next_value():
    vals = 2.0 * np.arange(30) + 1.0
    with pytest.warns(UserWarning):
        model = fit(windows_from(vals, 2), degree_k=1)
    assert forecast_row(model, np.array([vals[10], vals[11]])) == pytest.approx(
        vals[12], abs=1e-8
    )


def test_predictions_invariant_to_basis_permutation():
    # the least-squares fit does not depend on the order of the terms
    data = noisy_windows(n=300)
    model = fit(data, degree_k=2)
    perm = [3, 0, 5, 1, 4, 2]
    m = _design_matrix(model.basis, data.inputs)[:, perm]
    w, *_ = np.linalg.lstsq(m, data.targets, rcond=None)
    for row in data.inputs[:25]:
        ours = forecast_row(model, row)
        theirs = float(design_row(model.basis, row)[perm] @ w)
        assert abs(ours - theirs) <= 1e-10 * (1.0 + abs(ours))


def test_predict_length_mismatch():
    model = fit(noisy_windows(), degree_k=1)
    with pytest.raises(DataError):
        forecast_row(model, np.array([1.0, 2.0, 3.0]))


# ----------------------------------------------------------- rolling_forecast

def test_rolling_equals_mapped_predict():
    data = noisy_windows(n=120)
    model = fit(data, degree_k=2)
    rolled = rolling_forecast(model, data)
    mapped = np.array([forecast_row(model, row) for row in data.inputs])
    assert np.allclose(rolled, mapped, atol=1e-12)


def test_rolling_single_row():
    data = noisy_windows(n=60)
    model = fit(data, degree_k=1)
    one = windows_from(np.sin(np.arange(6.0)), 2)
    out = rolling_forecast(model, one)
    assert out.shape == (4,)


def test_rolling_window_mismatch():
    model = fit(noisy_windows(d=2), degree_k=1)
    other = windows_from(np.sin(np.arange(12.0)), 3)
    with pytest.raises(DataError):
        rolling_forecast(model, other)


# ------------------------------------------------------------- serialization

def test_json_round_trip_bit_exact():
    model = fit(noisy_windows(), degree_k=3)
    again = from_json(to_json(model))
    assert np.array_equal(again.weights, model.weights)
    assert again.basis == model.basis
    assert again.ridge_lambda == model.ridge_lambda


@settings(max_examples=50, deadline=None)
@given(data=st.data(), d=st.integers(min_value=1, max_value=8),
       k=st.integers(min_value=1, max_value=4),
       ridge_lambda=st.one_of(st.floats(min_value=0.0, allow_infinity=False),
                              st.integers(min_value=0, max_value=10 ** 6)))
def test_every_accepted_model_round_trips(data, d, k, ridge_lambda):
    basis = enumerate_monomials(d, k)
    weights = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                 min_size=basis.count, max_size=basis.count))
    model = PolynomialModel(basis, np.array(weights), ridge_lambda)
    again = from_json(to_json(model))
    assert again.basis == model.basis
    assert again.basis.exponents == model.basis.exponents
    assert again.weights.dtype == model.weights.dtype
    assert again.weights.tobytes() == model.weights.tobytes()
    assert again.ridge_lambda == model.ridge_lambda


def test_json_document_shape():
    doc = json.loads(to_json(fit(noisy_windows(), degree_k=1)))
    assert set(doc) == {"schema_version", "d", "K", "lambda", "exponents", "weights"}
    assert doc["schema_version"] == 1
    assert doc["d"] == 2 and doc["K"] == 1


def test_file_round_trip(tmp_path):
    model = fit(noisy_windows(), degree_k=2)
    path = tmp_path / "model.json"
    save(model, path)
    again = load(path)
    assert np.array_equal(again.weights, model.weights)


def test_load_missing_file_is_a_data_error(tmp_path):
    path = tmp_path / "absent.json"
    with pytest.raises(DataError) as err:
        load(path)
    assert str(path) in str(err.value)


def test_load_undecodable_file_is_a_data_error(tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(b'{"weights": "\xb0"}')
    with pytest.raises(DataError) as err:
        load(path)
    assert str(path) in str(err.value)


def test_from_json_rejects_bad_version():
    doc = json.loads(to_json(fit(noisy_windows(), degree_k=1)))
    doc["schema_version"] = 99
    with pytest.raises(DataError, match="schema_version"):
        from_json(json.dumps(doc))


def test_from_json_rejects_mangled_exponents():
    doc = json.loads(to_json(fit(noisy_windows(), degree_k=1)))
    doc["exponents"] = doc["exponents"][::-1]
    with pytest.raises(DataError, match="exponents"):
        from_json(json.dumps(doc))


def test_from_json_rejects_weight_count_mismatch():
    doc = json.loads(to_json(fit(noisy_windows(), degree_k=1)))
    doc["weights"] = doc["weights"][:-1]
    with pytest.raises(DataError):
        from_json(json.dumps(doc))


def test_from_json_rejects_non_json():
    with pytest.raises(DataError):
        from_json("{not json")


@pytest.mark.parametrize("text", ['"exponents"', "1", "[]", "null"])
def test_from_json_rejects_non_object(text):
    with pytest.raises(DataError, match="JSON object"):
        from_json(text)
