"""Monomial basis, closed-form fit, prediction and model serialization.

A single window goes through the same batch paths as many: the design
matrix and rolling_forecast on one-row inputs.
"""

import json
import math
import warnings

import numpy as np
import pytest

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
    data = noisy_windows(n=300)
    model = fit(data, degree_k=2)
    perm = [3, 0, 5, 1, 4, 2]
    shuffled = MonomialBasis(
        window_d=2, degree_k=2,
        exponents=tuple(model.basis.exponents[i] for i in perm),
    )
    m = _design_matrix(shuffled, data.inputs)
    w, *_ = np.linalg.lstsq(m, data.targets, rcond=None)
    for row in data.inputs[:25]:
        ours = forecast_row(model, row)
        theirs = float(design_row(shuffled, row) @ w)
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
