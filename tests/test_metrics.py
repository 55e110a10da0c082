"""Error metrics and the wall-clock timer."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lagcast.errors import DataError, UndefinedMetricError
from lagcast.metrics import MetricReport, cv_rmse, mae, metric_report, rmse, timed

finite_pairs = st.lists(
    st.tuples(st.floats(-1e8, 1e8), st.floats(-1e8, 1e8)),
    min_size=1,
    max_size=50,
)


def unzip(pairs):
    obs, pred = zip(*pairs)
    return np.array(obs), np.array(pred)


# ----------------------------------------------------------------------- mae

def test_mae_zero_when_equal():
    v = np.array([1.0, 2.0, 3.0])
    assert mae(v, v) == 0.0


def test_mae_hand_case():
    assert mae([1, 2, 3], [2, 2, 2]) == pytest.approx(2.0 / 3.0, abs=1e-15)


@given(finite_pairs)
def test_mae_symmetric(pairs):
    a, b = unzip(pairs)
    assert mae(a, b) == mae(b, a)


# ---------------------------------------------------------------------- rmse

def test_rmse_zero_when_equal():
    v = np.array([5.0, 6.0])
    assert rmse(v, v) == 0.0


def test_rmse_hand_case():
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5), abs=1e-12)


@given(finite_pairs)
def test_mae_never_exceeds_rmse(pairs):
    a, b = unzip(pairs)
    assert mae(a, b) <= rmse(a, b) + 1e-12


# ------------------------------------------------------------------- cv_rmse

def test_cv_zero_when_equal():
    v = np.array([5.0, 6.0])
    assert cv_rmse(v, v) == 0.0


def test_cv_formats_like_the_gold_fixture():
    target_rmse, target_cv = 30.5953, 1.6603
    mean = 100.0 * target_rmse / target_cv
    obs = np.array([mean, mean])
    pred = np.array([mean - target_rmse, mean + target_rmse])
    assert f"{rmse(obs, pred):.4f}" == "30.5953"
    assert f"{cv_rmse(obs, pred):.4f}" == "1.6603"


def test_cv_formats_like_the_crude_oil_fixture():
    target_rmse, target_cv = 2.0698, 2.7865
    mean = 100.0 * target_rmse / target_cv
    obs = np.array([mean, mean])
    pred = np.array([mean - target_rmse, mean + target_rmse])
    assert f"{cv_rmse(obs, pred):.4f}" == "2.7865"


def test_cv_near_zero_mean_is_an_error():
    with pytest.raises(UndefinedMetricError):
        cv_rmse([1.0, -1.0], [0.0, 0.0])


def test_cv_negative_mean_warns_and_returns_negative():
    with pytest.warns(UserWarning):
        v = cv_rmse([-4.0, -6.0], [-3.0, -5.0])
    assert v < 0


# ---------------------------------------------------------------- properties

@given(finite_pairs, st.floats(min_value=0.1, max_value=100.0))
def test_scale_equivariance(pairs, c):
    a, b = unzip(pairs)
    assert mae(c * a, c * b) == pytest.approx(c * mae(a, b), rel=1e-9, abs=1e-9)
    assert rmse(c * a, c * b) == pytest.approx(c * rmse(a, b), rel=1e-9, abs=1e-9)


def test_cv_invariant_under_positive_scaling():
    obs = np.array([10.0, 12.0, 9.0])
    pred = np.array([11.0, 10.0, 9.5])
    assert cv_rmse(3.0 * obs, 3.0 * pred) == pytest.approx(
        cv_rmse(obs, pred), rel=1e-12
    )


@given(finite_pairs, st.floats(min_value=-50.0, max_value=50.0))
def test_translation_invariance_of_mae_rmse(pairs, shift):
    a, b = unzip(pairs)
    assert mae(a + shift, b + shift) == pytest.approx(mae(a, b), rel=1e-6, abs=1e-6)
    assert rmse(a + shift, b + shift) == pytest.approx(rmse(a, b), rel=1e-6, abs=1e-6)


def test_cv_is_not_translation_invariant():
    obs = np.array([10.0, 12.0])
    pred = np.array([11.0, 11.0])
    assert cv_rmse(obs + 100.0, pred + 100.0) != pytest.approx(
        cv_rmse(obs, pred), rel=1e-6
    )


# -------------------------------------------------------------- input checks

def test_length_mismatch():
    for f in (mae, rmse, cv_rmse):
        with pytest.raises(DataError):
            f([1.0, 2.0], [1.0])


def test_empty_is_an_error():
    for f in (mae, rmse, cv_rmse):
        with pytest.raises(DataError):
            f([], [])


def test_2d_is_an_error():
    with pytest.raises(DataError, match="paired inputs must be a non-empty 1-D array"):
        mae([[1.0, 2.0]], [[1.0, 2.0]])


def test_nonfinite_is_an_error():
    with pytest.raises(DataError):
        mae([np.nan], [1.0])


# ------------------------------------------------------------- metric_report

def test_metric_report_fields():
    rep = metric_report([10.0, 12.0, 9.0], [11.0, 10.0, 9.5])
    assert isinstance(rep, MetricReport)
    assert rep.n == 3
    assert 0.0 <= rep.mae <= rep.rmse
    assert rep.cv_rmse_pct == pytest.approx(
        100.0 * rep.rmse / np.mean([10.0, 12.0, 9.0]), rel=1e-12
    )


# --------------------------------------------------------------------- timed

def test_timed_noop_is_fast():
    r = timed(lambda: 42)
    assert r.value == 42
    assert 0.0 <= r.seconds < 0.1


def test_timed_sleep_calibration():
    r = timed(lambda: time.sleep(0.05))
    assert 0.05 <= r.seconds <= 0.5


def test_timed_nesting_outer_at_least_inner():
    inner_box = {}

    def job():
        inner_box["r"] = timed(lambda: time.sleep(0.01))
        return 1

    outer = timed(job)
    assert outer.seconds >= inner_box["r"].seconds


def test_timed_propagates_errors_unchanged():
    def boom():
        raise ValueError("nope")

    with pytest.raises(ValueError, match="nope") as info:
        timed(boom)
    assert getattr(info.value, "__notes__", None) is None


def test_timed_result_is_frozen():
    r = timed(lambda: 1)
    with pytest.raises(AttributeError):
        r.seconds = 0.0
