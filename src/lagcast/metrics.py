"""Forecast error metrics and wall-clock timing."""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import float_array
from .errors import DataError, UndefinedMetricError

# |mean| at or below this is treated as zero for CV(RMSE)
_MEAN_FLOOR = 1e-12


def _paired(observed, predicted) -> tuple[np.ndarray, np.ndarray]:
    """The one check of paired inputs, for these metrics and stats' paired tests."""
    obs = float_array(observed, "paired inputs", ndim=1)
    pred = float_array(predicted, "paired inputs", ndim=1)
    if obs.size != pred.size:
        raise DataError(f"paired inputs differ in length: {obs.size} vs {pred.size}")
    return obs, pred


def mae(observed, predicted) -> float:
    """Mean absolute error."""
    obs, pred = _paired(observed, predicted)
    return float(np.mean(np.abs(obs - pred)))


def rmse(observed, predicted) -> float:
    """Root mean squared error; never below the MAE of the same pair."""
    obs, pred = _paired(observed, predicted)
    return float(np.sqrt(np.mean((obs - pred) ** 2)))


def cv_rmse(observed, predicted) -> float:
    """RMSE as a percentage of the mean observed value.

    Undefined when the observed mean is zero (within 1e-12).  A negative
    mean makes the percentage negative; that is reported as-is with a
    warning so series centered below zero are not silently misread.
    """
    obs, pred = _paired(observed, predicted)
    mean_obs = float(np.mean(obs))
    if abs(mean_obs) <= _MEAN_FLOOR:
        raise UndefinedMetricError(
            "CV(RMSE) is undefined: observed mean is zero within 1e-12"
        )
    if mean_obs < 0:
        warnings.warn(
            "observed mean is negative; CV(RMSE) will be negative and is "
            "hard to compare across series",
            stacklevel=2,
        )
    return 100.0 * rmse(obs, pred) / mean_obs


@dataclass(frozen=True)
class MetricReport:
    """The three error metrics plus the number of points they cover."""

    mae: float
    rmse: float
    cv_rmse_pct: float
    n: int


def metric_report(observed, predicted) -> MetricReport:
    obs, pred = _paired(observed, predicted)
    return MetricReport(
        mae=mae(obs, pred),
        rmse=rmse(obs, pred),
        cv_rmse_pct=cv_rmse(obs, pred),
        n=int(obs.size),
    )


@dataclass(frozen=True)
class TimedResult:
    value: object
    seconds: float


def timed(action: Callable[[], object]) -> TimedResult:
    """Run action once, measuring wall time with a monotonic clock.

    Only the callable itself is timed; its exceptions propagate unchanged.
    """
    start = time.perf_counter()
    value = action()
    return TimedResult(value=value, seconds=time.perf_counter() - start)
