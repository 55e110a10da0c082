"""Central-difference gradients: the numeric oracle for analytic gradients."""

import numpy as np

from lagcast.errors import FitError


def finite_diff_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    if h <= 0:
        raise FitError(f"step h must be positive, got {h}")
    g = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        hi = f(x + step)
        lo = f(x - step)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise FitError(f"finite_diff_gradient: f is non-finite near coordinate {i}")
        g[i] = (hi - lo) / (2.0 * h)
    return g
