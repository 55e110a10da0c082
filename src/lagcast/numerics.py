"""Optimization primitives: the RMSprop step and finite differences.

Arrays are plain float64 numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import FitError


@dataclass(frozen=True)
class RmspropState:
    """Running squared-gradient accumulator plus the two smoothing knobs."""

    accum: np.ndarray
    decay_rho: float = 0.9
    epsilon: float = 1e-8

    def __post_init__(self):
        if not (0.0 <= self.decay_rho < 1.0):
            raise FitError(f"decay_rho must be in [0, 1), got {self.decay_rho}")
        if self.epsilon <= 0:
            raise FitError(f"epsilon must be positive, got {self.epsilon}")
        if np.any(self.accum < 0):
            raise FitError("accumulator entries must be >= 0")

    @classmethod
    def zeros(cls, n_params: int, decay_rho: float = 0.9, epsilon: float = 1e-8) -> "RmspropState":
        return cls(accum=np.zeros(n_params), decay_rho=decay_rho, epsilon=epsilon)


def rmsprop_step(state: RmspropState, params: np.ndarray, grads: np.ndarray,
                 learning_rate: float) -> tuple[RmspropState, np.ndarray]:
    """One RMSprop update; pure function of its inputs.

    accum' = rho * accum + (1 - rho) * g^2
    params' = params - lr * g / (sqrt(accum') + eps)
    """
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != state.accum.shape:
        raise FitError("rmsprop_step: params, grads and accumulator shapes must match")
    if learning_rate <= 0:
        raise FitError(f"learning_rate must be positive, got {learning_rate}")
    if not np.all(np.isfinite(grads)):
        raise FitError("rmsprop_step: non-finite gradient (learning rate likely too high)")
    accum = state.decay_rho * state.accum + (1.0 - state.decay_rho) * grads**2
    new_params = params - learning_rate * grads / (np.sqrt(accum) + state.epsilon)
    return replace(state, accum=accum), new_params


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
