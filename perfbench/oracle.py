"""Reference computations made apart from lagcast, with NumPy only.

Every check the benchmark makes compares the program's output with one of
these functions, or with a property the method must have.  Nothing here
imports lagcast, and nothing here is a stored copy of earlier output.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

import numpy as np


def split_windows(values: np.ndarray, d: int, train_fraction: float):
    """Lag windows cut at floor(n * train_fraction), as the harness documents it.

    Training rows are those whose target lies inside the training span;
    the remaining rows are the test rows.
    """
    n = values.size
    boundary = math.floor(n * train_fraction) - d
    idx = np.arange(n - d)[:, None] + np.arange(d)[None, :]
    x, y = values[idx], values[d:]
    return (x[:boundary], y[:boundary]), (x[boundary:], y[boundary:])


def monomial_design(x: np.ndarray, degree: int) -> np.ndarray:
    """Every monomial of total degree <= degree over the columns of x."""
    cols = [np.ones(x.shape[0])]
    for k in range(1, degree + 1):
        for combo in combinations_with_replacement(range(x.shape[1]), k):
            cols.append(np.prod(x[:, combo], axis=1))
    return np.column_stack(cols)


def error_metrics(observed: np.ndarray, predicted: np.ndarray) -> dict:
    err = observed - predicted
    rmse = float(np.sqrt(np.mean(err ** 2)))
    return {"mae": float(np.mean(np.abs(err))), "rmse": rmse,
            "cv_rmse_pct": 100.0 * rmse / float(np.mean(observed))}


def lstsq_metrics(train, test, degree: int) -> dict:
    """Test MAE/RMSE/CV(RMSE) of the least-squares polynomial, solved by SVD."""
    w, *_ = np.linalg.lstsq(monomial_design(train[0], degree), train[1], rcond=None)
    return error_metrics(test[1], monomial_design(test[0], degree) @ w)


def gaussian_phi(x: np.ndarray, centers: np.ndarray, widths: np.ndarray) -> np.ndarray:
    sq = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-sq / (2.0 * widths ** 2))


def gaussian_forward(x, centers, widths, weights, bias) -> np.ndarray:
    return gaussian_phi(x, centers, widths) @ weights + bias


def neighbour_widths(centers: np.ndarray, fallback: float | None = None,
                     p: int = 2) -> np.ndarray:
    """Mean Euclidean distance from each center to its p nearest other centers.

    Where coincident centers make that mean zero, set_widths documents a
    fallback to the spread of the training inputs; pass it as `fallback`.
    """
    out = np.empty(centers.shape[0])
    for j, c in enumerate(centers):
        dist = np.sqrt(((np.delete(centers, j, axis=0) - c) ** 2).sum(axis=1))
        out[j] = np.sort(dist)[:p].mean()
    if fallback is not None:
        out[out == 0.0] = fallback
    return out


def output_layer_optimum(x, y, centers, widths) -> float:
    """Least MSE any output layer can reach on [phi, 1] for fixed centers and widths."""
    phi = np.column_stack([gaussian_phi(x, centers, widths), np.ones(x.shape[0])])
    w, *_ = np.linalg.lstsq(phi, y, rcond=None)
    return float(np.mean((phi @ w - y) ** 2))


def eval_poly_doc(doc: dict, x: np.ndarray) -> np.ndarray:
    """Forecasts of a polynomial model document: sum_j w_j prod_i x_i^e_ji."""
    exps = np.asarray(doc["exponents"], dtype=np.int64)
    weights = np.asarray(doc["weights"], dtype=np.float64)
    out = np.zeros(x.shape[0])
    for e, w in zip(exps, weights):
        out += w * np.prod(x ** e, axis=1)
    return out


def eval_rbf_doc(doc: dict, x: np.ndarray) -> np.ndarray:
    return gaussian_forward(x, np.asarray(doc["centers"], dtype=np.float64),
                            np.asarray(doc["widths"], dtype=np.float64),
                            np.asarray(doc["out_weights"], dtype=np.float64),
                            float(doc["bias"]))


def expected_verdict(report: dict) -> str:
    """The verdict a comparison report must carry, from its own p_value and alpha.

    The paired t-test decides; the Wilcoxon test decides only when the
    t-test is absent.  Effect direction +1 means PC errors ran larger.
    """
    primary = report["tests"]["paired_t"] or report["tests"]["wilcoxon"]
    if primary is None or primary["p_value"] >= report["alpha"] \
            or primary["effect_direction"] == 0:
        return "no_significant_difference"
    return "RBFNN_better" if primary["effect_direction"] > 0 else "PC_better"


def close(actual, expected, rtol: float) -> np.ndarray:
    """Elementwise agreement, relative to the larger of |expected| and 1."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    return np.abs(actual - expected) <= rtol * np.maximum(np.abs(expected), 1.0)
