"""Polynomial one-step forecaster over lag windows.

The model expands each window of d lagged values into every monomial of
total degree at most K, then fits the expansion weights by one
least-squares solve on the design matrix.  Fitting is closed form; there
is no iterative training loop.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np

from .data import WindowedDataset
from .errors import ConfigError, DataError, FitError

MODEL_SCHEMA_VERSION = 1
DEFAULT_BASIS_CAP = 100_000


@dataclass(frozen=True)
class MonomialBasis:
    """All exponent tuples over d variables with total degree <= K.

    Ordered by ascending total degree; within a degree, earlier lags get
    higher exponents first.  The constant term is always first, so the
    basis of (d=2, K=2) reads 1, y1, y2, y1^2, y1*y2, y2^2.
    """

    window_d: int
    degree_k: int
    exponents: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.exponents)


def enumerate_monomials(d: int, k: int) -> MonomialBasis:
    """Build the canonical monomial basis for window size d and max degree k."""
    if d < 1:
        raise ConfigError(f"window size d must be >= 1, got {d}")
    if k < 1:
        raise ConfigError(f"degree k must be >= 1, got {k}")
    # C(d + k, k) one factor at a time, so that a huge d and K stop at the
    # cap rather than inside a long math.comb
    total = 1
    for i in range(1, min(d, k) + 1):
        total = total * (max(d, k) + i) // i
        if total > DEFAULT_BASIS_CAP:
            raise ConfigError(
                f"basis for d={d}, K={k} has more than {DEFAULT_BASIS_CAP} terms (the cap)"
            )
    exps: list[tuple[int, ...]] = [(0,) * d]
    for degree in range(1, k + 1):
        for combo in combinations_with_replacement(range(d), degree):
            e = [0] * d
            for var in combo:
                e[var] += 1
            exps.append(tuple(e))
    assert len(exps) == total
    return MonomialBasis(window_d=d, degree_k=k, exponents=tuple(exps))


def _design_matrix(basis: MonomialBasis, inputs: np.ndarray) -> np.ndarray:
    """Evaluate every basis monomial on every input row."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if inputs.shape[1] != basis.window_d:
        raise DataError(
            f"inputs have {inputs.shape[1]} lags, basis expects {basis.window_d}"
        )
    n = inputs.shape[0]
    # Overflow surfaces as a FitError from the finiteness check in fit();
    # numpy's own warning would just duplicate it.
    with np.errstate(over="ignore", invalid="ignore"):
        # power tables: powers[j][p] = inputs[:, j] ** p
        powers = [
            [np.ones(n)] + [inputs[:, j] ** p for p in range(1, basis.degree_k + 1)]
            for j in range(basis.window_d)
        ]
        m = np.empty((n, basis.count))
        for col, exp in enumerate(basis.exponents):
            acc = np.ones(n)
            for j, p in enumerate(exp):
                if p:
                    acc = acc * powers[j][p]
            m[:, col] = acc
    return m


@dataclass(frozen=True)
class PolynomialModel:
    basis: MonomialBasis
    weights: np.ndarray
    ridge_lambda: float


def fit(data: WindowedDataset, degree_k: int, ridge_lambda: float = 0.0) -> PolynomialModel:
    """Closed-form least-squares fit of the monomial expansion.

    Minimizes |M w - t|^2 + lambda |w|^2 by an SVD-based least-squares
    solve on the design itself, stacked over sqrt(lambda) I when
    lambda > 0; forming M^T M would square its condition number.  The
    rank lstsq reports alone decides rank deficiency: constant or
    exactly collinear windows, or fewer rows than terms, at lambda = 0
    (or a lambda too small to lift the rank).  The result is then the
    minimum-norm least-squares solution, with one warning, since every
    least-squares solution predicts identically on the training span.
    A basis of more than DEFAULT_BASIS_CAP terms is a ConfigError.
    """
    if not 0.0 <= ridge_lambda < math.inf:
        raise FitError(f"ridge_lambda must be finite and >= 0, got {ridge_lambda}")
    basis = enumerate_monomials(data.window_d, degree_k)
    m = _design_matrix(basis, data.inputs)
    if not np.all(np.isfinite(m)):
        raise FitError(
            f"design matrix for degree {degree_k} overflowed; "
            "rescale the series or lower the degree"
        )
    t = data.targets
    if ridge_lambda > 0:
        m = np.vstack([m, math.sqrt(ridge_lambda) * np.eye(basis.count)])
        t = np.concatenate([t, np.zeros(basis.count)])
    w, _, rank, _ = np.linalg.lstsq(m, t, rcond=None)
    if rank < basis.count:
        warnings.warn(
            f"design for degree {degree_k} has rank {rank} of {basis.count} terms "
            f"from {len(data)} rows; using the minimum-norm least-squares solution "
            "(lower the degree, add rows, or raise ridge_lambda)",
            stacklevel=2,
        )
    if not np.all(np.isfinite(w)):
        raise FitError(f"fit for degree {degree_k} produced non-finite weights")
    return PolynomialModel(basis=basis, weights=w, ridge_lambda=float(ridge_lambda))


def rolling_forecast(model: PolynomialModel, test: WindowedDataset) -> np.ndarray:
    """One-step-ahead forecasts for every test row.

    Each row of true lagged values yields one prediction; forecasts are
    never fed back in, so errors cannot compound.  A single window is
    forecast as a one-row dataset.
    """
    if test.window_d != model.basis.window_d:
        raise DataError(
            f"model expects windows of {model.basis.window_d}, got {test.window_d}"
        )
    return _design_matrix(model.basis, test.inputs) @ model.weights


def to_json(model: PolynomialModel) -> str:
    """Serialize with full float precision; round-trips bit exact."""
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "d": model.basis.window_d,
        "K": model.basis.degree_k,
        "lambda": model.ridge_lambda,
        "exponents": [list(e) for e in model.basis.exponents],
        "weights": [float(w) for w in model.weights],
    }
    return json.dumps(doc, indent=2)


def from_json(text: str) -> PolynomialModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"model document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError("model document must be a JSON object")
    if doc.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise DataError(f"unsupported model schema_version {doc.get('schema_version')!r}")
    for key in ("d", "K", "lambda", "exponents", "weights"):
        if key not in doc:
            raise DataError(f"model document missing field {key!r}")
    try:
        basis = enumerate_monomials(int(doc["d"]), int(doc["K"]))
        stored = tuple(tuple(int(p) for p in e) for e in doc["exponents"])
        weights = np.array([float(w) for w in doc["weights"]])
        ridge_lambda = float(doc["lambda"])
    except (ValueError, TypeError) as exc:
        raise DataError(f"model document has a malformed field: {exc}") from exc
    if stored != basis.exponents:
        raise DataError("model exponents do not match the canonical basis for (d, K)")
    if weights.size != basis.count:
        raise DataError(
            f"model has {weights.size} weights for a basis of {basis.count} terms"
        )
    if not np.all(np.isfinite(weights)):
        raise DataError("model weights must be finite")
    return PolynomialModel(basis=basis, weights=weights, ridge_lambda=ridge_lambda)


def save(model: PolynomialModel, path: str | Path):
    Path(path).write_text(to_json(model))


def load(path: str | Path) -> PolynomialModel:
    return from_json(Path(path).read_text())
