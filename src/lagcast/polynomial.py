"""Polynomial one-step forecaster over lag windows.

The model expands each window of d lagged values into every monomial of
total degree at most K, then fits the expansion weights by one
least-squares solve on the design matrix.  Fitting is closed form; there
is no iterative training loop.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np

from .data import (WindowedDataset, float_array, int_value, read_model_document, read_text,
                   take_numbers, write_model_document)
from .errors import ConfigError, DataError, FitError

DEFAULT_BASIS_CAP = 100_000


@dataclass(frozen=True)
class MonomialBasis:
    """Every monomial of total degree <= K over d lags: (d, K) fix them all.

    exponents, derived at construction, is ordered by ascending total
    degree; within a degree, earlier lags get higher exponents first.
    The constant term is always first, so the basis of (d=2, K=2) reads
    1, y1, y2, y1^2, y1*y2, y2^2.  factors, _design_matrix's plan, lists per
    term the (lag, power - 1) pair of each nonzero exponent, lags ascending.
    """

    window_d: int
    degree_k: int
    exponents: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    factors: tuple[tuple[tuple[int, int], ...], ...] = field(init=False, compare=False, repr=False)

    _NUMBERS = {"window_d": (int_value, "window_d", 1), "degree_k": (int_value, "degree_k", 1)}

    def __post_init__(self):
        take_numbers(self, ConfigError)
        d, k = self.window_d, self.degree_k
        # C(d + k, k) one factor at a time: a huge d and K stop at the cap, not in math.comb
        total = 1
        for i in range(1, min(d, k) + 1):
            total = total * (max(d, k) + i) // i
            if total > DEFAULT_BASIS_CAP:
                raise ConfigError(f"basis for d={d}, K={k} has more than "
                                  f"{DEFAULT_BASIS_CAP} terms (the cap)")
        # a term is the term of its lags but the last, j (no earlier than theirs), times
        # lag j: its last factor (j, p - 1), if lag j has power p > 0 there, becomes (j, p)
        terms = {(): ((0,) * d, ())}
        for degree in range(1, k + 1):
            for combo in combinations_with_replacement(range(d), degree):
                (exps, factors), j = terms[combo[:-1]], combo[-1]
                terms[combo] = (exps[:j] + (exps[j] + 1,) + exps[j + 1:],
                                (factors[:-1] if exps[j] else factors) + ((j, exps[j]),))
        assert len(terms) == total
        exponents, factors = zip(*terms.values())
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "factors", factors)

    @property
    def count(self) -> int:
        return len(self.exponents)


def enumerate_monomials(d: int, k: int) -> MonomialBasis:
    """The monomial basis for window size d and max degree k."""
    return MonomialBasis(d, k)


def _design_matrix(basis: MonomialBasis, inputs: np.ndarray) -> np.ndarray:
    """Evaluate every basis monomial on every row of a float64 (N, d) array,
    such as a WindowedDataset's inputs.

    A column is the product of its factors, lags[j] ** p for each lag j
    with a nonzero exponent p, taken in ascending lag order, as the
    basis's factor plan (MonomialBasis.factors) lists them; the constant,
    always term 0, is a column of 1.0.  The product starts from its
    first factor: 1.0 * x is exactly x for every float, inf and nan
    included, so a column has the bits of 1.0 * a * b * ... in that
    order, and a column of ones to start from would only cost an
    allocation and a multiply.  A one-factor column is that power,
    copied in; the last multiply of a longer product writes straight
    into its column, with no temporary to copy.  A lag's first power is
    its column itself, copied once contiguous, because products of
    strided views of a many-row input run slower.

    The design is column-major, with each column computed on its own
    and written as one contiguous run: LAPACK works on columns, and lstsq
    copies any other layout into that order first.
    """
    if inputs.shape[1] != basis.window_d:
        raise DataError(
            f"inputs have {inputs.shape[1]} lags, basis expects {basis.window_d}"
        )
    n = inputs.shape[0]
    # Overflow surfaces as a FitError from the finiteness check in fit();
    # numpy's own warning would just duplicate it.
    with np.errstate(over="ignore", invalid="ignore"):
        # power tables: powers[j][p - 1] = inputs[:, j] ** p
        powers = [[x] + [x ** p for p in range(2, basis.degree_k + 1)]
                  for x in np.ascontiguousarray(inputs.T)]
        m = np.empty((n, basis.count), order="F")
        m[:, 0] = 1.0
        for col, factors in enumerate(basis.factors[1:], start=1):
            if len(factors) == 1:
                (j, i), = factors
                m[:, col] = powers[j][i]
            else:
                (j, i), *middle, (last_j, last_i) = factors
                acc = powers[j][i]
                for j, i in middle:
                    acc = acc * powers[j][i]
                np.multiply(acc, powers[last_j][last_i], out=m[:, col])
    return m


@dataclass(frozen=True)
class PolynomialModel:
    basis: MonomialBasis
    weights: np.ndarray
    ridge_lambda: float

    _NUMBERS = {"weights": (float_array, "model weights", 1),
                "ridge_lambda": (float_array, "model lambda", 0)}

    def __post_init__(self):
        take_numbers(self)
        if (shape := self.weights.shape) != (self.basis.count,):
            raise DataError(f"model weights have shape {shape}, not ({self.basis.count},)")
        if self.ridge_lambda < 0:
            raise DataError(f"model lambda must be a number >= 0, got {self.ridge_lambda}")


def fit(data: WindowedDataset, degree_k: int, ridge_lambda: float = 0.0) -> PolynomialModel:
    """Closed-form least-squares fit of the monomial expansion.

    Minimizes |M w - t|^2 + lambda |w|^2 by an SVD-based least-squares
    solve on the design itself, stacked over sqrt(lambda) I when
    lambda > 0; forming M^T M would square its condition number.  The
    stack is built column-major, as the design is (see _design_matrix).
    The rank lstsq reports alone decides rank deficiency: constant or
    exactly collinear windows, or fewer rows than terms, at lambda = 0 (or
    a lambda too small to lift the rank).  The result is then the
    minimum-norm least-squares solution, with one warning, since every
    least-squares solution predicts identically on the training span.  A
    basis of more than DEFAULT_BASIS_CAP terms is a ConfigError.
    """
    lam = float_array(ridge_lambda, "ridge_lambda", ndim=0, error=FitError)
    if lam < 0:
        raise FitError(f"ridge_lambda must be >= 0, got {ridge_lambda}")
    basis = enumerate_monomials(data.window_d, degree_k)
    # a NaN window would otherwise surface as an overflowed design below
    float_array(data.inputs, "training windows", ndim=2)
    float_array(data.targets, "training targets", ndim=1)
    m = _design_matrix(basis, data.inputs)
    if not np.all(np.isfinite(m)):
        raise FitError(
            f"design matrix for degree {degree_k} overflowed; "
            "rescale the series or lower the degree"
        )
    t = data.targets
    if lam > 0:
        m = np.concatenate([m, math.sqrt(lam) * np.eye(basis.count)],
                           out=np.empty((len(data) + basis.count, basis.count), order="F"))
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
    return PolynomialModel(basis=basis, weights=w, ridge_lambda=lam)


def rolling_forecast(model: PolynomialModel, test: WindowedDataset) -> np.ndarray:
    """One-step-ahead forecasts for every test row.

    Each row of true lagged values yields one prediction; forecasts are
    never fed back in, so errors cannot compound.  A single window is
    forecast as a one-row dataset.  Its design row has the same bits as
    inside a batch, but its forecast can differ from the batch's in the
    last bits: BLAS sums a one-row matrix-vector product in another order
    than a many-row one (at degree 3 on the README series, every one of
    48 test rows, by up to 1.7e-10).  The product takes the design
    row-major; a one-row design is both layouts, so it is not copied.
    """
    return np.ascontiguousarray(_design_matrix(model.basis, test.inputs)) @ model.weights


def to_json(model: PolynomialModel) -> str:
    """Serialize with full float precision; round-trips bit exact."""
    return write_model_document({
        "d": model.basis.window_d, "K": model.basis.degree_k, "lambda": model.ridge_lambda,
        "exponents": model.basis.exponents, "weights": model.weights})


def from_document(fields: dict) -> PolynomialModel:
    """The model of a polynomial document's fields, as read_model_document returns them."""
    try:
        basis = enumerate_monomials(fields["d"], fields["K"])
    except ConfigError as exc:
        raise DataError(f"model document has no usable basis: {exc}") from exc
    if not np.array_equal(fields["exponents"], basis.exponents):
        raise DataError("model exponents do not match the canonical basis for (d, K)")
    return PolynomialModel(basis, fields["weights"], fields["lambda"])


def from_json(text: str) -> PolynomialModel:
    return from_document(read_model_document(text, "a polynomial")[1])


def save(model: PolynomialModel, path: str | Path):
    Path(path).write_text(to_json(model), encoding="utf-8")


def load(path: str | Path) -> PolynomialModel:
    return from_json(read_text(path))
