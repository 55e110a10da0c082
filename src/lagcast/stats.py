"""Paired significance tests for comparing per-point forecast errors.

Two tests over the same pairing: Student's paired t and the Wilcoxon
signed-rank test.  For small tie-free samples the Wilcoxon p-value is
computed exactly over the full sign-assignment distribution using
integer counts, so it is a true rational number before any float ever
appears.  The t tail is evaluated through the regularized incomplete
beta function with a Lentz continued fraction; no lookup tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .data import float_array
from .errors import ConfigError, DataError, DegenerateSampleError
from .metrics import _paired

# continued-fraction evaluation
_CF_MAX_ITER = 2000
_CF_EPS = 1e-16
_CF_TINY = 1e-300

# exact Wilcoxon path is taken up to this many nonzero differences
EXACT_WILCOXON_LIMIT = 20


def _betacf(a: float, b: float, x: float) -> float:
    """Lentz evaluation of the continued fraction for the incomplete beta."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        # the even then the odd coefficient of step m; convergence is
        # judged on the odd half-step's factor
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _CF_TINY:
                d = _CF_TINY
            c = 1.0 + aa / c
            if abs(c) < _CF_TINY:
                c = _CF_TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction failed to converge (a={a}, b={b}, x={x})"
    )


def _reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf(t: float, df: float) -> float:
    """Upper tail P(T > t) of Student's t with df > 0 degrees of freedom; both are finite."""
    df = float_array(df, "degrees of freedom", ndim=0, error=ConfigError)
    if df <= 0:
        raise ConfigError(f"degrees of freedom must be positive, got {df}")
    t = float_array(t, "t statistic", ndim=0)
    if t < 0.0:
        return 1.0 - student_t_sf(-t, df)
    x = df / (df + t * t)
    return 0.5 * _reg_inc_beta(df / 2.0, 0.5, x)


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


@dataclass(frozen=True)
class PairedTestResult:
    """Outcome of one paired test.

    effect_direction is the sign of where sample a sits relative to b:
    +1 means a ran larger (so b wins if the difference is significant),
    -1 the reverse, 0 perfectly balanced.  p_exact is the rational
    p-value when the exact Wilcoxon path was taken, else None.
    """

    method: str
    statistic: float
    p_value: float
    n_effective: int
    effect_direction: int
    alternative: str = "two-sided"
    p_exact: Fraction | None = None
    w_plus: float | None = None
    w_minus: float | None = None


def paired_t_test(a, b) -> PairedTestResult:
    """Two-sided paired t-test on the differences a - b."""
    d = np.subtract(*_paired(a, b))
    n = d.size
    if n < 2:
        raise DataError(f"paired t-test needs at least 2 pairs, got {n}")
    mean = float(np.mean(d))
    sd = float(np.std(d, ddof=1))
    if sd == 0.0:
        raise DegenerateSampleError(
            "all paired differences are identical; t statistic is undefined"
        )
    t = mean / (sd / math.sqrt(n))
    p = min(1.0, 2.0 * student_t_sf(abs(t), n - 1))
    direction = 0 if mean == 0.0 else (1 if mean > 0 else -1)
    return PairedTestResult(
        method="paired_t", statistic=t, p_value=p, n_effective=n,
        effect_direction=direction,
    )


def _average_ranks(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ranks 1..n with tied values sharing the average of their positions.

    Also returns how many times each distinct value occurs, in ascending
    order of value.
    """
    _, which, counts = np.unique(v, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[which], counts


def _exact_min_tail(int_ranks: list[int], w_min: float) -> Fraction:
    """P(min(W+, W-) <= w_min) for tie-free integer ranks, as a rational.

    Counts subsets of the rank multiset by sum (the distribution of W+
    over all 2^n sign assignments) and uses the symmetry of that
    distribution around its midpoint.
    """
    total = sum(int_ranks)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in int_ranks:
        for w in range(total, r - 1, -1):
            if counts[w - r]:
                counts[w] += counts[w - r]
    w_cut = math.floor(w_min)
    low = sum(counts[: w_cut + 1])
    p = Fraction(2 * low, 2 ** len(int_ranks))
    return min(p, Fraction(1, 1))


def _normal_tail(n: int, w_min: float, tie_counts: np.ndarray) -> float:
    """Two-sided p for min(W+, W-) = w_min from the normal approximation.

    The variance is tie-corrected from the counts of each distinct
    magnitude, and the statistic carries a continuity correction.
    """
    mu = n * (n + 1) / 4.0
    # sigma2 > 0: the tie term peaks when all n magnitudes tie (t^3 - t is
    # superadditive), where sigma2 = n(n+1)(2n+1)/24 - (n^3 - n)/48 = n(n+1)^2/16
    tie_term = float(np.sum(tie_counts ** 3.0 - tie_counts)) / 48.0
    sigma2 = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    z = (w_min - mu + 0.5) / math.sqrt(sigma2)
    return min(1.0, 2.0 * _normal_cdf(z))


def wilcoxon_signed_rank(a, b) -> PairedTestResult:
    """Two-sided Wilcoxon signed-rank test on the differences a - b.

    Zero differences are dropped.  With at most 20 nonzero differences
    and no ties among their magnitudes the two-sided p-value is exact
    (a rational with denominator 2^n); otherwise it comes from the
    normal approximation with tie-corrected variance and a continuity
    correction.
    """
    d = np.subtract(*_paired(a, b))
    d = d[d != 0.0]
    n = int(d.size)
    if n < 1:
        raise DegenerateSampleError(
            "all paired differences are zero; signed-rank test is undefined"
        )
    ranks, tie_counts = _average_ranks(np.abs(d))
    w_plus = float(np.sum(ranks[d > 0]))
    w_minus = float(np.sum(ranks[d < 0]))
    statistic = min(w_plus, w_minus)
    direction = 0 if w_plus == w_minus else (1 if w_plus > w_minus else -1)

    if n <= EXACT_WILCOXON_LIMIT and tie_counts.size == n:
        # tie-free ranks are exactly the integers 1..n
        p_exact = _exact_min_tail([int(r) for r in ranks], statistic)
        return PairedTestResult(
            method="wilcoxon_exact", statistic=statistic, p_value=float(p_exact),
            n_effective=n, effect_direction=direction, p_exact=p_exact,
            w_plus=w_plus, w_minus=w_minus,
        )
    return PairedTestResult(
        method="wilcoxon_normal_approx", statistic=statistic,
        p_value=_normal_tail(n, statistic, tie_counts), n_effective=n,
        effect_direction=direction, w_plus=w_plus, w_minus=w_minus,
    )

