"""Paired tests, the t tail and the signed-rank exact path.

Every nontrivial number here is checked against an independent route:
mpmath for the t tail, literal 2^n sign enumeration for the Wilcoxon
exact p, and scipy for a handful of cross-checks.
"""

import math
from fractions import Fraction
from itertools import product

import mpmath
import numpy as np
import pytest
import scipy.stats

from lagcast.errors import ConfigError, DataError, DegenerateSampleError
from lagcast.stats import (
    paired_t_test,
    student_t_sf,
    wilcoxon_signed_rank,
)
from lagcast.stats import _average_ranks, _exact_min_tail, _normal_tail

mpmath.mp.dps = 40


def t_sf_reference(t, df):
    """Regularized incomplete beta at high precision."""
    x = df / (df + t * t)
    val = mpmath.betainc(df / 2.0, mpmath.mpf(1) / 2, 0, x, regularized=True) / 2
    return float(val if t >= 0 else 1 - val)


def brute_force_wilcoxon(diffs):
    """Literal enumeration of every sign assignment.

    Returns (w_plus, w_minus, two-sided exact p as a Fraction).  Only for
    tie-free, zero-free differences.
    """
    mags = np.abs(diffs)
    order = np.argsort(mags)
    ranks = np.empty(len(diffs))
    ranks[order] = np.arange(1, len(diffs) + 1)
    w_plus = ranks[diffs > 0].sum()
    w_minus = ranks[diffs < 0].sum()
    stat = min(w_plus, w_minus)
    n = len(diffs)
    hits = 0
    for signs in product((1, -1), repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s > 0)
        if w <= stat:
            hits += 1
    return w_plus, w_minus, min(Fraction(1), Fraction(2 * hits, 2**n))


# -------------------------------------------------------------- student_t_sf

def test_sf_at_zero_is_half():
    # x = df / (df + 0) is 1.0, where the incomplete beta is exactly 1
    for df in (1.0, 2.0, 7.5, 1000.0):
        assert student_t_sf(0.0, df) == student_t_sf(-0.0, df) == 0.5


def test_sf_cauchy_closed_form():
    # df=1 is Cauchy: P(T > 1) = 1/2 - arctan(1)/pi = 1/4
    assert student_t_sf(1.0, 1.0) == pytest.approx(0.25, abs=1e-12)


def test_sf_normal_limit():
    got = student_t_sf(1.96, 1e6)
    erfc_oracle = 0.5 * math.erfc(1.96 / math.sqrt(2.0))
    assert got == pytest.approx(erfc_oracle, abs=1e-6)
    assert round(got, 4) == 0.0250


def test_sf_matches_high_precision_reference():
    for t in (-8.0, -2.5, -0.3, 0.7, 1.0, 3.0, 12.0, 40.0):
        for df in (1.0, 2.0, 3.0, 10.0, 29.0, 250.0):
            assert student_t_sf(t, df) == pytest.approx(
                t_sf_reference(t, df), abs=1e-10
            )


# student_t_sf(t, df) for t in _SF_PIN_T, as float.hex; a rewrite of the
# continued fraction must reproduce every bit
_SF_PIN_T = (0.1, 1.0, 2.5, 10.0, 40.0)
_SF_PIN = [
    (1, ("0x1.df835890bf95bp-2", "0x1.0000000000004p-2", "0x1.f01a6a50f0decp-4",
         "0x1.03e53b7a03525p-5", "0x1.04b484fcf3acap-7")),
    (2, ("0x1.dbe2e4d980882p-2", "0x1.b0cb174df99cep-3", "0x1.0971de9c3cce7p-4",
         "0x1.42d86659a7ab4p-8", "0x1.475f84c4f7eefp-12")),
    (3, ("0x1.da722d39b8db9p-2", "0x1.9062e2bc5059cp-3", "0x1.673f15c8a9cf9p-5",
         "0x1.16f938b28c357p-10", "0x1.2067f3263662dp-16")),
    (7, ("0x1.d8a6dccabca5ap-2", "0x1.67080df0fb572p-3", "0x1.4fcee9c6ebdd6p-6",
         "0x1.66ef66d86c5f6p-17", "0x1.b51da4bddd73ap-31")),
    (30, ("0x1.d78e9263e1b9bp-2", "0x1.4d1db3a1728aep-3", "0x1.28ce8a12c31e1p-7",
          "0x1.927180b00a0acp-36", "0x1.b2fee8898689cp-91")),
    (399, ("0x1.d73df45add8a2p-2", "0x1.458bebe720706p-3", "0x1.a414e610fbb45p-8",
           "0x1.181bba4b853f3p-69", "0x1.a3483eea77ec2p-470")),
    (3999, ("0x1.d7380747c6067p-2", "0x1.44fce813042dep-3", "0x1.984250ecd0a37p-8",
            "0x1.13f88ed49b4afp-76", "0x1.b6b1414b5294dp-978")),
]


@pytest.mark.parametrize("df, want", _SF_PIN, ids=[f"df{df}" for df, _ in _SF_PIN])
def test_sf_bits_are_pinned(df, want):
    assert tuple(student_t_sf(t, df).hex() for t in _SF_PIN_T) == want


def test_sf_symmetry():
    for t in (0.5, 1.7, 4.0):
        assert student_t_sf(-t, 9.0) == pytest.approx(
            1.0 - student_t_sf(t, 9.0), abs=1e-12
        )


def test_sf_monotone_in_t():
    vals = [student_t_sf(t, 5.0) for t in np.linspace(-6, 6, 25)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_sf_input_validation():
    with pytest.raises(ConfigError):
        student_t_sf(1.0, 0.0)
    with pytest.raises(ConfigError):
        student_t_sf(1.0, -2.0)
    for df in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="degrees of freedom must be finite"):
            student_t_sf(1.0, df)
    with pytest.raises(DataError):
        student_t_sf(float("nan"), 5.0)


# ------------------------------------------------------------- paired_t_test

def test_t_symmetric_differences_give_p_one():
    r = paired_t_test([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
    assert r.method == "paired_t"
    assert r.statistic == pytest.approx(0.0, abs=1e-15)
    assert r.p_value == pytest.approx(1.0, abs=1e-12)
    assert r.effect_direction == 0


def test_t_hand_case_against_reference():
    # d = [1, 2, 3]: t = 2 / (1/sqrt(3)) = 2*sqrt(3), df = 2
    r = paired_t_test([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
    assert r.statistic == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-12)
    assert r.p_value == pytest.approx(2.0 * t_sf_reference(2.0 * math.sqrt(3.0), 2), rel=1e-9)
    assert r.p_value == pytest.approx(0.0742, abs=5e-5)
    assert r.effect_direction == 1
    assert r.n_effective == 3


def test_t_identical_samples_degenerate():
    with pytest.raises(DegenerateSampleError):
        paired_t_test([1.0, 2.0], [1.0, 2.0])


def test_t_constant_difference_degenerate():
    with pytest.raises(DegenerateSampleError):
        paired_t_test([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])


def test_t_needs_two_pairs():
    with pytest.raises(DataError):
        paired_t_test([1.0], [2.0])


def test_empty_pairs_are_a_data_error():
    for paired_test in (paired_t_test, wilcoxon_signed_rank):
        with pytest.raises(DataError, match="paired inputs must be a non-empty 1-D array"):
            paired_test([], [])


def test_t_antisymmetry():
    rng = np.random.default_rng(5)
    a = rng.standard_normal(12)
    b = rng.standard_normal(12)
    r1 = paired_t_test(a, b)
    r2 = paired_t_test(b, a)
    assert r1.statistic == pytest.approx(-r2.statistic, rel=1e-12)
    assert r1.p_value == pytest.approx(r2.p_value, abs=1e-12)
    assert r1.effect_direction == -r2.effect_direction


def test_t_matches_scipy():
    rng = np.random.default_rng(9)
    for _ in range(5):
        a = rng.standard_normal(15)
        b = rng.standard_normal(15) + 0.3
        ours = paired_t_test(a, b)
        ref = scipy.stats.ttest_rel(a, b)
        assert ours.statistic == pytest.approx(ref.statistic, rel=1e-10)
        assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-9)


# ------------------------------------------------------ wilcoxon_signed_rank

def test_wilcoxon_hand_case():
    d = np.array([1.0, -2.0, 3.0, -4.0, 5.0])
    r = wilcoxon_signed_rank(d, np.zeros(5))
    assert r.w_plus == 9.0 and r.w_minus == 6.0
    assert r.statistic == 6.0
    assert r.method == "wilcoxon_exact"
    assert r.p_exact == Fraction(13, 16)
    assert r.p_value == pytest.approx(13.0 / 16.0, abs=1e-15)


def test_wilcoxon_all_positive():
    d = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    r = wilcoxon_signed_rank(d, np.zeros(5))
    assert r.w_minus == 0.0
    assert r.p_exact == Fraction(2, 32)
    assert r.p_value == 0.0625
    assert r.effect_direction == 1


def test_wilcoxon_drops_zero_differences():
    r = wilcoxon_signed_rank([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    assert r.n_effective == 2


def test_wilcoxon_all_zero_degenerate():
    with pytest.raises(DegenerateSampleError):
        wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])


def test_wilcoxon_exact_matches_brute_force():
    rng = np.random.default_rng(17)
    done = 0
    while done < 40:
        n = int(rng.integers(4, 13))
        d = rng.standard_normal(n)
        if len(np.unique(np.abs(d))) != n:
            continue
        r = wilcoxon_signed_rank(d, np.zeros(n))
        w_plus, w_minus, p = brute_force_wilcoxon(d)
        assert r.w_plus == w_plus and r.w_minus == w_minus
        assert r.p_exact == p  # identical rationals, not just close floats
        done += 1


def test_wilcoxon_exact_matches_scipy():
    rng = np.random.default_rng(23)
    for _ in range(5):
        d = rng.standard_normal(10)
        r = wilcoxon_signed_rank(d, np.zeros(10))
        ref = scipy.stats.wilcoxon(d, method="exact")
        assert float(r.p_exact) == pytest.approx(ref.pvalue, abs=1e-12)


def test_wilcoxon_normal_approx_close_to_exact():
    rng = np.random.default_rng(31)
    for n in (15, 17, 20):
        d = rng.standard_normal(n) + 0.2
        ranks, counts = _average_ranks(np.abs(d))
        w_min = min(float(np.sum(ranks[d > 0])), float(np.sum(ranks[d < 0])))
        exact = _exact_min_tail([int(r) for r in ranks], w_min)
        assert wilcoxon_signed_rank(d, np.zeros(n)).p_exact == exact
        assert abs(float(exact) - _normal_tail(n, w_min, counts)) < 0.01


def test_wilcoxon_ties_fall_back_to_normal():
    d = np.array([1.0, -1.0, 2.0, 3.0, -4.0, 5.0])
    r = wilcoxon_signed_rank(d, np.zeros(6))
    assert r.method == "wilcoxon_normal_approx"
    assert r.p_exact is None
    # every magnitude tied: the tie-corrected variance is at its least,
    # n(n+1)^2/16, and W+ = W- sits on the mean
    r = wilcoxon_signed_rank(np.repeat([1.0, -1.0], 15), np.zeros(30))
    assert r.method == "wilcoxon_normal_approx"
    assert r.p_value == 1.0


def test_average_ranks_share_tied_positions():
    ranks, counts = _average_ranks(np.array([3.0, 1.0, 3.0, 2.0, 3.0, 1.0]))
    assert ranks.tolist() == [5.0, 1.5, 5.0, 3.0, 5.0, 1.5]
    assert counts.tolist() == [2, 1, 3]


def test_wilcoxon_large_n_uses_normal():
    rng = np.random.default_rng(41)
    d = rng.standard_normal(30)
    r = wilcoxon_signed_rank(d, np.zeros(30))
    assert r.method == "wilcoxon_normal_approx"
    assert 0.0 <= r.p_value <= 1.0


def test_wilcoxon_rank_sum_invariant():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(3, 25))
        d = rng.standard_normal(n)
        r = wilcoxon_signed_rank(d, np.zeros(n))
        assert r.w_plus + r.w_minus == pytest.approx(n * (n + 1) / 2.0, rel=1e-12)
        assert r.statistic == min(r.w_plus, r.w_minus)


def test_wilcoxon_antisymmetry():
    rng = np.random.default_rng(47)
    a = rng.standard_normal(14)
    b = rng.standard_normal(14)
    r1 = wilcoxon_signed_rank(a, b)
    r2 = wilcoxon_signed_rank(b, a)
    assert r1.w_plus == r2.w_minus and r1.w_minus == r2.w_plus
    assert r1.p_value == pytest.approx(r2.p_value, abs=1e-12)
