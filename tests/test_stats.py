"""Statistical engine checks against independent oracles (scipy and
hand-rolled brute force)."""

import math

import numpy as np
import pytest
import scipy.stats

from consumerlab import stats
from consumerlab.stats import (fdc, gaussian_kde, linreg_slope, paired_t,
                               signed_rank, silverman_bandwidth,
                               slope_zero_test, student_t_cdf)


# ---------------------------------------------------------------------------
# fdc


def test_fdc_perfect_inverse_correlation():
    d = np.array([0.0, 1.0, 2.0, 3.5, 4.0])
    assert fdc(-d, d) == pytest.approx(-1.0, abs=1e-12)


def test_fdc_perfect_positive_correlation():
    d = np.array([0.3, 1.1, 2.2, 2.9])
    assert fdc(d, d) == pytest.approx(1.0, abs=1e-12)


def test_fdc_matches_two_pass_pearson_oracle():
    rng = np.random.default_rng(8)
    u = rng.normal(size=10)
    d = rng.normal(size=10)
    # independent two-pass computation: E[uv] - E[u]E[v] over population sds
    cov = np.mean(u * d) - np.mean(u) * np.mean(d)
    r_oracle = cov / (np.sqrt(np.mean(u * u) - np.mean(u) ** 2)
                      * np.sqrt(np.mean(d * d) - np.mean(d) ** 2))
    assert fdc(u, d) == pytest.approx(r_oracle, abs=1e-12)


def test_fdc_sign_antisymmetry():
    rng = np.random.default_rng(9)
    u = rng.normal(size=12)
    d = rng.uniform(0, 3, size=12)
    assert fdc(u, d) == -fdc(-u, d)


def test_fdc_degenerate_inputs_raise():
    with pytest.raises(ValueError):
        fdc([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        fdc([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        fdc([1.0], [1.0])
    with pytest.raises(ValueError):
        fdc([1.0, 2.0], [1.0, 2.0, 3.0])


def test_fdc_bounded():
    rng = np.random.default_rng(10)
    for _ in range(50):
        u = rng.normal(size=6)
        d = rng.normal(size=6)
        assert -1.0 - 1e-12 <= fdc(u, d) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# regression


def test_linreg_constant_ys():
    slope, intercept = linreg_slope([0, 1, 2, 3], [5.0, 5.0, 5.0, 5.0])
    assert slope == 0.0
    assert intercept == 5.0


def test_linreg_exact_line():
    xs = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    slope, intercept = linreg_slope(xs, 2.0 * xs + 3.0)
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert intercept == pytest.approx(3.0, abs=1e-12)


def test_linreg_matches_normal_equations_oracle():
    rng = np.random.default_rng(11)
    xs = rng.uniform(0, 100, size=200)
    ys = 0.7 * xs - 4.0 + rng.normal(scale=3.0, size=200)
    slope, intercept = linreg_slope(xs, ys)
    design = np.column_stack([xs, np.ones_like(xs)])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    assert slope == pytest.approx(coef[0], abs=1e-10)
    assert intercept == pytest.approx(coef[1], abs=1e-10)


def test_linreg_degenerate_xs_raise():
    with pytest.raises(ValueError):
        linreg_slope([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def test_slope_zero_test_matches_scipy():
    rng = np.random.default_rng(12)
    xs = np.arange(50, dtype=float)
    ys = 0.01 * xs + rng.normal(scale=2.0, size=50)
    report = slope_zero_test(xs, ys)
    ref = scipy.stats.linregress(xs, ys)
    assert report.statistic == pytest.approx(ref.slope / ref.stderr, rel=1e-9)
    assert report.p_value == pytest.approx(ref.pvalue, abs=1e-10)


def test_slope_zero_test_flat_series():
    report = slope_zero_test([0.0, 1.0, 2.0, 3.0], [4.0, 4.0, 4.0, 4.0])
    assert report.p_value == 1.0


# ---------------------------------------------------------------------------
# student t machinery


def test_student_t_cdf_against_scipy():
    for df in (1, 2, 5, 29, 100):
        for t in (-6.0, -2.5, -0.3, 0.0, 0.7, 3.1, 8.0):
            assert student_t_cdf(t, df) == pytest.approx(
                scipy.stats.t.cdf(t, df), abs=1e-10)


def test_paired_t_symmetric_cancellation():
    xs = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    report = paired_t(xs, np.zeros(6))
    assert report.statistic == pytest.approx(0.0, abs=1e-12)
    assert report.p_value == pytest.approx(1.0, abs=1e-12)


# 13 paired before/after measurements; reference t and p frozen from
# scipy.stats.ttest_rel (computed once, asserted to 1e-4)
_PAIRS_13 = (
    (12.9, 12.7), (13.5, 13.6), (12.8, 12.0), (15.6, 15.2), (17.2, 16.8),
    (19.2, 20.0), (12.6, 12.0), (15.3, 15.9), (14.4, 16.0), (11.3, 11.1),
    (14.1, 13.2), (16.0, 15.5), (11.9, 12.0),
)
_REF_T_13 = 0.31402746879154481
_REF_P_13 = 0.75889229494095922


def test_paired_t_thirteen_pair_reference():
    xs = np.array([a for a, b in _PAIRS_13])
    ys = np.array([b for a, b in _PAIRS_13])
    report = paired_t(xs, ys)
    assert report.statistic == pytest.approx(_REF_T_13, abs=1e-4)
    assert report.p_value == pytest.approx(_REF_P_13, abs=1e-4)
    # live cross-check against the scipy reference implementation
    ref = scipy.stats.ttest_rel(xs, ys)
    assert report.statistic == pytest.approx(ref.statistic, abs=1e-10)
    assert report.p_value == pytest.approx(ref.pvalue, abs=1e-10)


def test_paired_t_all_zero_differences_degenerate():
    xs = np.array([1.0, 2.0, 3.0])
    report = paired_t(xs, xs)
    assert report.statistic is None
    assert report.p_value == 1.0


def test_paired_t_constant_nonzero_shift_degenerate():
    xs = np.array([1.0, 2.0, 3.0])
    report = paired_t(xs + 1.0, xs)
    assert report.statistic is None
    assert report.p_value == 0.0


def test_paired_t_exchange_flips_sign():
    rng = np.random.default_rng(13)
    xs = rng.normal(size=20)
    ys = rng.normal(size=20)
    fwd = paired_t(xs, ys)
    rev = paired_t(ys, xs)
    assert fwd.statistic == pytest.approx(-rev.statistic, abs=1e-12)
    assert fwd.p_value == pytest.approx(rev.p_value, abs=1e-12)


# ---------------------------------------------------------------------------
# signed rank


def test_signed_rank_single_pair():
    report = signed_rank([1.0], [0.0])
    assert report.p_value == 1.0
    assert report.n == 1


def test_signed_rank_all_same_sign_n5():
    # W = 0; the exact two-sided p is 2/32 by enumerating all 32 sign patterns
    report = signed_rank([1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 5)
    assert report.statistic == 0.0
    assert report.p_value == pytest.approx(2.0 / 32.0, abs=1e-15)


def test_signed_rank_matches_scipy_exact():
    rng = np.random.default_rng(14)
    for n in (6, 9, 12, 20):
        xs = rng.normal(size=n)
        ys = rng.normal(size=n)
        report = signed_rank(xs, ys)
        ref = scipy.stats.wilcoxon(xs, ys, mode="exact")
        assert report.p_value == pytest.approx(ref.pvalue, abs=1e-12)


def _normal_approx_p(xs, ys):
    d = xs - ys
    d = d[d != 0]
    ranks = scipy.stats.rankdata(np.abs(d))
    w = min(ranks[d > 0].sum(), ranks[d < 0].sum())
    n = d.size
    mu = n * (n + 1) / 4.0
    sigma = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0)
    return min(1.0, 2.0 * scipy.stats.norm.cdf((w - mu + 0.5) / sigma))


def test_signed_rank_exact_vs_normal_at_n30():
    # dual-method cross-check at the experiment's sample size; the normal
    # approximation's error peaks near p ~ 0.5 (~0.006 there, well under
    # 0.005 in the tails where decisions are made)
    rng = np.random.default_rng(15)
    for _ in range(5):
        xs = rng.normal(size=30) + 0.7   # shifted pairs: tail-regime p
        ys = rng.normal(size=30)
        exact = signed_rank(xs, ys)
        assert exact.method == "signed-rank-exact"
        assert exact.p_value == pytest.approx(_normal_approx_p(xs, ys), abs=0.005)
    for _ in range(5):
        xs = rng.normal(size=30)         # null data: mid-range p
        ys = rng.normal(size=30)
        exact = signed_rank(xs, ys)
        assert exact.p_value == pytest.approx(_normal_approx_p(xs, ys), abs=0.0075)


def test_signed_rank_normal_branch_matches_scipy_above_exact_limit():
    rng = np.random.default_rng(21)
    xs = rng.normal(size=40)
    ys = rng.normal(size=40)
    report = signed_rank(xs, ys)
    assert report.method == "signed-rank-normal"
    ref = scipy.stats.wilcoxon(xs, ys, mode="approx", correction=True)
    assert report.p_value == pytest.approx(ref.pvalue, abs=1e-12)


def test_signed_rank_distribution_sums_to_one_small_n():
    for n in range(1, 13):
        counts = stats._signed_rank_counts([2 * r for r in range(1, n + 1)])
        assert int(counts.sum()) == 2 ** n


def test_signed_rank_exchange_invariance():
    rng = np.random.default_rng(16)
    xs = rng.normal(size=15)
    ys = rng.normal(size=15)
    fwd = signed_rank(xs, ys)
    rev = signed_rank(ys, xs)
    assert fwd.statistic == rev.statistic
    assert fwd.p_value == rev.p_value


def test_signed_rank_zero_differences_dropped():
    xs = np.array([1.0, 2.0, 3.0, 4.0])
    ys = np.array([1.0, 0.0, 1.0, 2.0])
    report = signed_rank(xs, ys)
    assert report.n == 3


def test_signed_rank_all_zero_degenerate():
    report = signed_rank([1.0, 2.0], [1.0, 2.0])
    assert report.p_value == 1.0
    assert report.n == 0


def test_signed_rank_midrank_ties():
    xs = np.array([2.0, 2.0, 2.0, -2.0, 5.0])
    report = signed_rank(xs, np.zeros(5))
    ref = scipy.stats.wilcoxon(xs, np.zeros(5), mode="approx")
    # ties force midranks; W must match scipy's (min of W+, W-)
    assert report.statistic == pytest.approx(ref.statistic)


# ---------------------------------------------------------------------------
# kde


def test_kde_single_sample_peaks_at_sample():
    table = gaussian_kde([3.0], bandwidth=0.5)
    assert table.x[np.argmax(table.density)] == pytest.approx(3.0, abs=0.02)


def test_kde_integrates_to_one():
    rng = np.random.default_rng(17)
    table = gaussian_kde(rng.normal(size=200))
    integral = np.trapezoid(table.density, table.x)
    assert integral == pytest.approx(1.0, abs=0.01)


def test_kde_flattens_with_large_bandwidth():
    rng = np.random.default_rng(18)
    samples = rng.normal(size=50)
    peaks = [gaussian_kde(samples, bandwidth=h).density.max()
             for h in (2.0, 4.0, 8.0, 16.0, 32.0)]
    assert all(a > b for a, b in zip(peaks, peaks[1:]))


def test_kde_rejects_bad_inputs():
    with pytest.raises(ValueError):
        gaussian_kde([])
    with pytest.raises(ValueError):
        gaussian_kde([1.0], bandwidth=0.0)


def test_silverman_bandwidth_formula():
    rng = np.random.default_rng(19)
    s = rng.normal(size=100)
    expected = 1.06 * np.std(s, ddof=1) * 100 ** (-0.2)
    assert silverman_bandwidth(s) == pytest.approx(expected, rel=1e-12)
