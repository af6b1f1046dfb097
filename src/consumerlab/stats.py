"""Statistical engine: fitness-distance correlation, least squares, paired
tests and kernel density estimates.

Everything here is a pure function of its inputs. The t distribution is
evaluated through the regularized incomplete beta function (continued
fraction), and the signed-rank null distribution is enumerated exactly for
small samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .serialize import fmt_float, fmt_optional, write_csv

__all__ = [
    "TestReport",
    "fdc",
    "linreg_slope",
    "slope_zero_test",
    "paired_t",
    "signed_rank",
    "DensityTable",
    "gaussian_kde",
    "silverman_bandwidth",
    "student_t_cdf",
    "write_density_csv",
]


@dataclass(frozen=True)
class TestReport:
    """Outcome of a hypothesis test.

    `statistic` is None when the input was degenerate (e.g. all paired
    differences zero) and the statistic is undefined.
    """

    statistic: float | None
    p_value: float
    n: int
    method: str


# ---------------------------------------------------------------------------
# correlation and regression


def fdc(utilities, distances) -> float:
    """Fitness-distance correlation between utilities and distances to the
    nearest maximum.

    Uses population (1/n) covariance and standard deviations. -1 means
    utility rises exactly as distance to a maximum falls (an easy, smooth
    landscape); 0 means maximally rugged.

    Raises ValueError for mismatched lengths, n < 2, or zero spread in
    either input (a flat landscape has no defined correlation).
    """
    u = np.asarray(utilities, dtype=float)
    d = np.asarray(distances, dtype=float)
    if u.ndim != 1 or u.shape != d.shape:
        raise ValueError("utilities and distances must be 1-D of equal length")
    if u.size < 2:
        raise ValueError("need at least two points")
    du = u - u.mean()
    dd = d - d.mean()
    s_u = math.sqrt(float(np.mean(du * du)))
    s_d = math.sqrt(float(np.mean(dd * dd)))
    if s_u == 0.0 or s_d == 0.0:
        raise ValueError("degenerate input: zero standard deviation")
    return float(np.mean(du * dd)) / (s_u * s_d)


def linreg_slope(xs, ys) -> tuple[float, float]:
    """Ordinary least squares fit; returns (slope, intercept)."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("xs and ys must be 1-D of equal length")
    if x.size < 2:
        raise ValueError("need at least two points")
    dx = x - x.mean()
    sxx = float(np.dot(dx, dx))
    if sxx == 0.0:
        raise ValueError("xs are all equal")
    slope = float(np.dot(dx, y - y.mean())) / sxx
    intercept = float(y.mean()) - slope * float(x.mean())
    return slope, intercept


def slope_zero_test(xs, ys) -> TestReport:
    """Two-sided t-test of the OLS slope against zero (n - 2 df)."""
    slope, intercept = linreg_slope(xs, ys)
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    n = x.size
    if n < 3:
        return TestReport(None, 1.0, n, "slope-t-insufficient-n")
    resid = y - (intercept + slope * x)
    sse = float(np.dot(resid, resid))
    dx = x - x.mean()
    sxx = float(np.dot(dx, dx))
    se = math.sqrt(sse / (n - 2) / sxx)
    if se == 0.0:
        # perfect fit: a flat series cannot reject, an exact nonzero slope must
        return TestReport(slope, 1.0 if slope == 0.0 else 0.0, n, "slope-t-degenerate")
    t = slope / se
    p = 2.0 * (1.0 - student_t_cdf(abs(t), n - 2))
    return TestReport(t, min(1.0, p), n, "slope-t")


# ---------------------------------------------------------------------------
# Student t distribution via the regularized incomplete beta function


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    # modified Lentz continued fraction, converges to machine precision
    max_iter = 300
    eps = 1e-15
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def student_t_cdf(t: float, df: int) -> float:
    """CDF of Student's t with `df` degrees of freedom."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    x = df / (df + t * t)
    tail = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
    return 1.0 - tail if t >= 0.0 else tail


# ---------------------------------------------------------------------------
# paired tests


def paired_t(xs, ys) -> TestReport:
    """Two-sided paired t-test.

    All-zero differences yield a degenerate report (statistic None, p = 1).
    A nonzero constant difference (sample sd exactly 0) is reported with
    statistic None and p = 0.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("paired samples must be 1-D of equal length")
    n = x.size
    if n < 2:
        raise ValueError("need at least two pairs")
    d = x - y
    if np.all(d == 0.0):
        return TestReport(None, 1.0, n, "paired-t-degenerate")
    sd = float(np.std(d, ddof=1))
    if sd == 0.0:
        return TestReport(None, 0.0, n, "paired-t-degenerate")
    t = float(np.mean(d)) / (sd / math.sqrt(n))
    p = 2.0 * (1.0 - student_t_cdf(abs(t), n - 1))
    return TestReport(t, min(1.0, p), n, "paired-t")


def _midranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=float)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _signed_rank_counts(doubled_ranks: list[int]) -> np.ndarray:
    """Subset-sum counts of the signed-rank statistic over doubled ranks.

    counts[s] = number of sign assignments whose positive-rank sum equals
    s/2; counts sum to 2**n. Exact in int64 up to n = 30.
    """
    total = sum(doubled_ranks)
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled_ranks:
        counts[r:] += counts[:-r].copy()
    return counts


EXACT_SIGNED_RANK_LIMIT = 30


def signed_rank(xs, ys) -> TestReport:
    """Two-sided Wilcoxon signed-rank test.

    Zero differences are dropped; ties in |d| get midranks. The statistic
    is W = min(W+, W-). For effective n <= 30 the p-value is exact
    (enumeration of all 2**n sign patterns); above that a normal
    approximation with continuity correction is used.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("paired samples must be 1-D of equal length")
    d = x - y
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        return TestReport(None, 1.0, 0, "signed-rank-degenerate")
    ranks = _midranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)
    if n <= EXACT_SIGNED_RANK_LIMIT:
        doubled = [int(round(2.0 * r)) for r in ranks]
        counts = _signed_rank_counts(doubled)
        w2 = int(round(2.0 * w))
        p = 2.0 * float(counts[: w2 + 1].sum()) / float(2 ** n)
        return TestReport(w, min(1.0, p), n, "signed-rank-exact")
    mu = n * (n + 1) / 4.0
    sigma = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0)
    z = (w - mu + 0.5) / sigma
    p = 2.0 * _normal_cdf(z)
    return TestReport(w, min(1.0, p), n, "signed-rank-normal")


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# density estimation


@dataclass(frozen=True)
class DensityTable:
    """Kernel density estimate evaluated on an evenly spaced grid."""

    x: np.ndarray
    density: np.ndarray


def silverman_bandwidth(samples) -> float:
    """1.06 * sd * n**(-1/5); falls back to 1.0 when sd is undefined/zero."""
    s = np.asarray(samples, dtype=float)
    if s.size < 2:
        return 1.0
    sd = float(np.std(s, ddof=1))
    if sd == 0.0:
        return 1.0
    return 1.06 * sd * s.size ** (-0.2)


def gaussian_kde(samples, bandwidth: float | None = None,
                 grid_points: int = 256) -> DensityTable:
    """Gaussian-kernel density of `samples` on a grid spanning
    [min - 3h, max + 3h]."""
    s = np.asarray(samples, dtype=float)
    if s.size < 1:
        raise ValueError("need at least one sample")
    h = silverman_bandwidth(s) if bandwidth is None else float(bandwidth)
    if h <= 0.0:
        raise ValueError("bandwidth must be positive")
    x = np.linspace(s.min() - 3.0 * h, s.max() + 3.0 * h, grid_points)
    z = (x[:, None] - s[None, :]) / h
    density = np.exp(-0.5 * z * z).sum(axis=1) / (s.size * h * math.sqrt(2.0 * math.pi))
    return DensityTable(x=x, density=density)


# ---------------------------------------------------------------------------
# report serialization

REPORT_HEADER = ["metric", "social_mean", "nonsocial_mean", "diff_mean",
                 "t_stat", "t_p", "w_stat", "w_p", "n_pairs"]


def comparison_row(metric: str, social, nonsocial) -> list[str]:
    """One analysis-report row comparing paired social/non-social values."""
    s = np.asarray(social, dtype=float)
    ns = np.asarray(nonsocial, dtype=float)
    n = s.size
    means = [float(np.mean(x)) if n else None for x in (s, ns, s - ns)]
    tests = ["insufficient-n"] * 4
    if n >= 2:
        tests = [cell for report in (paired_t(s, ns), signed_rank(s, ns))
                 for cell in (fmt_optional(report.statistic),
                              fmt_float(report.p_value))]
    return [metric, *map(fmt_optional, means), *tests, str(n)]


def write_density_csv(table: DensityTable, path: str) -> None:
    write_csv(path, ["x", "density"],
              [[fmt_float(float(x)), fmt_float(float(d))]
               for x, d in zip(table.x, table.density)])
