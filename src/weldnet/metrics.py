"""Evaluation statistics: RMSE, percentage prediction error, normal-theory
confidence intervals, rank correlations, and z-scores, plus the text
table the CLI reports them in.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import (
    AllTargetsZero,
    ConstantInput,
    EmptyInput,
    LengthMismatch,
    NonFiniteInput,
    TooFewSamples,
)

Z_975 = 1.959964  # two-sided 95% normal quantile


def _paired(y, yhat):
    y = np.asarray(y, dtype=np.float64).ravel()
    yhat = np.asarray(yhat, dtype=np.float64).ravel()
    if y.size != yhat.size:
        raise LengthMismatch(f"{y.size} targets vs {yhat.size} estimates")
    if y.size == 0:
        raise EmptyInput("empty vectors")
    return y, yhat


def rmse(y, yhat) -> float:
    """Root mean squared error (inf where the squares overflow)."""
    y, yhat = _paired(y, yhat)
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.mean((y - yhat) ** 2)))


def pe(y, yhat):
    """Mean absolute percentage error over nonzero targets.

    Returns (percent, excluded) where excluded counts the zero targets
    dropped from the mean.  The denominator uses |y| so a sign flip in the
    target cannot flip the error sign.
    """
    y, yhat = _paired(y, yhat)
    nonzero = y != 0.0
    excluded = int(np.sum(~nonzero))
    if excluded == y.size:
        raise AllTargetsZero("every target is zero")
    with np.errstate(over="ignore"):
        ratios = np.abs(y[nonzero] - yhat[nonzero]) / np.abs(y[nonzero])
        return float(np.mean(ratios) * 100.0), excluded


def confidence_interval(samples, level: float = 0.95):
    """Normal-approximation interval mean +- z * s / sqrt(n), sample std."""
    if level != 0.95:
        raise ValueError("only the 0.95 level is supported")
    samples = np.asarray(samples, dtype=np.float64).ravel()
    if samples.size < 2:
        raise TooFewSamples("confidence interval needs n >= 2")
    mean = float(np.mean(samples))
    half = Z_975 * float(np.std(samples, ddof=1)) / math.sqrt(samples.size)
    return mean - half, mean + half


def _corr_pair(x, y, min_n=3):
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != y.size:
        raise LengthMismatch(f"{x.size} vs {y.size}")
    if x.size < min_n:
        raise TooFewSamples(f"need at least {min_n} samples")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise NonFiniteInput("correlation undefined for a NaN or infinite value")
    return x, y


def _deviation_sums(dx, dy) -> tuple:
    return float(np.dot(dx, dx)), float(np.dot(dy, dy)), float(np.dot(dx, dy))


def _unit_deviations(v: np.ndarray) -> np.ndarray:
    """Deviations from the mean of v divided by its largest absolute value,
    themselves divided by their largest absolute value."""
    peak = np.max(np.abs(v))
    d = v / peak if peak > 0 else v
    d = d - d.mean()
    peak = np.max(np.abs(d))
    return d / peak if peak > 0 else d


def _pearson_r(x, y) -> float:
    """Product-moment correlation of finite x and y.  Where a sum of
    squares or products, or their product, leaves the float range (values
    near its ends), the sums are taken again over _unit_deviations, as r
    does not change with scale; other inputs keep the plain sums' bits."""
    with np.errstate(over="ignore", invalid="ignore"):
        sx2, sy2, sxy = _deviation_sums(x - x.mean(), y - y.mean())
        if not (0.0 < sx2 * sy2 < math.inf and math.isfinite(sxy)):
            sx2, sy2, sxy = _deviation_sums(_unit_deviations(x),
                                            _unit_deviations(y))
    if sx2 == 0.0 or sy2 == 0.0:
        raise ConstantInput("correlation undefined for a constant vector")
    r = sxy / float(np.sqrt(sx2 * sy2))
    return min(1.0, max(-1.0, r))


def line_fit(x, y) -> tuple:
    """(slope, intercept) of the least-squares line through (x, y), as
    np.polyfit(x, y, 1) gives it.  Where that overflows, divides by zero
    or gives a value that is not finite (values near the ends of the float
    range), the fit of x and y each divided by its largest absolute value,
    scaled back.  A slope or intercept beyond the float range is
    NonFiniteInput; no numpy warning is raised either way, a poorly
    conditioned fit included."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", np.exceptions.RankWarning)
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                slope, intercept = np.polyfit(x, y, 1)
            plain = np.isfinite(slope) and np.isfinite(intercept)
        except FloatingPointError:
            plain = False
        if not plain:
            sx, sy = (float(np.max(np.abs(v))) or 1.0 for v in (x, y))
            with np.errstate(all="ignore"):
                slope, intercept = np.polyfit(x / sx, y / sy, 1)
                slope, intercept = slope * sy / sx, intercept * sy
    if not (np.isfinite(slope) and np.isfinite(intercept)):
        raise NonFiniteInput("the least-squares line has a slope or intercept "
                             "beyond the float range")
    return slope, intercept


def pearson(x, y):
    """Product-moment correlation and its two-sided p-value.

    The p-value comes from the exact t relation with n-2 degrees of
    freedom, evaluated through the regularized incomplete beta function.
    """
    x, y = _corr_pair(x, y)
    r = _pearson_r(x, y)
    return r, _pearson_p(r, x.size - 2)


def _pearson_p(r: float, df: int) -> float:
    """Two-sided p-value of correlation r over df = n - 2 degrees of
    freedom: I_x(df/2, 1/2) at x = df / (df + t^2), t^2 = r^2 df / (1 - r^2)."""
    r2 = min(r * r, 1.0)
    if 1.0 - r2 <= 0.0:
        return 0.0
    t2 = r2 * df / (1.0 - r2)
    return _betainc(0.5 * df, 0.5, df / (df + t2))


# Modified Lentz evaluation of the incomplete beta continued fraction: stop
# once a step changes the value by less than BETA_EPS relative; BETA_TINY
# stands in for a zero denominator.  Below the symmetry point the fraction
# converges in O(sqrt(max(a, b))) steps; with one argument 1/2, as pearson
# calls it, in at most 55 for any other from 1/2 to 1e5, far below BETA_STEPS.
BETA_EPS = 1e-15
BETA_TINY = 1e-300
BETA_STEPS = 1000


def _log_beta(a: float, b: float) -> float:
    """log B(a, b).  With the larger argument a >= 1000, lgamma(a + b) -
    lgamma(a) goes through Stirling's series (its next term is below
    1e-18 there): the difference of the two lgamma values, each near
    a log a, would keep their rounding error, about 1e-10 at a = 1e5."""
    a, b = max(a, b), min(a, b)
    if a < 1000.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    def tail(z):  # lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2)
        return (1.0 / 12.0 - 1.0 / (360.0 * z * z)) / z
    return math.lgamma(b) - ((a - 0.5) * math.log1p(b / a) + b * math.log(a + b)
                             - b + tail(a + b) - tail(a))


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0.

    Continued fraction of Numerical Recipes (3rd ed., 6.4) by Lentz's
    method, times the prefactor x^a (1-x)^b / B(a, b) taken in logs; above
    x = (a+1)/(a+b+2) it uses I_x(a, b) = 1 - I_{1-x}(b, a), where the
    fraction converges fast."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    log_front = a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b)
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > BETA_TINY else BETA_TINY)
    h = d
    for m in range(1, BETA_STEPS):
        # the even then the odd coefficient of the fraction
        for num in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > BETA_TINY else BETA_TINY)
            c = 1.0 + num / c
            c = c if abs(c) > BETA_TINY else BETA_TINY
            h *= d * c
        if abs(d * c - 1.0) < BETA_EPS:
            break
    return math.exp(log_front) * h / a


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties replaced by their average rank.

    A run of equal sorted values at positions i..j ranks 0.5 * (i + j) + 1;
    each NaN is a run of its own, in input order, as the stable sort leaves
    it (np.unique would reorder the NaNs)."""
    order = np.argsort(v, kind="stable")
    sv = v[order]
    start = np.flatnonzero(np.r_[True, sv[1:] != sv[:-1]])
    counts = np.diff(np.r_[start, v.size])
    ranks = np.empty(v.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (2 * start + counts - 1) + 1.0, counts)
    return ranks


def spearman(x, y) -> float:
    """Pearson correlation of average-ranked data."""
    x, y = _corr_pair(x, y)
    return _pearson_r(_average_ranks(x), _average_ranks(y))


def _tied_pairs(new_run: np.ndarray) -> int:
    """Pairs of equal values in a sorted vector, t (t - 1) / 2 per run of t,
    given for each element after the first whether it starts a new run."""
    runs = np.diff(np.flatnonzero(np.r_[True, new_run, True]))
    return int(np.sum(runs * (runs - 1) // 2))


def _inversions(v: np.ndarray) -> int:
    """Pairs i < j with v[i] > v[j], for integer ranks 0 <= v < n.

    A bottom-up merge sort: at width w, v holds sorted runs of w values,
    and each right run counts, per value, the values of its left run above
    it (one searchsorted over keys offset by the run pair), before one sort
    of the same keys merges each pair into a run of 2w."""
    n = v.size
    v = v.astype(np.int64)
    pos = np.arange(n)
    count, w = 0, 1
    while w < n:
        pair = pos // (2 * w)
        keys = pair * n + v
        right = (pos // w) % 2 == 1
        # every left run before pair p is full, so p * w of them come first
        below = np.searchsorted(keys[~right], keys[right], side="right")
        count += int(np.sum(w - (below - pair[right] * w)))
        v = np.sort(keys) - pair * n
        w *= 2
    return count


def kendall(x, y) -> float:
    """Kendall tau-b (tie-corrected), by Knight's O(n log n) method.

    Sorted by (x, y), the discordant pairs are the inversions of y, so the
    concordance sum of sign(x_i - x_j) * sign(y_i - y_j) over all pairs is
    n0 - n1 - n2 + n3 - 2 * discordant, with n0 pairs in all, n1 tied in x,
    n2 tied in y and n3 tied in both.  Every count is an exact integer, so
    tau has the bits of the sum over all pairs at once."""
    x, y = _corr_pair(x, y)
    n = x.size
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    y_sorted = np.sort(y)
    new_x, new_y = xs[1:] != xs[:-1], y_sorted[1:] != y_sorted[:-1]
    n0 = n * (n - 1) // 2
    n1, n2 = _tied_pairs(new_x), _tied_pairs(new_y)
    n3 = _tied_pairs(new_x | (ys[1:] != ys[:-1]))
    # ranks with ties equal: the first sorted position of each value
    discordant = _inversions(np.searchsorted(y_sorted, ys))
    concordance = float(n0 - n1 - n2 + n3 - 2 * discordant)
    denom = float(np.sqrt(float(n0 - n1) * float(n0 - n2)))
    if denom == 0.0:
        raise ConstantInput("tau undefined for a constant vector")
    return min(1.0, max(-1.0, concordance / denom))


def zscore(values) -> np.ndarray:
    """Standardized values (v - mean) / s with sample std."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size < 2:
        raise TooFewSamples("zscore needs n >= 2")
    s = float(np.std(values, ddof=1))
    if s == 0.0:
        raise ConstantInput("zscore undefined for a constant vector")
    return (values - values.mean()) / s


def align_table(headers, rows) -> str:
    """Left-aligned fixed-width text table.

    This is the one text cell rule: None reads n/a, a str or an int is
    written as is, any other number with 6 significant digits.
    """
    cells = [list(headers)] + [
        ["n/a" if c is None else str(c) if isinstance(c, (str, int))
         else f"{c:.6g}" for c in row] for row in rows]
    widths = [max(len(row[j]) for row in cells) for j in range(len(headers))]
    lines = ["  ".join(row[j].ljust(widths[j]) for j in range(len(row))).rstrip()
             for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)
