"""Evaluation statistics: RMSE, percentage prediction error, normal-theory
confidence intervals, rank correlations, and z-scores, plus the text
table the CLI reports them in.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import (
    AllTargetsZero,
    ConstantInput,
    EmptyInput,
    LengthMismatch,
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
    """Root mean squared error."""
    y, yhat = _paired(y, yhat)
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
    return x, y


def _pearson_r(x, y) -> float:
    dx = x - x.mean()
    dy = y - y.mean()
    sx2 = float(np.dot(dx, dx))
    sy2 = float(np.dot(dy, dy))
    if sx2 == 0.0 or sy2 == 0.0:
        raise ConstantInput("correlation undefined for a constant vector")
    r = float(np.dot(dx, dy)) / float(np.sqrt(sx2 * sy2))
    return min(1.0, max(-1.0, r))


def pearson(x, y):
    """Product-moment correlation and its two-sided p-value.

    The p-value comes from the exact t relation with n-2 degrees of
    freedom, evaluated through the regularized incomplete beta function.
    """
    x, y = _corr_pair(x, y)
    r = _pearson_r(x, y)
    df = x.size - 2
    r2 = min(r * r, 1.0)
    if 1.0 - r2 <= 0.0:
        return r, 0.0
    t2 = r2 * df / (1.0 - r2)
    p = float(special.betainc(0.5 * df, 0.5, df / (df + t2)))
    return r, p


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties replaced by their average rank."""
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size, dtype=np.float64)
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    """Pearson correlation of average-ranked data."""
    x, y = _corr_pair(x, y)
    return _pearson_r(_average_ranks(x), _average_ranks(y))


def kendall(x, y) -> float:
    """Kendall tau-b (tie-corrected)."""
    x, y = _corr_pair(x, y)
    n = x.size
    iu = np.triu_indices(n, k=1)
    sx = np.sign(x[:, None] - x[None, :])[iu]
    sy = np.sign(y[:, None] - y[None, :])[iu]
    concordance = float(np.sum(sx * sy))
    n0 = n * (n - 1) // 2
    n1 = sum(t * (t - 1) // 2 for t in np.unique(x, return_counts=True)[1])
    n2 = sum(t * (t - 1) // 2 for t in np.unique(y, return_counts=True)[1])
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
