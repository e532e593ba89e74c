"""Exhaustive grid search over block hyperparameters, scored by k-fold
cross-validated RMSE on one target column.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import dataset as ds
from .block import (
    MAX_DEPTH,
    MAX_ITERATIONS,
    MAX_NEURONS,
    MIN_DEPTH,
    MIN_ITERATIONS,
    MIN_NEURONS,
    BlockMetaParams,
    _forward_all,
    init_block,
    train,
    weighted_estimate,
)
from .dataset import MAX_DEGREE, MIN_DEGREE
from .errors import Diverged
from .metrics import rmse
from .rng import derive_seed


def _check_range(name, values, lo, hi):
    values = tuple(values)
    if not values:
        raise ValueError(f"{name} list must be non-empty")
    for v in values:
        if not (lo <= v <= hi):
            raise ValueError(f"{name} value {v} outside [{lo}, {hi}]")
    return values


@dataclass(frozen=True)
class SearchSpace:
    """Candidate value lists; the grid is their Cartesian product."""

    neurons: tuple
    alpha: tuple
    gamma: tuple
    lam: tuple
    iterations: tuple
    depth: tuple = (1,)
    degree: tuple = (0,)

    def __post_init__(self):
        object.__setattr__(self, "neurons",
                           _check_range("neurons", self.neurons, MIN_NEURONS, MAX_NEURONS))
        object.__setattr__(self, "depth",
                           _check_range("depth", self.depth, MIN_DEPTH, MAX_DEPTH))
        object.__setattr__(self, "degree",
                           _check_range("degree", self.degree, MIN_DEGREE, MAX_DEGREE))
        object.__setattr__(self, "iterations",
                           _check_range("iterations", self.iterations,
                                        MIN_ITERATIONS, MAX_ITERATIONS))
        object.__setattr__(self, "alpha", _check_range("alpha", self.alpha, 1e-12, np.inf))
        object.__setattr__(self, "gamma", _check_range("gamma", self.gamma, 1e-12, np.inf))
        object.__setattr__(self, "lam", _check_range("lam", self.lam, 0.0, np.inf))

    def points(self):
        """Grid points in deterministic product order."""
        for n, dp, dg, a, g, l, it in itertools.product(
                self.neurons, self.depth, self.degree, self.alpha,
                self.gamma, self.lam, self.iterations):
            yield BlockMetaParams(neurons=n, depth=dp, degree=dg, alpha=a,
                                  gamma=g, lam=l, iterations=it)

    def size(self) -> int:
        return (len(self.neurons) * len(self.depth) * len(self.degree)
                * len(self.alpha) * len(self.gamma) * len(self.lam)
                * len(self.iterations))


@dataclass
class LeaderboardEntry:
    meta: BlockMetaParams
    mean_rmse: float
    std_rmse: float


def fold_indices(m: int, folds: int, seed: int):
    """Deterministic fold assignment: seeded permutation split into folds."""
    perm = np.random.default_rng(derive_seed(seed, "folds")).permutation(m)
    return [np.sort(part) for part in np.array_split(perm, folds)]


def evaluate_point(meta: BlockMetaParams, data: ds.Dataset, target_index: int,
                   folds: int, seed: int, standardize: bool = True):
    """Mean/std cross-validated RMSE for one grid point.

    A fold that diverges scores the whole point as infinite.  Fold
    assignment and per-fold block seeds depend only on (seed, folds, m), so
    rerunning a single point reproduces its search-time score.
    """
    scores = []
    for f, val_idx in enumerate(fold_indices(data.m, folds, seed)):
        mask = np.ones(data.m, dtype=bool)
        mask[val_idx] = False
        tr = data.take(np.flatnonzero(mask))
        va = data.take(val_idx)
        scaler, (X,) = ds.prepare_features(tr.features, [meta.degree],
                                           fit=standardize)
        _, (Xv,) = ds.prepare_features(va.features, [meta.degree], scaler)
        y = tr.targets[:, target_index]
        try:
            block = init_block(meta, X.shape[1], derive_seed(seed, "fold", f))
            block, _ = train(block, X, y)
            _, raw = _forward_all(block, Xv)
            scores.append(rmse(va.targets[:, target_index],
                               weighted_estimate(raw, block.tau)))
        except Diverged:
            return np.inf, np.inf
        if not np.isfinite(scores[-1]):
            return np.inf, np.inf
    return float(np.mean(scores)), float(np.std(scores, ddof=1))


def grid_search(space: SearchSpace, data: ds.Dataset, target_index: int,
                folds: int = 5, seed: int = 0, standardize: bool = True,
                max_points: int | None = None):
    """Score every grid point; returns (best meta, leaderboard).

    The leaderboard is sorted by mean CV-RMSE ascending with ties broken by
    fewer neurons, then fewer iterations, then smaller gamma.  Diverging
    points stay on the board with an infinite score.  folds is clamped to
    the row count; max_points triggers seeded uniform subsampling of the
    grid.
    """
    if folds < 2:
        raise ValueError("folds must be >= 2")
    folds = min(folds, data.m)
    if not (0 <= target_index < data.n_targets):
        raise ValueError(f"target_index {target_index} out of range")

    points = list(space.points())
    if max_points is not None and len(points) > max_points:
        rng = np.random.default_rng(derive_seed(seed, "subsample"))
        keep = np.sort(rng.choice(len(points), size=max_points, replace=False))
        points = [points[i] for i in keep]

    entries = [LeaderboardEntry(meta, *evaluate_point(
        meta, data, target_index, folds, seed, standardize=standardize))
        for meta in points]
    entries.sort(key=lambda e: (e.mean_rmse, e.meta.neurons,
                                e.meta.iterations, e.meta.gamma))
    return entries[0].meta, entries


def write_leaderboard_csv(entries, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("neurons,depth,degree,alpha,gamma,lambda,iterations,"
                 "mean_cv_rmse,std_cv_rmse\n")
        for e in entries:
            m = e.meta
            fh.write(f"{m.neurons},{m.depth},{m.degree},{m.alpha!r},{m.gamma!r},"
                     f"{m.lam!r},{m.iterations},{e.mean_rmse!r},{e.std_rmse!r}\n")
