"""Exhaustive grid search over block hyperparameters, scored by k-fold
cross-validated RMSE on one target column, or on several at once.

Every (target, grid point, fold) triple is one block.  Fold assignment,
fold features and block seeds do not depend on the target, so one
block.run_blocks call trains every target's blocks: it trains blocks of
one shape (training rows, input width, neurons, depth, iterations)
together as a stack, so a grid costs a few B-way loops rather than one
loop per block, and cuts a group of 2 * block.PART_BLOCKS blocks or more
into sub-stacks that train at the same time on forked workers, one per
usable CPU.  Either way every score has the bits of its point trained
alone, for its target alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields

import numpy as np

from . import dataset as ds
from .block import BlockMetaParams, blocks_output, init_block, run_blocks, violation
from .errors import Diverged, TooFewRows
from .metrics import rmse
from .rng import derive_seed


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
        for f in fields(self):
            values = tuple(getattr(self, f.name))
            if not values:
                raise ValueError(f"{f.name} list must be non-empty")
            for v in values:
                what = violation(f.name, v)
                if what and what.startswith("in "):
                    raise ValueError(f"{f.name} must be {what}, got {v!r}")
                if what:
                    raise ValueError(f"{f.name} value {v!r} is not {what}")
            object.__setattr__(self, f.name, values)

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


def _fold_features(data: ds.Dataset, folds: int, seed: int, degrees,
                   standardize: bool):
    """Per fold: (training inputs by degree, training targets (m, N),
    validation inputs by degree, validation targets)."""
    out = []
    for f, val_idx in enumerate(fold_indices(data.m, folds, seed), 1):
        mask = np.ones(data.m, dtype=bool)
        mask[val_idx] = False
        tr = data.take(np.flatnonzero(mask))
        va = data.take(val_idx)
        if standardize and tr.m < 2:
            raise TooFewRows(f"the training part of fold {f} of {folds} has "
                             f"{tr.m} row; standardize needs at least 2 rows")
        scaler, Xs = ds.prepare_features(tr.features, degrees, fit=standardize)
        _, Xvs = ds.prepare_features(va.features, degrees, scaler)
        out.append((dict(zip(degrees, Xs)), tr.targets,
                    dict(zip(degrees, Xvs)), va.targets))
    return out


def _score_points(points, data, target_indices, folds, seed, standardize):
    """Per target index, the (mean, std) cross-validated RMSE of every
    point, in points order, from one run_blocks call; folds is clamped to
    the row count."""
    check_grid_args(folds, None)
    if data.m < 2:
        raise TooFewRows(f"cross-validation needs at least 2 rows, got {data.m}")
    folds = min(folds, data.m)
    fold_data = _fold_features(data, folds, seed,
                               sorted({p.degree for p in points}), standardize)
    jobs = [(t, meta, f) for t in target_indices for meta in points
            for f in range(len(fold_data))]
    train_X = [fold_data[f][0][meta.degree] for _, meta, f in jobs]
    val_X = [fold_data[f][2][meta.degree] for _, meta, f in jobs]
    outcomes = run_blocks(
        [init_block(meta, X.shape[1], derive_seed(seed, "fold", f))
         for (_, meta, f), X in zip(jobs, train_X)],
        train_X, [fold_data[f][1][:, t] for t, _, f in jobs],
        [meta.iterations for _, meta, _ in jobs])
    done = [j for j, out in enumerate(outcomes) if not isinstance(out, Diverged)]
    est = blocks_output([outcomes[j][0] for j in done], [val_X[j] for j in done])
    scores = np.full(len(jobs), np.inf)
    for j, e in zip(done, est):
        t, _, f = jobs[j]
        scores[j] = rmse(fold_data[f][3][:, t], e)
    return [[(float(np.mean(row)), float(np.std(row, ddof=1)))
             if np.all(np.isfinite(row)) else (np.inf, np.inf)
             for row in per_target]
            for per_target in scores.reshape(len(target_indices), len(points),
                                             len(fold_data))]


def evaluate_point(meta: BlockMetaParams, data: ds.Dataset, target_index: int,
                   folds: int, seed: int, standardize: bool = True):
    """Mean/std cross-validated RMSE for one grid point.

    A fold that diverges scores the whole point as infinite.  Fold
    assignment and per-fold block seeds depend only on (seed, folds, m),
    folds clamped to m as grid_search clamps it, and a block's training
    does not depend on what it is stacked with, so rerunning a single
    point reproduces its search-time score.
    """
    return _score_points([meta], data, [target_index], folds, seed,
                         standardize)[0][0]


def check_grid_args(folds: int, max_points: int | None) -> None:
    """ValueError for a fold count or a point budget grid_search cannot use."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if max_points is not None and max_points < 1:
        raise ValueError("max_points must be >= 1")


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
    return grid_search_targets(space, data, [target_index], folds, seed,
                               standardize, max_points)[0]


def grid_search_targets(space: SearchSpace, data: ds.Dataset, target_indices,
                        folds: int = 5, seed: int = 0, standardize: bool = True,
                        max_points: int | None = None) -> list:
    """grid_search of every target index, in order, training all their
    blocks at once; each (best meta, leaderboard) equals grid_search of
    its target alone."""
    check_grid_args(folds, max_points)
    target_indices = list(target_indices)
    for t in target_indices:
        if not (0 <= t < data.n_targets):
            raise ValueError(f"target_index {t} out of range")

    points = list(space.points())
    if max_points is not None and len(points) > max_points:
        rng = np.random.default_rng(derive_seed(seed, "subsample"))
        keep = np.sort(rng.choice(len(points), size=max_points, replace=False))
        points = [points[i] for i in keep]

    out = []
    for scores in _score_points(points, data, target_indices, folds, seed,
                                standardize):
        entries = [LeaderboardEntry(meta, *score)
                   for meta, score in zip(points, scores)]
        entries.sort(key=lambda e: (e.mean_rmse, e.meta.neurons,
                                    e.meta.iterations, e.meta.gamma))
        out.append((entries[0].meta, entries))
    return out


def write_leaderboard_csv(entries, path) -> None:
    ds.write_csv(path, ["neurons", "depth", "degree", "alpha", "gamma", "lambda",
                        "iterations", "mean_cv_rmse", "std_cv_rmse"],
                 ([*e.meta.to_dict().values(), e.mean_rmse, e.std_rmse]
                  for e in entries))
