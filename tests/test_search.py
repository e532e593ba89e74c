import csv

import numpy as np
import pytest

from weldnet.dataset import synthesize_weld
from weldnet.search import (
    SearchSpace,
    evaluate_point,
    fold_indices,
    grid_search,
    write_leaderboard_csv,
)


@pytest.fixture(scope="module")
def weld_small():
    return synthesize_weld(40, 0.05, seed=0)


def tiny_space(**kw):
    base = dict(neurons=(3,), alpha=(1.0,), gamma=(1.0,), lam=(0.0,),
                iterations=(1000,))
    base.update(kw)
    return SearchSpace(**base)


class TestSearchSpace:
    def test_size_and_order(self):
        space = tiny_space(neurons=(3, 5), gamma=(1.0, 2.0))
        points = list(space.points())
        assert space.size() == len(points) == 4
        assert [(p.neurons, p.gamma) for p in points] == [
            (3, 1.0), (3, 2.0), (5, 1.0), (5, 2.0)]

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            tiny_space(alpha=())

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            tiny_space(neurons=(1,))
        with pytest.raises(ValueError):
            tiny_space(iterations=(500,))


class TestFolds:
    def test_partition(self):
        folds = fold_indices(17, 5, seed=3)
        joined = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(joined, np.arange(17))

    def test_deterministic(self):
        a = fold_indices(20, 4, seed=1)
        b = fold_indices(20, 4, seed=1)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)


class TestGridSearch:
    def test_single_point(self, weld_small):
        space = tiny_space()
        best, board = grid_search(space, weld_small, 0, folds=3, seed=0)
        assert len(board) == 1
        assert best == board[0].meta
        assert np.isfinite(board[0].mean_rmse)

    def test_diverging_point_ranks_last(self, weld_small):
        space = tiny_space(alpha=(1.0, 5000.0), gamma=(100.0,))
        best, board = grid_search(space, weld_small, 0, folds=3, seed=0)
        assert board[-1].mean_rmse == np.inf
        assert best.alpha == 1.0 or np.isfinite(board[0].mean_rmse)

    def test_leaderboard_sorted_and_rerun_consistent(self, weld_small):
        space = tiny_space(neurons=(3, 5), alpha=(0.5, 1.0))
        best, board = grid_search(space, weld_small, 1, folds=3, seed=4)
        assert len(board) == 4
        scores = [e.mean_rmse for e in board]
        assert scores == sorted(scores)
        for entry in board:
            mean, std = evaluate_point(entry.meta, weld_small, 1, folds=3,
                                       seed=4)
            assert mean == entry.mean_rmse and std == entry.std_rmse
        assert board[0].mean_rmse <= min(scores[1:] or [np.inf])

    def test_deterministic(self, weld_small):
        space = tiny_space(gamma=(0.5, 1.0))
        a = grid_search(space, weld_small, 0, folds=3, seed=7)
        b = grid_search(space, weld_small, 0, folds=3, seed=7)
        assert a[0] == b[0]
        assert [(e.meta, e.mean_rmse) for e in a[1]] == \
            [(e.meta, e.mean_rmse) for e in b[1]]

    def test_tie_break_on_infinite_scores(self, weld_small):
        # both points diverge so both score inf; fewer neurons wins
        space = tiny_space(neurons=(9, 4), alpha=(5000.0,), gamma=(100.0,))
        best, board = grid_search(space, weld_small, 0, folds=2, seed=0)
        assert [e.meta.neurons for e in board] == [4, 9]
        assert best.neurons == 4

    def test_max_points_subsampling(self, weld_small):
        space = tiny_space(neurons=(3, 4, 5), alpha=(0.5, 1.0))
        _, board = grid_search(space, weld_small, 0, folds=2, seed=1,
                               max_points=3)
        assert len(board) == 3

    def test_folds_clamped_to_rows(self):
        data = synthesize_weld(6, 0.0, seed=1)
        _, board = grid_search(tiny_space(), data, 0, folds=50, seed=0)
        assert len(board) == 1

    def test_leaderboard_csv(self, weld_small, tmp_path):
        space = tiny_space(gamma=(0.5, 1.0))
        _, board = grid_search(space, weld_small, 0, folds=2, seed=2)
        p = tmp_path / "board.csv"
        write_leaderboard_csv(board, p)
        lines = p.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].split(",")[:3] == ["neurons", "depth", "degree"]

    def test_leaderboard_csv_round_trips(self, weld_small, tmp_path):
        space = tiny_space(neurons=(3, 4), alpha=(0.5, 1.0), gamma=(0.5, 1.0))
        _, board = grid_search(space, weld_small, 1, folds=3, seed=4)
        p = tmp_path / "board.csv"
        write_leaderboard_csv(board, p)
        with open(p, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(board)
        for row, e in zip(rows, board):
            m = e.meta
            assert [int(row[k]) for k in ("neurons", "depth", "degree",
                                          "iterations")] == [
                m.neurons, m.depth, m.degree, m.iterations]
            assert [float(row[k]).hex() for k in (
                "alpha", "gamma", "lambda", "mean_cv_rmse", "std_cv_rmse")] == [
                float(v).hex() for v in (m.alpha, m.gamma, m.lam, e.mean_rmse,
                                         e.std_rmse)]

    def test_bad_counts_rejected(self, weld_small):
        with pytest.raises(ValueError, match="folds"):
            grid_search(tiny_space(), weld_small, 0, folds=1)
        with pytest.raises(ValueError, match="max_points must be >= 1"):
            grid_search(tiny_space(), weld_small, 0, folds=2, max_points=0)


class TestStackedScoring:
    """grid_search trains every (point, fold) block in same-shape stacks;
    each score must equal the point scored on its own."""

    def test_unequal_folds_mixed_shapes(self):
        data = synthesize_weld(203, 0.05, seed=5)  # folds of 41 and 40 rows
        assert {len(f) for f in fold_indices(203, 5, 2)} == {40, 41}
        space = tiny_space(neurons=(3, 5), degree=(0, 1),
                           iterations=(1000, 1100), alpha=(0.5,))
        _, board = grid_search(space, data, 0, folds=5, seed=2)
        assert len(board) == 8
        for e in board:
            assert np.isfinite(e.mean_rmse)
            assert evaluate_point(e.meta, data, 0, folds=5, seed=2) == \
                (e.mean_rmse, e.std_rmse)

    def test_diverging_point_among_finite_ones(self, weld_small):
        space = tiny_space(alpha=(0.5, 5000.0, 1.0), gamma=(1.0, 2.0))
        _, board = grid_search(space, weld_small, 0, folds=3, seed=1)
        assert [e.meta.alpha for e in board[-2:]] == [5000.0, 5000.0]
        assert all(e.mean_rmse == np.inf for e in board[-2:])
        assert all(np.isfinite(e.mean_rmse) for e in board[:-2])
        for e in board:
            assert evaluate_point(e.meta, weld_small, 0, folds=3, seed=1) == \
                (e.mean_rmse, e.std_rmse)

    def test_chunked_groups_score_the_same(self, weld_small, monkeypatch):
        space = tiny_space(alpha=(0.5, 1.0), gamma=(1.0, 2.0))
        _, whole = grid_search(space, weld_small, 1, folds=3, seed=0)
        monkeypatch.setattr("weldnet.search.STACK_ELEMENTS", 1)  # B = 1
        _, single = grid_search(space, weld_small, 1, folds=3, seed=0)
        assert [(e.meta, e.mean_rmse, e.std_rmse) for e in whole] == \
            [(e.meta, e.mean_rmse, e.std_rmse) for e in single]
