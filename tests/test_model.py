import copy
import json
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import resize_hidden_loop, resize_width
from weldnet import block, cli, model as mdl
from weldnet.block import (
    OUTPUT_ROWS,
    BlockMetaParams,
    init_block,
    run_steps,
    train,
)
from weldnet.dataset import (
    Dataset,
    ScalerParams,
    save_csv,
    split,
    standardize,
    synthesize_weld,
)
from weldnet.errors import DimensionMismatch, Diverged, FormatError, IoError
from weldnet.model import (
    RESIZE_MARGIN,
    AggregateModel,
    _candidate_widths,
    _resize_width,
    load,
    predict,
    resize_hidden,
    save,
    train_all,
)
from weldnet.rng import derive_seed


def quick_meta(**kw):
    base = dict(neurons=4, alpha=1.0, gamma=1.0, lam=0.0, iterations=1000)
    base.update(kw)
    return BlockMetaParams(**base)


@pytest.fixture(scope="module")
def weld_train():
    data = synthesize_weld(80, 0.02, seed=0)
    return data


class TestTrainAll:
    def test_single_target_reduces_to_block_train(self, weld_train):
        single = Dataset(weld_train.features, weld_train.targets[:, :1],
                         weld_train.feature_names, ["penetration"])
        meta = quick_meta()
        model, traces = train_all([meta], single, seed=5)
        # replicate by hand with the derived per-target seed
        scaled, _ = standardize(single)
        block = init_block(meta, 3, derive_seed(5, "penetration"))
        block, _ = run_steps(block, scaled.features, scaled.targets[:, 0], 1000)
        for a, b in zip(model.blocks[0].matrices(), block.matrices()):
            np.testing.assert_array_equal(a, b)
        assert model.blocks[0].tau == block.tau

    def test_trace_lengths(self, weld_train):
        model, traces = train_all([quick_meta(), quick_meta(iterations=1200)],
                                  weld_train, seed=0)
        assert len(traces[0]) == 1000 and len(traces[1]) == 1200

    def test_block_independence_and_permutation(self, weld_train):
        m1 = quick_meta()
        m2 = quick_meta(neurons=6)
        model_a, _ = train_all([m1, m2], weld_train, seed=3)
        flipped = Dataset(weld_train.features, weld_train.targets[:, ::-1],
                          weld_train.feature_names,
                          list(reversed(weld_train.target_names)))
        model_b, _ = train_all([m2, m1], flipped, seed=3)
        preds_a = predict(model_a, weld_train.features)
        preds_b = predict(model_b, weld_train.features)
        np.testing.assert_array_equal(preds_a, preds_b[:, ::-1])

    def test_single_block_matches_two_block_run(self, weld_train):
        m1 = quick_meta()
        m2 = quick_meta(neurons=6)
        both, _ = train_all([m1, m2], weld_train, seed=7)
        single = Dataset(weld_train.features, weld_train.targets[:, :1],
                         weld_train.feature_names, [weld_train.target_names[0]])
        alone, _ = train_all([m1], single, seed=7)
        for a, b in zip(both.blocks[0].matrices(), alone.blocks[0].matrices()):
            np.testing.assert_array_equal(a, b)

    def test_meta_count_validated(self, weld_train):
        with pytest.raises(ValueError):
            train_all([quick_meta()], weld_train, seed=0)

    def test_per_block_degree(self, weld_train):
        model, _ = train_all([quick_meta(degree=2), quick_meta()],
                             weld_train, seed=0)
        assert model.blocks[0].input_dim == 9
        assert model.blocks[1].input_dim == 3
        preds = predict(model, weld_train.features)
        assert preds.shape == (weld_train.m, 2)


# Probe costs around a current cost of 1.0: the margin's edge and the
# float just below it, ties, NaN and inf.
PROBE_COSTS = [0.25, 0.5, 1.0, 1.0 * (1.0 - RESIZE_MARGIN),
               np.nextafter(1.0 * (1.0 - RESIZE_MARGIN), 0.0), 2.0, np.nan,
               np.inf]


def width_chosen_by_loop(probed, k, entry_cost):
    """The width resize_hidden adopted when a loop over the widths chose
    it: probed maps each width to (candidate or None, validation cost)."""
    current_cost = probed[k][1]
    best_w, best_cost = None, np.inf
    for w in sorted(probed):
        if w == k:
            continue
        if probed[w][1] < best_cost:
            best_w, best_cost = w, probed[w][1]
    if (best_w is not None and probed[best_w][0] is not None
            and best_cost < current_cost * (1.0 - RESIZE_MARGIN)
            and best_cost <= entry_cost):
        return best_w
    return k


@pytest.fixture(scope="module")
def resize_rows():
    """(X, y, Xv, yv): 45 fit and 15 validation standardized rows of one
    target."""
    scaled, _ = standardize(synthesize_weld(60, 0.05, seed=4))
    X, y = scaled.features, scaled.targets[:, 0]
    return X[:45], y[:45], X[45:], y[45:]


class TestResize:
    def test_candidate_widths_clamped(self):
        assert _candidate_widths(2) == [2, 3]
        assert _candidate_widths(100) == [99, 100]
        assert _candidate_widths(50) == [49, 50, 51]

    @pytest.mark.parametrize("depth", [1, 3])
    def test_resize_shapes(self, depth):
        block = init_block(quick_meta(neurons=5, depth=depth), 3, seed=0)
        rng = np.random.default_rng(0)
        grown = _resize_width(block, 6, rng)
        assert grown.theta1.shape == (4, 6)
        assert grown.theta2.shape == (7, 1)
        assert all(th.shape == (7, 6) for th in grown.hidden)
        shrunk = _resize_width(block, 4, rng)
        assert shrunk.theta1.shape == (4, 4)
        assert shrunk.theta2.shape == (5, 1)
        assert all(th.shape == (5, 4) for th in shrunk.hidden)

    def test_grow_preserves_old_unit_weights(self):
        block = init_block(quick_meta(neurons=3), 2, seed=1)
        grown = _resize_width(block, 4, np.random.default_rng(1))
        np.testing.assert_array_equal(grown.theta1[:, :3], block.theta1)
        np.testing.assert_array_equal(grown.theta2[:4], block.theta2)
        assert grown.theta1[0, 3] == 0.0  # fresh unit starts with zero bias

    def test_shrink_drops_least_norm_column(self):
        block = init_block(quick_meta(neurons=3), 2, seed=2)
        block.theta1[:, 1] = 1e-6
        shrunk = _resize_width(block, 2, np.random.default_rng(2))
        np.testing.assert_array_equal(shrunk.theta1,
                                      block.theta1[:, [0, 2]])
        np.testing.assert_array_equal(shrunk.theta2,
                                      block.theta2[[0, 1, 3]])

    @settings(max_examples=80, deadline=None)
    @given(depth=st.integers(1, 4), d=st.integers(1, 7), k=st.integers(3, 12),
           step=st.sampled_from([-1, 0, 1]), seed=st.integers(0, 2**16),
           scale=st.sampled_from([1.0, 0.0, 1e200]))
    def test_resize_equals_matrix_by_matrix(self, depth, d, k, step, seed,
                                            scale):
        """Every weight bit, the meta, tau, nu and the generator's state
        afterwards equal the resize written matrix by matrix
        (tests/oracles.py); a scale of 0 ties every column norm, and 1e200
        makes them overflow to inf."""
        block = init_block(quick_meta(neurons=k, depth=depth), d, seed)
        block = replace(block, theta1=block.theta1 * scale, tau=0.25, nu=-0.5)
        got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
        got = _resize_width(block, k + step, got_rng)
        want = resize_width(block, k + step, want_rng)
        assert got.meta == want.meta and got.width == k + step
        assert len(got.matrices()) == len(want.matrices()) == depth + 1
        for a, b in zip(got.matrices(), want.matrices()):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert (got.tau, got.nu) == (want.tau, want.nu)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_width_stays_in_bounds_and_val_cost_never_worse(self, resize_rows):
        from weldnet.block import cost
        X, y, Xv, yv = resize_rows
        block = init_block(quick_meta(neurons=2), 3, seed=4)
        block, _ = run_steps(block, X, y, 200)
        before = cost(block, Xv, yv)
        resized = resize_hidden(block, X, y, Xv, yv, seed=4)
        assert 2 <= resized.width <= 100
        assert cost(resized, Xv, yv) <= before

    @pytest.mark.parametrize("bad", ["X", "y", "Xv", "yv", "Xv-all-diverge"])
    def test_rows_of_the_wrong_shape_are_rejected(self, resize_rows, bad):
        """Fit or validation rows one column too wide, or targets one row
        short, against a block of 3 inputs; and validation rows of 7
        columns where every probe diverges, so none is scored on them."""
        rows = dict(zip(["X", "y", "Xv", "yv"], resize_rows))
        meta = quick_meta(neurons=3)
        if bad == "Xv-all-diverge":
            meta = quick_meta(neurons=3, alpha=1e6, gamma=1e308)
            rows.update(X=rows["X"][:20] * 50.0, y=rows["y"][:20] * 1e3,
                        Xv=np.zeros((5, 7)), yv=rows["yv"][:5])
        else:
            rows[bad] = (np.hstack([rows[bad], rows[bad][:, :1]])
                         if bad[0] == "X" else rows[bad][:-1])
        block = init_block(meta, 3, seed=4)
        with pytest.raises(DimensionMismatch):
            resize_hidden(block, *rows.values(), seed=4)

    def test_underfit_escape_majority_grows(self):
        data = synthesize_weld(200, 0.02, seed=1)
        grew = 0
        for seed in range(10):
            scaled, _ = standardize(data)
            perm = np.random.default_rng(seed).permutation(data.m)
            vi, fi = np.sort(perm[:40]), np.sort(perm[40:])
            X, y = scaled.features[fi], scaled.targets[fi, 0]
            Xv, yv = scaled.features[vi], scaled.targets[vi, 0]
            block = init_block(quick_meta(neurons=2), 3, seed)
            block, _ = run_steps(block, X, y, 300)
            for round_ in range(6):
                block = resize_hidden(block, X, y, Xv, yv, seed * 100 + round_)
                block, _ = run_steps(block, X, y, 150)
            if block.width > 2:
                grew += 1
        assert grew >= 6

    @settings(max_examples=300, deadline=None)
    @given(k=st.sampled_from([2, 3, 50, 100]), data=st.data())
    def test_width_choice_equals_the_loop(self, k, data):
        """Probe costs drawn with NaN, inf, ties, both sides of the margin
        and of the entry bound, and probes that diverge (None): the width
        resize_hidden adopts is the one the loop below chose, and the entry
        cost is computed only when the margin test has passed."""
        block = init_block(quick_meta(neurons=k), 2, seed=0)
        costs = {w: data.draw(st.sampled_from(PROBE_COSTS) | st.none(),
                              label=f"cost of {w}")
                 for w in _candidate_widths(k)}
        entry = data.draw(st.sampled_from(PROBE_COSTS), label="entry cost")
        entry_calls = []

        def probe(cands, X, y, n, use_tau):
            return [Diverged(iteration=1) if costs[cand.width] is None
                    else (replace(cand), None) for cand in cands]

        def val_cost(blk, X, y):
            if blk is block:
                entry_calls.append(blk)
                return entry
            return costs[blk.width]

        X, y = np.zeros((3, 2)), np.zeros(3)
        with patch.object(mdl, "run_blocks", probe), \
                patch.object(mdl, "cost", val_cost):
            got = resize_hidden(block, X, y, X, y, seed=0)
        probed = {w: (None, np.inf) if c is None else (w, c)
                  for w, c in costs.items()}
        want = width_chosen_by_loop(probed, k, entry)
        assert got.width == want
        assert (got is block) == (want == k)
        finite = [c for w, (_, c) in probed.items() if w != k and np.isfinite(c)]
        margin_passed = bool(finite) and (
            min(finite) < probed[k][1] * (1.0 - RESIZE_MARGIN))
        assert len(entry_calls) == margin_passed

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(k=st.sampled_from([2, 3, 50, 100]), depth=st.integers(1, 3),
           use_tau=st.booleans(), poison=st.booleans(),
           seed=st.integers(0, 2**16))
    def test_one_call_equals_the_probe_loop(self, resize_rows, k, depth,
                                            use_tau, poison, seed):
        """resize_hidden, which probe-trains its candidates in one
        run_blocks call, returns the block the per-candidate loop of
        tests/oracles.py returns, bit for bit.  poison gives unit j of the
        started block a zero theta1 column (the least norm, so the shrunk
        candidate drops it) and an output weight of 1e200, so every
        candidate keeping it diverges: at width 100 one of two, at 2 both."""
        X, y, Xv, yv = resize_rows
        blk = init_block(quick_meta(neurons=k, depth=depth, lam=0.01),
                         X.shape[1], seed)
        blk, _ = run_steps(blk, X, y, 20, use_tau=use_tau)
        if poison:
            j = seed % k
            blk.theta1[:, j] = 0.0
            blk.theta2[1 + j] = 1e200
        want, probed = resize_hidden_loop(blk, X, y, Xv, yv, seed, use_tau)
        got = resize_hidden(blk, X, y, Xv, yv, seed, use_tau=use_tau)
        if poison:
            assert [w for w, (c, _) in probed.items() if c is None] == [
                w for w in probed if w >= k]
        assert (got is blk) == (want is blk)
        assert got.meta == want.meta
        for a, b in zip(got.matrices(), want.matrices(), strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert np.float64(got.tau).tobytes() == np.float64(want.tau).tobytes()
        assert np.float64(got.nu).tobytes() == np.float64(want.nu).tobytes()

    def test_dynamic_width_trace_length_preserved(self, weld_train):
        meta = quick_meta(neurons=2)
        model, traces = train_all([meta, meta], weld_train, seed=2,
                                  dynamic_width=True)
        assert all(len(t) == 1000 for t in traces)
        assert all(2 <= b.width <= 100 for b in model.blocks)

    @pytest.mark.parametrize("use_tau", [True, False])
    @pytest.mark.parametrize("jitter", [False, True])
    @pytest.mark.parametrize("alpha, gamma", [(1.0, 1.0), (2.5, 2.0)],
                             ids=["steady", "diverging"])
    def test_segments_without_resizing_are_one_run(self, weld_train,
                                                   monkeypatch, use_tau,
                                                   jitter, alpha, gamma):
        """With resize_hidden a no-op, the RESIZE_PERIOD segments of
        _train_dynamic are one uninterrupted run_steps over the fit split,
        bit for bit, also when the period does not divide the iterations;
        a divergence after the first segment is numbered and traced from
        iteration 1."""
        resizes = []

        def keep_width(block, X, y, Xv, yv, seed, use_tau=True):
            resizes.append(seed)
            return block

        monkeypatch.setattr(mdl, "resize_hidden", keep_width)
        scaled, _ = standardize(weld_train)
        X, y = scaled.features, scaled.targets[:, 0]
        meta = quick_meta(neurons=3, depth=2, alpha=alpha, gamma=gamma,
                          iterations=1100)
        start = init_block(meta, X.shape[1], seed=4)

        def rng():
            return np.random.default_rng(9) if jitter else None

        got = mdl._train_dynamic(start, X, y, use_tau, rng(), 5, "p")
        fit, _ = split(Dataset(X, y[:, None], scaled.feature_names, ["p"]),
                       mdl.VAL_FRACTION, derive_seed(5, "p", "val"))
        try:
            want = run_steps(start, fit.features, fit.targets[:, 0], 1100,
                             use_tau=use_tau, jitter_rng=rng())
        except Diverged as exc:
            assert exc.iteration > mdl.RESIZE_PERIOD
            assert isinstance(got, Diverged)
            assert got.iteration == exc.iteration
            assert got.trace == exc.trace
            assert len(resizes) == (exc.iteration - 1) // mdl.RESIZE_PERIOD
            return
        assert alpha == 1.0
        (got, got_trace), (want, want_trace) = got, want
        assert len(resizes) == 1100 // mdl.RESIZE_PERIOD
        for a, b in zip(got.matrices(), want.matrices(), strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert np.float64(got.tau).tobytes() == np.float64(want.tau).tobytes()
        assert np.float64(got.nu).tobytes() == np.float64(want.nu).tobytes()
        assert got_trace == want_trace and len(got_trace) == 1100


class TestPredict:
    def test_zero_model_predicts_zero(self):
        block = init_block(quick_meta(), 3, seed=0)
        for th in block.matrices():
            th[:] = 0.0
        model = AggregateModel([block], None, ["p"])
        np.testing.assert_array_equal(predict(model, np.ones((4, 3))),
                                      np.zeros((4, 1)))

    def test_single_row_matches_batch(self, weld_train):
        # BLAS picks different kernels per shape, so agreement is to float
        # precision rather than bitwise
        model, _ = train_all([quick_meta(), quick_meta()], weld_train, seed=1)
        batch = predict(model, weld_train.features[:6])
        for i in range(6):
            row = predict(model, weld_train.features[i:i + 1])
            np.testing.assert_allclose(row[0], batch[i], rtol=0, atol=1e-12)

    def test_dimension_mismatch(self, weld_train):
        model, _ = train_all([quick_meta(), quick_meta()], weld_train, seed=1)
        with pytest.raises(DimensionMismatch):
            predict(model, np.zeros((2, 5)))

    def test_zero_rows(self):
        model = AggregateModel([init_block(quick_meta(depth=depth), 3, seed=0)
                                for depth in (1, 3)], None, ["a", "b"])
        out = predict(model, np.empty((0, 3)))
        assert out.shape == (0, 2) and out.dtype == np.float64


class TestPredictTiles:
    """predict runs the rows through the hidden layers in tiles of
    OUTPUT_ROWS and through the output matrix in one call."""

    @pytest.fixture(scope="class")
    def model(self, weld_train):
        metas = [quick_meta(neurons=6, depth=2, degree=1),
                 quick_meta(neurons=5, degree=2)]
        return train_all(metas, weld_train, seed=2)[0]

    @pytest.fixture(scope="class")
    def wide_model(self, weld_train):
        """Tall matrices: (16, 2) on the 15 degree-4 features, for which
        BLAS gives other bits to a matmul of 16384 rows than to one of 10^5,
        and (21, 40) and (41, 1) in a block of width 40, whose output
        column takes other bits for a few rows when the output matrix is
        applied tile by tile.  That last difference is threaded BLAS's: a
        matrix-vector product's bits depend on how its threads split the
        rows, so with one OpenBLAS thread the tiles give the bits of one
        call, and with two they need not."""
        metas = [quick_meta(neurons=2, degree=4),
                 quick_meta(neurons=40, degree=5)]
        return train_all(metas, weld_train, seed=2)[0]

    def test_slices_match_the_whole(self, model):
        """The model's matrices have at most 16 rows, where BLAS gives a row
        the same bits whatever the row count of the call (for taller
        matrices it can choose another kernel for a shorter call), so any
        difference here would come from the tiling."""
        X = synthesize_weld(2 * OUTPUT_ROWS + 300, 0.02, seed=3).features
        whole = predict(model, X)
        n, t = len(X), OUTPUT_ROWS
        for i, j in [(0, 10), (t - 5, t + 5), (t - 1, 2 * t + 1),
                     (100, t + 150), (2 * t - 20, n), (n - 12, n), (0, n)]:
            assert predict(model, X[i:j]).tobytes() == whole[i:j].tobytes()

    def test_tile_size_changes_nothing(self, model, monkeypatch):
        X = synthesize_weld(500, 0.02, seed=4).features
        one_tile = predict(model, X)
        monkeypatch.setattr(block, "OUTPUT_ROWS", 16)
        for sigmoid_rows in (1, 7, len(X) + 1):
            monkeypatch.setattr(block, "SIGMOID_ROWS", sigmoid_rows)
            assert predict(model, X).tobytes() == one_tile.tobytes()

    def test_tiles_match_a_single_pass(self, wide_model, monkeypatch):
        """With tall matrices too, the tiled predict has the bits of one
        pass over all rows (three tiles here)."""
        X = synthesize_weld(65_539, 0.02, seed=5).features
        assert 2 * OUTPUT_ROWS < len(X)
        tiled = predict(wide_model, X)
        monkeypatch.setattr(block, "OUTPUT_ROWS", len(X) + 1)
        assert predict(wide_model, X).tobytes() == tiled.tobytes()

    def test_buffers_stay_few(self):
        """Two blocks of width 40 and depth 3, each its own stack, on two
        tiles: the traced peak of predict stays within 3 times the output
        matrix's input (m, k+1), where a training workspace per tile length
        took over 7 times."""
        meta = quick_meta(neurons=40, depth=3)
        model = AggregateModel([init_block(meta, 3, seed=s) for s in (0, 1)],
                               None, ["a", "b"])
        X = np.random.default_rng(0).normal(size=(2 * OUTPUT_ROWS + 1000, 3))
        tracemalloc.start()
        try:
            predict(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * len(X) * 41 * 8


class TestPersistence:
    def test_round_trip_predictions(self, weld_train, tmp_path):
        model, _ = train_all(
            [quick_meta(lam=0.001), quick_meta(depth=2, degree=1)],
            weld_train, seed=6)
        path = tmp_path / "model.json"
        save(model, path)
        back = load(path)
        np.testing.assert_array_equal(predict(back, weld_train.features),
                                      predict(model, weld_train.features))
        assert back.target_names == model.target_names

    def test_double_round_trip_bytes(self, weld_train, tmp_path):
        model, _ = train_all([quick_meta(), quick_meta()], weld_train, seed=6)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save(model, p1)
        save(load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), n_targets=st.integers(1, 3),
           width=st.integers(1, 4), scaled=st.booleans(),
           seed=st.integers(0, 2**16))
    def test_round_trip_is_exact(self, data, n_targets, width, scaled, seed):
        """Random depth, hidden width and degree per block, weights and
        shifts over the whole float range, with and without a scaler."""
        rng = np.random.default_rng(seed)

        def floats(shape):
            return (rng.standard_normal(shape)
                    * 10.0 ** rng.integers(-300, 300, shape))

        blocks = []
        for _ in range(n_targets):
            meta = BlockMetaParams(
                neurons=data.draw(st.integers(2, 12)),
                depth=data.draw(st.integers(1, 4)),
                degree=data.draw(st.integers(0, 6)),
                alpha=data.draw(st.floats(1e-6, 1e6)),
                gamma=data.draw(st.floats(1e-6, 1e6)),
                lam=data.draw(st.floats(0.0, 1e6)), iterations=1000)
            blk = init_block(meta, width * (meta.degree + 1), seed)
            for th in blk.matrices():
                th[:] = floats(th.shape)
            blk.tau = float(floats(()))
            blocks.append(blk)
        scaler = (ScalerParams(floats(width), np.abs(floats(width)) + 1e-300)
                  if scaled else None)
        model = AggregateModel(blocks, scaler,
                               [f"t{i}" for i in range(n_targets)])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            save(model, path)
            back = load(path)
            save(back, Path(tmp) / "again.json")
            assert (Path(tmp) / "again.json").read_bytes() == path.read_bytes()
        assert back.target_names == model.target_names
        if scaled:
            for got, want in ((back.scaler.means, scaler.means),
                              (back.scaler.stds, scaler.stds)):
                assert got.tobytes() == want.tobytes()
        else:
            assert back.scaler is None
        for got, want in zip(back.blocks, model.blocks):
            assert got.meta == want.meta
            assert np.float64(got.tau).tobytes() == np.float64(want.tau).tobytes()
            assert len(got.matrices()) == len(want.matrices())
            for a, b in zip(got.matrices(), want.matrices()):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_wrong_version(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"version": 99, "targets": [], "blocks": []}')
        with pytest.raises(FormatError) as err:
            load(p)
        assert err.value.version == 99

    def test_empty_path_io_error(self, weld_train):
        model, _ = train_all([quick_meta(), quick_meta()], weld_train, seed=6)
        with pytest.raises(IoError):
            save(model, "")
        with pytest.raises(IoError):
            load("")

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "garbage.json"
        p.write_text("{not json")
        with pytest.raises(FormatError):
            load(p)

    @pytest.mark.parametrize("content", [
        b"[" * 100000 + b"]" * 100000, b'{"version": 1, "targets": ["\xff"]}',
        b'{"version": 1' + b"0" * 5000 + b"}"],
        ids=["nested", "not-utf8", "int-too-long"])
    def test_unparsable_file_is_format_error(self, tmp_path, content):
        p = tmp_path / "model.json"
        p.write_bytes(content)
        with pytest.raises(FormatError) as err:
            load(p)
        assert str(err.value).startswith("bad model file: not valid JSON: ")


# Any JSON value: what json.load can give for one leaf of a model file.
JSON_VALUES = st.one_of(
    st.booleans(), st.text(max_size=4), st.none(), st.integers(),
    st.floats(), st.sampled_from([float("inf"), float("-inf"), float("nan")]),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2))


def put(doc, path, value):
    """Set the value at path (a sequence of keys and indices) in doc."""
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


class TestLoadValidation:
    """Every malformed model file raises FormatError naming the problem."""

    @pytest.fixture(scope="class")
    def saved_doc(self, weld_train, tmp_path_factory):
        model, _ = train_all([quick_meta(depth=2), quick_meta(degree=1)],
                             weld_train, seed=6)
        path = tmp_path_factory.mktemp("model") / "model.json"
        save(model, path)
        return json.loads(path.read_text())

    def load_edited(self, doc, tmp_path, edit):
        doc = copy.deepcopy(doc)
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError) as err:
            load(path)
        return str(err.value)

    def test_unedited_file_loads(self, saved_doc, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(saved_doc))
        assert len(load(path).blocks) == 2

    @pytest.mark.parametrize("key", ["theta1", "theta2", "hidden", "tau", "meta"])
    def test_missing_block_key(self, saved_doc, tmp_path, key):
        msg = self.load_edited(saved_doc, tmp_path,
                               lambda d: d["blocks"][0].pop(key))
        assert repr(key) in msg and "blocks[0]" in msg

    @pytest.mark.parametrize("key", ["targets", "blocks", "scaler"])
    def test_missing_top_level_key(self, saved_doc, tmp_path, key):
        assert repr(key) in self.load_edited(saved_doc, tmp_path,
                                             lambda d: d.pop(key))

    @pytest.mark.parametrize("key, value", [
        ("alpha", float("nan")), ("gamma", float("inf")), ("lambda", True),
        ("alpha", "0.5")])
    def test_meta_float_not_a_finite_number(self, saved_doc, tmp_path, key,
                                            value):
        def edit(d):
            d["blocks"][1]["meta"][key] = value
        msg = self.load_edited(saved_doc, tmp_path, edit)
        assert "blocks[1].meta" in msg and "must be a finite number" in msg

    # case -> (path of the value in the model doc, the value put there,
    # text the FormatError must hold)
    BAD_VALUES = {
        "rows-true": (("blocks", 0, "theta1", "rows"), True,
                      "blocks[0].theta1 rows/cols are not counts"),
        "cols-true": (("blocks", 0, "hidden", 0, "cols"), True,
                      "blocks[0].hidden[0] rows/cols are not counts"),
        "data-str": (("blocks", 0, "theta1", "data", 1), "0.5",
                     "blocks[0].theta1.data[1] must be a finite number"),
        "data-true": (("blocks", 0, "hidden", 0, "data", 0), True,
                      "blocks[0].hidden[0].data[0] must be a finite number"),
        "data-inf": (("blocks", 1, "theta2", "data", 2), float("inf"),
                     "blocks[1].theta2.data[2] must be a finite number"),
        "data-huge-int": (("blocks", 1, "theta1", "data", 0), 10**400,
                          "blocks[1].theta1.data[0] must be a finite number"),
        "tau-nan": (("blocks", 1, "tau"), float("nan"),
                    "blocks[1].tau must be a finite number"),
        "tau-true": (("blocks", 0, "tau"), True,
                     "blocks[0].tau must be a finite number"),
        "means-inf": (("scaler", "means", 0), float("-inf"),
                      "scaler.means[0] must be a finite number"),
        "stds-nan": (("scaler", "stds", 1), float("nan"),
                     "scaler.stds[1] must be a finite number"),
        "stds-str": (("scaler", "stds", 2), "1", "scaler.stds[2] must be"),
        "stds-not-a-list": (("scaler", "stds"), 1.0, "scaler.stds is not a list"),
        "targets-ints": (("targets",), [1, 2], "are not distinct strings"),
        "targets-repeated": (("targets",), ["width", "width"],
                             "are not distinct strings"),
        "version-true": (("version",), True, "version: True"),
        "version-float": (("version",), 1.0, "version: 1.0"),
    }

    @pytest.mark.parametrize("case", BAD_VALUES)
    def test_bad_value(self, saved_doc, tmp_path, case):
        path, value, text = self.BAD_VALUES[case]
        msg = self.load_edited(saved_doc, tmp_path,
                               lambda d: put(d, path, value))
        assert text in msg

    def test_missing_meta_key(self, saved_doc, tmp_path):
        msg = self.load_edited(saved_doc, tmp_path,
                               lambda d: d["blocks"][1]["meta"].pop("neurons"))
        assert "'neurons'" in msg and "blocks[1]" in msg

    def test_data_length_not_rows_times_cols(self, saved_doc, tmp_path):
        msg = self.load_edited(saved_doc, tmp_path,
                               lambda d: d["blocks"][0]["theta1"]["data"].pop())
        assert "blocks[0].theta1" in msg

    def test_shape_disagrees_with_neurons(self, saved_doc, tmp_path):
        def edit(d):
            d["blocks"][0]["meta"]["neurons"] = 5
        assert "blocks[0].theta1" in self.load_edited(saved_doc, tmp_path, edit)

    def test_hidden_count_disagrees_with_depth(self, saved_doc, tmp_path):
        def edit(d):
            d["blocks"][0]["meta"]["depth"] = 3
        assert "depth 3" in self.load_edited(saved_doc, tmp_path, edit)

    def test_theta1_disagrees_with_scaler_width_and_degree(self, saved_doc,
                                                           tmp_path):
        def edit(d):
            d["blocks"][1]["meta"]["degree"] = 0
        assert "blocks[1].theta1" in self.load_edited(saved_doc, tmp_path, edit)

        def edit_scaler(d):
            d["scaler"]["means"].append(0.0)
            d["scaler"]["stds"].append(1.0)
        assert "blocks[0].theta1" in self.load_edited(saved_doc, tmp_path,
                                                      edit_scaler)

    def test_block_count_disagrees_with_targets(self, saved_doc, tmp_path):
        msg = self.load_edited(saved_doc, tmp_path,
                               lambda d: d["targets"].append("extra"))
        assert "2 blocks for 3 targets" in msg

    @pytest.fixture(scope="class")
    def eval_dir(self, weld_train, tmp_path_factory):
        """A directory holding the CSV that eval reads."""
        out = tmp_path_factory.mktemp("eval")
        save_csv(weld_train, out / "data.csv")
        return out

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), value=JSON_VALUES)
    def test_any_leaf_value_exits_cleanly(self, saved_doc, eval_dir, capsys,
                                          data, value):
        """One leaf of a saved model (or an empty list) replaced by any JSON
        value: `weldnet eval` exits 0 with nothing on stderr, or 2 or 3
        with one error line, and never raises."""
        doc = copy.deepcopy(saved_doc)
        node, path = doc, []
        while isinstance(node, (dict, list)) and node:
            key = data.draw(st.sampled_from(
                sorted(node) if isinstance(node, dict) else range(len(node))))
            node = node[key]
            path.append(key)
        put(doc, path, value)
        (eval_dir / "model.json").write_text(json.dumps(doc))
        capsys.readouterr()
        code = cli.main(["eval", "--model", str(eval_dir / "model.json"),
                         "--data", str(eval_dir / "data.csv"),
                         "--out-dir", str(eval_dir / "out")])
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
        else:
            assert code in (2, 3)
            assert err.count("\n") == 1 and err.endswith("\n")
            assert err.startswith(("error:", "config error:"))

    def test_cli_eval_exit_code(self, saved_doc, weld_train, tmp_path):
        doc = copy.deepcopy(saved_doc)
        del doc["blocks"][0]["theta2"]
        model_path = tmp_path / "bad.json"
        model_path.write_text(json.dumps(doc))
        csv_path = tmp_path / "data.csv"
        save_csv(weld_train, csv_path)
        proc = subprocess.run(
            [sys.executable, "-m", "weldnet", "eval", "--model", str(model_path),
             "--data", str(csv_path), "--out-dir", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 3
        assert "'theta2'" in proc.stderr
        assert "Traceback" not in proc.stderr
