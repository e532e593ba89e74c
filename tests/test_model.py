import numpy as np
import pytest

from weldnet.block import BlockMetaParams, init_block, run_steps, train
from weldnet.dataset import Dataset, standardize, synthesize_weld
from weldnet.errors import DimensionMismatch, FormatError, IoError
from weldnet.model import (
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

    def test_width_stays_in_bounds_and_val_cost_never_worse(self):
        from weldnet.block import cost
        data = synthesize_weld(60, 0.05, seed=4)
        scaled, _ = standardize(data)
        names = scaled.feature_names
        fit = Dataset(scaled.features[:45], scaled.targets[:45, :1], names, ["p"])
        val = Dataset(scaled.features[45:], scaled.targets[45:, :1], names, ["p"])
        block = init_block(quick_meta(neurons=2), 3, seed=4)
        block, _ = run_steps(block, fit.features, fit.targets[:, 0], 200)
        before = cost(block, val.features, val.targets[:, 0])
        resized = resize_hidden(block, fit, val, seed=4)
        assert 2 <= resized.width <= 100
        after = cost(resized, val.features, val.targets[:, 0])
        assert after <= before

    def test_underfit_escape_majority_grows(self):
        data = synthesize_weld(200, 0.02, seed=1)
        grew = 0
        for seed in range(10):
            scaled, _ = standardize(data)
            perm = np.random.default_rng(seed).permutation(data.m)
            vi, fi = np.sort(perm[:40]), np.sort(perm[40:])
            names = scaled.feature_names
            fit = Dataset(scaled.features[fi], scaled.targets[fi, :1],
                          names, ["p"])
            val = Dataset(scaled.features[vi], scaled.targets[vi, :1],
                          names, ["p"])
            block = init_block(quick_meta(neurons=2), 3, seed)
            block, _ = run_steps(block, fit.features, fit.targets[:, 0], 300)
            for round_ in range(6):
                block = resize_hidden(block, fit, val, seed * 100 + round_)
                block, _ = run_steps(block, fit.features, fit.targets[:, 0], 150)
            if block.width > 2:
                grew += 1
        assert grew >= 6

    def test_dynamic_width_trace_length_preserved(self, weld_train):
        meta = quick_meta(neurons=2)
        model, traces = train_all([meta, meta], weld_train, seed=2,
                                  dynamic_width=True)
        assert all(len(t) == 1000 for t in traces)
        assert all(2 <= b.width <= 100 for b in model.blocks)


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
