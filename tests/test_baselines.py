from dataclasses import replace

import numpy as np
import pytest

from oracles import lookahead, optimizer_step, step_one
from weldnet.baselines import (
    McrParams,
    OptimizerState,
    linear_predict,
    mcr_fit,
    normal_equation_fit,
    optimizer_train,
    plain_ann_train,
)
from weldnet.block import BlockMetaParams, init_block, train
from weldnet.dataset import Dataset, append_bias, standardize, synthesize_weld


def quick_meta(**kw):
    base = dict(neurons=4, alpha=1.0, gamma=1.0, lam=0.0, iterations=1000)
    base.update(kw)
    return BlockMetaParams(**base)


@pytest.fixture(scope="module")
def weld_xy():
    data = synthesize_weld(60, 0.02, seed=2)
    scaled, _ = standardize(data)
    return scaled.features, scaled.targets[:, 0]


class TestPlainAnn:
    def test_bitwise_equal_to_reinforced_path(self, weld_xy):
        X, y = weld_xy
        meta = quick_meta(gamma=9.0, lam=0.001)
        b_ann, _ = plain_ann_train(meta, X, y, seed=17)
        block = init_block(replace(meta, gamma=1.0), X.shape[1], seed=17)
        b_ref, _ = train(block, X, y, use_tau=False)
        for a, b in zip(b_ann.matrices(), b_ref.matrices()):
            np.testing.assert_array_equal(a, b)
        assert b_ann.tau == 0.0

    def test_gamma_setting_ignored(self, weld_xy):
        X, y = weld_xy
        a, _ = plain_ann_train(quick_meta(gamma=5.0), X, y, seed=3)
        b, _ = plain_ann_train(quick_meta(gamma=1.0), X, y, seed=3)
        for ta, tb in zip(a.matrices(), b.matrices()):
            np.testing.assert_array_equal(ta, tb)

    def test_descends(self, weld_xy):
        X, y = weld_xy
        _, trace = plain_ann_train(quick_meta(), X, y, seed=4)
        assert trace.records[-1].cost < trace.records[0].cost
        assert np.isfinite(trace.records[-1].cost)


class TestOptimizerStep:
    def test_adagrad_first_step_closed_form(self):
        g = np.array([[3.0, -0.5]])
        w = np.zeros((1, 2))
        st = OptimizerState("adagrad", eta=0.1, eps=1e-8)
        st, new_w = optimizer_step(st, w, g)
        np.testing.assert_allclose(new_w, -0.1 * g / (np.abs(g) + 1e-8),
                                   atol=1e-15)
        np.testing.assert_array_equal(st.accum, g * g)

    def test_nesterov_zero_momentum_is_plain(self):
        """With momentum 0 a Nesterov step is the plain step w - eta * g."""
        g = np.array([[1.0, -2.0]])
        w = np.array([[0.5, 0.5]])
        st_n = OptimizerState("nesterov", eta=0.2, momentum=0.0)
        _, wn_ = optimizer_step(st_n, w, g)
        np.testing.assert_array_equal(wn_, w - 0.2 * g)

    def test_rmsprop_two_step_recursion(self):
        rho = 0.9
        g1 = np.array([[2.0]])
        g2 = np.array([[-1.0]])
        st = OptimizerState("rmsprop", eta=0.1, rho=rho)
        st, w = optimizer_step(st, np.zeros((1, 1)), g1)
        st, w = optimizer_step(st, w, g2)
        want = rho * (1 - rho) * g1 ** 2 + (1 - rho) * g2 ** 2
        np.testing.assert_allclose(st.accum, want, atol=1e-15)

    @pytest.mark.parametrize("kind", ["adagrad", "rmsprop", "nesterov"])
    def test_zero_gradient_fresh_state_is_noop(self, kind):
        w = np.array([[1.0, -2.0]])
        st = OptimizerState(kind, eta=0.5)
        st, new_w = optimizer_step(st, w, np.zeros_like(w))
        np.testing.assert_array_equal(new_w, w)

    def test_nesterov_velocity_decays_under_zero_gradient(self):
        st = OptimizerState("nesterov", eta=0.5, momentum=0.9,
                            accum=np.array([[1.0]]))
        norms = []
        w = np.zeros((1, 1))
        for _ in range(5):
            st, w = optimizer_step(st, w, np.zeros((1, 1)))
            norms.append(abs(st.accum[0, 0]))
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_adagrad_step_magnitude_non_increasing(self):
        g = np.array([[1.5]])
        st = OptimizerState("adagrad", eta=0.3)
        w = np.zeros((1, 1))
        steps = []
        for _ in range(6):
            st, new_w = optimizer_step(st, w, g)
            steps.append(abs(new_w[0, 0] - w[0, 0]))
            w = new_w
        assert all(b <= a for a, b in zip(steps, steps[1:]))

    def test_shape_mismatch(self):
        st = OptimizerState("adagrad", eta=0.1)
        with pytest.raises(ValueError):
            optimizer_step(st, np.zeros((2, 2)), np.zeros((2, 3)))

    def test_lookahead_only_shifts_nesterov(self):
        w = np.ones((1, 1))
        v = np.array([[0.5]])
        for kind in ("adagrad", "rmsprop"):
            assert lookahead(OptimizerState(kind, eta=0.1, accum=v), w) is w
        st = OptimizerState("nesterov", eta=0.1, momentum=0.8, accum=v)
        np.testing.assert_allclose(lookahead(st, w), w + 0.8 * v)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            OptimizerState("adam", eta=0.1)


class TestOptimizerTrain:
    @pytest.mark.parametrize("kind,eta", [("adagrad", 0.3), ("rmsprop", 0.003),
                                          ("nesterov", 0.003)])
    def test_cost_collapses(self, weld_xy, kind, eta):
        X, y = weld_xy
        block, trace = optimizer_train(kind, quick_meta(), X, y, seed=5, eta=eta)
        assert trace.records[-1].cost < 0.1 * trace.records[0].cost
        assert block.tau == 0.0

    @pytest.mark.parametrize("kind", ["adagrad", "rmsprop", "nesterov"])
    def test_matches_explicit_update_loop(self, weld_xy, kind):
        X, y = weld_xy
        meta = quick_meta(gamma=3.0, lam=0.01)
        block, trace = optimizer_train(kind, meta, X, y, seed=6, eta=0.003)

        # reference: the update written out step by step
        ref = init_block(replace(meta, gamma=1.0), X.shape[1], seed=6)
        mats = ref.matrices()
        states = [OptimizerState(kind, eta=0.003) for _ in mats]
        for _ in range(meta.iterations):
            shifted = [lookahead(st, th) for st, th in zip(states, mats)]
            probe = replace(ref, theta1=shifted[0], hidden=shifted[1:-1],
                            theta2=shifted[-1])
            deltas = step_one(probe, X, y, use_tau=False, gamma=1.0)[1].deltas
            new_states, new_mats = [], []
            for st, th, sh, delta in zip(states, mats, shifted, deltas):
                nobias = sh.copy()
                nobias[0] = 0.0
                st, th = optimizer_step(st, th, (-delta + 0.01 * nobias) / y.size)
                new_states.append(st)
                new_mats.append(th)
            states, mats = new_states, new_mats

        for got, want in zip(block.matrices(), mats):
            np.testing.assert_array_equal(got, want)
        assert len(trace) == meta.iterations


class TestNormalEquation:
    def test_two_point_line(self):
        data = Dataset([[1.0], [2.0]], [[2.0], [4.0]], ["x"], ["t"])
        theta = normal_equation_fit(data, 0)
        np.testing.assert_allclose(theta, [[0.0], [2.0]], atol=1e-10)

    def test_constant_target(self):
        rng = np.random.default_rng(5)
        data = Dataset(rng.normal(size=(10, 2)), np.full((10, 1), 3.5),
                       ["a", "b"], ["t"])
        theta = normal_equation_fit(data, 0)
        assert abs(theta[0, 0] - 3.5) < 1e-10
        assert np.abs(theta[1:]).max() < 1e-10

    def test_exact_interpolation(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(4, 3))  # m = d' + 1, full rank
        Y = rng.normal(size=(4, 2))
        data = Dataset(X, Y, ["a", "b", "c"], ["t0", "t1"])
        theta = normal_equation_fit(data, 0)
        resid = append_bias(X) @ theta - Y
        assert np.linalg.norm(resid) < 1e-8

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        data = Dataset(rng.normal(size=(20, 2)), rng.normal(size=(20, 1)),
                       ["a", "b"], ["t"])
        np.testing.assert_array_equal(normal_equation_fit(data, 2),
                                      normal_equation_fit(data, 2))


class TestMcr:
    def test_converges_to_normal_equation(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(50, 3))
        theta_true = rng.normal(size=(4, 2))
        data = Dataset(X, append_bias(X) @ theta_true, ["a", "b", "c"],
                       ["t0", "t1"])
        scaled, _ = standardize(data)
        want = normal_equation_fit(scaled, 0)
        got = mcr_fit(McrParams(alpha=0.9, lam=0.0, degree=0, iterations=12000),
                      scaled, seed=0)
        assert np.abs(got - want).max() < 1e-4

    def test_iteration_range_checked(self):
        with pytest.raises(ValueError):
            McrParams(alpha=0.1, lam=0.0, degree=0, iterations=0)

    @pytest.mark.parametrize("field, value", [
        ("iterations", 1000.5), ("iterations", 1000.0), ("iterations", True),
        ("degree", 0.0), ("degree", True)])
    def test_counts_must_be_integers(self, field, value):
        kw = {"alpha": 0.3, "lam": 0.0, "degree": 0, "iterations": 1000, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            McrParams(**kw)
        McrParams(**{**kw, field: np.int64(1000 if field == "iterations" else 0)})

    def test_huge_lambda_shrinks_slopes(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(50, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + 3.0
        data = Dataset(X, y[:, None], ["a", "b", "c"], ["t"])
        theta = mcr_fit(McrParams(alpha=5e-5, lam=1e6, degree=0,
                                  iterations=2000), data, seed=1)
        assert np.abs(theta[1:]).max() < 1e-2

    def test_linear_predict_applies_expansion(self):
        data = Dataset([[2.0]], [[0.0]], ["x"], ["t"])
        theta = np.array([[1.0], [10.0], [100.0]])  # bias, x, x^2
        np.testing.assert_allclose(linear_predict(theta, data.features, 1),
                                   [[421.0]])
