import csv
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import (
    compute_nu,
    fd_data_gradients,
    forward_one,
    max_rel_error,
    step_one,
)
from weldnet.block import (
    BlockMetaParams,
    TrainingTrace,
    Workspace,
    _forward_all,
    _pick_tau,
    _reg_sum,
    cost,
    init_block,
    run_steps,
    sigmoid,
    stack_blocks,
    train,
    weighted_estimate,
)
from weldnet.errors import DimensionMismatch, Diverged, LengthMismatch


def make_block(seed=0, d=3, k=4, depth=1, alpha=0.5, gamma=1.0, lam=0.0,
               iterations=1000):
    meta = BlockMetaParams(neurons=k, alpha=alpha, gamma=gamma, lam=lam,
                           iterations=iterations, depth=depth)
    return init_block(meta, d, seed)


def make_data(seed=0, m=8, d=3):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(m, d)), rng.normal(size=m)


class TestMetaParams:
    @pytest.mark.parametrize("field,value", [
        ("neurons", 1), ("neurons", 101), ("depth", 0), ("depth", 5),
        ("degree", 7), ("alpha", 0.0), ("gamma", -1.0), ("lam", -0.1),
        ("iterations", 999), ("iterations", 12001),
    ])
    def test_range_violations(self, field, value):
        good = dict(neurons=4, alpha=0.5, gamma=1.0, lam=0.0, iterations=1000)
        good[field] = value
        with pytest.raises(ValueError):
            BlockMetaParams(**good)

    @pytest.mark.parametrize("field,value", [
        ("neurons", 4.7), ("neurons", 8.0), ("depth", True),
        ("degree", "1"), ("iterations", 1000.5)])
    def test_counts_must_be_integers(self, field, value):
        good = dict(neurons=4, alpha=0.5, gamma=1.0, lam=0.0, iterations=1000)
        good[field] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            BlockMetaParams(**good)
        doc = {"neurons": 4, "alpha": 0.5, "gamma": 1.0, "lambda": 0.0,
               "iterations": 1000, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            BlockMetaParams.from_dict(doc)

    def test_numpy_integers_accepted(self):
        meta = BlockMetaParams(neurons=np.int64(4), alpha=0.5, gamma=1.0,
                               lam=0.0, iterations=np.int32(1000))
        assert meta.neurons == 4 and meta.iterations == 1000

    def test_dict_round_trip(self):
        meta = BlockMetaParams(neurons=7, alpha=0.3, gamma=2.0, lam=0.01,
                               iterations=2000, depth=3, degree=2)
        assert BlockMetaParams.from_dict(meta.to_dict()) == meta


class TestForward:
    def test_zero_weights(self):
        block = make_block()
        for th in block.matrices():
            th[:] = 0.0
        X, _ = make_data(m=5)
        activations, raw = forward_one(block, X)
        H = activations[-1]
        np.testing.assert_array_equal(H, np.full((5, 4), 0.5))
        np.testing.assert_array_equal(raw, np.zeros(5))

    def test_zero_input_hits_bias_row_only(self):
        block = make_block(seed=3)
        block.theta1[0, :] = 0.0
        (H,), _ = forward_one(block, np.zeros((1, 3)))
        np.testing.assert_array_equal(H, np.full((1, 4), 0.5))

    def test_matches_stepwise_matrix_chain(self):
        block = make_block(seed=5, depth=2)
        X, _ = make_data(seed=6, m=4)
        _, raw = forward_one(block, X)
        # explicit per-sample recomputation
        for i in range(4):
            h = 1.0 / (1.0 + np.exp(-(block.theta1[0]
                                      + X[i] @ block.theta1[1:])))
            for th in block.hidden:
                h = 1.0 / (1.0 + np.exp(-(th[0] + h @ th[1:])))
            want = block.theta2[0, 0] + h @ block.theta2[1:, 0]
            assert abs(raw[i] - want) < 1e-12

    def test_dimension_mismatch(self):
        block = make_block()
        with pytest.raises(DimensionMismatch):
            forward_one(block, np.zeros((2, 5)))

    def test_sigmoid_matches_two_branch_formula(self):
        def two_branch(z):
            out = np.empty_like(z)
            pos = z >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            out[~pos] = ez / (1.0 + ez)
            return out

        z = np.concatenate([np.linspace(-800, 800, 20001),
                            [np.inf, -np.inf, np.nan, 0.0, -0.0,
                             1e-300, -1e-300]])
        with np.errstate(over="ignore"):
            want = two_branch(z)
        got = sigmoid(z)
        assert np.array_equal(got, want, equal_nan=True)
        assert got.tobytes() == want.tobytes()  # NaN and zero signs too
        out = np.empty((2, z.size))
        sigmoid(z, out=out[1])
        assert np.array_equal(out[1], want, equal_nan=True)

    def test_sigmoid_open_interval(self):
        # float64 saturates to exactly 0/1 only beyond |z| ~ 37
        z = np.linspace(-36, 36, 2001)
        s = sigmoid(z)
        assert (s > 0).all() and (s < 1).all()
        z = np.linspace(-20, 20, 2001)
        assert (np.diff(sigmoid(z)) > 0).all()


class TestWeightedEstimate:
    def test_zero_shift_identity(self):
        raw = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(weighted_estimate(raw, 0.0), raw)

    def test_forced_arithmetic(self):
        np.testing.assert_array_equal(
            weighted_estimate(np.array([1.0, 2.0]), -0.5), [0.5, 1.5])

    def test_mean_shift_property(self):
        rng = np.random.default_rng(1)
        raw = rng.normal(size=50)
        tau = 0.37
        assert abs(weighted_estimate(raw, tau).mean() - raw.mean() - tau) < 1e-12


class TestComputeNu:
    def test_zero_error(self):
        y = np.array([1.0, 2.0])
        assert compute_nu(y, y) == 0.0

    def test_initial_state(self):
        assert compute_nu(np.zeros(2), np.array([2.0, 4.0])) == -3.0

    def test_reversed_accumulation_oracle(self):
        rng = np.random.default_rng(2)
        prev, y = rng.normal(size=100), rng.normal(size=100)
        want = sum((prev - y)[::-1]) / 100
        assert abs(compute_nu(prev, y) - want) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            compute_nu(np.zeros(3), np.zeros(4))


def select_tau(block, X, y, nu):
    """Shift _pick_tau selects at the block's current weights."""
    stack = stack_blocks([block])
    ws = Workspace(stack, X[None], y[None])
    _forward_all(stack, ws)
    _pick_tau(ws, np.array([nu]), stack.lam * _reg_sum(stack, ws), True)
    return ws.row[3, 0]


class TestSelectTau:
    def test_zero_nu(self):
        block = make_block(seed=1)
        X, y = make_data(seed=1)
        assert select_tau(block, X, y, 0.0) == 0.0

    def test_constant_offset_forced(self):
        # zero weights => raw == 0; targets all -c, so raw exceeds y by c
        # and prev errors (from zero estimates) average to c as well
        block = make_block()
        for th in block.matrices():
            th[:] = 0.0
        c = 0.5
        X = np.zeros((4, 3))
        y = np.full(4, -c)
        nu = compute_nu(np.zeros(4), y)
        assert nu == c
        assert select_tau(block, X, y, nu) == -c

    @pytest.mark.parametrize("seed", range(8))
    def test_exhaustive_candidate_oracle(self, seed):
        block = make_block(seed=seed, lam=0.01)
        X, y = make_data(seed=seed + 100)
        nu = compute_nu(np.zeros_like(y), y)
        tau = select_tau(block, X, y, nu)
        costs = {c: cost(replace(block, tau=c), X, y) for c in (0.0, -nu, nu)}
        assert costs[tau] <= min(costs.values())


def test_tau_mask_keeps_the_shift_zero_cost():
    """A block the tau mask leaves out gets shift 0 and the cost at 0 it
    gets with the shift off for every block, bit for bit, though a shift
    would have won; the others get what they get with the shift on."""
    rng = np.random.default_rng(4)
    stack = stack_blocks([make_block(seed=s, lam=0.01) for s in range(3)])
    X, y = rng.normal(size=(3, 8, 3)), rng.normal(size=(3, 8)) + 2.0
    ws = Workspace(stack, X, y)
    _forward_all(stack, ws)
    nu = np.mean(np.zeros_like(y) - y, axis=1)
    lam_reg = stack.lam * _reg_sum(stack, ws)

    def picked(use_tau):  # rows cost, tau, cost at 0
        _pick_tau(ws, nu, lam_reg, use_tau)
        return ws.row[[0, 3, 5]].copy()

    on, off, mixed = map(picked, (True, False, np.array([True, False, True])))
    assert np.all(on[1] != 0.0)  # a shift wins for every block
    assert mixed[:, 1].tobytes() == off[:, 1].tobytes()
    for b in (0, 2):
        assert mixed[:, b].tobytes() == on[:, b].tobytes()
    assert mixed[2].tobytes() == on[2].tobytes() == off[2].tobytes()


class TestCost:
    def test_perfect_fit_zero(self):
        block = make_block()
        for th in block.matrices():
            th[:] = 0.0
        X = np.zeros((3, 3))
        y = np.zeros(3)
        assert cost(block, X, y) == 0.0

    def test_single_sample_value(self):
        block = make_block()
        for th in block.matrices():
            th[:] = 0.0
        assert cost(block, np.zeros((1, 3)), np.array([2.0])) == 2.0

    def test_regularizer_against_explicit_sum(self):
        block = make_block(seed=9, lam=0.7, depth=2)
        X, y = make_data(seed=9, m=6)
        _, raw = forward_one(block, X)
        sse = sum((yi - ri) ** 2 for yi, ri in zip(y, raw + block.tau))
        reg = 0.0
        for th in block.matrices():
            for row in th[1:]:
                for v in row:
                    reg += v * v
        want = (sse + 0.7 * reg) / (2 * 6)
        assert abs(cost(block, X, y) - want) < 1e-12


class TestBackpropStep:
    def test_zero_output_weights_freeze_theta1(self):
        block = make_block(seed=4)
        block.theta2[:] = 0.0
        X, y = make_data(seed=4)
        updated, step = step_one(block, X, y, use_tau=False)
        np.testing.assert_array_equal(step.deltas[0], np.zeros_like(block.theta1))
        np.testing.assert_array_equal(updated.theta1, block.theta1)

    def test_gamma_doubling_is_bitwise(self):
        block = make_block(seed=5)
        X, y = make_data(seed=5)
        _, s1 = step_one(block, X, y, gamma=1.0)
        _, s2 = step_one(block, X, y, gamma=2.0)
        for a, b in zip(s1.deltas, s2.deltas):
            np.testing.assert_array_equal(2.0 * a, b)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_finite_difference_oracle(self, depth):
        block = make_block(seed=11, depth=depth, gamma=1.6)
        X, y = make_data(seed=12)
        _, step = step_one(block, X, y, use_tau=False)
        fd = fd_data_gradients(block, X, y)
        for delta, g in zip(step.deltas, fd):
            assert max_rel_error(delta / 1.6, -y.size * g) < 1e-5

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(depth=st.integers(1, 4), k=st.integers(2, 12), d=st.integers(1, 6),
           m=st.integers(3, 30), lam=st.sampled_from([0.0, 0.01, 0.5]),
           gamma=st.floats(0.1, 4.0), seed=st.integers(0, 2**16))
    def test_finite_difference_oracle_on_random_shapes(self, depth, k, d, m,
                                                       lam, gamma, seed):
        """The gradients match central differences of the data cost, and
        the update adds the regularizer's gradient: m * (new - old) =
        alpha * delta - lam * (non-bias weights)."""
        block = make_block(seed=seed, d=d, k=k, depth=depth, alpha=0.3,
                           gamma=gamma, lam=lam)
        X, y = make_data(seed=seed + 1, m=m, d=d)
        updated, step = step_one(block, X, y, use_tau=False)
        fd = fd_data_gradients(block, X, y)
        fd_reg = fd_data_gradients(block, X, y, lam=lam)
        for delta, g, g_reg, old, new in zip(step.deltas, fd, fd_reg,
                                             block.matrices(),
                                             updated.matrices()):
            assert max_rel_error(delta / gamma, -m * g, floor=1e-3) < 1e-5
            # the regularizer's part of m * dJ/dtheta, by differences
            reg_grad = m * (g_reg - g)
            assert max_rel_error(m * (new - old) - 0.3 * delta, -reg_grad,
                                 floor=1e-3) < 1e-5

    def test_nu_is_mean_error_of_emitted_output(self):
        block = make_block(seed=6)
        X, y = make_data(seed=6)
        _, raw = forward_one(block, X)
        assert block.nu is None
        updated, step = step_one(block, X, y)
        assert step.nu == np.mean(np.zeros_like(y) - y)
        assert updated.nu == np.mean((raw + step.tau) - y)
        _, raw2 = forward_one(updated, X)
        again, step2 = step_one(updated, X, y)
        assert step2.nu == updated.nu
        assert again.nu == np.mean((raw2 + step2.tau) - y)

    def test_divergence_raises(self):
        block = make_block(seed=7, alpha=1e6, gamma=1e6)
        X, y = make_data(seed=7)
        b = block
        with pytest.raises(Diverged):
            for _ in range(50):
                b, _ = step_one(b, X, y)


class TestTrain:
    def test_trace_length_at_lower_bound(self):
        block = make_block(seed=8, iterations=1000)
        X, y = make_data(seed=8, m=6)
        _, trace = train(block, X, y)
        assert len(trace) == 1000
        assert [r.iteration for r in trace.records[:3]] == [1, 2, 3]

    def test_descent_on_linear_data(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(12, 2))
        y = 0.5 * X[:, 0] - 0.2 * X[:, 1] + 1.0
        meta = BlockMetaParams(neurons=3, alpha=1.0, gamma=1.0, lam=0.0,
                               iterations=1000)
        block = init_block(meta, 2, seed=9)
        trained, trace = train(block, X, y, use_tau=False)
        assert trace.records[-1].cost < trace.records[0].cost

    def test_deterministic_replay(self):
        X, y = make_data(seed=10, m=7)
        a, _ = train(make_block(seed=21, gamma=1.3), X, y)
        b, _ = train(make_block(seed=21, gamma=1.3), X, y)
        for ta, tb in zip(a.matrices(), b.matrices()):
            np.testing.assert_array_equal(ta, tb)
        assert a.tau == b.tau

    def test_tau_argmin_every_iteration(self):
        X, y = make_data(seed=11, m=10)
        _, trace = train(make_block(seed=22), X, y)
        assert all(r.cost <= r.cost_tau_zero for r in trace.records)

    def test_trace_csv_columns(self, tmp_path):
        X, y = make_data(seed=12, m=5)
        _, trace = train(make_block(seed=23), X, y)
        p = tmp_path / "trace.csv"
        trace.write_csv(p)
        lines = p.read_text().splitlines()
        assert lines[0] == "iter,cost,grad1_norm,grad2_norm,tau,nu"
        assert len(lines) == 1001

    def test_trace_csv_round_trips(self, tmp_path):
        X, y = make_data(seed=12, m=5)
        _, trace = train(make_block(seed=23), X, y)
        p = tmp_path / "trace.csv"
        trace.write_csv(p)
        with open(p, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == len(trace.records)
        for row, r in zip(rows, trace.records):
            assert int(row[0]) == r.iteration
            assert [float(c).hex() for c in row[1:]] == [
                v.hex() for v in (r.cost, r.grad1_norm, r.grad2_norm, r.tau,
                                  r.nu)]

    def test_diverged_carries_partial_trace(self):
        X, y = make_data(seed=13, m=5)
        block = make_block(seed=24, alpha=50.0, gamma=50.0)
        with pytest.raises(Diverged) as err:
            train(block, X, y)
        assert err.value.trace is not None
        assert len(err.value.trace) == err.value.iteration - 1

    def test_trace_equality_is_by_start_and_bits(self):
        cols = np.array([[0.5, np.nan], [1.0, 2.0], [0.0, 3.0], [0.1, -0.1],
                         [-0.0, 0.2], [0.6, 0.7]])
        trace = TrainingTrace(cols, start=3)
        assert trace == TrainingTrace(cols.copy(), start=3)  # NaN equals itself
        assert trace == pickle.loads(pickle.dumps(trace))
        assert trace != TrainingTrace(cols, start=4)
        assert trace != TrainingTrace(cols[:, :1], start=3)
        positive_zero = cols.copy()
        positive_zero[4, 0] = 0.0
        assert trace != TrainingTrace(positive_zero, start=3)
        assert TrainingTrace(cols[:, :1], 3).then(TrainingTrace(cols[:, 1:], 4)) == trace
        assert [(r.iteration, r.cost_tau_zero) for r in trace.records] == [(3, 0.6), (4, 0.7)]

    def test_chunked_run_steps_match_one_run(self):
        X, y = make_data(seed=15, m=9)
        block = make_block(seed=26)
        whole, trace = run_steps(block, X, y, 20)
        half, first = run_steps(block, X, y, 10)
        half, second = run_steps(half, X, y, 10, start_iteration=11)
        for a, b in zip(whole.matrices(), half.matrices()):
            np.testing.assert_array_equal(a, b)
        assert whole.nu == half.nu
        assert (second.start, len(second)) == (11, 10)
        assert first.then(second) == trace
        assert [r.iteration for r in first.then(second).records] == list(range(1, 21))

    def test_gamma_jitter_seeded(self):
        X, y = make_data(seed=14, m=6)
        a, _ = train(make_block(seed=25, alpha=0.1), X, y,
                     gamma_jitter=True, jitter_seed=7)
        b, _ = train(make_block(seed=25, alpha=0.1), X, y,
                     gamma_jitter=True, jitter_seed=7)
        c, _ = train(make_block(seed=25, alpha=0.1), X, y,
                     gamma_jitter=True, jitter_seed=8)
        plain, _ = train(make_block(seed=25, alpha=0.1), X, y)
        for ta, tb in zip(a.matrices(), b.matrices()):
            np.testing.assert_array_equal(ta, tb)
        assert any((ta != tc).any() for ta, tc in zip(a.matrices(),
                                                      c.matrices()))
        assert any((ta != tp).any() for ta, tp in zip(a.matrices(),
                                                      plain.matrices()))
