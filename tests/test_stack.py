"""Property tests of the B-way training loop: a block trained in a stack is
bit-identical to the same block trained alone (B = 1), whatever it is
stacked with, however the stack is chunked, and whether or not a neighbour
diverges."""

from dataclasses import astuple

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from weldnet.baselines import OptimizerRule, OptimizerState
from weldnet.block import (
    BlockMetaParams,
    _records,
    init_block,
    run_stack,
    run_steps,
    stack_blocks,
)
from weldnet.errors import Diverged

PROPERTY = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_same_block(a, b):
    assert len(a.matrices()) == len(b.matrices())
    for ta, tb in zip(a.matrices(), b.matrices()):
        assert ta.shape == tb.shape and bits(ta) == bits(tb)
    assert bits(a.tau) == bits(b.tau)
    assert bits(a.nu) == bits(b.nu)


def assert_same_records(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert bits(astuple(ra)) == bits(astuple(rb))


def assert_same_outcome(got, want):
    """got: a run_stack outcome; want: the same block's run_steps result."""
    if isinstance(want, Diverged):
        assert isinstance(got, Diverged)
        assert got.iteration == want.iteration
        assert_same_records(got.trace.records, want.trace.records)
    else:
        assert not isinstance(got, Diverged)
        assert_same_block(got[0], want[0])
        assert_same_records(_records(got[1], 1), want[1])


@st.composite
def stacks(draw, max_b=6):
    """Blocks of one shape with their own hyperparameters, rows and seeds."""
    b = draw(st.integers(1, max_b))
    depth = draw(st.integers(1, 3))
    k = draw(st.integers(2, 6))
    d = draw(st.integers(1, 3))
    m = draw(st.integers(2, 12))
    seed = draw(st.integers(0, 2**16))
    metas = [BlockMetaParams(
        neurons=k, depth=depth, iterations=1000,
        alpha=draw(st.floats(0.01, 3.0)), gamma=draw(st.floats(0.1, 4.0)),
        lam=draw(st.sampled_from([0.0, 0.001, 0.3])))
        for _ in range(b)]
    rng = np.random.default_rng(seed)
    blocks = [init_block(meta, d, seed + i) for i, meta in enumerate(metas)]
    X = rng.normal(size=(b, m, d))
    y = rng.normal(size=(b, m))
    return blocks, X, y


def alone(blocks, X, y, n_steps, use_tau, jitter=False, rule_for=None):
    """Each block trained by itself through the single-block API."""
    out = []
    for i, blk in enumerate(blocks):
        kw = {}
        if jitter:
            kw["jitter_rng"] = np.random.default_rng(100 + i)
        if rule_for is not None:
            kw["rule"] = rule_for(1)
        try:
            out.append(run_steps(blk, X[i], y[i], n_steps, use_tau=use_tau, **kw))
        except Diverged as exc:
            out.append(exc)
    return out


def together(blocks, X, y, n_steps, use_tau, jitter=False, rule_for=None):
    kw = {}
    if jitter:
        kw["jitter_rngs"] = [np.random.default_rng(100 + i)
                             for i in range(len(blocks))]
    if rule_for is not None:
        kw["rule"] = rule_for(len(blocks))
    return run_stack(stack_blocks(blocks), X, y, n_steps, use_tau=use_tau, **kw)


@PROPERTY
@given(case=stacks(), n_steps=st.integers(1, 25), use_tau=st.booleans(),
       jitter=st.booleans())
def test_stack_equals_blocks_alone(case, n_steps, use_tau, jitter):
    blocks, X, y = case
    got = together(blocks, X, y, n_steps, use_tau, jitter)
    want = alone(blocks, X, y, n_steps, use_tau, jitter)
    for g, w in zip(got, want):
        assert_same_outcome(g, w)


@PROPERTY
@given(case=stacks(), n_steps=st.integers(1, 15),
       kind=st.sampled_from(["plain", "adagrad", "rmsprop", "nesterov"]))
def test_optimizer_rule_stack_equals_blocks_alone(case, n_steps, kind):
    blocks, X, y = case
    n_mats = len(blocks[0].matrices())

    def rule_for(_):
        return OptimizerRule([OptimizerState(kind, eta=0.01)
                              for _ in range(n_mats)])

    got = together(blocks, X, y, n_steps, False, rule_for=rule_for)
    want = alone(blocks, X, y, n_steps, False, rule_for=rule_for)
    for g, w in zip(got, want):
        assert_same_outcome(g, w)


@PROPERTY
@given(case=stacks(), bad=st.integers(0, 5), use_tau=st.booleans())
def test_exploding_member_leaves_alone(case, bad, use_tau):
    blocks, X, y = case
    bad %= len(blocks)
    X[bad] *= 50.0
    y[bad] *= 1e3
    meta = blocks[bad].meta
    blocks[bad].meta = BlockMetaParams(
        neurons=meta.neurons, depth=meta.depth, iterations=1000,
        alpha=1e6, gamma=1e6, lam=meta.lam)
    got = together(blocks, X, y, 40, use_tau)
    want = alone(blocks, X, y, 40, use_tau)
    assert isinstance(want[bad], Diverged)
    assert 1 <= want[bad].iteration <= 40
    assert len(want[bad].trace) == want[bad].iteration - 1
    for g, w in zip(got, want):
        assert_same_outcome(g, w)


@PROPERTY
@given(case=stacks(), cut=st.integers(1, 5), use_tau=st.booleans())
def test_chunking_changes_nothing(case, cut, use_tau):
    blocks, X, y = case
    cut = min(cut, len(blocks))
    whole = together(blocks, X, y, 12, use_tau)
    parts = (together(blocks[:cut], X[:cut], y[:cut], 12, use_tau)
             + (together(blocks[cut:], X[cut:], y[cut:], 12, use_tau)
                if cut < len(blocks) else []))
    for g, w in zip(parts, whole):
        if isinstance(w, Diverged):
            assert_same_outcome(g, w)
        else:
            assert_same_outcome(g, (w[0], _records(w[1], 1)))
