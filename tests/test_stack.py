"""Property tests of the B-way training loop: a block trained in a stack is
bit-identical to the same block trained alone (B = 1), whatever it is
stacked with, however the stack is chunked, and whether or not a neighbour
diverges; so are its outputs from the forward pass alone.  The commands
that stack their blocks (train_all, compare) are checked against their
blocks trained one at a time, results and the error raised on divergence
alike."""

from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import (
    RefOptimizer,
    RefReinforced,
    forward_one,
    reference_run,
    run_steps_stacked,
)
from weldnet import baselines, block, dataset as ds, metrics, model as mdl
from weldnet.baselines import OptimizerRule, OptimizerState
from weldnet.block import (
    REINFORCED,
    BlockMetaParams,
    Rows,
    Workspace,
    init_block,
    run_blocks,
    run_stack,
    run_steps,
    stack_blocks,
    stack_output,
    unstack,
)
from weldnet.cli import run_comparison
from weldnet.errors import Diverged
from weldnet.rng import derive_seed

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


def assert_same_outcome(got, want):
    """got: a run_stack outcome; want: the same block's run_steps result.
    Traces are equal when their columns' bits are."""
    if isinstance(want, Diverged):
        assert isinstance(got, Diverged)
        assert got.iteration == want.iteration
        assert got.trace == want.trace
    else:
        assert not isinstance(got, Diverged)
        assert_same_block(got[0], want[0])
        assert got[1] == want[1]


@st.composite
def stacks(draw, max_b=6, rows=st.integers(2, 12)):
    """Blocks of one shape with their own hyperparameters, rows (m drawn
    from rows) and seeds."""
    b = draw(st.integers(1, max_b))
    depth = draw(st.integers(1, 3))
    k = draw(st.integers(2, 6))
    d = draw(st.integers(1, 3))
    m = draw(rows)
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
       kind=st.sampled_from(["adagrad", "rmsprop", "nesterov"]))
def test_optimizer_rule_stack_equals_blocks_alone(case, n_steps, kind):
    blocks, X, y = case

    def rule_for(_):
        return OptimizerRule(OptimizerState(kind, eta=0.01))

    got = together(blocks, X, y, n_steps, False, rule_for=rule_for)
    want = alone(blocks, X, y, n_steps, False, rule_for=rule_for)
    for g, w in zip(got, want):
        assert_same_outcome(g, w)


RULE_KINDS = [None, "adagrad", "rmsprop", "nesterov"]

# Gammas that make a blown-up member diverge within 40 steps under each
# rule (None: the reinforced one); see reference_cases for why.
BLOWUP_GAMMAS = {None: [1e6, 1e12, 1e308], "nesterov": [1e12, 1e308],
                 "adagrad": [1e308], "rmsprop": [1e308]}


@PROPERTY
@given(case=stacks(), data=st.data(), use_tau=st.booleans(),
       jitter=st.booleans(), kind=st.sampled_from(RULE_KINDS))
def test_exploding_member_leaves_alone(case, data, use_tau, jitter, kind):
    """One member up to all of them blown up, each by its own gamma, so
    they diverge at their own iterations: every outcome, survivor or
    Diverged, equals the block trained alone, and a stack whose members
    all diverge returns."""
    blocks, X, y = case
    bad = data.draw(st.sets(st.integers(0, len(blocks) - 1), min_size=1),
                    label="bad")
    for b in bad:
        X[b] *= 50.0
        y[b] *= 1e3
        blocks[b].meta = replace(blocks[b].meta, alpha=1e6, gamma=data.draw(
            st.sampled_from(BLOWUP_GAMMAS[kind]), label=f"gamma {b}"))
    rule_for = (None if kind is None
                else lambda _: OptimizerRule(OptimizerState(kind, eta=0.01)))
    got = together(blocks, X, y, 40, use_tau, jitter, rule_for)
    want = alone(blocks, X, y, 40, use_tau, jitter, rule_for)
    for b in bad:
        assert isinstance(want[b], Diverged)
        assert 1 <= want[b].iteration <= 40
        assert len(want[b].trace) == want[b].iteration - 1
    for g, w in zip(got, want):
        assert_same_outcome(g, w)


@PROPERTY
@given(case=stacks(rows=st.one_of(st.just(160), st.integers(2, 12))),
       data=st.data(), n_steps=st.integers(1, 25))
def test_mixed_rule_stack_equals_blocks_alone(case, data, n_steps):
    """Blocks each with its own update rule, shift and jitter, in one
    stack, in any order (a rule's blocks need not be consecutive), one of
    them maybe blown up: every outcome equals the block trained alone.
    Hypothesis tries the least example first, so m = 160 always runs."""
    blocks, X, y = case
    B = len(blocks)
    rules = {kind: REINFORCED if kind is None else
             OptimizerRule(OptimizerState(kind, eta=0.01)) for kind in RULE_KINDS}
    kinds = data.draw(st.lists(st.sampled_from(RULE_KINDS), min_size=B,
                               max_size=B), label="rules")
    taus = data.draw(st.lists(st.booleans(), min_size=B, max_size=B), label="tau")
    jitter = data.draw(st.lists(st.booleans(), min_size=B, max_size=B),
                       label="jitter")
    if data.draw(st.booleans(), label="blow up"):
        bad = data.draw(st.integers(0, B - 1), label="bad")
        X[bad] *= 50.0
        y[bad] *= 1e3
        blocks[bad].meta = replace(blocks[bad].meta, alpha=1e6, gamma=1e308)

    def rngs():
        return [np.random.default_rng(100 + i) if j else None
                for i, j in enumerate(jitter)]

    want = []
    for i, (blk, kind, rng) in enumerate(zip(blocks, kinds, rngs())):
        try:
            want.append(run_steps(blk, X[i], y[i], n_steps, use_tau=taus[i],
                                  jitter_rng=rng, rule=rules[kind]))
        except Diverged as exc:
            want.append(exc)
    got = run_stack(stack_blocks(blocks), X, y, n_steps, use_tau=taus,
                    jitter_rngs=rngs(), rule=[rules[k] for k in kinds])
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
        assert_same_outcome(g, w)


# --- the forward pass alone: stack_output ---


@st.composite
def output_cases(draw):
    """B = 1-4 blocks of one shape, depth 1-4 (so no, one or several hidden
    layers write the shared hidden input), with their own weights, biases
    and shifts, on 0-80 rows each."""
    b = draw(st.integers(1, 4))
    meta = BlockMetaParams(neurons=draw(st.integers(2, 9)),
                           depth=draw(st.integers(1, 4)),
                           alpha=0.1, gamma=1.0, lam=0.0, iterations=1000)
    d = draw(st.integers(1, 5))
    m = draw(st.integers(0, 80))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    blocks = [init_block(meta, d, seed + i) for i in range(b)]
    for blk in blocks:
        blk.tau = float(rng.normal())
        for th in blk.matrices():
            th[0] = rng.normal(size=th.shape[1])
    return blocks, rng.normal(scale=3.0, size=(b, m, d))


@PROPERTY
@given(case=output_cases(), sigmoid_rows=st.sampled_from([1, 3, 7]))
def test_stack_output_equals_blocks_alone(case, sigmoid_rows):
    """Tiles of 16 rows and row blocks of 1, 3 or 7 in one call: every
    block's outputs have the bits of that block alone, and of its training
    forward pass (one pass over all rows; matrices of at most 10 rows get
    the same bits from BLAS at any row count)."""
    blocks, X = case
    with patch.object(block, "OUTPUT_ROWS", 16), \
            patch.object(block, "SIGMOID_ROWS", sigmoid_rows):
        got = stack_output(stack_blocks(blocks), X)
        assert got.shape == X.shape[:2]
        for i, blk in enumerate(blocks):
            alone_out = stack_output(stack_blocks([blk]), X[i:i + 1])
            assert bits(got[i]) == bits(alone_out[0])
            assert bits(got[i]) == bits(forward_one(blk, X[i])[1] + blk.tau)


# --- the workspace loop against the allocating step it replaced ---


def assert_same_as_reference(got, want):
    """got: run_stack outcomes; want: oracles.reference_run outcomes.
    Weights, tau, nu and all six trace columns must be bit-equal."""
    for g, w in zip(got, want):
        assert_same_outcome(g, w)


@st.composite
def reference_cases(draw):
    """Blocks of one shape (depth 1-4, width 2-12, 1-40 rows) with their
    own hyperparameters (lambda 0 or above); in about half the cases one
    block is blown up to diverge within the run while the others carry on.

    The blown-up block's gamma is drawn from three scales.  1e6 makes the
    reinforced update overflow some steps in, 1e12 the Nesterov one
    too.  Adagrad and rmsprop take steps of at most ~eta whatever the
    gradient's scale, so only a gradient that overflows at once (1e308)
    makes them diverge, in the first step."""
    b = draw(st.integers(1, 5))
    depth = draw(st.integers(1, 4))
    k = draw(st.integers(2, 12))
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**16))
    metas = [BlockMetaParams(
        neurons=k, depth=depth, iterations=1000,
        alpha=draw(st.floats(0.01, 3.0)), gamma=draw(st.floats(0.1, 4.0)),
        lam=draw(st.sampled_from([0.0, 0.01, 0.3])))
        for _ in range(b)]
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(b, m, d))
    y = rng.normal(size=(b, m))
    if draw(st.booleans()):
        bad = draw(st.integers(0, b - 1))
        X[bad] *= 50.0
        y[bad] *= 1e3
        metas[bad] = replace(metas[bad], alpha=1e6,
                             gamma=draw(st.sampled_from([1e6, 1e12, 1e308])))
    blocks = [init_block(meta, d, seed + i) for i, meta in enumerate(metas)]
    return blocks, X, y


@PROPERTY
@given(case=reference_cases(), n_steps=st.integers(1, 30),
       use_tau=st.booleans(), jitter=st.booleans())
def test_run_stack_matches_allocating_step(case, n_steps, use_tau, jitter):
    blocks, X, y = case

    def rngs():
        return ([np.random.default_rng(100 + i) for i in range(len(blocks))]
                if jitter else None)

    want = reference_run(blocks, X, y, n_steps, use_tau, rngs())
    got = run_stack(stack_blocks(blocks), X, y, n_steps, use_tau=use_tau,
                    jitter_rngs=rngs())
    assert_same_as_reference(got, want)


def outcome_of(train, *args, **kwargs):
    """train's result, or the Diverged it raised."""
    try:
        return train(*args, **kwargs)
    except Diverged as exc:
        return exc


@PROPERTY
@given(case=reference_cases(), n_steps=st.integers(1, 30),
       use_tau=st.booleans(), jitter=st.booleans())
def test_run_steps_equals_a_stack_of_one(case, n_steps, use_tau, jitter):
    """run_steps, the one-block form of run_blocks, gives what it gave as
    a hand-built stack of one (tests/oracles.py): weights, tau, nu, the
    trace, a Diverged's iteration, and the jitter generator advanced by
    the same draws."""
    blocks, X, y = case
    rngs = [np.random.default_rng(7) if jitter else None for _ in range(2)]
    got, want = (outcome_of(train, blocks[-1], X[-1], y[-1], n_steps,
                            use_tau, jitter_rng=rng)
                 for train, rng in zip((run_steps, run_steps_stacked), rngs))
    assert_same_outcome(got, want)
    if isinstance(got, Diverged):
        assert got.iteration == 1 + len(got.trace) < 1 + n_steps
    if jitter:
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@PROPERTY
@given(case=stacks(), steps=st.lists(st.integers(1, 12), min_size=6,
                                     max_size=6),
       use_tau=st.booleans())
def test_mixed_step_counts_equal_separate_calls(case, steps, use_tau):
    """One run_blocks call, every block with its own step count, trains a
    stack per step count, and each outcome equals the block's own
    run_blocks call, jitter generators included."""
    blocks, X, y = case
    steps = steps[:len(blocks)]

    def rngs():
        return [np.random.default_rng(100 + i) if i % 2 else None
                for i in range(len(blocks))]

    with patch.object(block, "run_stack", wraps=block.run_stack) as spy:
        got = run_blocks(blocks, list(X), list(y), steps, use_tau, rngs())
    assert spy.call_count == len(set(steps))
    want = [run_blocks([blk], [X[i]], [y[i]], steps[i], use_tau, [rng])[0]
            for i, (blk, rng) in enumerate(zip(blocks, rngs()))]
    for g, w, n in zip(got, want, steps):
        assert_same_outcome(g, w)
        assert isinstance(g, Diverged) or len(g[1]) == n


@PROPERTY
@given(case=reference_cases(), n_steps=st.integers(1, 20),
       kind=st.sampled_from(["adagrad", "rmsprop", "nesterov"]))
def test_optimizer_run_stack_matches_allocating_step(case, n_steps, kind):
    blocks, X, y = case
    n_mats = len(blocks[0].matrices())

    def states():
        return [OptimizerState(kind, eta=0.01) for _ in range(n_mats)]

    want = reference_run(blocks, X, y, n_steps, False,
                         rule=RefOptimizer(states()))
    got = run_stack(stack_blocks(blocks), X, y, n_steps, use_tau=False,
                    rule=OptimizerRule(OptimizerState(kind, eta=0.01)))
    assert_same_as_reference(got, want)


def take_case(gamma_bad):
    """Three depth-3 blocks with lambda > 0, the first blown up by
    gamma_bad to diverge while the other two carry on."""
    metas = [BlockMetaParams(neurons=4, depth=3, iterations=1000, alpha=0.5,
                             gamma=g, lam=lam)
             for g, lam in ((gamma_bad, 0.01), (1.5, 0.3), (0.8, 0.01))]
    metas[0] = replace(metas[0], alpha=1e6)
    rng = np.random.default_rng(7)
    X = rng.normal(size=(3, 20, 2))
    y = rng.normal(size=(3, 20))
    X[0] *= 50.0
    y[0] *= 1e3
    return [init_block(meta, 2, 40 + i) for i, meta in enumerate(metas)], X, y


@pytest.mark.parametrize("kind", RULE_KINDS, ids=lambda k: k or "reinforced")
def test_take_path_matches_allocating_step(kind):
    # see reference_cases for why adagrad and rmsprop need gamma 1e308
    blocks, X, y = take_case(1e308 if kind in ("adagrad", "rmsprop") else 1e12)
    if kind is None:
        want = reference_run(blocks, X, y, 25, False)
        got = run_stack(stack_blocks(blocks), X, y, 25, use_tau=False)
    else:
        want = reference_run(blocks, X, y, 25, False, rule=RefOptimizer(
            [OptimizerState(kind, eta=0.01) for _ in blocks[0].matrices()]))
        got = run_stack(stack_blocks(blocks), X, y, 25, use_tau=False,
                        rule=OptimizerRule(OptimizerState(kind, eta=0.01)))
    assert isinstance(want[0], Diverged)
    assert want[0].iteration >= (1 if kind in ("adagrad", "rmsprop") else 2)
    assert not any(isinstance(w, Diverged) for w in want[1:])
    assert_same_as_reference(got, want)


# not nesterov: w + v with v = +0.0 turns -0.0 into +0.0 in the reference too
@pytest.mark.parametrize("kind", RULE_KINDS[:3], ids=lambda k: k or "reinforced")
def test_negative_zero_bias_keeps_its_bits(kind):
    """With lambda > 0, a bias entry holding -0.0 whose update is zero stays
    -0.0, as in the per-matrix reference: its decay term is +0.0, never
    lam * -0.0 (which a 0/1 bias mask would give, flipping the sign)."""
    blocks, X, y = take_case(1.0)
    for blk in blocks:
        for th in blk.matrices():
            th[0] = -0.0
    stack = stack_blocks(blocks)
    ws = Workspace(stack, X, y)
    ws.grad[:] = np.random.default_rng(3).normal(size=ws.grad.shape)
    # the reinforced step adds alpha * delta, an optimizer step subtracts
    # a multiple of -delta: a zero of either sign keeps -0.0 the same way
    for d in ws.deltas:
        d[:, 0] = -0.0 if kind is None else 0.0
    mats = [th.copy() for th in stack.mats]
    deltas = [d.copy() for d in ws.deltas]
    if kind is None:
        rule, ref = REINFORCED, RefReinforced()
    else:
        rule = OptimizerRule(OptimizerState(kind, eta=0.01))
        ref = RefOptimizer([OptimizerState(kind, eta=0.01) for _ in mats])
    rule.update(Rows(stack, ws, 0, len(stack)))
    want = ref(mats, mats, deltas, stack.alpha, stack.lam, ws.m)
    for th, w in zip(stack.mats, want):
        assert bits(th) == bits(w)
        assert np.all(np.signbit(th[:, 0])) and np.all(th[:, 0] == 0.0)


def test_stack_buffers_are_views_and_unstack_copies():
    blocks, X, y = take_case(1.0)
    stack = stack_blocks(blocks)
    ws = Workspace(stack, X, y)
    assert stack.params.flags.c_contiguous
    for th in stack.mats:
        assert np.shares_memory(th, stack.params)
    for d in ws.deltas:
        assert np.shares_memory(d, ws.grad)
    for row, blk in zip(stack.params, blocks):
        assert bits(row) == bits(np.concatenate(
            [th.ravel() for th in blk.matrices()]))
    for blk in unstack(stack):
        for th in blk.matrices():
            assert th.flags.owndata
            assert not np.shares_memory(th, stack.params)


# --- commands that stack their blocks: train_all and compare ---

BLOCK_METHODS = ["nrn", "ann", "adagrad", "rmsprop", "nesterov"]
OPT_HYPER = dict(eta=0.01, rho=0.9, momentum=0.9, eps=1e-8)


def weld_meta(**kw):
    return BlockMetaParams(**{"neurons": 4, "alpha": 0.5, "gamma": 1.5,
                              "lam": 0.001, "iterations": 1000, **kw})


@pytest.fixture(scope="module")
def weld60():
    return ds.synthesize_weld(60, 0.02, seed=5)


def train_alone(method, meta, X, y, seed, tname, use_tau, gamma_jitter,
                opt_hyper):
    """One block of a block method, trained by itself (B = 1) the way
    train_all and optimizer_train trained it before blocks were stacked."""
    if method not in ("nrn", "ann"):
        return baselines.optimizer_train(method, meta, X, y,
                                         derive_seed(seed, tname), **opt_hyper)
    if method == "ann":
        meta, use_tau = replace(meta, gamma=1.0), False
    rng = (np.random.default_rng(derive_seed(seed, tname, "jitter"))
           if gamma_jitter else None)
    return run_steps(init_block(meta, X.shape[1], derive_seed(seed, tname)),
                     X, y, meta.iterations, use_tau=use_tau, jitter_rng=rng)


@pytest.mark.parametrize("variant", [
    dict(use_tau=False),
    dict(gamma_jitter=True),
    dict(metas=[weld_meta(neurons=4, degree=1), weld_meta(neurons=5, depth=2)]),
], ids=["no-tau", "gamma-jitter", "two-groups"])
def test_compare_equals_blocks_alone(weld60, variant):
    metas = variant.get("metas", [weld_meta(), weld_meta(gamma=2.0)])
    use_tau = variant.get("use_tau", True)
    jitter = variant.get("gamma_jitter", False)
    seeds = [0, 1]
    records, _ = run_comparison(weld60, BLOCK_METHODS, metas, seeds, 0.2,
                                use_tau=use_tau, gamma_jitter=jitter,
                                opt_hyper=OPT_HYPER)
    got = {(r["seed"], r["method"], r["target"]): r for r in records}
    assert [(r["seed"], r["method"], r["target"]) for r in records] == [
        (s, m, t) for s in seeds for m in BLOCK_METHODS
        for t in weld60.target_names]
    for seed in seeds:
        tr, te = ds.split(weld60, 0.2, seed)
        scaler, inputs = ds.prepare_features(
            tr.features, [m.degree for m in metas], fit=True)
        for method in BLOCK_METHODS:
            blocks = [train_alone(method, meta, X, tr.targets[:, k], seed,
                                  tname, use_tau, jitter, OPT_HYPER)[0]
                      for k, (meta, tname, X) in enumerate(
                          zip(metas, tr.target_names, inputs))]
            preds = mdl.predict(mdl.AggregateModel(blocks, scaler,
                                                   tr.target_names),
                                te.features)
            for k, tname in enumerate(tr.target_names):
                rec = got[(seed, method, tname)]
                y, yhat = te.targets[:, k], preds[:, k]
                want_pe, want_excluded = metrics.pe(y, yhat)
                assert rec["rmse"].hex() == metrics.rmse(y, yhat).hex()
                assert rec["pe_percent"].hex() == want_pe.hex()
                assert rec["pe_excluded"] == want_excluded


@pytest.mark.parametrize("use_tau, jitter", [(True, False), (False, True)])
def test_train_all_equals_targets_alone(weld60, use_tau, jitter):
    metas = [weld_meta(neurons=4, degree=1), weld_meta(neurons=5, depth=2),
             weld_meta(neurons=4, degree=1, gamma=0.5)]
    data = ds.Dataset(weld60.features,
                      np.column_stack([weld60.targets, weld60.targets[:, 0] * 2]),
                      weld60.feature_names, ["p", "w", "p2"])
    model, traces = mdl.train_all(metas, data, seed=3, use_tau=use_tau,
                                  gamma_jitter=jitter)
    _, inputs = ds.prepare_features(data.features, [m.degree for m in metas],
                                    fit=True)
    for k, (meta, tname, X) in enumerate(zip(metas, data.target_names, inputs)):
        block, trace = train_alone("nrn", meta, X, data.targets[:, k], 3,
                                   tname, use_tau, jitter, None)
        assert_same_block(model.blocks[k], block)
        assert traces[k] == trace


def outcomes_alone(data, methods, metas, seeds, opt_hyper):
    """(seed, method, target, Diverged or None) of every block of a compare
    run, each block trained by itself, in seed -> method -> target order
    (ner and mcr train no block)."""
    out = []
    for seed in seeds:
        tr, _ = ds.split(data, 0.2, seed)
        _, inputs = ds.prepare_features(tr.features, [m.degree for m in metas],
                                        fit=True)
        for method in (m for m in methods if m in BLOCK_METHODS):
            for k, (meta, tname, X) in enumerate(
                    zip(metas, tr.target_names, inputs)):
                try:
                    train_alone(method, meta, X, tr.targets[:, k], seed,
                                tname, True, False, opt_hyper)
                    out.append((seed, method, tname, None))
                except Diverged as exc:
                    out.append((seed, method, tname, exc))
    return out


@pytest.mark.parametrize("methods", [["ner", "nesterov", "nrn"],
                                     ["nrn", "nesterov"]])
def test_compare_raises_first_divergence_in_loop_order(weld60, methods):
    metas = [weld_meta(alpha=20.0, gamma=4.0, lam=0.0)] * 2
    seeds, hyper = [1, 0], {**OPT_HYPER, "eta": 3.0}
    alone = [o for o in outcomes_alone(weld60, methods, metas, seeds, hyper)
             if o[3] is not None]
    # several blocks diverge, and the first in loop order is not the
    # first to diverge, so stacked training must pick it by order
    assert len(alone) >= 3
    assert alone[0][3].iteration > min(o[3].iteration for o in alone)
    seed, method, tname, exc = alone[0]
    want = Diverged(exc.iteration, target=tname)
    with pytest.raises(Diverged) as got:
        run_comparison(weld60, methods, metas, seeds, 0.2, opt_hyper=hyper)
    assert str(got.value) == str(want)
    assert got.value.iteration == exc.iteration


def test_train_all_raises_first_divergence_in_target_order(weld60):
    metas = [weld_meta(alpha=20.0, gamma=4.0, lam=0.0)] * 2
    tr, _ = ds.split(weld60, 0.2, 1)
    _, inputs = ds.prepare_features(tr.features, [0, 0], fit=True)
    alone = []
    for k, (meta, tname, X) in enumerate(zip(metas, tr.target_names, inputs)):
        with pytest.raises(Diverged) as exc:
            train_alone("nrn", meta, X, tr.targets[:, k], 1, tname, True,
                        False, None)
        alone.append(exc.value)
    assert alone[0].iteration > alone[1].iteration
    with pytest.raises(Diverged) as got:
        mdl.train_all(metas, tr, seed=1)
    assert str(got.value) == str(Diverged(alone[0].iteration,
                                          target=tr.target_names[0]))
    assert got.value.trace == alone[0].trace
