"""Independent tasks on forked workers (workers.map_tasks): results equal
the tasks run inline, errors come back intact, and a dead worker ends in a
WeldnetError.  The dynamic-width targets of train_all run this way, and so
do the sub-stacks run_blocks cuts a large same-shape group into; each
equals its block or target trained alone, bit for bit, with one CPU or
with two, and so does every file the commands that train write."""

import inspect
import json
import os
import pickle
import signal
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from test_stack import (
    OPT_HYPER,
    assert_same_block,
    assert_same_outcome,
    bits,
    outcomes_alone,
    train_alone,
    weld_meta,
)
from weldnet import (
    baselines,
    block,
    cli,
    dataset as ds,
    errors,
    model as mdl,
    workers,
)
from weldnet.block import (
    TrainingTrace,
    init_block,
    run_blocks,
    run_stack,
    stack_blocks,
)
from weldnet.errors import Diverged, WeldnetError, WorkerDied
from weldnet.rng import derive_seed


# --- errors survive pickling ---

TRACE = TrainingTrace(np.array([[0.5], [1.0], [2.0], [0.1], [-0.1], [0.6]]))
# constructor arguments of the errors that take more than a message
ERROR_ARGS = {
    "UnprefixedColumn": (("x",), {}),
    "DuplicateColumn": (("iwp:a",), {}),
    "BadColumnName": (("a,b",), {}),
    "ParseError": ((3, 2, "x"), {}),
    "ConstantColumn": ((1,), {}),
    "Diverged": ((), dict(iteration=5, trace=TRACE, target="width")),
    "FormatError": ((1, "blocks[0] has no 'tau'"), {}),
}


def every_error_class(cls=WeldnetError):
    return [cls] + [c for sub in cls.__subclasses__()
                    for c in every_error_class(sub)]


def test_every_error_class_is_covered():
    from_module = {c for _, c in inspect.getmembers(errors, inspect.isclass)
                   if issubclass(c, WeldnetError)}
    assert from_module == set(every_error_class())


@pytest.mark.parametrize("cls", every_error_class(), ids=lambda c: c.__name__)
def test_error_round_trips_through_pickle(cls):
    args, kwargs = ERROR_ARGS.get(cls.__name__, (("some message",), {}))
    error = cls(*args, **kwargs)
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is cls
    assert str(back) == str(error) and back.args == error.args
    assert vars(back) == vars(error)


def test_diverged_keeps_its_context_through_pickle():
    back = pickle.loads(pickle.dumps(Diverged(iteration=5, trace=TRACE,
                                              target="width")))
    assert (back.iteration, back.target) == (5, "width")
    assert back.trace.records == TRACE.records
    assert str(back) == "training diverged at iteration 5 in block 'width'"


# --- map_tasks ---


def _pid_and_square(x):
    return os.getpid(), x * x


def _fails_on(x, bad):
    if x in bad:
        raise errors.ParseError(x, 0, "bad")
    return x


def test_results_in_task_order(cpus):
    got = workers.map_tasks(_pid_and_square, [(x,) for x in range(7)])
    assert [sq for _, sq in got] == [x * x for x in range(7)]
    pids = {pid for pid, _ in got}
    if cpus == 1:
        assert pids == {os.getpid()}
    else:
        assert os.getpid() not in pids and len(pids) <= cpus


def test_one_task_runs_inline(monkeypatch):
    monkeypatch.setattr(workers, "usable_cpus", lambda: 8)
    assert workers.map_tasks(_pid_and_square, [(3,)]) == [(os.getpid(), 9)]
    assert workers.map_tasks(_pid_and_square, []) == []


def test_first_failing_task_in_order_is_raised(cpus):
    with pytest.raises(errors.ParseError) as got:
        workers.map_tasks(_fails_on, [(x, {4, 2}) for x in range(6)])
    assert got.value.row == 2 and "data row 2" in str(got.value)


def test_dead_worker_is_a_weldnet_error(monkeypatch):
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    parent = os.getpid()

    def dies_in_worker(x):
        if os.getpid() != parent:
            os._exit(1)
        raise AssertionError("ran inline")

    with pytest.raises(WorkerDied):
        workers.map_tasks(dies_in_worker, [(1,), (2,)])


def test_dead_worker_exits_3_without_traceback(monkeypatch, tmp_path, capsys):
    data = ds.synthesize_weld(40, 0.02, seed=2)
    ds.save_csv(data, tmp_path / "weld.csv")
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    parent = os.getpid()
    train_dynamic = mdl._train_dynamic

    def dies_in_worker(*args):
        if os.getpid() != parent:
            os._exit(1)
        return train_dynamic(*args)

    monkeypatch.setattr(mdl, "_train_dynamic", dies_in_worker)
    code = cli.main(["train", "--dynamic-width", "--data",
                     str(tmp_path / "weld.csv"), "--out-dir", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: a worker process died")
    assert "Traceback" not in err
    assert not (tmp_path / "model.json").exists()


def _noise(seed, n):
    return np.random.default_rng(seed).normal(size=n)


def _timed_out(signum, frame):
    raise TimeoutError("map_tasks did not return within 60 s")


def test_results_larger_than_a_pipe_come_back_whole(cpus):
    """Each worker hands back 4 MB, far more than a pipe holds, while the
    other is still writing: both arrive whole, in task order (and a map
    that waited on its workers before reading them fails, not hangs)."""
    handler = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(60)
    try:
        got = workers.map_tasks(_noise, [(seed, 1 << 18) for seed in range(4)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    for seed, arr in enumerate(got):
        assert bits(arr) == bits(_noise(seed, 1 << 18))


def _unpicklable(x):
    return lambda: x


def test_unpicklable_result_is_a_dead_worker(monkeypatch):
    """A result pickle cannot carry ends its worker without a result: the
    map raises WorkerDied, and the fixture checks that no child is left."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    with pytest.raises(WorkerDied, match="^a worker process died"):
        workers.map_tasks(_unpicklable, [(1,), (2,)])


def test_worker_runs_none_of_the_callers_cleanup(tmp_path):
    """A worker leaves through os._exit: it runs no finally block and no
    atexit handler of the caller's, not even when its task raises
    SystemExit, and it flushes none of the caller's buffered output."""
    from test_cli import CHILD_ENV
    script = (
        "import atexit, os, sys\n"
        "from weldnet import workers\n"
        "workers.usable_cpus = lambda: 2\n"
        "parent = os.getpid()\n"
        "def task(x):\n"
        "    if x == 1:\n"
        "        sys.exit(5)\n"
        "    return x\n"
        "atexit.register(lambda: print('atexit', os.getpid() == parent))\n"
        "print('buffered', flush=False)\n"
        "try:\n"
        "    print(workers.map_tasks(task, [(0,), (2,)]))\n"
        "    workers.map_tasks(task, [(0,), (1,)])\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__)\n"
        "finally:\n"
        "    print('finally', os.getpid() == parent)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=CHILD_ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["buffered", "[0, 2]", "WorkerDied",
                                        "finally True", "atexit True"]


# --- dynamic-width train_all against its targets trained alone ---


@pytest.fixture(scope="module")
def three_targets():
    weld = ds.synthesize_weld(60, 0.02, seed=5)
    return ds.Dataset(weld.features,
                      np.column_stack([weld.targets, weld.targets[:, 0] * 2]),
                      weld.feature_names, ["p", "w", "p2"])


def targets_alone(metas, data, seed, use_tau, gamma_jitter):
    """_train_dynamic of every target in this process, one after another,
    each block and jitter generator derived here from (seed, target name)
    as train_all documents it: (block, trace) or the Diverged it returned."""
    _, inputs = ds.prepare_features(data.features, [m.degree for m in metas],
                                    fit=True)
    return [mdl._train_dynamic(
        init_block(meta, X.shape[1], derive_seed(seed, tname)), X, y, use_tau,
        np.random.default_rng(derive_seed(seed, tname, "jitter"))
        if gamma_jitter else None, seed, tname)
        for meta, tname, X, y in zip(metas, data.target_names, inputs,
                                     data.targets.T)]


def test_dynamic_width_equals_targets_alone(three_targets, cpus):
    metas = [weld_meta(neurons=4, degree=1, iterations=1100),
             weld_meta(neurons=5, depth=2),
             weld_meta(neurons=3, degree=2, gamma=0.5, iterations=1200)]
    model, traces = mdl.train_all(metas, three_targets, seed=3, use_tau=False,
                                  dynamic_width=True, gamma_jitter=True)
    want = targets_alone(metas, three_targets, 3, False, True)
    assert [len(t) for t in traces] == [1100, 1000, 1200]
    for block, trace, (want_block, want_trace) in zip(model.blocks, traces, want):
        assert_same_block(block, want_block)
        assert block.meta == want_block.meta
        assert trace == want_trace


def test_dynamic_width_raises_first_divergence_in_column_order(three_targets,
                                                               cpus):
    metas = [weld_meta(alpha=3.0, gamma=1.4, lam=0.0), weld_meta(),
             weld_meta(alpha=20.0, gamma=4.0, lam=0.0)]
    alone = targets_alone(metas, three_targets, 3, True, False)
    assert isinstance(alone[0], Diverged) and isinstance(alone[2], Diverged)
    assert not isinstance(alone[1], Diverged)
    # the first column diverges after a width probe, the last one earlier
    assert alone[0].iteration > mdl.RESIZE_PERIOD > alone[2].iteration
    with pytest.raises(Diverged) as got:
        mdl.train_all(metas, three_targets, seed=3, dynamic_width=True)
    assert got.value.target == "p"
    assert got.value.iteration == alone[0].iteration
    assert str(got.value) == str(Diverged(alone[0].iteration, target="p"))
    assert got.value.trace == alone[0].trace
    # the trace runs across the width probes: every iteration before the
    # divergence, numbered from 1
    assert len(got.value.trace) == got.value.iteration - 1
    assert [r.iteration for r in got.value.trace.records] == list(
        range(1, got.value.iteration))


def test_compare_at_dynamic_width_equals_train_all(three_targets, cpus):
    """A dynamic-width compare trains nrn and ann on every (seed, target)
    in the same train_models call as a fixed-width method: their
    records equal train_all at dynamic width and predict on each seed's
    split, one seed at a time."""
    metas = [weld_meta(neurons=4, iterations=1100), weld_meta(depth=2),
             weld_meta(neurons=3, degree=1, gamma=0.5)]
    seeds = [0, 3]
    records, _ = cli.run_comparison(three_targets, ["nrn", "nesterov", "ann"],
                                    metas, seeds, 0.25, dynamic_width=True,
                                    gamma_jitter=True)
    want = []
    for seed in seeds:
        tr, te = ds.split(three_targets, 0.25, seed)
        for method in ("nrn", "ann"):
            model, _ = mdl.train_all(
                metas if method == "nrn" else
                [replace(m, gamma=1.0) for m in metas], tr, seed,
                use_tau=method == "nrn", dynamic_width=True, gamma_jitter=True)
            preds = mdl.predict(model, te.features)
            want += [(seed, method, tname,
                      *cli._scores(te.targets[:, k], preds[:, k]))
                     for k, tname in enumerate(te.target_names)]
    got = [tuple(r.values()) for r in records if r["method"] != "nesterov"]
    assert got == want


def test_compare_at_dynamic_width_raises_in_loop_order(weld40, cpus):
    """Two training rows are too few for a width probe, and nrn's TooFewRows
    is raised where the loop reaches nrn: after a divergence of a method
    listed before it."""
    three = weld40.take(np.arange(3))
    metas = [weld_meta(), weld_meta()]
    with pytest.raises(errors.TooFewRows):
        cli.run_comparison(three, ["nrn", "ann"], metas, [0, 1], 0.2,
                           dynamic_width=True)
    with pytest.raises(Diverged):
        cli.run_comparison(three, ["nesterov", "nrn"], metas, [0], 0.2,
                           dynamic_width=True,
                           opt_hyper={**OPT_HYPER, "eta": 1000.0})


# --- every path that trains blocks raises a divergence with its context ---


@pytest.fixture(scope="module")
def weld40():
    return ds.synthesize_weld(40, 0.02, seed=5)


def first_diverged_alone(path, metas, data, seed, eta):
    """(target name, Diverged) of the first target in column order that
    diverges trained by itself the way path trains it, or None."""
    if path in ("dynamic", "compare-dynamic"):
        rows = data if path == "dynamic" else ds.split(data, 0.2, seed)[0]
        outs = targets_alone(metas, rows, seed, True, False)
        return next(((t, o) for t, o in zip(data.target_names, outs)
                     if isinstance(o, Diverged)), None)
    if path == "fixed":
        _, inputs = ds.prepare_features(data.features, [0] * len(metas),
                                        fit=True)
        for k, (meta, tname, X) in enumerate(zip(metas, data.target_names,
                                                 inputs)):
            try:
                train_alone("nrn", meta, X, data.targets[:, k], seed, tname,
                            True, False, None)
            except Diverged as exc:
                return tname, exc
        return None
    return next(((t, o) for _, _, t, o in outcomes_alone(
        data, [path], metas, [seed], {**OPT_HYPER, "eta": eta})
        if o is not None), None)


@pytest.mark.parametrize("path", ["fixed", "dynamic", "nrn", "ann", "nesterov",
                                  "compare-dynamic"])
@settings(max_examples=2, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(k=st.integers(0, 1), seed=st.integers(0, 2**16),
       scale=st.floats(0.0, 1.0))
def test_divergence_carries_iteration_and_trace(weld40, cpus, path, k, seed,
                                                scale):
    """Target k gets an alpha that makes it diverge (for nesterov, every
    target gets a large eta): the path raises the Diverged of the first
    target in column order to diverge alone, at its iteration, with the
    trace of every iteration before it, naming the target.  At dynamic
    width (train_all, and nrn in compare) the divergence comes after a
    width probe."""
    dynamic = path in ("dynamic", "compare-dynamic")
    metas = [weld_meta(), weld_meta()]
    if dynamic:
        metas[k] = weld_meta(alpha=3.0 + 0.3 * scale, gamma=1.4, lam=0.0)
    else:
        metas[k] = weld_meta(alpha=6.0 + 30.0 * scale, gamma=1.4, lam=0.0)
    eta = 3.0 + 3.0 * scale
    first = first_diverged_alone(path, metas, weld40, seed, eta)
    assume(first is not None)
    tname, want = first
    if dynamic:
        assume(want.iteration > mdl.RESIZE_PERIOD)
    with pytest.raises(Diverged) as got:
        if path in ("fixed", "dynamic"):
            mdl.train_all(metas, weld40, seed, dynamic_width=dynamic)
        else:
            cli.run_comparison(weld40, ["nrn" if dynamic else path], metas,
                               [seed], 0.2, dynamic_width=dynamic,
                               opt_hyper={**OPT_HYPER, "eta": eta})
    assert got.value.iteration == want.iteration
    assert got.value.target == tname
    assert str(got.value) == str(Diverged(want.iteration, target=tname))
    assert got.value.trace == want.trace
    assert len(got.value.trace) == got.value.iteration - 1
    assert got.value.trace.start == 1


# --- run_blocks: large same-shape groups cut across workers ---


def spy_map_tasks(monkeypatch) -> list:
    """The task count of every map_tasks call run_blocks and train_models
    make from now on."""
    calls = []
    real = workers.map_tasks

    def spy(fn, tasks):
        tasks = list(tasks)
        calls.append(len(tasks))
        return real(fn, tasks)

    monkeypatch.setattr(workers, "map_tasks", spy)
    monkeypatch.setattr(mdl, "map_tasks", spy)
    return calls


def blocks_case(shapes, seed=0, bad=None):
    """Blocks of the given (count, neurons, rows) groups, each with its own
    alpha, gamma and data; block bad is blown up to diverge."""
    rng = np.random.default_rng(seed)
    blocks, inputs, targets = [], [], []
    for count, k, m in shapes:
        for _ in range(count):
            meta = weld_meta(neurons=k, alpha=float(rng.uniform(0.1, 1.0)),
                             gamma=float(rng.uniform(0.5, 2.0)), lam=0.001)
            blocks.append(init_block(meta, 3, int(rng.integers(2**16))))
            inputs.append(rng.normal(size=(m, 3)))
            targets.append(rng.normal(size=m))
    if bad is not None:
        inputs[bad] *= 50.0
        targets[bad] *= 1e3
        blocks[bad].meta = weld_meta(neurons=blocks[bad].meta.neurons,
                                     alpha=1e6, gamma=1e6, lam=0.0)
    return blocks, inputs, targets


def jitter_rngs(n):
    return [np.random.default_rng(100 + i) for i in range(n)]


def groups_whole(case, counts, jitter=False, rule=block.REINFORCED):
    """run_stack outcomes of case's blocks trained in one stack per group
    of counts consecutive blocks, in this process: run_blocks as it was
    before it cut groups (and, by tests/test_stack.py, every block trained
    alone)."""
    blocks, inputs, targets = case
    rngs = jitter_rngs(len(blocks)) if jitter else None
    out, start = [], 0
    for count in counts:
        part = slice(start, start + count)
        stack = stack_blocks(blocks[part])
        out += run_stack(stack, inputs[part], targets[part],
                         blocks[start].meta.iterations,
                         jitter_rngs=None if rngs is None else rngs[part],
                         rule=rule)
        start += count
    return out


def assert_same_outcomes(got, want):
    """Weights, tau, nu and all six trace columns bit-equal; a Diverged at
    the same iteration with the same partial trace."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_outcome(g, w)


RUN_BLOCKS_CASES = {
    # name: (groups of (count, neurons, rows), diverging block, jitter,
    #        optimizer, map_tasks task counts at 2 CPUs)
    "diverging-member": ([(9, 3, 16)], 4, False, None, [2]),
    "gamma-jitter": ([(8, 3, 16)], None, True, None, [2]),
    "optimizer": ([(8, 3, 16)], None, False, "adagrad", [2]),
    "mixed-shapes": ([(8, 3, 16), (3, 4, 16), (9, 3, 12)], 12, False, None,
                     [5]),
}


@pytest.fixture(scope="module")
def whole_outcomes():
    """Per RUN_BLOCKS_CASES name: (blocks, inputs, targets, rule, the
    outcomes of every group trained as one stack)."""
    out = {}
    for name, (shapes, bad, jitter, kind, _) in RUN_BLOCKS_CASES.items():
        case = blocks_case(shapes, bad=bad)
        rule = (block.REINFORCED if kind is None else
                baselines.OptimizerRule(baselines.OptimizerState(kind, eta=0.01)))
        out[name] = (*case, rule, groups_whole(
            case, [count for count, _, _ in shapes], jitter, rule))
    return out


@pytest.mark.parametrize("name", RUN_BLOCKS_CASES)
def test_run_blocks_equals_groups_whole(name, whole_outcomes, cpus,
                                        monkeypatch):
    blocks, inputs, targets, rule, want = whole_outcomes[name]
    _, bad, jitter, _, cut = RUN_BLOCKS_CASES[name]
    calls = spy_map_tasks(monkeypatch)
    got = run_blocks(blocks, inputs, targets,
                     jitter_rngs=jitter_rngs(len(blocks)) if jitter else None,
                     rule=rule)
    assert calls == (cut if cpus == 2 else [])
    if bad is not None:
        assert isinstance(want[bad], Diverged)
        assert 1 < want[bad].iteration < 1000
    assert_same_outcomes(got, want)


def test_run_blocks_mixes_rules_in_one_stack(cpus, monkeypatch):
    """Blocks of every rule, with and without the shift and jitter, listed
    with their rules interleaved: run_blocks puts them in one group, cut
    in two at 2 CPUs, and every outcome equals the block trained alone."""
    blocks, inputs, targets = blocks_case([(10, 3, 16)], bad=3)
    kinds = [None, "adagrad", "nesterov", None, "rmsprop", "plain", None,
             "nesterov", "adagrad", None]
    rules = {k: block.REINFORCED if k is None else
             baselines.OptimizerRule(baselines.OptimizerState(k, eta=0.01))
             for k in kinds}
    taus = [k is None and i % 6 == 0 for i, k in enumerate(kinds)]

    def rngs():
        return [np.random.default_rng(100 + i) if i % 3 else None
                for i in range(10)]

    want = []
    for i, (blk, kind, rng) in enumerate(zip(blocks, kinds, rngs())):
        try:
            want.append(block.run_steps(blk, inputs[i], targets[i], 1000,
                                        use_tau=taus[i], jitter_rng=rng,
                                        rule=rules[kind]))
        except Diverged as exc:
            want.append(exc)
    assert isinstance(want[3], Diverged)
    calls = spy_map_tasks(monkeypatch)
    got = run_blocks(blocks, inputs, targets, use_tau=taus, jitter_rngs=rngs(),
                     rule=[rules[k] for k in kinds])
    assert calls == ([2] if cpus == 2 else [])
    assert_same_outcomes(got, want)


def test_chunks_of_one_are_not_cut(whole_outcomes, cpus, monkeypatch):
    blocks, inputs, targets, _, want = whole_outcomes["diverging-member"]
    monkeypatch.setattr(block, "STACK_ELEMENTS", 1)
    calls = spy_map_tasks(monkeypatch)
    assert_same_outcomes(run_blocks(blocks, inputs, targets), want)
    assert calls == []


def test_small_groups_train_here(monkeypatch):
    """Groups below 2 * PART_BLOCKS blocks never reach map_tasks."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    calls = spy_map_tasks(monkeypatch)
    counts = [2 * block.PART_BLOCKS - 1, 1]
    case = blocks_case([(counts[0], 3, 12), (counts[1], 4, 12)])
    assert_same_outcomes(run_blocks(*case), groups_whole(case, counts))
    assert calls == []


def search_outputs(tmp_path, monkeypatch, capsys, n_cpus):
    """Every file `weldnet search` writes, and its stdout, with n_cpus
    usable CPUs."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: n_cpus)
    out = tmp_path / f"{n_cpus}cpus"
    assert cli.main(["search", "--data", str(tmp_path / "weld.csv"),
                     "--space", str(tmp_path / "space.json"),
                     "--out-dir", str(out), "--seed", "4"]) == 0
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return files, capsys.readouterr().out.replace(str(out), "OUT")


def test_search_outputs_equal_at_one_and_two_cpus(tmp_path, monkeypatch,
                                                  capsys):
    ds.save_csv(ds.synthesize_weld(40, 0.02, seed=2), tmp_path / "weld.csv")
    # two neuron counts, so two groups of 2 points x 5 folds; alpha 5000
    # diverges
    (tmp_path / "space.json").write_text(json.dumps(dict(
        neurons=[3, 4], alpha=[0.5, 5000.0], gamma=[1.0], iterations=[1000])))
    calls = spy_map_tasks(monkeypatch)
    one = search_outputs(tmp_path, monkeypatch, capsys, 1)
    assert calls == []
    two = search_outputs(tmp_path, monkeypatch, capsys, 2)
    assert calls == [4]  # both targets at once, 2 sub-stacks of each group
    assert one == two
    board = one[0]["leaderboard_penetration.csv"].decode().splitlines()
    assert len(board) == 5 and board[-1].endswith(",inf,inf")


def command_outputs(tmp_path, monkeypatch, capsys, n_cpus, argv):
    """Every file a command writes, and its stdout, with n_cpus usable
    CPUs."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: n_cpus)
    out = tmp_path / f"{n_cpus}cpus"
    assert cli.main([*argv, "--out-dir", str(out)]) == 0
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return files, capsys.readouterr().out.replace(str(out), "OUT")


@pytest.mark.parametrize("flags, dynamic", [
    ([], []), (["--gamma-jitter"], []), (["--dynamic-width"], [8])],
    ids=["fixed", "jitter", "dynamic"])
def test_compare_outputs_equal_at_one_and_two_cpus(tmp_path, monkeypatch,
                                                   capsys, flags, dynamic):
    """compare with all seven methods over two seeds: the block methods'
    (seed, target) blocks at fixed width train in one run_blocks call (20
    blocks, or at dynamic width the optimizers' 12, cut in two at 2 CPUs),
    nrn's and ann's at dynamic width in one map_tasks call of a block
    each."""
    ds.save_csv(ds.synthesize_weld(40, 0.02, seed=2), tmp_path / "weld.csv")
    argv = ["compare", "--data", str(tmp_path / "weld.csv"), "--methods",
            ",".join(cli.METHODS), "--seeds", "3,4", *flags]
    calls = spy_map_tasks(monkeypatch)
    one = command_outputs(tmp_path, monkeypatch, capsys, 1, argv)
    assert calls == dynamic
    calls.clear()
    two = command_outputs(tmp_path, monkeypatch, capsys, 2, argv)
    assert calls == [2, *dynamic]
    assert one == two
    assert len(one[0]["compare_raw.csv"].decode().splitlines()) == 1 + 2 * 7 * 2


def test_dead_worker_in_search_exits_3(monkeypatch, tmp_path, capsys):
    ds.save_csv(ds.synthesize_weld(40, 0.02, seed=2), tmp_path / "weld.csv")
    (tmp_path / "space.json").write_text(json.dumps(dict(
        neurons=[3], alpha=[0.5, 1.0], gamma=[1.0], iterations=[1000])))
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    parent = os.getpid()
    train = block.run_stack

    def dies_in_worker(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(1)
        return train(*args, **kwargs)

    monkeypatch.setattr(block, "run_stack", dies_in_worker)
    code = cli.main(["search", "--data", str(tmp_path / "weld.csv"),
                     "--space", str(tmp_path / "space.json"),
                     "--out-dir", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: a worker process died")
    assert err.count("error:") == 1 and err.count("\n") == 1
    assert "Traceback" not in err
    assert not list(tmp_path.glob("out/*"))


# --- model.train_models: a run trained with others equals it alone ---


RUN_RULES = {kind: block.REINFORCED if kind in ("nrn", "ann") else
             baselines.OptimizerRule(baselines.OptimizerState(kind, **OPT_HYPER))
             for kind in ("nrn", "ann", "adagrad", "rmsprop", "nesterov")}
EXPLODING = baselines.OptimizerRule(
    baselines.OptimizerState("nesterov", **{**OPT_HYPER, "eta": 1000.0}))


@pytest.fixture(scope="module")
def run_data():
    """Two datasets of 20 rows, the second with a constant feature."""
    weld = ds.synthesize_weld(20, 0.02, seed=6)
    flat = weld.features.copy()
    flat[:, 1] = 2.0
    return weld, ds.Dataset(flat, weld.targets, weld.feature_names,
                            weld.target_names)


@st.composite
def model_runs(draw, weld, flat):
    """Runs of train_models, in a drawn order: one or two of a drawn rule,
    with jitter on or off, one at dynamic width, one whose features fail
    (ConstantColumn) and one that diverges (nrn with a large alpha, or
    nesterov with a large eta)."""
    def metas(**kw):
        return [weld_meta(degree=draw(st.integers(0, 1)), **kw)
                for _ in weld.target_names]

    def seed():
        return draw(st.integers(0, 2**16))

    runs = [(metas(), weld, seed(), kind in ("nrn", "ann") and draw(st.booleans()),
             draw(st.booleans()), False, RUN_RULES[kind])
            for kind in draw(st.lists(st.sampled_from(sorted(RUN_RULES)),
                                      min_size=1, max_size=2))]
    runs.append((metas(neurons=3), weld, seed(), True, draw(st.booleans()),
                 True, block.REINFORCED))
    runs.append((metas(), flat, seed(), True, False, False, block.REINFORCED))
    runs.append((metas(alpha=20.0, gamma=4.0, lam=0.0), weld, seed(), True,
                 False, False, block.REINFORCED) if draw(st.booleans()) else
                (metas(gamma=1.0), weld, seed(), False, False, False, EXPLODING))
    return draw(st.permutations(runs))


def assert_same_result(got, want):
    """train_models results of one run: the same error (type, text, and a
    Diverged's iteration, target and trace), or bit-equal models and
    traces."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        if isinstance(want, Diverged):
            assert got.iteration == want.iteration
            assert got.target == want.target
            assert got.trace == want.trace
        return
    (got_model, got_traces), (want_model, want_traces) = got, want
    assert got_model.target_names == want_model.target_names
    assert bits(got_model.scaler.means) == bits(want_model.scaler.means)
    assert bits(got_model.scaler.stds) == bits(want_model.scaler.stds)
    for g, w in zip(got_model.blocks, want_model.blocks, strict=True):
        assert_same_block(g, w)
        assert g.meta == w.meta
    assert got_traces == want_traces


@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_train_models_run_equals_it_alone(run_data, cpus, data):
    runs = data.draw(model_runs(*run_data))
    got = mdl.train_models(runs)
    want = [mdl.train_models([run])[0] for run in runs]
    kinds = {type(w) for w in want}
    assert errors.ConstantColumn in kinds and Diverged in kinds
    for g, w in zip(got, want, strict=True):
        assert_same_result(g, w)
