"""Independent tasks on forked workers (workers.map_tasks): results equal
the tasks run inline, errors come back intact, and a dead worker ends in a
WeldnetError.  The dynamic-width targets of train_all run this way; each
equals its target trained alone, bit for bit, with one CPU or with two."""

import inspect
import os
import pickle

import numpy as np
import pytest

from test_stack import assert_same_block, assert_same_records, weld_meta
from weldnet import cli, dataset as ds, errors, model as mdl, workers
from weldnet.block import TraceRecord, TrainingTrace
from weldnet.errors import Diverged, WeldnetError, WorkerDied
from weldnet.rng import derive_seed


@pytest.fixture(params=[1, 2], ids=["1cpu", "2cpus"])
def cpus(request, monkeypatch):
    """The CPU count map_tasks sees: 1 runs tasks inline, 2 on workers."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: request.param)
    return request.param


# --- errors survive pickling ---

TRACE = TrainingTrace([TraceRecord(1, 0.5, 1.0, 2.0, 0.1, -0.1, 0.6)])
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


# --- dynamic-width train_all against its targets trained alone ---


@pytest.fixture(scope="module")
def three_targets():
    weld = ds.synthesize_weld(60, 0.02, seed=5)
    return ds.Dataset(weld.features,
                      np.column_stack([weld.targets, weld.targets[:, 0] * 2]),
                      weld.feature_names, ["p", "w", "p2"])


def targets_alone(metas, data, seed, use_tau, gamma_jitter):
    """_train_dynamic of every target in this process, one after another:
    (block, trace) or the Diverged it raised."""
    _, inputs = ds.prepare_features(data.features, [m.degree for m in metas],
                                    fit=True)
    out = []
    for meta, tname, X, y in zip(metas, data.target_names, inputs,
                                 data.targets.T):
        rng = (np.random.default_rng(derive_seed(seed, tname, "jitter"))
               if gamma_jitter else None)
        try:
            out.append(mdl._train_dynamic(meta, X, y, seed, tname, use_tau, rng))
        except Diverged as exc:
            out.append(exc)
    return out


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
        assert_same_records(trace.records, want_trace.records)


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
    assert_same_records(got.value.trace.records, alone[0].trace.records)
