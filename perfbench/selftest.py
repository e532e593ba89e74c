"""Fast self-test of the benchmark harness (a few seconds).

    python3 perfbench/selftest.py

Checks that a traced run restores every wrapped function, that self time is
a span's duration minus what its children cover, that a wrong output or an
exception counts as a failed operation, that the host-speed correction
scales a section by the kernel's time and takes the kernel runs out, and
that BENCHMARK.json names the metrics the code reports.  Exits 1 if any
check fails.
"""

from __future__ import annotations

import json
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracing import PACKAGE, Span, Tracer, children_of, self_time  # noqa: E402


class CheckFailed(Exception):
    pass


def expect(condition, detail="") -> None:
    if not condition:
        raise CheckFailed(detail)


def _namespaces():
    return {(name, attr): val for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
            for attr, val in vars(mod).items()}


def check_wrappers_restored():
    import weldnet as wn
    import weldnet.cli  # noqa: F401  (every traced module is loaded before the snapshot)
    from weldnet import block, model
    before = _namespaces()
    data = wn.synthesize_weld(12, 0.02, 0)
    meta = wn.BlockMetaParams(neurons=2, alpha=0.3, gamma=1.0, lam=0.0, iterations=1000)
    original = block.run_steps
    with Tracer() as tracer:
        expect(model.run_steps is not original and block.run_steps is not original)
        wn.train_all([meta, meta], data, seed=0)
    names = {s.name for s in tracer.take()}
    expect({"model.train_all", "block.run_steps", "block.backprop_step"} <= names, names)
    try:
        with Tracer():
            raise KeyError("inside a traced run")
    except KeyError:
        pass
    after = _namespaces()
    expect(before.keys() == after.keys())
    changed = [key for key in before if before[key] is not after[key]]
    expect(not changed, f"not restored: {changed}")


def check_self_time():
    root = Span("root", 0.0, 10.0)
    a = Span("a", 1.0, 3.0, root)
    b = Span("b", 2.0, 4.0, root)           # overlaps a
    c = Span("c", 6.0, 7.0, root)
    grandchild = Span("g", 1.5, 2.5, a)     # inside a: not a child of root
    late = Span("late", 9.5, 12.0, root)    # clipped to the parent's end
    spans = [root, a, b, c, grandchild, late]
    kids = children_of(spans)
    expect(self_time(root, kids[id(root)]) == 10.0 - 3.0 - 1.0 - 0.5)
    expect(self_time(a, kids[id(a)]) == 1.0)
    expect(self_time(c, kids.get(id(c), [])) == 1.0)


class _TinySearch(workloads.Search):
    ROWS, DATASETS = 30, 1
    GRID = dict(workloads.Search.GRID, alpha=(0.3,), gamma=(1.0,))
    jobs = 2


def _fake_board(score):
    meta = types.SimpleNamespace(neurons=8, depth=1, alpha=0.3, gamma=1.0, lam=0.0,
                                 iterations=1000)
    return lambda *a, **k: (meta, [types.SimpleNamespace(meta=meta, mean_rmse=score,
                                                         std_rmse=0.0)])


def check_wrong_output_fails():
    from weldnet import search
    real = search.grid_search
    with tempfile.TemporaryDirectory() as tmp:
        wl = _TinySearch(0, Path(tmp))
        wl.build()
        data = wl.data[0]
        truth = ref.cv_rmse(data.features, data.targets[:, 0], 8, 1, 0.3, 1.0, 0.0, 1000,
                            wl.FOLDS, wl.seeds[0])
        try:
            for score, failed in ((truth, 0), (truth * 1.05, 1)):
                search.grid_search = _fake_board(score)
                tally = workloads.Tally()
                wl.seen.clear()
                wl.quality.clear()
                wl.run_round(0, tally)
                expect((tally.attempted, tally.failed) == (1, failed), (score, tally.problems))

            def boom(*a, **k):
                raise FloatingPointError("deliberate")
            search.grid_search = boom
            tally = workloads.Tally()
            wl.run_round(0, tally)
            expect((tally.attempted, tally.failed) == (1, 1), tally.problems)
        finally:
            search.grid_search = real


class _SlowHost:
    """A kernel that takes twice NOMINAL_S, as on a host at half speed."""

    def seconds(self):
        return 2 * hostspeed.NOMINAL_S


def check_host_speed_correction():
    import time
    watch = hostspeed.Stopwatch(_SlowHost())
    with watch.section("work"):
        time.sleep(0.05)
    expect(abs(watch.corrected["work"] - watch.raw["work"] / 2) < 1e-12, watch.corrected)
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        expect(hostspeed.run_between(_SlowHost(), lambda: 7, report) == 7)
        watch = hostspeed.Stopwatch()
        watch.add_child("child", 1.0, report)
        overhead = json.loads(report.read_text())["overhead"]
        expect(abs(watch.corrected["child"] - (1.0 - overhead) / 2) < 1e-12, watch.corrected)
        watch.add_child("dead", 1.0, Path(tmp) / "missing.json")
        expect(watch.corrected["dead"] == 1.0, watch.corrected)


def check_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END)
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER)
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS))


def main() -> int:
    failures = 0
    for check in (check_self_time, check_wrappers_restored, check_wrong_output_fails,
                  check_host_speed_correction, check_benchmark_json):
        try:
            check()
            print("PASS", check.__name__)
        except CheckFailed as exc:
            failures += 1
            print("FAIL", check.__name__, exc)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
