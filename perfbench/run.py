"""weldnet benchmark: one workload per run, or every workload with --workload all.

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seeds 1,2,3 --out results.json
    python3 perfbench/compare.py old.json new.json

A run prints its environment, every metric by name and unit, any failed
output check, and as its last line one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics;
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics, including the tracing overhead.  End-to-end times are corrected for
the host's speed of the moment (hostspeed.py).  The package is imported from
the checkout's own src/ directory; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "block_iters_per_s": "1/s",
    "peak_rss_mb": "MB",
    "test_rmse": "target_units",
}

LIMITS = ("2 shared cores; no control over CPU frequency scaling or the page "
          "cache; only the benchmark's own processes are measured")


def environment() -> dict:
    """Versions, core count, BLAS library and thread count, git sha."""
    import ctypes
    import platform

    import numpy
    import scipy
    blas, threads = "unknown", None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, AttributeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
                if hasattr(handle, fn):
                    threads = int(getattr(handle, fn)())
                    break
    except OSError:
        pass
    sha = "unknown"  # a checkout without .git has no sha
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() == ROOT:
            sha = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "blas": blas,
            "blas_threads": threads, "git_sha": sha, "limits": LIMITS}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="search, fit, pipeline, or all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seeds", default="1,2,3",
                   help="with --workload all: seeds of the untraced runs")
    p.add_argument("--out", help="with --workload all: results file to write")
    p.add_argument("--setup-probe", metavar="REPORT",
                   help="import weldnet and build the workload's inputs with the "
                        "host-speed kernel timed around it, write the timings to REPORT, exit")
    return p.parse_args(argv)


def work_dir(tag: str) -> Path:
    path = OUT / f"work-{tag}-{time.time_ns()}"
    path.mkdir(parents=True)
    return path


def setup_seconds(workload: str, seed: int, work: Path) -> float:
    """Median time of fresh interpreters importing weldnet and building
    inputs, corrected for host speed with kernel timings each probe makes."""
    import hostspeed
    report = work / "setup_probe.json"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe", str(report)]
    watch = hostspeed.Stopwatch()
    for n in range(SETUP_PROBES):
        report.unlink(missing_ok=True)
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        watch.add_child(f"probe{n}", time.perf_counter() - start, report)
    return statistics.median(watch.corrected.values())


def import_seconds() -> float:
    """Median time a fresh interpreter spends importing weldnet.cli."""
    code = ("import time; t = time.perf_counter(); import weldnet.cli; "
            "print(time.perf_counter() - t)")
    from workloads import SRC
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = [float(subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                                  capture_output=True, text=True, env=env).stdout)
             for _ in range(3)]
    return statistics.median(times)


def measure(wl, seconds: float, tally) -> list:
    """Untraced rounds: every job at least once, then while another round
    still fits in --seconds of timed sections (checks are not counted), and
    for no more than twice --seconds in all (rounds that fail at once)."""
    rounds, start = [], time.perf_counter()
    while (len(rounds) < wl.min_rounds
           or (sum(r["wall"] for r in rounds) + min(r["wall"] for r in rounds) <= seconds
               and time.perf_counter() - start <= 2 * seconds)):
        rounds.append(wl.run_round(len(rounds) % wl.jobs, tally))
    return rounds


def round_seconds(rounds: list) -> float:
    """A typical round's time: per section, the median over rounds of its
    time corrected for host speed, summed over the sections."""
    names = dict.fromkeys(name for r in rounds for name in r["sections"])  # failed rounds lack some
    return sum(statistics.median(r["sections"][name] for r in rounds if name in r["sections"])
               for name in names)


def measure_traced(wl, seconds: float, tally):
    """Pairs of one untraced and one traced round on the same job, in
    alternating order; the pipeline runs its commands in-process here."""
    from tracing import Tracer
    tracer = Tracer()
    wl.kernel = None  # raw times only: no host-speed kernel runs inside spans
    plain, traced, span_rounds = [], [], []
    start = time.perf_counter()
    while True:
        job = len(plain) % wl.jobs
        for traced_turn in ((False, True) if len(plain) % 2 == 0 else (True, False)):
            if traced_turn:
                with tracer:
                    traced.append(wl.run_round(job, tally, in_process=True)["wall"])
                span_rounds.append(tracer.take())
            else:
                plain.append(wl.run_round(job, tally, in_process=True)["wall"])
        pair = statistics.median(p + t for p, t in zip(plain, traced))
        if time.perf_counter() - start + pair > seconds:
            return plain, traced, span_rounds


def run_one(args) -> int:
    import workloads
    from layers import PER_LAYER, layer_metrics, self_times
    from tracing import Tracer

    env = environment()
    print("env:", json.dumps(env))
    work = work_dir(f"{args.workload}-{args.seed}")
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        tally = workloads.Tally()
        if args.trace:
            with Tracer() as tracer:
                wl.build()
            setup_spans = tracer.take()
            plain, traced, span_rounds = measure_traced(wl, args.seconds, tally)
            import_s = import_seconds() if args.workload == "pipeline" else 0.0
            values = layer_metrics(setup_spans, span_rounds, wl.shape, plain, traced,
                                   import_s)
            units = PER_LAYER
            top = sorted(self_times([s for r in span_rounds for s in r]).items(),
                         key=lambda kv: -kv[1])[:8]
            print("self time (s, traced rounds):",
                  ", ".join(f"{name} {secs:.4f}" for name, secs in top))
        else:
            setup_s = setup_seconds(args.workload, args.seed, work)
            wl.build()
            rounds = measure(wl, args.seconds, tally)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if args.workload == "pipeline":
                rss_kb = wl.peak_child_kb
            wall_s = round_seconds(rounds)
            values = {
                "setup_s": setup_s,
                "wall_s": wall_s,
                "block_iters_per_s": statistics.median(r["iters"] for r in rounds) / wall_s,
                "peak_rss_mb": rss_kb / 1024.0,
                "test_rmse": wl.test_rmse(),
            }
            units = END_TO_END
            print(f"rounds: {len(rounds)}, raw wall time per round (s): "
                  + ", ".join(f"{r['wall']:.4f}" for r in rounds))
            print("corrected for host speed (s): "
                  + ", ".join(f"{sum(r['sections'].values()):.4f}" for r in rounds))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in tally.problems:
        print("FAILED", problem)
    print(f"fail_rate = {tally.failed / max(tally.attempted, 1):.4f} "
          f"({tally.failed} of {tally.attempted} operations)")
    for name, unit in units.items():
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload: an untraced run per seed and one traced run, as subprocesses."""
    import workloads
    seeds = [int(s) for s in args.seeds.split(",") if s]
    results = {"env": environment(), "seconds": args.seconds, "workloads": {}}
    print("env:", json.dumps(results["env"]))
    for name in workloads.WORKLOADS:
        entry = results["workloads"][name] = {"runs": [], "traced": None}
        for seed, trace in [(s, 0) for s in seeds] + [(seeds[0], 1)]:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            for line in proc.stdout.splitlines()[:-1]:
                if line.startswith(("FAILED", "fail_rate", name)):
                    print(line)
            result = json.loads(proc.stdout.splitlines()[-1])
            result["seed"] = seed
            if trace:
                entry["traced"] = result
            else:
                entry["runs"].append(result)
    out = Path(args.out) if args.out else OUT / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "weldnet" / "__init__.py").is_file():
        print(f"error: no weldnet package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        import hostspeed
        work = work_dir(f"setup-{args.workload}")
        try:
            wl = workloads.WORKLOADS[args.workload](args.seed, work)
            hostspeed.run_between(wl.kernel, wl.build, args.setup_probe)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
