"""Correction of timings for the host's current speed.

On a shared virtual machine the same work takes up to ~1.5x longer in one
stretch of seconds than in the next, because other tenants share the cores;
the process is not descheduled (its CPU time grows as much as its wall
time), the cores just run it slower.  A run of 30 s lands on a few such
stretches, so raw wall times of the same code spread by 20-30% between runs.

A fixed kernel that imports nothing from weldnet (reference.run: full-batch
iterations of one block of the workload's shape, the package's own kind of
work) is timed in the process doing the work: right before a timed section,
every PERIOD_S during it (from a SIGALRM handler, so between two Python
bytecodes of the program), and right after it.  The section's wall time,
less the kernel runs inside it, times NOMINAL_S / (mean kernel time) is its
time on a host where the kernel takes NOMINAL_S: what the program's own
speed decides, with the host's speed of the moment divided out.  A faster
weldnet lowers it; a faster host does not.

Work done in a child process (the CLI commands of `pipeline`, the set-up
probes) samples the kernel in that child (run_between) and reports to the
parent, which takes the kernel's time out of the child's wall time.
"""

from __future__ import annotations

import contextlib
import json
import signal
import time

import numpy as np
import reference as ref

NOMINAL_S = 0.02  # every kernel is sized to take about this long
PERIOD_S = 1.0    # so ~2% of a long section goes to kernel runs


class Kernel:
    """`iterations` of one block (rows x 3 inputs, width, depth) on fixed inputs."""

    def __init__(self, rows: int, width: int, depth: int, iterations: int):
        rng = np.random.default_rng(0)
        self.X = rng.standard_normal((rows, 3))
        self.y = rng.uniform(0.0, 1.0, rows)
        self.mats = ref.init_weights(3, width, depth, 0)
        self.iterations = iterations

    def seconds(self) -> float:
        start = time.perf_counter()
        ref.run(ref.Block(self.mats, prev=np.zeros(self.y.size)), self.X, self.y,
                self.iterations, 0.1, 1.0, 0.0)
        return time.perf_counter() - start


class Samples:
    """Kernel times taken before, during and after a stretch of work."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.times: list = []
        self.inside = 0.0  # wall time of the samples taken during the work

    def take(self) -> None:
        self.times.append(self.kernel.seconds())

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.take()
        self.inside += time.perf_counter() - start

    @property
    def mean(self) -> float:
        return sum(self.times) / len(self.times)


@contextlib.contextmanager
def sampled(kernel: Kernel):
    """Sample the kernel before, every PERIOD_S during, and after the body."""
    samples = Samples(kernel)
    samples.take()
    previous = signal.signal(signal.SIGALRM, samples._tick)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        samples.take()


class Stopwatch:
    """A round's timed sections: wall time per section name, raw and, with
    a kernel, corrected for host speed."""

    def __init__(self, kernel=None):
        self.kernel = kernel
        self.raw: dict = {}
        self.corrected: dict = {}

    @contextlib.contextmanager
    def section(self, name: str):
        """Time the body in this process; without a kernel, uncorrected."""
        samples = None
        try:
            with sampled(self.kernel) if self.kernel else contextlib.nullcontext() as samples:
                start = time.perf_counter()
                try:
                    yield
                finally:
                    wall = time.perf_counter() - start
        finally:
            if samples:
                self.add(name, wall - samples.inside, samples.mean)
            else:
                self.add(name, wall, NOMINAL_S)

    def add(self, name: str, wall: float, kernel: float) -> None:
        """A section of `wall` seconds while the kernel took `kernel` seconds."""
        self.raw[name] = self.raw.get(name, 0.0) + wall
        self.corrected[name] = self.corrected.get(name, 0.0) + wall * NOMINAL_S / kernel

    def add_child(self, name: str, wall: float, report_path) -> None:
        """A child process that ran for `wall` seconds and wrote the report of
        run_between() to report_path; its kernel runs are taken out.  Without
        a report (the child died early, and fails its checks) the section
        counts uncorrected."""
        try:
            with open(report_path) as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            report = {"kernel": NOMINAL_S, "overhead": 0.0}
        self.add(name, wall - report["overhead"], report["kernel"])

    def result(self, iters: int) -> dict:
        """What run_round returns: raw wall time, per-section time (corrected
        where a kernel is set), and the round's block training iterations."""
        return {"wall": sum(self.raw.values()), "sections": dict(self.corrected),
                "iters": iters}


def run_between(kernel: Kernel, fn, report_path):
    """In a child process: fn() with the kernel sampled before, during and
    after it.  Writes the mean kernel time ("kernel") and the wall time of
    all kernel runs ("overhead") to report_path, for the parent's
    Stopwatch.add_child(); returns fn()."""
    start = time.perf_counter()
    with sampled(kernel) as samples:
        inner = time.perf_counter()
        result = fn()
        work = time.perf_counter() - inner - samples.inside
    overhead = time.perf_counter() - start - work
    with open(report_path, "w") as fh:
        json.dump({"kernel": samples.mean, "overhead": overhead}, fh)
    return result
