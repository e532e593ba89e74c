"""The benchmark's three workloads.

Each workload builds its inputs from the run seed, then runs rounds: one
round is a fixed amount of work on one of a few inputs ("jobs"), timed as a
whole.  Every operation in a round (a grid point, a train/predict/round-trip
cycle, a CLI command) is checked and counted in a Tally.  Checks compare
with the first result for the same input in the run and, on first sight,
with the independent reference in reference.py.

search    in-process grid_search over small same-shape blocks (5 folds).
fit       in-process train_all with dynamic width on wide, deep blocks,
          predict on 10^5 rows, and a save/load round trip.
pipeline  the weldnet CLI as subprocesses: synth, train, eval, compare, stats.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import numpy as np
import reference as ref

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
NOISE = 0.02
# Tolerances against reference.py.  It matches today's package bit for bit,
# but the expected result of a version that changes last bits is not: with
# another sigmoid formula, 1000 iterations moved CV-RMSE by up to 1.1e-3,
# and a flipped width-probe decision moved the fit test RMSE by up to 1.4e-2.
RTOL_REF = 1e-2
RTOL_FIT = 5e-2


def sub_seed(seed: int, *parts) -> int:
    """A 31-bit seed derived from the run seed, so inputs depend only on it."""
    return ref.derive_seed(seed, *parts) % (2 ** 31)


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def record(self, name: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{name}: {'; '.join(problems)}")


class Workload:
    """Inputs from a seed, and rounds over a few jobs."""

    name = ""
    jobs = 1            # distinct round inputs; each is run at least once
    min_rounds = 1      # rounds every untraced run makes, whatever --seconds says
    shape = (1, 1, 1, 1)  # (rows, inputs, width, depth) of the training block
    # iterations of the host-speed kernel, a block of `shape` (hostspeed.py),
    # so that it takes about hostspeed.NOMINAL_S
    kernel_iterations = 120

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.seen: dict = {}
        self.quality: dict = {}
        rows, _, width, depth = self.shape
        self.kernel = hostspeed.Kernel(rows, width, depth, self.kernel_iterations)

    def build(self) -> None:
        """Make the inputs; a set-up probe times exactly this plus the import."""

    def run_round(self, job: int, tally: Tally, in_process: bool = True) -> dict:
        """Run one round; returns hostspeed.Stopwatch.result()."""
        raise NotImplementedError

    def same_as_before(self, key, value, problems, what) -> None:
        first = self.seen.setdefault(key, value)
        if not ref.close(first, value):
            problems.append(f"{what} {value!r} differs from the run's first {first!r}")

    def test_rmse(self) -> float:
        return float(np.mean(list(self.quality.values())))


def _csv_round_trip(data, path):
    import weldnet as wn
    wn.save_csv(data, path)
    return wn.load_csv(path)


class Search(Workload):
    """grid_search over identical small blocks; per-call overhead dominates."""

    name = "search"
    ROWS, FOLDS, DATASETS = 200, 5, 2
    GRID = dict(neurons=(8,), alpha=(0.1, 0.3), gamma=(1.0, 2.0), lam=(0.0,),
                iterations=(1000,), depth=(1,), degree=(0,))
    # (dataset, target, alpha): one grid_search over the gammas, ~2 s, so
    # that a 30 s run has a dozen rounds for its median
    jobs = DATASETS * 2 * len(GRID["alpha"])
    min_rounds = jobs
    shape = (ROWS * (FOLDS - 1) // FOLDS, 3, 8, 1)

    def build(self):
        import weldnet as wn
        self.seeds = [sub_seed(self.seed, "search", i) for i in range(self.DATASETS)]
        self.data = [_csv_round_trip(wn.synthesize_weld(self.ROWS, NOISE, s),
                                     self.work / f"search_{i}.csv")
                     for i, s in enumerate(self.seeds)]
        self.spaces = [wn.SearchSpace(**{**self.GRID, "alpha": (a,)})
                       for a in self.GRID["alpha"]]
        self.n_points = self.spaces[0].size()

    def run_round(self, job, tally, in_process=True):
        from weldnet import search
        i, rest = divmod(job, 2 * len(self.spaces))
        target, a = divmod(rest, len(self.spaces))
        data, seed = self.data[i], self.seeds[i]
        iters = self.n_points * self.FOLDS * self.GRID["iterations"][0]
        watch = hostspeed.Stopwatch(self.kernel)
        try:
            with watch.section("grid_search"):
                _, board = search.grid_search(self.spaces[a], data, target,
                                              folds=self.FOLDS, seed=seed)
        except Exception as exc:  # a failing operation is counted, not fatal
            for p in range(self.n_points):
                tally.record(f"search job {job} point {p}", [repr(exc)])
            return watch.result(iters)

        best_problems = []
        if job not in self.quality:
            m = board[0].meta
            want = ref.cv_rmse(data.features, data.targets[:, target], m.neurons,
                               m.depth, m.alpha, m.gamma, m.lam, m.iterations,
                               self.FOLDS, seed)
            if not ref.close(board[0].mean_rmse, want, RTOL_REF):
                best_problems.append(
                    f"best CV-RMSE {board[0].mean_rmse!r} vs reference {want!r}")
            self.quality[job] = board[0].mean_rmse
        for e in board:
            m = e.meta
            problems = best_problems if e is board[0] else []
            if not (np.isfinite(e.mean_rmse) and e.mean_rmse > 0 and e.std_rmse >= 0):
                problems.append(f"score {e.mean_rmse!r} +- {e.std_rmse!r}")
            self.same_as_before((job, m.alpha, m.gamma), e.mean_rmse, problems, "CV-RMSE")
            tally.record(f"search job {job} point alpha={m.alpha} gamma={m.gamma}", problems)
        for _ in range(self.n_points - len(board)):
            tally.record(f"search job {job}", ["leaderboard is missing points"])
        return watch.result(iters)

    def test_rmse(self) -> float:
        """Best CV-RMSE of the whole grid per (dataset, target), averaged."""
        per_alpha = len(self.spaces)
        best = [min((self.quality[j] for j in range(k * per_alpha, (k + 1) * per_alpha)
                     if j in self.quality), default=float("nan"))
                for k in range(self.jobs // per_alpha)]
        return float(np.mean(best))


class Fit(Workload):
    """Dynamic-width training of wide, deep blocks, bulk predict, save/load."""

    name = "fit"
    ROWS, PREDICT_ROWS = 300, 100_000
    META = dict(neurons=40, depth=3, alpha=0.2, gamma=1.0, lam=0.0, iterations=1000)
    jobs = 1  # both targets in every round, as their costs differ by ~10%
    min_rounds = 3
    shape = (ROWS - int(ROWS * 0.2), 3, 40, 3)
    kernel_iterations = 18
    CHECK_ROWS = 2000  # rows re-predicted by the loaded model
    REF_ROWS = 20_000  # rows the reference predicts, to keep its memory small

    def build(self):
        import weldnet as wn
        self.train_seed = sub_seed(self.seed, "fit")
        self.train = _csv_round_trip(wn.synthesize_weld(self.ROWS, NOISE, self.train_seed),
                                     self.work / "fit.csv")
        held = wn.synthesize_weld(self.PREDICT_ROWS, NOISE, sub_seed(self.seed, "fit", "rows"))
        self.X, self.Y = held.features, held.targets
        self.metas = [wn.BlockMetaParams(**self.META)] * self.train.n_targets

    def _iterations(self) -> int:
        it, k = self.META["iterations"], self.META["neurons"]
        probes = (it - 1) // ref.RESIZE_PERIOD
        per_probe = len({k - 1, k, k + 1}) * ref.PROBE_ITERATIONS
        return self.train.n_targets * (it + probes * per_probe)

    def _reference_rmse(self) -> list:
        """Reference test RMSE per target on the first REF_ROWS held-out rows."""
        means, stds = ref.standardize(self.train.features)
        X = (self.train.features - means) / stds
        Xp = (self.X[:self.REF_ROWS] - means) / stds
        out = []
        for j, tname in enumerate(self.train.target_names):
            m = self.META
            blk = ref.train_dynamic(X, self.train.targets[:, j], tname, m["neurons"],
                                      m["depth"], m["alpha"], m["gamma"], m["lam"],
                                      m["iterations"], self.train_seed)
            pred = ref.predict(blk.mats, blk.tau, Xp)
            out.append(float(np.sqrt(np.mean((self.Y[:self.REF_ROWS, j] - pred) ** 2))))
        return out

    def run_round(self, job, tally, in_process=True):
        from weldnet import model as mdl
        path = self.work / "fit_model.json"
        problems = []
        watch = hostspeed.Stopwatch(self.kernel)
        try:
            with watch.section("train_all"):
                model, _ = mdl.train_all(self.metas, self.train, self.train_seed,
                                         dynamic_width=True)
            with watch.section("predict"):
                pred = mdl.predict(model, self.X)
            with watch.section("save_load"):
                mdl.save(model, path)
                loaded = mdl.load(path)
        except Exception as exc:  # a failing operation is counted, not fatal
            tally.record("fit cycle", [repr(exc)])
            return watch.result(self._iterations())

        if pred.shape != self.Y.shape or not np.all(np.isfinite(pred)):
            problems.append(f"predictions of shape {pred.shape} are not all finite")
        else:
            head = self.X[:self.CHECK_ROWS]
            if not np.array_equal(mdl.predict(loaded, head), mdl.predict(model, head)):
                problems.append("loaded model predicts differently from the saved one")
            rmses = [float(np.sqrt(np.mean((self.Y[:, j] - pred[:, j]) ** 2)))
                     for j in range(self.Y.shape[1])]
            for j, r in enumerate(rmses):
                self.same_as_before(("rmse", j), r, problems, "test RMSE")
            if job not in self.quality:
                n = self.REF_ROWS
                head = [float(np.sqrt(np.mean((self.Y[:n, j] - pred[:n, j]) ** 2)))
                        for j in range(self.Y.shape[1])]
                for r, want in zip(head, self._reference_rmse()):
                    if not ref.close(r, want, RTOL_FIT):
                        problems.append(f"test RMSE {r!r} vs reference {want!r}")
                self.quality[job] = float(np.mean(rmses))
        tally.record("fit cycle", problems)
        return watch.result(self._iterations())


class Pipeline(Workload):
    """The CLI end to end, one command after another, each in a fresh process."""

    name = "pipeline"
    ROWS, TEST_ROWS, SPLIT = 200, 50_000, 0.2
    METHODS = ("nrn", "ann", "adagrad", "rmsprop", "nesterov", "ner", "mcr")
    META = dict(neurons=8, depth=1, degree=0, alpha=0.3, gamma=1.0, iterations=1000)
    MCR_ITERATIONS = 1000
    COMPARE_SEEDS = 2
    jobs = 3  # three datasets, so test_rmse does not hang on one draw
    min_rounds = 3
    # compare's nrn and ann blocks make 8000 of a round's 10000 backprop
    # steps, on the training split
    shape = (ROWS - int(ROWS * SPLIT), 3, 8, 1)
    TIMEOUT = 120

    def build(self):
        import weldnet.cli  # noqa: F401  (the import every command pays)
        self.data_seeds = [sub_seed(self.seed, "pipeline", j) for j in range(self.jobs)]
        self.test_seeds = [sub_seed(self.seed, "pipeline-test", j) for j in range(self.jobs)]
        self.compare_seeds = [[sub_seed(self.seed, "compare", j, n)
                               for n in range(self.COMPARE_SEEDS)] for j in range(self.jobs)]
        self.params = self.work / "params.json"
        doc = {"targets": {t: {**self.META, "lambda": 0.0} for t in ("penetration", "width")}}
        self.params.write_text(json.dumps(doc))
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        rows, _, width, depth = self.shape
        self.kernel_spec = f"{rows},{width},{depth},{self.kernel_iterations}"
        self.peak_child_kb = 0

    def commands(self, job) -> list:
        d = self.work / f"job{job}"
        run = d / "run"
        return [
            ("synth", ["synth", "--rows", str(self.ROWS), "--noise", str(NOISE),
                       "--seed", str(self.data_seeds[job]), "--out", str(d / "train.csv")],
             [d / "train.csv"]),
            ("synth", ["synth", "--rows", str(self.TEST_ROWS), "--noise", str(NOISE),
                       "--seed", str(self.test_seeds[job]), "--out", str(d / "test.csv")],
             [d / "test.csv"]),
            ("train", ["train", "--data", str(d / "train.csv"), "--params", str(self.params),
                       "--seed", str(self.data_seeds[job]), "--out-dir", str(run)],
             [run / "model.json", run / "trace_penetration.csv", run / "trace_width.csv"]),
            ("eval", ["eval", "--model", str(run / "model.json"), "--data", str(d / "test.csv"),
                      "--out-dir", str(run)],
             [run / "eval_report.csv", run / "eval_report.txt"]),
            ("compare", ["compare", "--data", str(d / "train.csv"),
                         "--methods", ",".join(self.METHODS),
                         "--seeds", ",".join(str(s) for s in self.compare_seeds[job]),
                         "--split", str(self.SPLIT), "--params", str(self.params),
                         "--mcr-iterations", str(self.MCR_ITERATIONS),
                         "--out-dir", str(run)],
             [run / "compare_raw.csv", run / "compare_summary.csv", run / "compare_report.txt"]),
            ("stats", ["stats", "--data", str(d / "train.csv"), "--out-dir", str(run)],
             [run / "stats.csv", run / "stats_report.txt"]),
        ]

    def _iterations(self) -> int:
        per_target = self.META["iterations"]
        blocks = 2 * per_target                      # train
        per_seed = 5 * 2 * per_target + self.MCR_ITERATIONS  # nrn, ann, 3 optimizers; mcr
        return blocks + self.COMPARE_SEEDS * per_seed

    def _spawn(self, argv, log, watch, name) -> int:
        """Run one CLI command in a child process and add it to the stopwatch;
        returns its exit code and keeps its peak RSS."""
        report = log.with_suffix(".kernel.json")
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(report), self.kernel_spec, *argv]
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, env=self.env)
            deadline = time.monotonic() + self.TIMEOUT
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.001)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_kb = max(self.peak_child_kb, usage.ru_maxrss)
        watch.add_child(name, wall, report)
        return proc.returncode

    def run_round(self, job, tally, in_process=False):
        from weldnet import cli
        d = self.work / f"job{job}"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        results = []
        # in-process, the stopwatch times the kernel here; otherwise each
        # child times it (cli_child.py)
        watch = hostspeed.Stopwatch(self.kernel if in_process else None)
        for k, (name, argv, _) in enumerate(self.commands(job)):
            section = f"{k}.{name}"
            if in_process:
                with watch.section(section):
                    try:
                        with contextlib.redirect_stdout(io.StringIO()):
                            code = cli.main(argv)
                    except SystemExit as exc:  # argparse rejected the command line
                        code = exc.code
                    except Exception as exc:  # a failing command is counted, not fatal
                        code = repr(exc)
            else:
                code = self._spawn(argv, d / f"cmd{k}.log", watch, section)
            results.append(code)

        first = job not in self.quality
        checks = {"eval": self._check_eval, "compare": self._check_compare,
                  "stats": self._check_stats}
        for (name, _, outputs), code in zip(self.commands(job), results):
            problems = []
            if code != 0:
                problems.append(f"exit code {code}")
            missing = [str(p) for p in outputs if not (p.is_file() and p.stat().st_size)]
            if missing:
                problems.append(f"missing output {', '.join(missing)}")
            elif name in checks:
                try:
                    checks[name](job, first, problems)
                except (OSError, ValueError, KeyError) as exc:
                    problems.append(f"unreadable output: {exc!r}")
            tally.record(f"pipeline job {job} {name}", problems)
        return watch.result(self._iterations())

    # --- output checks ---

    def _load(self, path):
        raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return raw[:, :3], raw[:, 3:]

    def _reference_block(self, F, Y, j, seed, gamma, use_tau):
        means, stds = ref.standardize(F)
        tname = ("penetration", "width")[j]
        m = self.META
        mats = ref.init_weights(3, m["neurons"], m["depth"], ref.derive_seed(seed, tname))
        blk = ref.run(ref.Block(mats, prev=np.zeros(F.shape[0])), (F - means) / stds,
                      Y[:, j], m["iterations"], m["alpha"], gamma, 0.0, use_tau)
        return lambda X: ref.predict(blk.mats, blk.tau, (X - means) / stds)

    def _check_eval(self, job, first, problems):
        run = self.work / f"job{job}" / "run"
        with open(run / "eval_report.csv", newline="") as fh:
            got = [float(r["rmse"]) for r in csv.DictReader(fh)]
        for j, r in enumerate(got):
            self.same_as_before((job, "eval", j), r, problems, "eval RMSE")
        if not first:
            return
        d = self.work / f"job{job}"
        F, Y = self._load(d / "train.csv")
        Ft, Yt = self._load(d / "test.csv")
        for j, r in enumerate(got):
            pred = self._reference_block(F, Y, j, self.data_seeds[job], self.META["gamma"], True)
            want = float(np.sqrt(np.mean((Yt[:, j] - pred(Ft)) ** 2)))
            if not ref.close(r, want, RTOL_REF):
                problems.append(f"eval RMSE {r!r} vs reference {want!r}")
        self.quality[job] = float(np.mean(got))

    def _check_compare(self, job, first, problems):
        run = self.work / f"job{job}" / "run"
        with open(run / "compare_raw.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.COMPARE_SEEDS * len(self.METHODS) * 2:
            problems.append(f"compare_raw.csv has {len(rows)} rows")
        for r in rows:
            v = float(r["rmse"])
            if not (np.isfinite(v) and v > 0):
                problems.append(f"{r['method']} {r['target']} rmse {v!r}")
            self.same_as_before((job, r["seed"], r["method"], r["target"]), v, problems,
                                f"{r['method']} RMSE")
        if not first:
            return
        F, Y = self._load(self.work / f"job{job}" / "train.csv")
        m = F.shape[0]
        n_test = min(max(int(np.floor(m * self.SPLIT)), 1), m - 1)
        for r in rows:
            seed = int(r["seed"])
            if seed != self.compare_seeds[job][0]:
                continue  # one seed's rows suffice; the reference costs time
            perm = np.random.default_rng(seed).permutation(m)
            te, tr = np.sort(perm[:n_test]), np.sort(perm[n_test:])
            j = ("penetration", "width").index(r["target"])
            if r["method"] == "ner":
                Xb = np.column_stack([np.ones(tr.size), F[tr]])
                theta = np.linalg.lstsq(Xb, Y[tr], rcond=None)[0]
                pred = np.column_stack([np.ones(te.size), F[te]]) @ theta[:, j]
            elif r["method"] in ("nrn", "ann"):
                nrn = r["method"] == "nrn"
                pred = self._reference_block(F[tr], Y[tr], j, seed,
                                             self.META["gamma"] if nrn else 1.0, nrn)(F[te])
            else:
                continue
            want = float(np.sqrt(np.mean((Y[te, j] - pred) ** 2)))
            if not ref.close(float(r["rmse"]), want, RTOL_REF):
                problems.append(f"{r['method']} seed {seed} {r['target']} RMSE "
                                f"{r['rmse']} vs reference {want!r}")

    def _check_stats(self, job, first, problems):
        from scipy import stats as sps
        run = self.work / f"job{job}" / "run"
        _, Y = self._load(self.work / f"job{job}" / "train.csv")
        with open(run / "stats.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        x, y = Y[:, 0], Y[:, 1]
        slope, intercept = np.polyfit(x, y, 1)
        want = {"pearson_r": np.corrcoef(x, y)[0, 1],
                "spearman": sps.spearmanr(x, y)[0],
                "kendall": sps.kendalltau(x, y)[0],
                "slope": slope, "intercept": intercept}
        for key, value in want.items():
            if not ref.close(float(row[key]), float(value)):
                problems.append(f"stats {key} {row[key]} vs {value!r}")


WORKLOADS = {w.name: w for w in (Search, Fit, Pipeline)}
