import copy
import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import weldnet as wn
from weldnet import cli, metrics
from weldnet.cli import run_comparison
from weldnet.errors import ConfigError


# Child processes import the weldnet under test from whatever working
# directory they start in.
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    str(Path(wn.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])))


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "weldnet", *map(str, args)],
                          capture_output=True, text=True, cwd=cwd,
                          env=CHILD_ENV)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "weld.csv"
    proc = run_cli("synth", "--rows", 60, "--noise", 0.02, "--seed", 1,
                   "--out", path)
    assert proc.returncode == 0, proc.stderr
    return path


class TestSynth:
    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("synth", "--rows", 10, "--noise", 0, "--seed", 1,
                       "--out", a).returncode == 0
        assert run_cli("synth", "--rows", 10, "--noise", 0, "--seed", 1,
                       "--out", b).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_out_usage_error(self):
        proc = run_cli("synth", "--rows", 5)
        assert proc.returncode == 2

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_relative_out_under_out_dir(self, tmp_path, via):
        out_dir = tmp_path / "runs"
        if via == "flag":
            argv = ["--out-dir", out_dir]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"out_dir": str(out_dir)}))
            argv = ["--config", cfg]
        proc = run_cli("synth", "--rows", 5, "--out", "s.csv", *argv,
                       cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert wn.load_csv(out_dir / "s.csv").m == 5
        assert not (tmp_path / "s.csv").exists()

    def test_absolute_out_ignores_out_dir(self, tmp_path):
        proc = run_cli("synth", "--rows", 5, "--out", tmp_path / "s.csv",
                       "--out-dir", "elsewhere", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert wn.load_csv(tmp_path / "s.csv").m == 5
        assert not list((tmp_path / "elsewhere").glob("*"))

    def test_output_loads(self, synth_csv):
        data = wn.load_csv(synth_csv)
        assert data.d == 3 and data.n_targets == 2 and data.m == 60


class TestTrain:
    def test_artifacts_and_determinism(self, synth_csv, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        before = synth_csv.read_bytes()
        for out in (out1, out2):
            proc = run_cli("train", "--data", synth_csv, "--seed", 3,
                           "--out-dir", out)
            assert proc.returncode == 0, proc.stderr
        assert synth_csv.read_bytes() == before  # inputs never mutated
        assert (out1 / "model.json").exists()
        rows = (out1 / "trace_penetration.csv").read_text().splitlines()
        assert len(rows) == 1001  # header + one row per iteration
        assert (out1 / "model.json").read_bytes() == \
            (out2 / "model.json").read_bytes()

    def test_params_file(self, synth_csv, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"targets": {
            "penetration": {"neurons": 4, "alpha": 1.0, "gamma": 1.0,
                            "lambda": 0.0, "iterations": 1000},
            "width": {"neurons": 6, "alpha": 1.0, "gamma": 1.0,
                      "lambda": 0.0, "iterations": 1000}}}))
        out = tmp_path / "run"
        proc = run_cli("train", "--data", synth_csv, "--params", params,
                       "--out-dir", out)
        assert proc.returncode == 0, proc.stderr
        model = wn.load(out / "model.json")
        assert [b.width for b in model.blocks] == [4, 6]

    def test_dynamic_width_flag(self, synth_csv, tmp_path):
        out = tmp_path / "dw"
        proc = run_cli("train", "--data", synth_csv, "--dynamic-width",
                       "--seed", 1, "--out-dir", out)
        assert proc.returncode == 0, proc.stderr
        model = wn.load(out / "model.json")
        assert all(2 <= b.width <= 100 for b in model.blocks)
        rows = (out / "trace_width.csv").read_text().splitlines()
        assert len(rows) == 1001

    def test_bad_params_config_error(self, synth_csv, tmp_path):
        params = tmp_path / "bad.json"
        params.write_text(json.dumps({"targets": {
            "penetration": {"neurons": 1}}}))
        proc = run_cli("train", "--data", synth_csv, "--params", params,
                       "--out-dir", tmp_path / "x")
        assert proc.returncode == 2


class TestEval:
    def test_model_report_rows(self, synth_csv, tmp_path):
        out = tmp_path / "run"
        assert run_cli("train", "--data", synth_csv, "--seed", 0,
                       "--out-dir", out).returncode == 0
        proc = run_cli("eval", "--model", out / "model.json",
                       "--data", synth_csv, "--out-dir", out)
        assert proc.returncode == 0, proc.stderr
        rows = read_csv(out / "eval_report.csv")
        assert [r["target"] for r in rows] == ["penetration", "width"]
        assert all(r["pe_excluded"] == "0" for r in rows)

    def test_ner_path_exact_on_linear_data(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 3))
        Y = np.column_stack([2 * X[:, 0] - X[:, 1] + 5,
                             0.5 * X[:, 2] + 1])
        data = wn.Dataset(X, Y, ["v", "i", "s"], ["p", "w"])
        csv_path = tmp_path / "linear.csv"
        wn.save_csv(data, csv_path)
        proc = run_cli("eval", "--ner-train", csv_path, "--data", csv_path,
                       "--degree", 0, "--out-dir", tmp_path)
        assert proc.returncode == 0, proc.stderr
        rows = read_csv(tmp_path / "eval_report.csv")
        assert all(float(r["rmse"]) < 1e-8 for r in rows)

    @pytest.mark.parametrize("change", [
        "fewer features", "fewer targets", "renamed targets",
        "reordered features", "same columns"])
    def test_ner_train_columns_must_match_data(self, synth_csv, tmp_path,
                                               change):
        data = wn.load_csv(synth_csv)
        X, Y = data.features, data.targets
        fnames, tnames = data.feature_names, data.target_names
        if change == "fewer features":
            X, fnames = X[:, 1:], fnames[1:]
        elif change == "fewer targets":
            Y, tnames = Y[:, :1], tnames[:1]
        elif change == "renamed targets":
            tnames = tnames[::-1]
        elif change == "reordered features":
            X, fnames = X[:, ::-1], fnames[::-1]
        fit_csv = tmp_path / "fit.csv"
        wn.save_csv(wn.Dataset(X, Y, fnames, tnames), fit_csv)
        out = tmp_path / "out"
        proc = run_cli("eval", "--ner-train", fit_csv, "--data", synth_csv,
                       "--out-dir", out)
        if change == "same columns":
            assert proc.returncode == 0, proc.stderr
            assert [r["target"] for r in read_csv(out / "eval_report.csv")
                    ] == data.target_names
            return
        assert proc.returncode == 2
        assert "config error" in proc.stderr and proc.stderr.count("\n") == 1
        assert "--ner-train columns" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not list(out.glob("eval_report.*"))

    def test_requires_exactly_one_source(self, synth_csv, tmp_path):
        proc = run_cli("eval", "--data", synth_csv, "--out-dir", tmp_path)
        assert proc.returncode == 2


class TestExitCodes:
    def test_missing_data_file_is_runtime_error(self, tmp_path):
        proc = run_cli("stats", "--data", tmp_path / "nope.csv",
                       "--out-dir", tmp_path)
        assert proc.returncode == 3

    def test_divergence_is_runtime_error(self, synth_csv, tmp_path):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({"targets": {
            t: {"neurons": 8, "alpha": 5000.0, "gamma": 100.0, "lambda": 0.0,
                "iterations": 1000} for t in ("penetration", "width")}}))
        proc = run_cli("train", "--data", synth_csv, "--params", params,
                       "--out-dir", tmp_path)
        assert proc.returncode == 3
        assert "diverged" in proc.stderr.lower()

    def test_non_finite_cell_is_runtime_error(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("iwp:v,dwp:p\n1,2\nnan,3\n4,5\n")
        proc = run_cli("train", "--data", path, "--out-dir", tmp_path)
        assert proc.returncode == 3
        assert "row 2, column 1" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_params_list_is_config_error(self, synth_csv, tmp_path):
        params = tmp_path / "list.json"
        params.write_text("[1, 2]")
        proc = run_cli("train", "--data", synth_csv, "--params", params,
                       "--out-dir", tmp_path)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("metas", [[1, 2], "nrn"])
    def test_config_metas_not_object_is_config_error(self, synth_csv,
                                                     tmp_path, metas):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"metas": metas}))
        proc = run_cli("train", "--data", synth_csv, "--config", cfg,
                       "--out-dir", tmp_path)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    def test_unknown_method_is_config_error(self, synth_csv, tmp_path):
        proc = run_cli("compare", "--data", synth_csv, "--methods", "svm",
                       "--out-dir", tmp_path)
        assert proc.returncode == 2

    @pytest.mark.parametrize("argv", [
        ["search", "--data", "{data}", "--folds", "1"],
        ["search", "--data", "{data}", "--max-points", "0"],
        ["synth", "--out", "{out}/s.csv", "--rows", "0"],
        ["synth", "--out", "{out}/s.csv", "--noise", "-1"],
        ["compare", "--data", "{data}", "--mcr-degree", "9"],
        ["compare", "--data", "{data}", "--eta", "-1"],
        ["compare", "--data", "{data}", "--rho", "1.5"],
        ["compare", "--data", "{data}", "--momentum", "1"],
        ["compare", "--data", "{data}", "--eps", "0"],
        ["compare", "--data", "{data}", "--methods", "adagrad", "--eta", "inf"],
        ["compare", "--data", "{data}", "--eps", "inf"],
        ["compare", "--data", "{data}", "--mcr-alpha", "inf"],
        ["compare", "--data", "{data}", "--mcr-lambda", "nan"],
        ["compare", "--data", "{data}", "--ner-degree", "9"],
        ["eval", "--data", "{data}", "--ner-train", "{data}", "--degree", "9"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
    def test_range_error_is_config_error(self, synth_csv, tmp_path, argv):
        argv = [a.format(data=synth_csv, out=tmp_path) for a in argv]
        proc = run_cli(*argv, "--out-dir", tmp_path)
        assert proc.returncode == 2
        assert "config error" in proc.stderr and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command, flag, content", [
        ("search", "--space", b"[1, 2]"),
        ("train", "--params", b"\xff{"),
        ("stats", "--config", b"\xff{"),
    ])
    def test_bad_json_file_is_config_error(self, synth_csv, tmp_path, command,
                                           flag, content):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        proc = run_cli(command, "--data", synth_csv, flag, path,
                       "--out-dir", tmp_path)
        assert proc.returncode == 2
        assert "config error" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command, doc", [
        ("compare", {"seeds": ["a"]}),
        ("compare", {"seeds": 3}),
        ("compare", {"split_fraction": "x"}),
        ("compare", {"methods": 5}),
        ("compare", {"use_tau": "false"}),
        ("compare", {"gamma_jitter": "yes"}),
        ("compare", {"dynamic_width": "yes"}),
        ("train", {"out_dir": 5}),
        ("train", {"params": 5}),
        ("train", {"data": 5}),
        ("train", {"data": [5]}),
        ("compare", {"standardize": 0}),
        ("stats", {"data": 5}),
    ], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
    def test_bad_config_value_is_config_error(self, synth_csv, tmp_path,
                                              command, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        data = [] if "data" in doc else ["--data", synth_csv]
        proc = run_cli(command, *data, "--config", cfg, cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        key = next(iter(doc))
        assert f"config error: config {key!r} must be" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_config_data_without_flag(self, synth_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": [str(synth_csv)]}))
        proc = run_cli("stats", "--config", cfg, "--out-dir", tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "stats.csv").exists()
        proc = run_cli("stats", "--out-dir", tmp_path)
        assert proc.returncode == 2
        assert "config error: no input data given" in proc.stderr

    @pytest.mark.parametrize("flag", ["--seeds=2,-1", "--seed=-1", "--config"])
    def test_negative_seed_is_config_error(self, synth_csv, tmp_path, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seeds": [-1]}))
        argv = [flag, cfg] if flag == "--config" else [flag]
        proc = run_cli("compare", "--data", synth_csv, *argv,
                       "--out-dir", tmp_path)
        assert proc.returncode == 2
        assert "config error: seeds must be >= 0" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_cli_import_leaves_scipy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, weldnet.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_stats_leaves_scipy_unloaded(synth_csv, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from weldnet import cli; "
         f"code = cli.main(['stats', '--data', {str(synth_csv)!r}, "
         f"'--out-dir', {str(tmp_path)!r}]); "
         "print(code, 'scipy' in sys.modules)"],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"
    assert (tmp_path / "stats.csv").exists()


def test_every_package_name_resolves_in_its_home_module():
    import importlib
    for name in wn.__all__:
        home = importlib.import_module(f"weldnet.{wn._HOME[name]}")
        assert getattr(wn, name) is getattr(home, name), name
    assert set(wn.__all__) <= set(dir(wn))
    assert not set(wn.__all__) & set(vars(wn))  # looked up, never cached
    with pytest.raises(AttributeError):
        wn.no_such_name


# Modules only the training commands need.
TRAINING_MODULES = {"weldnet.block", "weldnet.model", "weldnet.search",
                    "weldnet.baselines", "weldnet.workers"}


@pytest.mark.parametrize("command, unloaded", [
    ("synth", TRAINING_MODULES), ("stats", TRAINING_MODULES),
    ("eval", {"weldnet.baselines", "weldnet.search"})],
    ids=["synth", "stats", "eval"])
def test_command_loads_no_training_code(command, unloaded, synth_csv, tmp_path):
    if command == "eval":
        meta = wn.BlockMetaParams(neurons=3, alpha=0.5, gamma=1.0, lam=0.0,
                                  iterations=1000)
        model, _ = wn.train_all([meta, meta], wn.load_csv(synth_csv), seed=1)
        wn.save(model, tmp_path / "model.json")
    argv = {"synth": ["synth", "--rows", "20", "--out", str(tmp_path / "s.csv")],
            "stats": ["stats", "--data", str(synth_csv)],
            "eval": ["eval", "--model", str(tmp_path / "model.json"),
                     "--data", str(synth_csv)]}[command]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from weldnet import cli; "
         f"code = cli.main({argv + ['--out-dir', str(tmp_path)]!r}); "
         "print(code, *sorted(m for m in sys.modules if m.startswith('weldnet')))"],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.splitlines()[-1].split()
    assert code == "0"
    assert "weldnet.dataset" in loaded
    assert not unloaded & set(loaded)


class TestSearch:
    def test_artifacts(self, synth_csv, tmp_path):
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"neurons": [3, 5], "alpha": [1.0],
                                     "gamma": [1.0, 2.0], "lambda": [0.0],
                                     "iterations": [1000]}))
        out = tmp_path / "run"
        proc = run_cli("search", "--data", synth_csv, "--space", space,
                       "--folds", 3, "--out-dir", out)
        assert proc.returncode == 0, proc.stderr
        board = read_csv(out / "leaderboard_penetration.csv")
        assert len(board) == 4
        best = json.loads((out / "best_params.json").read_text())
        for tname in ("penetration", "width"):
            meta = wn.BlockMetaParams.from_dict(best["targets"][tname])
            assert 2 <= meta.neurons <= 100

    @pytest.mark.parametrize("flags", [[], ["--no-standardize"]])
    def test_one_row_is_runtime_error(self, tmp_path, capsys, flags):
        path = tmp_path / "one.csv"
        path.write_text("iwp:a,iwp:b,dwp:y\n1,2,3\n")
        out = tmp_path / "out"
        assert cli.main(["search", "--data", str(path), "--out-dir", str(out),
                         *flags]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "at least 2 rows" in err
        assert err.count("\n") == 1
        assert not list(out.iterdir())

    @pytest.mark.parametrize("rows, folds, part", [
        (2, [], "the training part of fold 1 of 2 has 1 row"),
        (3, ["--folds", "2"], "the training part of fold 1 of 2 has 1 row")])
    def test_one_row_fold_names_its_part(self, tmp_path, capsys, rows, folds,
                                         part):
        path = tmp_path / "few.csv"
        path.write_text("iwp:a,iwp:b,dwp:y\n" + "".join(
            f"{i},{i * i % 5},{i + 1}\n" for i in range(rows)))
        out = tmp_path / "out"
        assert cli.main(["search", "--data", str(path), "--out-dir", str(out),
                         *folds]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {part}; standardize needs at least 2 rows\n"

    @pytest.mark.parametrize("via", ["space", "config"])
    def test_unknown_space_key_is_config_error(self, synth_csv, tmp_path,
                                               capsys, via):
        doc = {"neuron": [3], "alpha": [1.0]}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc if via == "space"
                                   else {"search_space": doc}))
        out = tmp_path / "out"
        assert cli.main(["search", "--data", str(synth_csv), f"--{via}",
                         str(path), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown search space key 'neuron'")
        assert "neurons" in err and err.count("\n") == 1
        assert not out.exists()


class TestCompare:
    def test_reduction_gives_identical_rows(self, synth_csv, tmp_path):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({"targets": {
            t: {"neurons": 4, "alpha": 1.0, "gamma": 1.0, "lambda": 0.0,
                "iterations": 1000} for t in ("penetration", "width")}}))
        out = tmp_path / "run"
        proc = run_cli("compare", "--data", synth_csv, "--methods", "nrn,ann",
                       "--seeds", "0,1", "--params", params, "--no-tau",
                       "--out-dir", out)
        assert proc.returncode == 0, proc.stderr
        rows = read_csv(out / "compare_raw.csv")
        by_key = {(r["seed"], r["method"], r["target"]): r for r in rows}
        for seed in ("0", "1"):
            for t in ("penetration", "width"):
                assert by_key[(seed, "nrn", t)]["rmse"] == \
                    by_key[(seed, "ann", t)]["rmse"]

    def test_raw_csv_round_trips(self, synth_csv, tmp_path, monkeypatch):
        seen = []

        def recorded(*args, **kwargs):
            seen.append(run_comparison(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(cli, "run_comparison", recorded)
        assert cli.main(["compare", "--data", str(synth_csv), "--methods",
                         "nrn,ner,mcr", "--seeds", "0,1",
                         "--out-dir", str(tmp_path)]) == 0
        records, _ = seen[0]
        rows = read_csv(tmp_path / "compare_raw.csv")
        assert len(rows) == len(records) == 3 * 2 * 2
        for row, rec in zip(rows, records):
            assert (int(row["seed"]), row["method"], row["target"],
                    int(row["pe_excluded"])) == (
                rec["seed"], rec["method"], rec["target"], rec["pe_excluded"])
            assert float(row["rmse"]).hex() == rec["rmse"].hex()
            assert float(row["pe_percent"]).hex() == rec["pe_percent"].hex()

    def test_config_file_supplies_values_flags_win(self, synth_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"methods": "nrn", "seeds": [4],
                                   "split_fraction": 0.5}))
        out = tmp_path / "run"
        proc = run_cli("compare", "--data", synth_csv, "--config", cfg,
                       "--out-dir", out)
        assert proc.returncode == 0, proc.stderr
        rows = read_csv(out / "compare_raw.csv")
        assert {r["method"] for r in rows} == {"nrn"}
        assert {r["seed"] for r in rows} == {"4"}
        out2 = tmp_path / "run2"
        proc = run_cli("compare", "--data", synth_csv, "--config", cfg,
                       "--seeds", "7", "--out-dir", out2)
        assert proc.returncode == 0, proc.stderr
        rows = read_csv(out2 / "compare_raw.csv")
        assert {r["seed"] for r in rows} == {"7"}

    def test_config_dynamic_width_equals_flag(self, synth_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dynamic_width": True}))
        outs = [tmp_path / "flag", tmp_path / "config"]
        procs = [run_cli("compare", "--data", synth_csv, "--methods", "nrn",
                         "--out-dir", out, *argv)
                 for out, argv in zip(outs, (["--dynamic-width"],
                                             ["--config", cfg]))]
        assert [p.returncode for p in procs] == [0, 0], procs[1].stderr
        assert procs[0].stdout == procs[1].stdout
        names = sorted(f.name for f in outs[0].iterdir())
        assert names == sorted(f.name for f in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_one_row_split_names_its_seed(self, tmp_path, capsys):
        path = tmp_path / "twelve.csv"
        wn.save_csv(wn.synthesize_weld(12, 0.05, seed=3), path)
        assert cli.main(["compare", "--data", str(path), "--split", "0.99",
                         "--seeds", "4,5", "--methods", "ner,mcr,nrn",
                         "--out-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == (
            "error: the training split of seed 4 has 1 row; standardize "
            "needs at least 2 rows\n")

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_repeated_seed_is_config_error(self, synth_csv, tmp_path, capsys,
                                           via):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seeds": [1, 3, 2, 3]}))
        argv = (["--seeds", "1,3,2,3"] if via == "flag"
                else ["--config", str(cfg)])
        out = tmp_path / "out"
        assert cli.main(["compare", "--data", str(synth_csv), "--methods",
                         "ner", "--out-dir", str(out), *argv]) == 2
        assert capsys.readouterr().err == (
            "config error: seed 3 is listed more than once\n")
        assert not list(out.iterdir())

    def test_table_shape_and_zscores(self, synth_csv, tmp_path):
        out = tmp_path / "run"
        proc = run_cli("compare", "--data", synth_csv,
                       "--methods", "nrn,ner,mcr", "--seeds", "0,1,2",
                       "--out-dir", out)
        assert proc.returncode == 0, proc.stderr
        raw = read_csv(out / "compare_raw.csv")
        assert len(raw) == 3 * 3 * 2  # methods x seeds x targets
        summary = read_csv(out / "compare_summary.csv")
        for t in ("penetration", "width"):
            zs = [float(r["zscore"]) for r in summary
                  if r["target"] == t and r["zscore"] not in ("", "n/a")]
            assert len(zs) == 3
            assert abs(sum(zs)) < 1e-9
        assert len(summary) == 3 * 2  # methods x targets
        assert not [r for r in summary if r["method"] == "svr"]
        report = (out / "compare_report.txt").read_text()
        assert "svr" not in report


class TestStats:
    def test_duplicated_column_perfectly_correlated(self, tmp_path):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(25, 3))
        t = rng.normal(size=25)
        data = wn.Dataset(X, np.column_stack([t, t]), ["v", "i", "s"],
                          ["p", "p2"])
        csv_path = tmp_path / "dup.csv"
        wn.save_csv(data, csv_path)
        out = tmp_path / "run"
        proc = run_cli("stats", "--data", csv_path, "--out-dir", out)
        assert proc.returncode == 0, proc.stderr
        rows = read_csv(out / "stats.csv")
        assert len(rows) == 1
        assert float(rows[0]["pearson_r"]) == 1.0
        assert float(rows[0]["spearman"]) == 1.0
        assert float(rows[0]["kendall"]) == 1.0
        assert "slope" in rows[0] and "intercept" in rows[0]
        fit = (out / "fit_p_vs_p2.csv").read_text().splitlines()
        assert len(fit) == 26

    @pytest.fixture
    def scaled_csv(self, tmp_path):
        """Write the 40-row synth data with its penetration column times
        scale; returns the path."""
        def write(scale):
            data = wn.synthesize_weld(40, 0.05, seed=0)
            targets = data.targets * [scale, 1.0]
            path = tmp_path / f"x{scale:g}.csv"
            wn.save_csv(wn.Dataset(data.features, targets, data.feature_names,
                                   data.target_names), path)
            return path
        return write

    def test_extreme_magnitude_keeps_the_correlation(self, scaled_csv,
                                                     tmp_path, capsys):
        """Penetration times 1e200: the sums of squares overflow, yet r and
        the fit are those of the unscaled data, the slope scaled, with no
        numpy warning."""
        got = {}
        for scale in (1.0, 1e200):
            out = tmp_path / f"out{scale:g}"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.main(["stats", "--data", str(scaled_csv(scale)),
                                 "--out-dir", str(out)]) == 0
            assert capsys.readouterr().err == ""
            (got[scale],) = read_csv(out / "stats.csv")
        plain, big = got[1.0], got[1e200]
        for key in ("pearson_r", "pearson_p", "intercept"):
            assert float(big[key]) == pytest.approx(float(plain[key]), rel=1e-12)
        assert big["spearman"] == plain["spearman"]
        assert big["kendall"] == plain["kendall"]
        assert float(big["slope"]) == pytest.approx(
            float(plain["slope"]) * 1e-200, rel=1e-12)
        assert float(plain["pearson_r"]) > 0.8

    @pytest.mark.parametrize("case, message", [
        ("tiny", "the least-squares line has a slope or intercept beyond"),
        ("huge", "a fitted w value is beyond the float range")])
    def test_unrepresentable_fit_exits_3(self, scaled_csv, tmp_path, capsys,
                                         case, message):
        """Penetration times 1e-310: r is found, but the slope is beyond
        the float range.  w near the top of the float range: np.polyfit
        gives an infinite slope, the scaled fit a finite line, but the line
        at p = 3 (2.04e308) is beyond the float range."""
        path = tmp_path / "huge.csv"
        path.write_text("iwp:f,dwp:p,dwp:w\n1,0,0\n"
                        + "".join(f"{i + 2},{i + 1},1.7e308\n" for i in range(3)))
        data = scaled_csv(1e-310) if case == "tiny" else path
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["stats", "--data", str(data),
                             "--out-dir", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_stats_on_synth(self, synth_csv, tmp_path):
        out = tmp_path / "run"
        proc = run_cli("stats", "--data", synth_csv, "--out-dir", out)
        assert proc.returncode == 0, proc.stderr
        text = (out / "stats_report.txt").read_text()
        assert "penetration~width" in text
        assert "slope" in text


class TestRunComparison:
    def test_single_method_single_seed_degenerates_to_train_eval(self):
        data = wn.synthesize_weld(60, 0.02, seed=5)
        meta = wn.BlockMetaParams(neurons=4, alpha=1.0, gamma=1.0, lam=0.0,
                                  iterations=1000)
        records, summary = run_comparison(data, ["nrn"], [meta, meta],
                                          seeds=[9], split_fraction=0.2)
        tr, te = wn.split(data, 0.2, seed=9)
        model, _ = wn.train_all([meta, meta], tr, seed=9)
        preds = wn.predict(model, te.features)
        for k, tname in enumerate(data.target_names):
            rec = next(r for r in records if r["target"] == tname)
            assert rec["rmse"] == wn.rmse(te.targets[:, k], preds[:, k])
            assert summary[("nrn", tname)]["ci_low"] is None

    def test_optimizer_hyperparameters_default_to_the_cli(self):
        data = wn.synthesize_weld(60, 0.02, seed=5)
        meta = wn.BlockMetaParams(neurons=4, alpha=1.0, gamma=1.0, lam=0.0,
                                  iterations=1000)
        args = cli._build_parser().parse_args(["compare"])
        flags = {"eta": args.eta, "rho": args.rho, "momentum": args.momentum,
                 "eps": args.eps}
        assert flags == {"eta": 0.1, "rho": 0.9, "momentum": 0.9, "eps": 1e-8}
        got, _ = run_comparison(data, ["adagrad"], [meta, meta], [0], 0.2)
        want, _ = run_comparison(data, ["adagrad"], [meta, meta], [0], 0.2,
                                 opt_hyper=flags)
        assert got == want

    def test_repeated_and_interleaved_methods(self):
        """mcr listed twice, around block methods of three update rules:
        each summary entry is taken over its (method, target) records, the
        keys come in first-seen order, the z-scores are taken over the
        methods as listed, and mcr fits the standardized training split."""
        from weldnet.rng import derive_seed
        data = wn.synthesize_weld(60, 0.02, seed=5)
        meta = wn.BlockMetaParams(neurons=4, alpha=1.0, gamma=1.0, lam=0.0,
                                  iterations=1000)
        methods = ["mcr", "nrn", "adagrad", "ann", "ner", "mcr"]
        seeds = [3, 1, 4]
        records, summary = run_comparison(data, methods, [meta, meta], seeds, 0.2)
        names = data.target_names
        assert [(r["seed"], r["method"], r["target"]) for r in records] == [
            (s, m, t) for s in seeds for m in methods for t in names]
        assert list(summary) == [(m, t) for m in dict.fromkeys(methods)
                                 for t in names]
        for (method, tname), entry in summary.items():
            group = [r for r in records
                     if (r["method"], r["target"]) == (method, tname)]
            assert len(group) == len(seeds) * methods.count(method)
            scores = [r["rmse"] for r in group]
            assert entry["mean_rmse"] == float(np.mean(scores))
            assert entry["median_rmse"] == float(np.median(scores))
            assert entry["mean_pe"] == float(np.mean([r["pe_percent"]
                                                      for r in group]))
            assert (entry["ci_low"], entry["ci_high"]) == \
                metrics.confidence_interval(scores)
        for tname in names:
            means = [summary[(m, tname)]["mean_rmse"] for m in methods]
            assert [summary[(m, tname)]["zscore"] for m in methods] == \
                [float(z) for z in metrics.zscore(means)]

        params = wn.McrParams(alpha=0.3, lam=0.0, degree=0, iterations=1000)
        for seed in seeds:
            tr, te = wn.split(data, 0.2, seed)
            scaled, scaler = wn.standardize(tr)
            theta = wn.mcr_fit(params, scaled, derive_seed(seed, "mcr"))
            preds = wn.linear_predict(theta, scaler.apply(te.features), 0)
            want = [(wn.rmse(te.targets[:, k], preds[:, k]),
                     *metrics.pe(te.targets[:, k], preds[:, k]))
                    for k in range(len(names))]
            got = [(r["rmse"], r["pe_percent"], r["pe_excluded"])
                   for r in records if (r["seed"], r["method"]) == (seed, "mcr")]
            assert got == want * 2

    def test_validation(self):
        data = wn.synthesize_weld(20, 0.02, seed=5)
        meta = wn.BlockMetaParams(neurons=4, alpha=1.0, gamma=1.0, lam=0.0,
                                  iterations=1000)
        with pytest.raises(ConfigError):
            run_comparison(data, [], [meta, meta], [1], 0.2)
        with pytest.raises(ConfigError):
            run_comparison(data, ["svm"], [meta, meta], [1], 0.2)
        with pytest.raises(ConfigError):
            run_comparison(data, ["nrn"], [meta, meta], [], 0.2)
        with pytest.raises(ConfigError):
            run_comparison(data, ["nrn"], [meta, meta], [1], 1.5)


class TestErrorContract:
    """Bad values end in a WeldnetError and the documented exit code, run
    in-process through cli.main."""

    @pytest.mark.parametrize("space", [
        {"iterations": [1000.5]}, {"neurons": [4.7]}, {"depth": [True]},
        {"degree": ["1"]}])
    def test_non_integer_search_space_is_config_error(
            self, synth_csv, tmp_path, capsys, space):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(space))
        code = cli.main(["search", "--data", str(synth_csv), "--space",
                         str(path), "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and next(iter(space)) in err
        assert not (tmp_path / "best_params.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("neurons", 4.7), ("neurons", 8.0), ("iterations", 1000.5),
        ("depth", True)])
    def test_non_integer_params_is_config_error(self, synth_csv, tmp_path,
                                                capsys, key, value):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({"targets": {"penetration": {key: value}}}))
        code = cli.main(["train", "--data", str(synth_csv), "--params",
                         str(params), "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{key} must be an integer" in err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("header", ["iwp:a,iwp:a,dwp:y", "iwp:a,dwp:y,dwp:y"])
    def test_duplicate_csv_column_is_runtime_error(self, tmp_path, capsys,
                                                   header):
        path = tmp_path / "dup.csv"
        path.write_text(header + "\n1,2,3\n4,5,7\n2,1,0\n")
        code = cli.main(["stats", "--data", str(path), "--out-dir",
                         str(tmp_path)])
        assert code == 3
        assert "appears more than once" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "compare", "stats",
                                         "search", "eval"])
    def test_non_utf8_csv_is_runtime_error(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"iwp:a,dwp:b\n1,\xff\n")
        source = ["--ner-train", str(path)] if command == "eval" else []
        code = cli.main([command, *source, "--data", str(path), "--out-dir",
                         str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("content", [
        b"[" * 100000 + b"]" * 100000, b'{"seed": "\xff"}'],
        ids=["nested", "not-utf8"])
    @pytest.mark.parametrize("option, code", [
        ("train --config", 2), ("search --space", 2), ("train --params", 2),
        ("compare --params", 2), ("eval --model", 3)])
    def test_unparsable_json_file_is_one_error_line(self, synth_csv, tmp_path,
                                                    capsys, option, code,
                                                    content):
        """Too deeply nested for json.load, or not UTF-8."""
        path = tmp_path / "in.json"
        path.write_bytes(content)
        assert cli.main([*option.split(), str(path), "--data", str(synth_csv),
                         "--out-dir", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read" if code == 2 else
                              "error: bad model file: not valid JSON:")
        assert err.count("\n") == 1
        assert not list(tmp_path.glob("*.csv"))

    def test_out_of_memory_is_runtime_error(self, synth_csv, tmp_path,
                                            capsys, monkeypatch):
        def exhausted(x, y):
            raise MemoryError("Unable to allocate 9.31 GiB")

        monkeypatch.setattr(metrics, "kendall", exhausted)
        code = cli.main(["stats", "--data", str(synth_csv), "--out-dir",
                         str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: out of memory: Unable to allocate 9.31 GiB\n")
        assert not (tmp_path / "stats.csv").exists()


class TestFeaturePowerOverflow:
    """Feature powers beyond the float range, in-process through cli.main:
    a power that overflows is inf with no numpy warning on stderr, the
    closed-form fit refuses it, and the trained methods diverge, at dynamic
    width too (6 rows leave compare's split the 3 training rows dynamic
    width needs)."""

    @pytest.fixture
    def big_csv(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("iwp:a,iwp:b,dwp:y\n1e60,1,2\n2e60,2,3\n3e60,3,5\n"
                        "4e60,4,4\n5e60,5,6\n6e60,6,5\n")
        return path

    @pytest.fixture
    def params_6(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"targets": {"y": {
            "neurons": 4, "degree": 6, "alpha": 0.1, "gamma": 1.0,
            "lambda": 0.0, "iterations": 1000}}}))
        return path

    @pytest.mark.parametrize("argv, message", [
        (["eval", "--ner-train", "{data}", "--degree", "6"],
         "error: a degree 6 feature power is beyond the float range"),
        (["compare", "--methods", "ner", "--ner-degree", "6", "--split", "0.5"],
         "error: a degree 6 feature power is beyond the float range"),
        (["train", "--no-standardize", "--params", "{params}"],
         "error: training diverged at iteration 1 in block 'y'"),
        (["compare", "--methods", "mcr", "--mcr-degree", "6",
          "--no-standardize", "--split", "0.5"],
         "error: training diverged at iteration 1"),
        (["train", "--no-standardize", "--params", "{params}", "--dynamic-width"],
         "error: training diverged at iteration 1 in block 'y'"),
        (["compare", "--methods", "nrn", "--params", "{params}", "--dynamic-width",
          "--no-standardize", "--split", "0.5"],
         "error: training diverged at iteration 1 in block 'y'")],
        ids=["eval-ner", "compare-ner", "train", "compare-mcr", "train-dynamic",
             "compare-dynamic"])
    def test_is_one_error_line(self, big_csv, params_6, tmp_path, capsys,
                               argv, message):
        out = tmp_path / "out"
        argv = [a.format(data=big_csv, params=params_6) for a in argv]
        assert cli.main([*argv, "--data", str(big_csv), "--out-dir",
                         str(out)]) == 3
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists() or not list(out.iterdir())

    def test_search_scores_inf(self, big_csv, tmp_path, capsys):
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"degree": [6]}))
        out = tmp_path / "out"
        assert cli.main(["search", "--data", str(big_csv), "--no-standardize",
                         "--space", str(space), "--out-dir", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = read_csv(out / "leaderboard_y.csv")
        assert rows and all(float(r["mean_cv_rmse"]) == np.inf for r in rows)


class TestNonFiniteHyperparameters:
    """A float hyperparameter must be a finite number, not a bool or a
    string: anything else is a config error before any training (compare's
    flags: test_range_error_is_config_error)."""

    @staticmethod
    def assert_config_error(capsys, code, *words):
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        for word in words:
            assert word in err

    @pytest.mark.parametrize("values", [
        {"lambda": float("nan")}, {"alpha": float("inf")},
        {"gamma": float("inf")}, {"alpha": True}, {"gamma": "2"},
        {"lambda": "nan"}, {"alpha": None}])
    def test_params_file(self, synth_csv, tmp_path, capsys, values):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({"targets": {"penetration": values}}))
        code = cli.main(["train", "--data", str(synth_csv), "--params",
                         str(params), "--out-dir", str(tmp_path)])
        key = next(iter(values))
        self.assert_config_error(capsys, code, "lam" if key == "lambda" else key,
                                 "must be a finite number")
        assert not list(tmp_path.glob("*.csv"))
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("values", [
        {"alpha": [0.5, float("inf")]}, {"gamma": [True]},
        {"lambda": [float("nan")]}, {"lambda": ["0"]}])
    def test_search_space(self, synth_csv, tmp_path, capsys, values):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(values))
        code = cli.main(["search", "--data", str(synth_csv), "--space",
                         str(path), "--out-dir", str(tmp_path)])
        self.assert_config_error(capsys, code, "is not a finite number")
        assert not list(tmp_path.glob("*.csv"))
        assert not (tmp_path / "best_params.json").exists()


# Any JSON value a meta-parameter may hold, and the corner cases of each.
META_VALUES = (st.none() | st.booleans() | st.text(max_size=4)
               | st.integers() | st.floats()
               | st.sampled_from([float("nan"), float("inf"), float("-inf"),
                                  -1, -0.5, 0, 2**1100, "2", "nan"]))


@settings(max_examples=300, deadline=None)
@given(values=st.dictionaries(st.sampled_from(sorted(cli.DEFAULT_META)),
                              META_VALUES, max_size=4))
def test_any_meta_values_give_a_meta_or_config_error(values):
    """from_dict, as cli._metas_for calls it, gives a meta whose numbers are
    the values given (alpha, gamma and lambda as floats), or an error that
    _metas_for reports as a config error; nothing trains."""
    data = wn.Dataset(np.zeros((3, 1)), np.zeros((3, 1)), ["x"], ["p"])
    raw = {**cli.DEFAULT_META, **values}
    try:
        (meta,) = cli._metas_for(data, {"metas": {"p": values}, "params": None})
    except ConfigError as exc:
        assert str(exc).startswith("bad meta-parameters for 'p'")
        with pytest.raises((KeyError, TypeError, ValueError)):
            wn.BlockMetaParams.from_dict(raw)
        return
    for key, value in meta.to_dict().items():
        assert value == raw[key] and not isinstance(raw[key], (bool, str))
        assert type(value) is (float if key in ("alpha", "gamma", "lambda")
                               else type(raw[key]))
        assert np.isfinite(value)


class TestTargetFileCollisions:
    """Two targets whose names map to one per-target file are a config
    error naming both, before anything trains or is written."""

    @pytest.fixture
    def colliding_csv(self, tmp_path):
        path = tmp_path / "collide.csv"
        path.write_text("iwp:x,dwp:a b,dwp:a_b,dwp:c\n"
                        + "".join(f"{i},{i * 2 % 5},{i % 3},{i * i % 7}\n"
                                  for i in range(12)))
        return path

    @pytest.mark.parametrize("command, names", [
        ("train", ("'a b'", "'a_b'")), ("search", ("'a b'", "'a_b'")),
        ("stats", ("'a b~c'", "'a_b~c'"))])
    def test_is_config_error(self, colliding_csv, tmp_path, capsys, command,
                             names):
        out = tmp_path / "out"
        argv = [command, "--data", str(colliding_csv), "--out-dir", str(out)]
        if command == "search":
            argv += ["--folds", "2", "--max-points", "1"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: targets ") and err.count("\n") == 1
        assert names[0] in err and names[1] in err
        assert "Traceback" not in err
        assert not list(out.iterdir())

    def test_stats_pairs(self, tmp_path, capsys):
        """fit_<a>_vs_<b>.csv of the pairs (x_vs, y) and (x, vs_y)."""
        path = tmp_path / "pairs.csv"
        path.write_text("iwp:f,dwp:x_vs,dwp:y,dwp:x,dwp:vs_y\n"
                        + "".join(f"{i},{i % 3},{i * 2 % 5},{i * i % 7},{i % 4}\n"
                                  for i in range(12)))
        out = tmp_path / "out"
        assert cli.main(["stats", "--data", str(path), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'x_vs~y'" in err and "'x~vs_y'" in err
        assert "fit_x_vs_vs_y.csv" in err
        assert not list(out.iterdir())

    def test_distinct_names_keep_their_files(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("iwp:x,dwp:a b,dwp:c\n"
                        + "".join(f"{i},{i * 2 % 5},{i * i % 7}\n"
                                  for i in range(12)))
        assert cli.main(["stats", "--data", str(path), "--out-dir",
                         str(tmp_path)]) == 0
        assert (tmp_path / "fit_a_b_vs_c.csv").exists()


class TestUnknownMetaKey:
    def test_params_file(self, synth_csv, tmp_path):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({"targets": {"penetration": {"neuron": 50}}}))
        proc = run_cli("train", "--data", synth_csv, "--params", params,
                       "--out-dir", tmp_path)
        assert proc.returncode == 2
        assert "'neuron'" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "model.json").exists()

    def test_config_metas(self, synth_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"metas": {"width": {"alpha": 0.5, "gama": 2.0}}}))
        proc = run_cli("compare", "--data", synth_csv, "--config", cfg,
                       "--out-dir", tmp_path)
        assert proc.returncode == 2
        assert "'gama'" in proc.stderr


class Read(Exception):
    """The value a command read from its resolved settings."""


def stop_at_read(monkeypatch, key):
    """Make the commands raise Read(value) where they first read key from
    the settings _settings resolved."""
    resolve = cli._settings

    class Spy(dict):
        def __getitem__(self, k):
            value = super().__getitem__(k)
            if k == key:
                raise Read(value)
            return value

    monkeypatch.setattr(cli, "_settings", lambda args: Spy(resolve(args)))


META = {"neurons": 4, "depth": 1, "degree": 0, "alpha": 1.0, "gamma": 1.0,
        "lambda": 0.0, "iterations": 1000}

# key: (command, flag argv, its value, a config value the flag beats, a
# config value that beats the default); keys without a flag have None.
PRECEDENCE = {
    "data": ("stats", ["--data", "f.csv"], "f.csv", ["c.csv"], ["c.csv"]),
    "out_dir": ("stats", ["--out-dir", "f"], "f", "c", "c"),
    "params": ("train", ["--params", "f.json"], "f.json", "c.json", "c.json"),
    "standardize": ("search", ["--no-standardize"], False, True, False),
    "dynamic_width": ("compare", ["--dynamic-width"], True, False, True),
    "use_tau": ("train", ["--no-tau"], False, True, False),
    "gamma_jitter": ("compare", ["--gamma-jitter"], True, False, True),
    "seeds": ("compare", ["--seeds", "3,4"], "3,4", [5], [5]),
    "methods": ("compare", ["--methods", "ner"], "ner", "mcr", "mcr"),
    "split_fraction": ("compare", ["--split", "0.5"], 0.5, 0.3, 0.3),
    "metas": ("train", None, None, None, {"width": META}),
    "search_space": ("search", None, None, None, {"neurons": [3]}),
}


def test_precedence_covers_every_setting():
    assert set(PRECEDENCE) == set(cli.SETTINGS)


class TestSettings:
    @pytest.mark.parametrize("key", PRECEDENCE)
    def test_flag_beats_config_beats_default(self, synth_csv, tmp_path,
                                             monkeypatch, key):
        command, flag, flag_value, beaten, config_value = PRECEDENCE[key]
        runs = [([], {key: config_value}, config_value),
                ([], {}, cli.SETTINGS[key][1])]
        if flag is not None:
            runs.append((flag, {key: beaten}, flag_value))
        monkeypatch.chdir(tmp_path)
        stop_at_read(monkeypatch, key)
        data = [] if key == "data" else ["--data", str(synth_csv)]
        for argv, doc, want in runs:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            with pytest.raises(Read) as read:
                cli.main([command, *data, *argv, "--config", str(cfg)])
            assert read.value.args[0] == want, (argv, doc)

    def test_out_dir_dot_beats_config(self, synth_csv, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out_dir": "elsewhere"}))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["stats", "--data", str(synth_csv), "--config",
                         str(cfg), "--out-dir", "."]) == 0
        assert (tmp_path / "stats.csv").exists()
        assert not (tmp_path / "elsewhere").exists()

    @pytest.mark.parametrize("command", ["synth", "train", "stats"])
    def test_unknown_config_key_is_config_error(self, synth_csv, tmp_path,
                                                capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"standardize": True, "standrdize": False}))
        argv = (["--out", str(tmp_path / "s.csv")] if command == "synth"
                else ["--data", str(synth_csv)])
        assert cli.main([command, *argv, "--config", str(cfg),
                         "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown config key 'standrdize'")
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command, flag", [
        ("stats", "--dynamic-width"), ("eval", "--dynamic-width"),
        ("search", "--dynamic-width"), ("synth", "--dynamic-width"),
        ("stats", "--no-standardize"), ("eval", "--no-standardize"),
        ("synth", "--no-standardize")])
    def test_flag_of_a_command_that_ignores_it_is_usage_error(
            self, synth_csv, tmp_path, capsys, command, flag):
        source = (["--out", str(tmp_path / "s.csv")] if command == "synth"
                  else ["--data", str(synth_csv)])
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *source, flag, "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(doc=st.dictionaries(st.sampled_from(sorted(cli.SETTINGS))
                           | st.text(max_size=6), JSON, max_size=5) | JSON)
def test_any_config_resolves_to_forms_or_config_error(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzzed_config.json"
    path.write_text(json.dumps(doc))
    args = cli._build_parser().parse_args(["compare", "--config", str(path)])
    try:
        s = cli._settings(args)
    except ConfigError:
        return
    assert isinstance(doc, dict) and set(doc) <= set(cli.SETTINGS)
    assert set(s) == set(cli.SETTINGS)
    for key, (form, default) in cli.SETTINGS.items():
        if doc.get(key) is None:
            assert s[key] == default
        else:
            assert json.dumps(s[key]) == json.dumps(doc[key])
            assert form is None or cli._FORMS[form](s[key])


# Leaf values that a run can take, or that make it diverge.
LEAVES = st.sampled_from([-1, 0, 1, 2, 4, 6, 1e-13, 0.5, 1.0, 1e6])


# Cell text that is no number, or a finite number of extreme size.
CELLS = (st.sampled_from(["", " ", "x", "nan", "inf", "-inf", "1e999", "0x1",
                          "1,2", '"', "1e300", "-1e300", "1e-300", "-1e-300"])
         | st.floats(allow_nan=False, allow_infinity=False).map(repr)
         | st.text(max_size=4))


# Bytes that are no text: invalid UTF-8, NUL, an encoded surrogate, or any.
RAW = (st.sampled_from([b"\xff", b"\x00", b"1\x00", b"\xc3", b"\xed\xa0\x80"])
       | st.binary(max_size=4))


class TestInputFileFuzz:
    """One leaf of a --config file, of a --space file of search, or of a
    --params file of train or compare, replaced by any JSON value, or one
    cell of the CSV that a command reads replaced by any text or bytes: the
    run exits 0, or 2 or 3 with one error line, with no traceback and no
    warning.  The config and the CSV bytes run at 1 and 2 CPUs."""

    COMPARE = ["compare", "--methods", ",".join(cli.METHODS), "--seeds", "0,1"]

    SPACE = {"neurons": [2, 3], "alpha": [0.5], "gamma": [1.0],
             "lambda": [0.0], "iterations": [1000], "depth": [1],
             "degree": [0]}

    @pytest.fixture(scope="class")
    def twelve_rows(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("fuzz")
        data = wn.synthesize_weld(12, 0.05, seed=3)
        wn.save_csv(data, out / "data.csv")
        return out, data.target_names

    @staticmethod
    def run_edited(doc, data, path, argv, raw=False):
        """One leaf of doc replaced by a drawn value, doc written to path
        (with raw: and then drawn bytes put at a drawn place of the file),
        and cli.main(argv) run with warnings as errors."""
        node = doc
        while isinstance(node, (dict, list)) and node:
            key = data.draw(st.sampled_from(
                sorted(node) if isinstance(node, dict) else range(len(node))))
            parent, node = node, node[key]
        parent[key] = data.draw(JSON | LEAVES, label="value")
        text = json.dumps(doc).encode()
        if raw and data.draw(st.booleans(), label="raw"):
            at = data.draw(st.integers(0, len(text)), label="at")
            cut = data.draw(st.integers(0, 2), label="cut")
            text = text[:at] + data.draw(RAW, label="bytes") + text[at + cut:]
        path.write_bytes(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return cli.main(argv)

    @staticmethod
    def assert_clean_exit(code, err):
        if code == 0:
            assert err == ""
        else:
            assert code in (2, 3)
            assert err.count("\n") == 1 and err.endswith("\n")
            assert err.startswith(("error:", "config error:"))

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_config_file(self, twelve_rows, cpus, capsys, monkeypatch, data):
        out, names = twelve_rows
        monkeypatch.chdir(out)  # a drawn data path is relative to it
        config = out / "config.json"
        doc = {"data": str(out / "data.csv"), "out_dir": "cfg",
               "standardize": True, "dynamic_width": False, "use_tau": True,
               "gamma_jitter": False, "seeds": [0], "methods": "nrn,ann",
               "split_fraction": 0.25,
               "metas": {name: dict(META) for name in names},
               "search_space": copy.deepcopy(self.SPACE)}
        argv = data.draw(st.sampled_from([
            ["train"], ["compare"], ["search", "--folds", "2"]]), label="argv")
        code = self.run_edited(doc, data, config, [
            *argv, "--config", str(config), "--out-dir", str(out / "cfg")],
            raw=True)
        self.assert_clean_exit(code, capsys.readouterr().err)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_space_file(self, twelve_rows, capsys, data):
        out, _ = twelve_rows
        space = out / "space.json"
        code = self.run_edited(
            copy.deepcopy(self.SPACE), data, space,
            ["search", "--data", str(out / "data.csv"), "--space", str(space),
             "--max-points", "1", "--folds", "2", "--out-dir", str(out / "s")])
        self.assert_clean_exit(code, capsys.readouterr().err)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_params_file(self, twelve_rows, capsys, data):
        out, names = twelve_rows
        params = out / "params.json"
        doc = {"targets": {name: dict(META) for name in names}}
        code = self.run_edited(
            doc, data, params,
            ["train", "--data", str(out / "data.csv"), "--params", str(params),
             "--out-dir", str(out / "t")])
        self.assert_clean_exit(code, capsys.readouterr().err)

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_compare_params_file(self, twelve_rows, capsys, data):
        out, names = twelve_rows
        params = out / "compare_params.json"
        doc = {"targets": {name: dict(META) for name in names}}
        code = self.run_edited(
            doc, data, params,
            [*self.COMPARE, "--data", str(out / "data.csv"), "--params",
             str(params), "--out-dir", str(out / "c")])
        self.assert_clean_exit(code, capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["train", "compare"])
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_csv_cell(self, twelve_rows, capsys, command, data):
        out, _ = twelve_rows
        lines = (out / "data.csv").read_text().splitlines()
        row = data.draw(st.integers(0, len(lines) - 1), label="row")
        cells = lines[row].split(",")
        cells[data.draw(st.integers(0, len(cells) - 1), label="column")] = \
            data.draw(CELLS, label="cell")
        lines[row] = ",".join(cells)
        path = out / f"{command}.csv"
        path.write_text("\n".join(lines) + "\n")
        argv = ["train"] if command == "train" else self.COMPARE
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([*argv, "--data", str(path),
                             "--out-dir", str(out / command)])
        self.assert_clean_exit(code, capsys.readouterr().err)

    READERS = {"search": ["search", "--folds", "2", "--space"],
               "eval": ["eval", "--ner-train"], "stats": ["stats"]}

    @pytest.mark.parametrize("command", sorted(READERS))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_csv_cell_bytes(self, twelve_rows, cpus, capsys, command, data):
        out, _ = twelve_rows
        lines = (out / "data.csv").read_bytes().splitlines()
        row = data.draw(st.integers(0, len(lines) - 1), label="row")
        cells = lines[row].split(b",")
        cells[data.draw(st.integers(0, len(cells) - 1), label="column")] = \
            data.draw(CELLS.map(str.encode) | RAW, label="cell")
        lines[row] = b",".join(cells)
        path = out / f"{command}_bytes.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        # 4 points x 2 folds of one shape per target: a group that
        # run_blocks cuts across 2 CPUs
        grid = out / "grid.json"
        grid.write_text(json.dumps({**self.SPACE, "neurons": [2],
                                    "alpha": [0.25, 0.5, 0.75, 1.0]}))
        source = {"search": [str(grid)], "eval": [str(path)]}.get(command, [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([*self.READERS[command], *source, "--data",
                             str(path), "--out-dir", str(out / command)])
        self.assert_clean_exit(code, capsys.readouterr().err)
