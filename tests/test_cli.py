import csv
import json
import subprocess
import sys

import numpy as np
import pytest

import weldnet as wn
from weldnet import cli
from weldnet.cli import run_comparison
from weldnet.errors import ConfigError


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "weldnet", *map(str, args)],
                          capture_output=True, text=True, cwd=cwd)


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
        ["compare", "--data", "{data}", "--ner-degree", "9"],
        ["eval", "--data", "{data}", "--ner-train", "{data}", "--degree", "9"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
    def test_range_error_is_config_error(self, synth_csv, tmp_path, argv):
        argv = [a.format(data=synth_csv, out=tmp_path) for a in argv]
        proc = run_cli(*argv, "--out-dir", tmp_path)
        assert proc.returncode == 2
        assert "config error" in proc.stderr
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
