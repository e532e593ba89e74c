"""Acceptance suite: one test per release criterion.

Each test prints a [PASS]/[FAIL] line (visible with pytest -s) and asserts
at the stated tolerance.  Run with:  pytest tests/test_acceptance.py -v -s
"""

import json
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import weldnet as wn
from oracles import fd_data_gradients, max_rel_error, step_one
from weldnet.baselines import McrParams, mcr_fit, normal_equation_fit, optimizer_train
from weldnet.block import BlockMetaParams, init_block, train
from weldnet.cli import run_comparison
from weldnet.dataset import Dataset, append_bias, combine, split, standardize, synthesize_weld
from weldnet.search import SearchSpace, grid_search


def _check(num, desc, fn):
    try:
        fn()
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    print(f"[PASS] criterion {num}: {desc}")


@pytest.fixture(scope="module")
def weld200():
    return synthesize_weld(200, 0.02, seed=0)


def test_criterion_1_gradient_fidelity():
    def body():
        start = time.monotonic()
        for depth in (1, 2, 3):
            meta = BlockMetaParams(neurons=4, alpha=0.5, gamma=1.7, lam=0.0,
                                   iterations=1000, depth=depth)
            block = init_block(meta, 3, seed=11)
            rng = np.random.default_rng(12)
            X = rng.normal(size=(8, 3))
            y = rng.normal(size=8)
            _, step = step_one(block, X, y, use_tau=False)
            fd = fd_data_gradients(block, X, y, h=1e-5)
            for delta, g in zip(step.deltas, fd):
                assert max_rel_error(delta / meta.gamma, -8 * g) < 1e-5
            if depth == 1:
                assert time.monotonic() - start < 1.0
    _check(1, "reinforced gradients match -m x finite differences "
              "(rel < 1e-5, depths 1-3)", body)


def test_criterion_2_gamma_linearity():
    def body():
        for depth in (1, 2):
            meta = BlockMetaParams(neurons=5, alpha=0.5, gamma=1.0, lam=0.01,
                                   iterations=1000, depth=depth)
            block = init_block(meta, 3, seed=21)
            rng = np.random.default_rng(22)
            X = rng.normal(size=(9, 3))
            y = rng.normal(size=9)
            _, s1 = step_one(block, X, y, gamma=1.0)
            _, s2 = step_one(block, X, y, gamma=2.0)
            for a, b in zip(s1.deltas, s2.deltas):
                np.testing.assert_array_equal(2.0 * a, b)
    _check(2, "doubling gamma doubles every gradient entry bitwise", body)


def test_criterion_3_tau_argmin(weld200):
    def body():
        tr, _ = split(weld200, 0.2, seed=0)
        scaled, _ = standardize(tr)
        meta = BlockMetaParams(neurons=6, alpha=1.0, gamma=1.0, lam=0.001,
                               iterations=1000)
        block = init_block(meta, 3, seed=31)
        _, trace = train(block, scaled.features, scaled.targets[:, 0])
        assert len(trace) == 1000
        assert all(r.cost <= r.cost_tau_zero for r in trace.records)
    _check(3, "selected shift never costs more than the zero-shift "
              "candidate across a full 1000-iteration run", body)


def test_criterion_4_ner_mcr_oracle():
    def body():
        rng = np.random.default_rng(41)
        X = rng.normal(size=(50, 3))
        theta_true = rng.normal(size=(4, 2))
        data = Dataset(X, append_bias(X) @ theta_true, ["a", "b", "c"],
                       ["p", "w"])
        theta_ner = normal_equation_fit(data, 0)
        assert np.abs(theta_ner - theta_true).max() < 1e-8
        scaled, _ = standardize(data)
        want = normal_equation_fit(scaled, 0)
        got = mcr_fit(McrParams(alpha=0.9, lam=0.0, degree=0,
                                iterations=12000), scaled, seed=0)
        assert np.abs(got - want).max() < 1e-4
    _check(4, "NER recovers exact linear weights (1e-8); "
              "MCR matches NER (1e-4)", body)


def test_criterion_5_reduction_identity(weld200):
    def body():
        tr, _ = split(weld200, 0.2, seed=1)
        scaled, _ = standardize(tr)
        X, y = scaled.features, scaled.targets[:, 1]
        meta = BlockMetaParams(neurons=5, alpha=1.0, gamma=4.0, lam=0.001,
                               iterations=1000)
        b_ann, _ = wn.plain_ann_train(meta, X, y, seed=51)
        block = init_block(replace(meta, gamma=1.0), X.shape[1], seed=51)
        b_nrn, _ = train(block, X, y, use_tau=False)
        for a, b in zip(b_ann.matrices(), b_nrn.matrices()):
            np.testing.assert_array_equal(a, b)
        assert b_ann.tau == b_nrn.tau == 0.0
    _check(5, "gamma=1 / shift-off training is bit-identical to the "
              "plain ANN baseline", body)


def test_criterion_6_paper_magnitude_surrogate(weld200):
    def body():
        start = time.monotonic()
        space = SearchSpace(neurons=(4, 8, 12), alpha=(0.3, 1.0, 3.0),
                            gamma=(0.5, 1.0, 2.0), lam=(0.0,),
                            iterations=(1000,))
        assert space.size() >= 27
        best = {}
        for k, tname in enumerate(weld200.target_names):
            best[tname], _ = grid_search(space, weld200, k, folds=5, seed=0)

        pes = {t: [] for t in weld200.target_names}
        wins = {t: 0 for t in weld200.target_names}
        for seed in range(10):
            tr, te = split(weld200, 0.2, seed)
            metas = [best[t] for t in weld200.target_names]
            m_nrn, _ = wn.train_all(metas, tr, seed=seed)
            m_ann, _ = wn.train_all([replace(m, gamma=1.0) for m in metas],
                                    tr, seed=seed, use_tau=False)
            p_nrn = wn.predict(m_nrn, te.features)
            p_ann = wn.predict(m_ann, te.features)
            for k, tname in enumerate(weld200.target_names):
                pes[tname].append(wn.pe(te.targets[:, k], p_nrn[:, k])[0])
                if wn.rmse(te.targets[:, k], p_nrn[:, k]) <= \
                        wn.rmse(te.targets[:, k], p_ann[:, k]):
                    wins[tname] += 1
        for tname in weld200.target_names:
            median_pe = float(np.median(pes[tname]))
            print(f"    {tname}: median PE {median_pe:.2f}%, "
                  f"beats plain ANN on {wins[tname]}/10 seeds")
            assert median_pe < 10.0
            assert wins[tname] >= 7
        assert time.monotonic() - start < 300.0
    _check(6, "after a 27-point grid search the reinforced network reaches "
              "median test PE < 10% and beats plain ANN on >= 7/10 seeds", body)


def test_criterion_7_optimizer_baselines(weld200):
    def body():
        tr, te = split(weld200, 0.2, seed=0)
        scaled, _ = standardize(tr)
        meta = BlockMetaParams(neurons=8, alpha=1.0, gamma=1.0, lam=0.0,
                               iterations=1000)
        etas = {"adagrad": 0.3, "rmsprop": 0.003, "nesterov": 0.003}
        for kind, eta in etas.items():
            for k in range(2):
                _, trace = optimizer_train(kind, meta, scaled.features,
                                           scaled.targets[:, k], seed=k,
                                           eta=eta)
                ratio = trace.records[-1].cost / trace.records[0].cost
                assert ratio < 0.10, f"{kind} target {k}: ratio {ratio}"
        # comparison table analogue with every method present
        metas = [meta, meta]
        records, summary = run_comparison(
            weld200, ["nrn", "ann", "adagrad", "rmsprop", "nesterov",
                      "ner", "mcr"],
            metas, seeds=[0], split_fraction=0.2,
            opt_hyper={"eta": 0.3})
        assert all(np.isfinite(r["rmse"]) for r in records)
        for tname in weld200.target_names:
            row = "  ".join(
                f"{m}={summary[(m, tname)]['mean_rmse']:.3f}"
                for m in ("nrn", "ann", "adagrad", "rmsprop", "nesterov",
                          "ner", "mcr"))
            print(f"    {tname}: {row}")
    _check(7, "adagrad/rmsprop/nesterov cut cost below 10% of start; "
              "comparison table finite for all methods", body)


def test_criterion_8_depth_study(weld200):
    def body():
        seeds = range(10)
        cis = {}
        for depth in (1, 2, 3, 4):
            meta = BlockMetaParams(neurons=6, alpha=0.3, gamma=1.0, lam=0.0,
                                   iterations=1000, depth=depth)
            scores = []
            for seed in seeds:
                tr, te = split(weld200, 0.2, seed)
                model, _ = wn.train_all([meta, meta], tr, seed=seed)
                preds = wn.predict(model, te.features)
                scores.append(wn.rmse(te.targets[:, 0], preds[:, 0]))
            assert all(np.isfinite(s) for s in scores)
            cis[depth] = wn.confidence_interval(scores)
        print("    depth  ci95_low  ci95_high")
        for depth, (lo, hi) in cis.items():
            print(f"    {depth}      {lo:.4f}    {hi:.4f}")
        pairs = [(a, b) for a in cis for b in cis if a < b]
        overlaps = {(a, b): cis[a][0] <= cis[b][1] and cis[b][0] <= cis[a][1]
                    for a, b in pairs}
        non_overlapping = [p for p, o in overlaps.items() if not o]
        if non_overlapping:
            print(f"    non-overlapping depth pairs: {non_overlapping}")
        else:
            print("    all depth confidence intervals mutually overlap")
        for lo, hi in cis.values():
            assert lo <= hi
    _check(8, "depths 1-4 all train; 95% RMSE interval comparison printed",
           body)


def test_criterion_9_combined_data_study():
    def body():
        sets = [synthesize_weld(120, noise, seed=ds_seed)
                for noise, ds_seed in ((0.02, 10), (0.04, 11), (0.06, 12))]
        meta = BlockMetaParams(neurons=8, alpha=1.0, gamma=1.0, lam=0.0,
                               iterations=1000)
        per_dataset = {i: {t: [] for t in sets[0].target_names}
                       for i in range(3)}
        for seed in range(5):
            splits = [split(d, 0.2, seed) for d in sets]
            train_combined = combine([tr for tr, _ in splits])
            model, _ = wn.train_all([meta, meta], train_combined, seed=seed)
            for i, (_, te) in enumerate(splits):
                preds = wn.predict(model, te.features)
                for k, tname in enumerate(sets[0].target_names):
                    per_dataset[i][tname].append(
                        wn.rmse(te.targets[:, k], preds[:, k]))
        print("    dataset  target       ci95_low  ci95_high")
        for i in range(3):
            for tname, scores in per_dataset[i].items():
                lo, hi = wn.confidence_interval(scores)
                assert lo <= hi and np.isfinite(lo) and np.isfinite(hi)
                print(f"    D{i + 1}       {tname:<12} {lo:.4f}    {hi:.4f}")
    _check(9, "model trained on three combined synthetic datasets; "
              "per-dataset evaluation intervals emitted", body)


def test_criterion_10_statistics():
    def body():
        x = np.arange(20, dtype=float)
        y = 2 * x + 1
        r, p = wn.pearson(x, y)
        assert abs(r - 1.0) < 1e-12
        assert abs(wn.spearman(x, y) - 1.0) < 1e-12
        assert abs(wn.kendall(x, y) - 1.0) < 1e-12
        assert p < 1e-10
        xs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        assert wn.spearman(xs, xs ** 3) == 1.0
    _check(10, "correlation statistics exact on perfectly related data "
               "(pearson p < 1e-10 at n=20)", body)


def test_criterion_11_cli_pipeline(tmp_path):
    def body():
        start = time.monotonic()

        def run(*args):
            proc = subprocess.run(
                [sys.executable, "-m", "weldnet", *map(str, args)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            return proc

        data_csv = tmp_path / "weld.csv"
        run("synth", "--rows", 200, "--noise", 0.02, "--seed", 0,
            "--out", data_csv)

        space = tmp_path / "space.json"
        space.write_text(json.dumps({"neurons": [4, 8], "alpha": [1.0],
                                     "gamma": [1.0, 2.0], "lambda": [0.0],
                                     "iterations": [1000]}))
        run("search", "--data", data_csv, "--space", space, "--folds", 3,
            "--out-dir", tmp_path)
        best = json.loads((tmp_path / "best_params.json").read_text())
        assert set(best["targets"]) == {"penetration", "width"}

        run("train", "--data", data_csv, "--params",
            tmp_path / "best_params.json", "--out-dir", tmp_path)
        model = wn.load(tmp_path / "model.json")
        assert len(model.blocks) == 2

        run("eval", "--model", tmp_path / "model.json", "--data", data_csv,
            "--out-dir", tmp_path)
        eval_lines = (tmp_path / "eval_report.csv").read_text().splitlines()
        assert len(eval_lines) == 3

        run("compare", "--data", data_csv, "--methods", "nrn,ann,ner",
            "--seeds", "0,1", "--params", tmp_path / "best_params.json",
            "--out-dir", tmp_path)
        raw = (tmp_path / "compare_raw.csv").read_text().splitlines()
        assert len(raw) == 1 + 3 * 2 * 2

        for name in ("trace_penetration.csv", "trace_width.csv",
                     "leaderboard_penetration.csv", "compare_report.txt"):
            assert (tmp_path / name).exists()
        elapsed = time.monotonic() - start
        print(f"    pipeline completed in {elapsed:.1f}s")
        assert elapsed < 120.0
    _check(11, "synth -> search -> train -> eval -> compare pipeline exits 0 "
               "with schema-valid artifacts in < 2 min", body)
