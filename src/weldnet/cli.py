"""Experiment driver: synthesize data, tune, train, evaluate, compare
methods, and emit plot-ready traces.

Commands: synth, train, eval, search, compare, stats.  Exit codes:
0 success, 2 usage/config error, 3 runtime error (IO or divergence).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import baselines, dataset as ds, metrics, model as mdl, search as srch
from .block import BlockMetaParams
from .errors import ConfigError, WeldnetError
from .rng import derive_seed

METHODS = ("nrn", "ann", "adagrad", "rmsprop", "nesterov", "ner", "mcr")

# Columns of compare_raw.csv (also the keys of each comparison record) and
# the per-(method, target) columns of compare_summary.csv, in the order of
# the summary's values.
RAW_COLUMNS = ("seed", "method", "target", "rmse", "pe_percent", "pe_excluded")
SUMMARY_COLUMNS = ("mean_rmse", "median_rmse", "mean_pe", "ci95_low",
                   "ci95_high", "zscore")

DEFAULT_META = {"neurons": 8, "depth": 1, "degree": 0, "alpha": 0.5,
                "gamma": 1.0, "lambda": 0.0, "iterations": 1000}

DEFAULT_SPACE = {"neurons": [4, 8], "alpha": [0.1, 0.3, 1.0],
                 "gamma": [0.5, 1.0, 2.0], "lambda": [0.0],
                 "iterations": [1000], "depth": [1], "degree": [0]}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except WeldnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out-dir", default=".")
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--no-standardize", action="store_true",
                        help="feed raw (unscaled) features to the blocks")
    common.add_argument("--dynamic-width", action="store_true",
                        help="probe hidden-width changes during training")

    parser = argparse.ArgumentParser(
        prog="weldnet",
        description="Block-wise neural regression for weld bead estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common],
                       help="write a synthetic welding CSV")
    p.add_argument("--rows", type=int, default=100)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", parents=[common],
                       help="train a model and write model + trace files")
    p.add_argument("--data", required=True, help="CSV path(s), comma separated")
    p.add_argument("--params", help="best-params JSON from the search command")
    p.add_argument("--no-tau", action="store_true",
                   help="disable the learned output shift")
    p.add_argument("--gamma-jitter", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a saved model (or a NER fit) on a CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--model", help="model JSON written by train")
    p.add_argument("--ner-train",
                   help="fit normal-equation regression on this CSV instead "
                        "of loading a model")
    p.add_argument("--degree", type=int, default=0,
                   help="polynomial degree for --ner-train")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("search", parents=[common],
                       help="grid-search block hyperparameters per target")
    p.add_argument("--data", required=True)
    p.add_argument("--space", help="JSON file with candidate value lists")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--max-points", type=int)
    p.add_argument("--target", default="all", help="target name or 'all'")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("compare", parents=[common],
                       help="train every requested method over every seed")
    p.add_argument("--data", required=True)
    p.add_argument("--methods",
                   help=f"comma list from {','.join(METHODS)} (default nrn,ann)")
    p.add_argument("--seeds", help="comma list of seeds (default: --seed)")
    p.add_argument("--split", type=float,
                   help="test fraction in (0, 1), default 0.2")
    p.add_argument("--params", help="best-params JSON for nrn/ann/optimizers")
    p.add_argument("--no-tau", action="store_true")
    p.add_argument("--gamma-jitter", action="store_true")
    p.add_argument("--eta", type=float, default=0.1,
                   help="learning rate for adagrad/rmsprop/nesterov")
    p.add_argument("--rho", type=float, default=0.9)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--ner-degree", type=int, default=0)
    p.add_argument("--mcr-alpha", type=float, default=0.3)
    p.add_argument("--mcr-lambda", type=float, default=0.0)
    p.add_argument("--mcr-degree", type=int, default=0)
    p.add_argument("--mcr-iterations", type=int, default=1000)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("stats", parents=[common],
                       help="pairwise correlations and fits across targets")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_stats)

    return parser


# --- shared plumbing ---


def _read_json(path, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


@contextmanager
def _config(what: str):
    """Report a library ValueError (or a bad key or type) while building
    parameters as a config error."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _check_degree(degree: int, flag: str) -> None:
    if not (ds.MIN_DEGREE <= degree <= ds.MAX_DEGREE):
        raise ConfigError(f"{flag} must be in [{ds.MIN_DEGREE}, "
                          f"{ds.MAX_DEGREE}], got {degree}")


def _load_config(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    return _json_object(_read_json(args.config, "config"), "config root")


def _out_dir(args, cfg) -> Path:
    out = Path(args.out_dir if args.out_dir != "." else cfg.get("out_dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _standardize_on(args, cfg) -> bool:
    if args.no_standardize:
        return False
    return bool(cfg.get("standardize", True))


def _load_data(args, cfg) -> ds.Dataset:
    source = getattr(args, "data", None) or cfg.get("data")
    if not source:
        raise ConfigError("no input data given")
    paths = source.split(",") if isinstance(source, str) else list(source)
    return ds.combine([ds.load_csv(p) for p in paths])


def _json_object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return doc


def _metas_for(data: ds.Dataset, args, cfg) -> list:
    """One BlockMetaParams per target, keyed by target name."""
    by_name = {}
    if cfg.get("metas") is not None:
        by_name.update(_json_object(cfg["metas"], "config 'metas'"))
    params_path = getattr(args, "params", None) or cfg.get("params")
    if params_path:
        doc = _json_object(_read_json(params_path, "params"),
                           f"params {params_path}")
        by_name.update(_json_object(doc.get("targets", doc),
                                    f"'targets' in params {params_path}"))
    metas = []
    for name in data.target_names:
        raw = _json_object(by_name.get(name, DEFAULT_META),
                           f"meta-parameters for {name!r}")
        unknown = sorted(set(raw) - set(DEFAULT_META))
        if unknown:
            raise ConfigError(f"unknown meta-parameter {unknown[0]!r} for "
                              f"{name!r} (known: {', '.join(DEFAULT_META)})")
        with _config(f"meta-parameters for {name!r}"):
            metas.append(BlockMetaParams.from_dict({**DEFAULT_META, **raw}))
    return metas


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


def _parse_seeds(args, cfg) -> list:
    if getattr(args, "seeds", None):
        try:
            return [int(s) for s in args.seeds.split(",") if s != ""]
        except ValueError as exc:
            raise ConfigError(f"bad --seeds: {exc}") from exc
    if cfg.get("seeds"):
        return [int(s) for s in cfg["seeds"]]
    return [args.seed]


def _scores(y, yhat) -> tuple:
    """(rmse, pe_percent, pe_excluded) of one target's estimates."""
    return (metrics.rmse(y, yhat), *metrics.pe(y, yhat))


def _report(path, text: str) -> None:
    """Write a text report and echo it to stdout."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(text, end="")


# --- commands ---


def cmd_synth(args) -> int:
    _load_config(args)  # validates --config if one was given
    with _config("synth arguments"):
        data = ds.synthesize_weld(args.rows, args.noise, args.seed)
    ds.save_csv(data, args.out)
    print(f"wrote {args.out}: {data.m} rows, {data.d} features, "
          f"{data.n_targets} targets")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    data = _load_data(args, cfg)
    metas = _metas_for(data, args, cfg)
    use_tau = not args.no_tau and bool(cfg.get("use_tau", True))
    model, traces = mdl.train_all(
        metas, data, args.seed,
        standardize=_standardize_on(args, cfg),
        use_tau=use_tau,
        dynamic_width=args.dynamic_width or bool(cfg.get("dynamic_width", False)),
        gamma_jitter=args.gamma_jitter or bool(cfg.get("gamma_jitter", False)))
    model_path = out / "model.json"
    mdl.save(model, model_path)
    for tname, trace in zip(data.target_names, traces):
        trace.write_csv(out / f"trace_{_safe_name(tname)}.csv")
    widths = ",".join(str(b.width) for b in model.blocks)
    print(f"wrote {model_path} (hidden widths: {widths}) and "
          f"{len(traces)} trace file(s) to {out}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    if bool(args.model) == bool(args.ner_train):
        raise ConfigError("give exactly one of --model or --ner-train")
    if args.ner_train:
        _check_degree(args.degree, "--degree")
    out = _out_dir(args, cfg)
    test = _load_data(args, cfg)
    if args.model:
        model = mdl.load(args.model)
        if model.target_names != test.target_names:
            raise ConfigError(
                f"model targets {model.target_names} do not match "
                f"data targets {test.target_names}")
        preds = mdl.predict(model, test.features)
    else:
        fit_data = ds.combine([ds.load_csv(p) for p in args.ner_train.split(",")])
        theta = baselines.normal_equation_fit(fit_data, args.degree)
        preds = baselines.linear_predict(theta, test.features, args.degree)

    # The eval CI columns stay empty: one test set gives no spread.
    rows = [(tname, *_scores(test.targets[:, k], preds[:, k]), None, None)
            for k, tname in enumerate(test.target_names)]
    ds.write_csv(out / "eval_report.csv", ["target", "rmse", "pe_percent",
                                           "pe_excluded", "ci95_low",
                                           "ci95_high"], rows)
    _report(out / "eval_report.txt", metrics.align_table(
        ["target", "rmse", "pe_percent", "excluded", "ci95_low", "ci95_high"],
        rows) + "\n")
    return 0


def _space_from_doc(doc: dict) -> srch.SearchSpace:
    with _config("search space"):
        merged = {**DEFAULT_SPACE, **doc}
        return srch.SearchSpace(
            neurons=tuple(merged["neurons"]), alpha=tuple(merged["alpha"]),
            gamma=tuple(merged["gamma"]), lam=tuple(merged["lambda"]),
            iterations=tuple(merged["iterations"]),
            depth=tuple(merged["depth"]), degree=tuple(merged["degree"]))


def cmd_search(args) -> int:
    cfg = _load_config(args)
    doc = (_read_json(args.space, "space") if args.space
           else cfg.get("search_space", {}))
    space = _space_from_doc(doc)
    with _config("search arguments"):
        srch.check_grid_args(args.folds, args.max_points)
    out = _out_dir(args, cfg)
    data = _load_data(args, cfg)

    if args.target == "all":
        targets = list(enumerate(data.target_names))
    else:
        if args.target not in data.target_names:
            raise ConfigError(f"unknown target {args.target!r}")
        targets = [(data.target_names.index(args.target), args.target)]

    best_by_target = {}
    for k, tname in targets:
        best, board = srch.grid_search(
            space, data, k, folds=args.folds, seed=args.seed,
            standardize=_standardize_on(args, cfg), max_points=args.max_points)
        best_by_target[tname] = best.to_dict()
        srch.write_leaderboard_csv(board, out / f"leaderboard_{_safe_name(tname)}.csv")
        print(f"{tname}: best {best.to_dict()} "
              f"(cv-rmse {board[0].mean_rmse:.6g} over {len(board)} points)")
    params_path = out / "best_params.json"
    with open(params_path, "w", encoding="utf-8", newline="") as fh:
        json.dump({"targets": best_by_target}, fh, indent=2)
        fh.write("\n")
    print(f"wrote {params_path}")
    return 0


def run_comparison(data: ds.Dataset, methods, metas, seeds, split_fraction,
                   standardize=True, use_tau=True, dynamic_width=False,
                   gamma_jitter=False, opt_hyper=None, ner_degree=0,
                   mcr_params=None):
    """Train every method over every seed; returns (records, summary).

    records: one dict per (seed, method, target) with test rmse/pe, keyed
    by RAW_COLUMNS.
    summary: per (method, target) mean/median rmse, mean pe, optional 95%
    CI over seeds, and a per-target z-score across methods, with its values
    in SUMMARY_COLUMNS order.
    """
    methods = list(methods)
    if not methods:
        raise ConfigError("at least one method is required")
    for meth in methods:
        if meth not in METHODS:
            raise ConfigError(f"unknown method {meth!r}")
    seeds = list(seeds)
    if not seeds:
        raise ConfigError("at least one seed is required")
    if not (0.0 < split_fraction < 1.0):
        raise ConfigError("split fraction must be in (0, 1)")
    _check_degree(ner_degree, "--ner-degree")
    opt_hyper = opt_hyper or {}
    mcr_params = mcr_params or baselines.McrParams(
        alpha=0.3, lam=0.0, degree=0, iterations=1000)

    records = []
    for seed in seeds:
        tr, te = ds.split(data, split_fraction, seed)
        for method in methods:
            preds = _fit_predict(method, tr, te, seed, metas, standardize,
                                 use_tau, dynamic_width, gamma_jitter,
                                 opt_hyper, ner_degree, mcr_params)
            for k, tname in enumerate(data.target_names):
                records.append(dict(zip(RAW_COLUMNS, (
                    seed, method, tname,
                    *_scores(te.targets[:, k], preds[:, k])))))

    summary = {}
    for method in methods:
        for tname in data.target_names:
            scores = [r["rmse"] for r in records
                      if r["method"] == method and r["target"] == tname]
            pes = [r["pe_percent"] for r in records
                   if r["method"] == method and r["target"] == tname]
            ci = (metrics.confidence_interval(scores)
                  if len(scores) >= 2 else (None, None))
            summary[(method, tname)] = {
                "mean_rmse": float(np.mean(scores)),
                "median_rmse": float(np.median(scores)),
                "mean_pe": float(np.mean(pes)),
                "ci_low": ci[0], "ci_high": ci[1], "zscore": None}
    if len(methods) >= 2:
        for tname in data.target_names:
            means = [summary[(m, tname)]["mean_rmse"] for m in methods]
            if np.std(means, ddof=1) > 0:
                for m, z in zip(methods, metrics.zscore(means)):
                    summary[(m, tname)]["zscore"] = float(z)
    return records, summary


def _fit_predict(method, tr, te, seed, metas, standardize, use_tau,
                 dynamic_width, gamma_jitter, opt_hyper, ner_degree,
                 mcr_params):
    if method == "nrn" or method == "ann":
        use_metas = metas
        eff_tau = use_tau
        if method == "ann":
            use_metas = [replace(m, gamma=1.0) for m in metas]
            eff_tau = False
        model, _ = mdl.train_all(use_metas, tr, seed, standardize=standardize,
                                 use_tau=eff_tau, dynamic_width=dynamic_width,
                                 gamma_jitter=gamma_jitter)
        return mdl.predict(model, te.features)
    if method in ("adagrad", "rmsprop", "nesterov"):
        scaler, inputs = ds.prepare_features(
            tr.features, [meta.degree for meta in metas], fit=standardize)
        blocks = []
        for k, (meta, tname, X) in enumerate(zip(metas, tr.target_names, inputs)):
            block, _ = baselines.optimizer_train(
                method, meta, X, tr.targets[:, k],
                derive_seed(seed, tname), **opt_hyper)
            blocks.append(block)
        model = mdl.AggregateModel(blocks=blocks, scaler=scaler,
                                   target_names=list(tr.target_names))
        return mdl.predict(model, te.features)
    if method == "ner":
        theta = baselines.normal_equation_fit(tr, ner_degree)
        return baselines.linear_predict(theta, te.features, ner_degree)
    if method == "mcr":
        scaler, (feats,) = ds.prepare_features(tr.features, [0], fit=standardize)
        _, (te_feats,) = ds.prepare_features(te.features, [0], scaler)
        fit_data = ds.Dataset(feats, tr.targets, tr.feature_names, tr.target_names)
        theta = baselines.mcr_fit(mcr_params, fit_data, derive_seed(seed, "mcr"))
        return baselines.linear_predict(theta, te_feats, mcr_params.degree)
    raise ConfigError(f"unknown method {method!r}")


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    opt_hyper = {"eta": args.eta, "rho": args.rho,
                 "momentum": args.momentum, "eps": args.eps}
    with _config("compare arguments"):
        mcr_params = baselines.McrParams(
            alpha=args.mcr_alpha, lam=args.mcr_lambda, degree=args.mcr_degree,
            iterations=args.mcr_iterations)
        baselines.OptimizerState("adagrad", **opt_hyper)  # checks the values
    out = _out_dir(args, cfg)
    data = _load_data(args, cfg)
    metas = _metas_for(data, args, cfg)
    methods = [m for m in (args.methods or cfg.get("methods", "nrn,ann"))
               .split(",") if m]
    seeds = _parse_seeds(args, cfg)
    split_fraction = (args.split if args.split is not None
                      else float(cfg.get("split_fraction", 0.2)))
    use_tau = not args.no_tau and bool(cfg.get("use_tau", True))
    records, summary = run_comparison(
        data, methods, metas, seeds, split_fraction,
        standardize=_standardize_on(args, cfg), use_tau=use_tau,
        dynamic_width=args.dynamic_width, gamma_jitter=args.gamma_jitter,
        opt_hyper=opt_hyper, ner_degree=args.ner_degree, mcr_params=mcr_params)

    ds.write_csv(out / "compare_raw.csv", RAW_COLUMNS,
                 ([r[c] for c in RAW_COLUMNS] for r in records))
    ds.write_csv(out / "compare_summary.csv",
                 ["method", "target", *SUMMARY_COLUMNS],
                 ([method, tname, *s.values()]
                  for (method, tname), s in summary.items()))
    _report(out / "compare_report.txt", "\n".join(
        f"target: {tname}\n" + metrics.align_table(
            ["method", *SUMMARY_COLUMNS],
            [[m, *summary[(m, tname)].values()] for m in methods]) + "\n"
        for tname in data.target_names))
    return 0


def cmd_stats(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    data = _load_data(args, cfg)
    names = data.target_names
    rows = []  # a, b, pearson r and p, spearman, kendall, slope, intercept
    for a in range(data.n_targets):
        for b in range(a + 1, data.n_targets):
            x, y = data.targets[:, a], data.targets[:, b]
            slope, intercept = np.polyfit(x, y, 1)
            rows.append((names[a], names[b], *metrics.pearson(x, y),
                         metrics.spearman(x, y), metrics.kendall(x, y),
                         slope, intercept))
            order = np.argsort(x)
            xs, ys = x[order], y[order]
            ds.write_csv(
                out / f"fit_{_safe_name(names[a])}_vs_{_safe_name(names[b])}.csv",
                [names[a], names[b], "fitted"],
                zip(xs.tolist(), ys.tolist(), (slope * xs + intercept).tolist()))

    corr = ["pair", "pearson_r", "pearson_p", "spearman", "kendall"]
    text = (metrics.align_table(corr, [[f"{r[0]}~{r[1]}", *r[2:6]] for r in rows])
            if rows else "")
    _report(out / "stats_report.txt", text + "\n\n" + metrics.align_table(
        ["pair", "slope", "intercept"],
        [[f"{r[0]}~{r[1]}", *r[6:]] for r in rows]) + "\n")
    ds.write_csv(out / "stats.csv", ["a", "b", *corr[1:], "slope", "intercept"],
                 rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
