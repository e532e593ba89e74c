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
from .block import BlockMetaParams, outcome_block
from .errors import ConfigError, WeldnetError
from .rng import derive_seed
from .workers import map_tasks

METHODS = ("nrn", "ann", "adagrad", "rmsprop", "nesterov", "ner", "mcr")
# Methods that train one block per target; compare trains each of them on
# every (seed, target) as stacks (nrn and ann at dynamic width excepted).
BLOCK_METHODS = ("nrn", "ann", "adagrad", "rmsprop", "nesterov")

# Columns of compare_raw.csv (also the keys of each comparison record) and
# the per-(method, target) columns of compare_summary.csv, in the order of
# the summary's values.
RAW_COLUMNS = ("seed", "method", "target", "rmse", "pe_percent", "pe_excluded")
SUMMARY_COLUMNS = ("mean_rmse", "median_rmse", "mean_pe", "ci95_low",
                   "ci95_high", "zscore")

DEFAULT_META = {"neurons": 8, "depth": 1, "degree": 0, "alpha": 0.5,
                "gamma": 1.0, "lambda": 0.0, "iterations": 1000}

# Hyperparameters of the adagrad/rmsprop/nesterov baselines.
DEFAULT_OPT_HYPER = {"eta": 0.1, "rho": 0.9, "momentum": 0.9, "eps": 1e-8}

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

    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", help="CSV path(s), comma separated "
                                     "(default: the config's data)")

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

    p = sub.add_parser("train", parents=[common, data],
                       help="train a model and write model + trace files")
    p.add_argument("--params", help="best-params JSON from the search command")
    p.add_argument("--no-tau", action="store_true",
                   help="disable the learned output shift")
    p.add_argument("--gamma-jitter", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common, data],
                       help="evaluate a saved model (or a NER fit) on a CSV")
    p.add_argument("--model", help="model JSON written by train")
    p.add_argument("--ner-train",
                   help="fit normal-equation regression on this CSV instead "
                        "of loading a model")
    p.add_argument("--degree", type=int, default=0,
                   help="polynomial degree for --ner-train")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("search", parents=[common, data],
                       help="grid-search block hyperparameters per target")
    p.add_argument("--space", help="JSON file with candidate value lists")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--max-points", type=int)
    p.add_argument("--target", default="all", help="target name or 'all'")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("compare", parents=[common, data],
                       help="train every requested method over every seed")
    p.add_argument("--methods",
                   help=f"comma list from {','.join(METHODS)} (default nrn,ann)")
    p.add_argument("--seeds", help="comma list of seeds (default: --seed)")
    p.add_argument("--split", type=float,
                   help="test fraction in (0, 1), default 0.2")
    p.add_argument("--params", help="best-params JSON for nrn/ann/optimizers")
    p.add_argument("--no-tau", action="store_true")
    p.add_argument("--gamma-jitter", action="store_true")
    p.add_argument("--eta", type=float, default=DEFAULT_OPT_HYPER["eta"],
                   help="learning rate for adagrad/rmsprop/nesterov")
    p.add_argument("--rho", type=float, default=DEFAULT_OPT_HYPER["rho"])
    p.add_argument("--momentum", type=float,
                   default=DEFAULT_OPT_HYPER["momentum"])
    p.add_argument("--eps", type=float, default=DEFAULT_OPT_HYPER["eps"])
    p.add_argument("--ner-degree", type=int, default=0)
    p.add_argument("--mcr-alpha", type=float, default=0.3)
    p.add_argument("--mcr-lambda", type=float, default=0.0)
    p.add_argument("--mcr-degree", type=int, default=0)
    p.add_argument("--mcr-iterations", type=int, default=1000)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("stats", parents=[common, data],
                       help="pairwise correlations and fits across targets")
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


# The forms a config value may take; json.load gives bool, int, float, str,
# list, dict or None, and a bool is not taken for a number.
_FORMS = {
    "true or false": lambda v: isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "a string or a list of strings": lambda v: isinstance(v, str) or (
        isinstance(v, list) and all(isinstance(p, str) for p in v)),
    "a number": lambda v: type(v) in (int, float),
    "a list of integers": lambda v: isinstance(v, list) and all(
        type(s) is int for s in v),
}


def _setting(cfg, key: str, default, form: str):
    """cfg[key], or default if it is absent or null; a value not of the
    given form (a key of _FORMS) is a config error."""
    value = cfg.get(key)
    if value is None:
        return default
    if not _FORMS[form](value):
        raise ConfigError(f"config {key!r} must be {form}, got {value!r}")
    return value


def _load_config(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    return _json_object(_read_json(args.config, "config"), "config root")


def _out_dir(args, cfg) -> Path:
    out = Path(args.out_dir if args.out_dir != "."
               else _setting(cfg, "out_dir", ".", "a string"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _standardize_on(args, cfg) -> bool:
    if args.no_standardize:
        return False
    return _setting(cfg, "standardize", True, "true or false")


def _load_data(args, cfg) -> ds.Dataset:
    source = getattr(args, "data", None) or _setting(
        cfg, "data", None, "a string or a list of strings")
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
    params_path = (getattr(args, "params", None)
                   or _setting(cfg, "params", None, "a string"))
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
            seeds = [int(s) for s in args.seeds.split(",") if s != ""]
        except ValueError as exc:
            raise ConfigError(f"bad --seeds: {exc}") from exc
    else:
        seeds = (_setting(cfg, "seeds", None, "a list of integers")
                 or [args.seed])
    if any(s < 0 for s in seeds):
        raise ConfigError(f"seeds must be >= 0, got {seeds}")
    return seeds


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
    use_tau = not args.no_tau and _setting(cfg, "use_tau", True, "true or false")
    model, traces = mdl.train_all(
        metas, data, args.seed,
        standardize=_standardize_on(args, cfg),
        use_tau=use_tau,
        dynamic_width=args.dynamic_width or _setting(
            cfg, "dynamic_width", False, "true or false"),
        gamma_jitter=args.gamma_jitter or _setting(
            cfg, "gamma_jitter", False, "true or false"))
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
    opt_hyper: eta, rho, momentum and eps of the optimizer methods; a key
    left out takes its DEFAULT_OPT_HYPER value, as on the command line.
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
    metas = list(metas)
    if set(methods) & set(BLOCK_METHODS) and len(metas) != data.n_targets:
        raise ValueError(f"need {data.n_targets} meta sets, got {len(metas)}")
    opt_hyper = {**DEFAULT_OPT_HYPER, **(opt_hyper or {})}
    mcr_params = mcr_params or baselines.McrParams(
        alpha=0.3, lam=0.0, degree=0, iterations=1000)

    splits = [ds.split(data, split_fraction, seed) for seed in seeds]
    # every distinct block method that trains as stacks, each on a worker
    stacked = list(dict.fromkeys(
        m for m in methods if m in BLOCK_METHODS
        and not (dynamic_width and m in ("nrn", "ann"))))
    feats = [_seed_features(tr, metas, standardize) if stacked else None
             for tr, _ in splits]
    trained = dict(zip(stacked, map_tasks(_train_stacked, [
        (method, data.target_names, splits, feats, seeds, metas, use_tau,
         gamma_jitter, opt_hyper) for method in stacked])))

    records = []
    for i, (seed, (tr, te)) in enumerate(zip(seeds, splits)):
        for method in methods:
            if method in trained:
                preds = _predict_stacked(method, trained[method].get(i),
                                         feats[i], te)
            else:
                preds = _fit_predict(method, tr, te, seed, metas, standardize,
                                     use_tau, dynamic_width, gamma_jitter,
                                     ner_degree, mcr_params)
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


def _seed_features(tr: ds.Dataset, metas, standardize: bool):
    """(scaler, one block input per meta) of a seed's training split, or
    the WeldnetError that preparing them raised; it is raised where the
    first stacked method of that seed needs them."""
    try:
        return ds.prepare_features(tr.features, [m.degree for m in metas],
                                   fit=standardize)
    except WeldnetError as exc:
        return exc


def _train_stacked(method, names, splits, feats, seeds, metas, use_tau,
                   gamma_jitter, opt_hyper) -> dict:
    """One block method trained on every (seed, target) at once; returns,
    per seed index whose features could be prepared, its run_blocks
    outcomes in target order.

    nrn keeps the metas' gamma and the output shift; ann and the optimizers
    train with gamma 1 and no shift; gamma jitter applies to nrn and ann.
    """
    ok = [i for i, f in enumerate(feats) if not isinstance(f, WeldnetError)]
    if method != "nrn":
        metas = [replace(m, gamma=1.0) for m in metas]
    outcomes = mdl.train_seeded(
        metas * len(ok), [X for i in ok for X in feats[i][1]],
        [y for i in ok for y in splits[i][0].targets.T],
        [seeds[i] for i in ok for _ in names], list(names) * len(ok),
        use_tau=use_tau and method == "nrn",
        gamma_jitter=gamma_jitter and method in ("nrn", "ann"),
        rule_for=(None if method in ("nrn", "ann")
                  else baselines.optimizer_rules(method, **opt_hyper)))
    n = len(names)
    return {i: outcomes[j * n:(j + 1) * n] for j, i in enumerate(ok)}


def _predict_stacked(method, outcomes, feats, te):
    """Test estimates of one seed's stacked blocks; raises the seed's
    feature error or its first divergence (nrn and ann name the target)."""
    if isinstance(feats, WeldnetError):
        raise feats
    names = te.target_names
    blocks = [outcome_block(out, tname if method in ("nrn", "ann") else None)
              for tname, out in zip(names, outcomes)]
    return mdl.predict(mdl.AggregateModel(blocks=blocks, scaler=feats[0],
                                          target_names=list(names)),
                       te.features)


def _fit_predict(method, tr, te, seed, metas, standardize, use_tau,
                 dynamic_width, gamma_jitter, ner_degree, mcr_params):
    """Test estimates of a method that is not stacked: nrn and ann at
    dynamic width, ner and mcr."""
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
    methods = [m for m in (args.methods or _setting(
        cfg, "methods", "nrn,ann", "a string")).split(",") if m]
    seeds = _parse_seeds(args, cfg)
    split_fraction = (args.split if args.split is not None
                      else float(_setting(cfg, "split_fraction", 0.2, "a number")))
    use_tau = not args.no_tau and _setting(cfg, "use_tau", True, "true or false")
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
