"""Experiment driver: synthesize data, tune, train, evaluate, compare
methods, and emit plot-ready traces.

Commands: synth, train, eval, search, compare, stats.  Exit codes:
0 success, 2 usage/config error, 3 runtime error (IO or divergence).
Each command imports the modules it runs when it starts (before any
worker is forked), so `synth` and `stats` load no training code.
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

from . import dataset as ds
from .errors import ConfigError, NonFiniteInput, TooFewRows, WeldnetError

METHODS = ("nrn", "ann", "adagrad", "rmsprop", "nesterov", "ner", "mcr")
# Methods that train one block per target; compare trains all of them on
# every (seed, target) at once, through model.train_models.
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
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""),
              file=sys.stderr)
        return 3


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out-dir")
    common.add_argument("--config", help="JSON config file; flags override it")

    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", help="CSV path(s), comma separated "
                                     "(default: the config's data)")

    scaled = argparse.ArgumentParser(add_help=False, parents=[data])
    scaled.add_argument("--no-standardize", dest="standardize",
                        action="store_false", default=None,
                        help="feed raw (unscaled) features to the blocks")

    training = argparse.ArgumentParser(add_help=False, parents=[scaled])
    training.add_argument("--params", help="best-params JSON from search")
    training.add_argument("--no-tau", dest="use_tau", action="store_false",
                          default=None, help="disable the output shift tau")
    training.add_argument("--gamma-jitter", action="store_true", default=None)
    training.add_argument("--dynamic-width", action="store_true", default=None,
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

    p = sub.add_parser("train", parents=[common, training],
                       help="train a model and write model + trace files")
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

    p = sub.add_parser("search", parents=[common, scaled],
                       help="grid-search block hyperparameters per target")
    p.add_argument("--space", help="JSON file with candidate value lists")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--max-points", type=int)
    p.add_argument("--target", default="all", help="target name or 'all'")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("compare", parents=[common, training],
                       help="train every requested method over every seed")
    p.add_argument("--methods",
                   help=f"comma list from {','.join(METHODS)} (default nrn,ann)")
    p.add_argument("--seeds", help="comma list of seeds (default: --seed)")
    p.add_argument("--split", dest="split_fraction", type=float,
                   help="test fraction in (0, 1), default 0.2")
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
    except (OSError, ValueError, RecursionError) as exc:  # too deeply nested
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
    from .block import violation
    what = violation("degree", degree)
    if what:
        raise ConfigError(f"{flag} must be {what}, got {degree!r}")


def _check_keys(doc: dict, known, what: str, where: str = "") -> None:
    """ConfigError naming the first key of doc, in sorted order, that known
    lacks, and listing the known keys."""
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ConfigError(f"unknown {what} {unknown[0]!r}{where} "
                          f"(known: {', '.join(known)})")


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


# Every config key -> (form, default): form is a key of _FORMS, or None for
# a value checked where it is read.  A flag that mirrors a key stores under
# the key's name with default None, so _settings sees whether it was given.
SETTINGS = {
    "data": ("a string or a list of strings", None),
    "out_dir": ("a string", "."),
    "params": ("a string", None),
    "standardize": ("true or false", True),
    "dynamic_width": ("true or false", False),
    "use_tau": ("true or false", True),
    "gamma_jitter": ("true or false", False),
    "seeds": ("a list of integers", None),
    "methods": ("a string", "nrn,ann"),
    "split_fraction": ("a number", 0.2),
    "metas": (None, {}),
    "search_space": (None, {}),
}


def _settings(args) -> dict:
    """Every SETTINGS key resolved: its flag if the flag was given, else the
    --config value (null means absent), else the default.  An unknown
    config key, or a value not of its key's form, is a config error."""
    cfg = (_json_object(_read_json(args.config, "config"), "config root")
           if args.config else {})
    _check_keys(cfg, SETTINGS, "config key")
    resolved = {}
    for key, (form, default) in SETTINGS.items():
        value = cfg.get(key)
        if value is not None and form and not _FORMS[form](value):
            raise ConfigError(f"config {key!r} must be {form}, got {value!r}")
        flag = getattr(args, key, None)
        resolved[key] = (flag if flag is not None
                         else default if value is None else value)
    return resolved


def _out_dir(s) -> Path:
    out = Path(s["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_data(s) -> ds.Dataset:
    if not s["data"]:
        raise ConfigError("no input data given")
    paths = s["data"].split(",") if isinstance(s["data"], str) else s["data"]
    return ds.combine([ds.load_csv(p) for p in paths])


def _json_object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return doc


def _metas_for(data: ds.Dataset, s) -> list:
    """One BlockMetaParams per target, keyed by target name."""
    from .block import BlockMetaParams
    by_name = {**_json_object(s["metas"], "config 'metas'")}
    if s["params"]:
        doc = _json_object(_read_json(s["params"], "params"),
                           f"params {s['params']}")
        by_name.update(_json_object(doc.get("targets", doc),
                                    f"'targets' in params {s['params']}"))
    metas = []
    for name in data.target_names:
        raw = _json_object(by_name.get(name, DEFAULT_META),
                           f"meta-parameters for {name!r}")
        _check_keys(raw, DEFAULT_META, "meta-parameter", f" for {name!r}")
        with _config(f"meta-parameters for {name!r}"):
            metas.append(BlockMetaParams.from_dict({**DEFAULT_META, **raw}))
    return metas


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


def _target_paths(out: Path, pattern: str, keys) -> list:
    """out / pattern filled with the safe names of each key (a tuple of
    target names), in keys order; a ConfigError naming both keys if two of
    them would write one file."""
    paths = {}
    for key in keys:
        path = out / pattern.format(*map(_safe_name, key))
        if path in paths:
            raise ConfigError(f"targets {'~'.join(paths[path])!r} and "
                              f"{'~'.join(key)!r} would both write {path.name}")
        paths[path] = key
    return list(paths)


def _parse_seeds(seeds, seed: int) -> list:
    """A --seeds comma list, the config's list, or [seed] if that is empty."""
    if isinstance(seeds, str):
        try:
            seeds = [int(p) for p in seeds.split(",") if p != ""]
        except ValueError as exc:
            raise ConfigError(f"bad --seeds: {exc}") from exc
    elif not seeds:
        seeds = [seed]
    if any(s < 0 for s in seeds):
        raise ConfigError(f"seeds must be >= 0, got {seeds}")
    return seeds


def _scores(y, yhat) -> tuple:
    """(rmse, pe_percent, pe_excluded) of one target's estimates."""
    from . import metrics
    return (metrics.rmse(y, yhat), *metrics.pe(y, yhat))


def _report(path, text: str) -> None:
    """Write a text report and echo it to stdout."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(text, end="")


# --- commands ---


def cmd_synth(args) -> int:
    s = _settings(args)
    with _config("synth arguments"):
        data = ds.synthesize_weld(args.rows, args.noise, args.seed)
    path = _out_dir(s) / args.out  # an absolute --out replaces --out-dir
    ds.save_csv(data, path)
    print(f"wrote {path}: {data.m} rows, {data.d} features, "
          f"{data.n_targets} targets")
    return 0


def cmd_train(args) -> int:
    from . import model as mdl
    s = _settings(args)
    out = _out_dir(s)
    data = _load_data(s)
    trace_paths = _target_paths(out, "trace_{}.csv",
                                [(t,) for t in data.target_names])
    model, traces = mdl.train_all(
        _metas_for(data, s), data, args.seed, standardize=s["standardize"],
        use_tau=s["use_tau"], dynamic_width=s["dynamic_width"],
        gamma_jitter=s["gamma_jitter"])
    model_path = out / "model.json"
    mdl.save(model, model_path)
    for path, trace in zip(trace_paths, traces):
        trace.write_csv(path)
    widths = ",".join(str(b.width) for b in model.blocks)
    print(f"wrote {model_path} (hidden widths: {widths}) and "
          f"{len(traces)} trace file(s) to {out}")
    return 0


def cmd_eval(args) -> int:
    from . import metrics, model as mdl
    s = _settings(args)
    if bool(args.model) == bool(args.ner_train):
        raise ConfigError("give exactly one of --model or --ner-train")
    if args.ner_train:
        _check_degree(args.degree, "--degree")
    out = _out_dir(s)
    test = _load_data(s)
    if args.model:
        model = mdl.load(args.model)
        if model.target_names != test.target_names:
            raise ConfigError(
                f"model targets {model.target_names} do not match "
                f"data targets {test.target_names}")
        preds = mdl.predict(model, test.features)
    else:
        from . import baselines
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


def _space_from_doc(doc: dict):
    """The SearchSpace of a space document over DEFAULT_SPACE."""
    from . import search as srch
    _check_keys(_json_object(doc, "search space"), DEFAULT_SPACE,
                "search space key")
    with _config("search space"):
        merged = {**DEFAULT_SPACE, **doc}
        return srch.SearchSpace(
            neurons=tuple(merged["neurons"]), alpha=tuple(merged["alpha"]),
            gamma=tuple(merged["gamma"]), lam=tuple(merged["lambda"]),
            iterations=tuple(merged["iterations"]),
            depth=tuple(merged["depth"]), degree=tuple(merged["degree"]))


def cmd_search(args) -> int:
    from . import search as srch
    s = _settings(args)
    doc = _read_json(args.space, "space") if args.space else s["search_space"]
    space = _space_from_doc(doc)
    with _config("search arguments"):
        srch.check_grid_args(args.folds, args.max_points)
    out = _out_dir(s)
    data = _load_data(s)

    if args.target == "all":
        targets = list(enumerate(data.target_names))
    else:
        if args.target not in data.target_names:
            raise ConfigError(f"unknown target {args.target!r}")
        targets = [(data.target_names.index(args.target), args.target)]
    board_paths = _target_paths(out, "leaderboard_{}.csv",
                                [(tname,) for _, tname in targets])

    best_by_target = {}
    results = srch.grid_search_targets(
        space, data, [k for k, _ in targets], folds=args.folds, seed=args.seed,
        standardize=s["standardize"], max_points=args.max_points)
    for (_, tname), board_path, (best, board) in zip(targets, board_paths, results):
        best_by_target[tname] = best.to_dict()
        srch.write_leaderboard_csv(board, board_path)
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
    from . import baselines, metrics, model as mdl
    from .block import REINFORCED
    methods = list(methods)
    if not methods:
        raise ConfigError("at least one method is required")
    for meth in methods:
        if meth not in METHODS:
            raise ConfigError(f"unknown method {meth!r}")
    seeds = list(seeds)
    if not seeds:
        raise ConfigError("at least one seed is required")
    repeated = [s for i, s in enumerate(seeds) if s in seeds[:i]]
    if repeated:
        raise ConfigError(f"seed {repeated[0]} is listed more than once")
    if not (0.0 < split_fraction < 1.0):
        raise ConfigError("split fraction must be in (0, 1)")
    _check_degree(ner_degree, "--ner-degree")
    metas = list(metas)
    opt_hyper = {**DEFAULT_OPT_HYPER, **(opt_hyper or {})}
    mcr_params = mcr_params or baselines.McrParams(
        alpha=0.3, lam=0.0, degree=0, iterations=1000)

    splits = [ds.split(data, split_fraction, seed) for seed in seeds]
    # One model per (block method, seed): nrn keeps the metas' gamma and
    # the output shift; ann and the optimizers train with gamma 1 and no
    # shift; dynamic width and gamma jitter apply to nrn and ann.
    rules = {m: REINFORCED if m in ("nrn", "ann") else
             baselines.OptimizerRule(baselines.OptimizerState(m, **opt_hyper))
             for m in dict.fromkeys(methods) if m in BLOCK_METHODS}
    keys = [(m, i) for m in rules for i in range(len(seeds))]
    trained = dict(zip(keys, mdl.train_models(
        [([meta if m == "nrn" else replace(meta, gamma=1.0) for meta in metas],
          splits[i][0], seeds[i], use_tau and m == "nrn",
          gamma_jitter and m in ("nrn", "ann"),
          dynamic_width and m in ("nrn", "ann"), rules[m]) for m, i in keys],
        standardize)))

    records = []
    for i, (seed, (tr, te)) in enumerate(zip(seeds, splits)):
        for method in methods:
            if standardize and method != "ner" and tr.m < 2:
                raise TooFewRows(f"the training split of seed {seed} has "
                                 f"{tr.m} row; standardize needs at least 2 rows")
            if method in BLOCK_METHODS:
                model = trained[(method, i)]
                if isinstance(model, WeldnetError):
                    raise model
                preds = mdl.predict(model[0], te.features)
            else:
                preds = _fit_predict(method, tr, te, seed, standardize,
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


def _fit_predict(method, tr, te, seed, standardize, ner_degree, mcr_params):
    """Test estimates of a method that trains no blocks: ner or mcr."""
    from . import baselines
    from .rng import derive_seed
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
    from . import baselines, metrics
    s = _settings(args)
    opt_hyper = {"eta": args.eta, "rho": args.rho,
                 "momentum": args.momentum, "eps": args.eps}
    with _config("compare arguments"):
        mcr_params = baselines.McrParams(
            alpha=args.mcr_alpha, lam=args.mcr_lambda, degree=args.mcr_degree,
            iterations=args.mcr_iterations)
        baselines.OptimizerState("adagrad", **opt_hyper)  # checks the values
    out = _out_dir(s)
    data = _load_data(s)
    methods = [m for m in s["methods"].split(",") if m]
    records, summary = run_comparison(
        data, methods, _metas_for(data, s),
        _parse_seeds(s["seeds"], args.seed), s["split_fraction"],
        standardize=s["standardize"], use_tau=s["use_tau"],
        dynamic_width=s["dynamic_width"], gamma_jitter=s["gamma_jitter"],
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
    from . import metrics
    s = _settings(args)
    out = _out_dir(s)
    data = _load_data(s)
    names = data.target_names
    pairs = [(a, b) for a in range(len(names)) for b in range(a + 1, len(names))]
    fit_paths = _target_paths(out, "fit_{}_vs_{}.csv",
                              [(names[a], names[b]) for a, b in pairs])
    rows = []  # a, b, pearson r and p, spearman, kendall, slope, intercept
    for (a, b), fit_path in zip(pairs, fit_paths):
        x, y = data.targets[:, a], data.targets[:, b]
        corr = (*metrics.pearson(x, y), metrics.spearman(x, y),
                metrics.kendall(x, y))
        slope, intercept = metrics.line_fit(x, y)
        rows.append((names[a], names[b], *corr, slope, intercept))
        order = np.argsort(x)
        xs, ys = x[order], y[order]
        with np.errstate(over="ignore", invalid="ignore"):
            fitted = slope * xs + intercept
        if not np.isfinite(fitted).all():
            raise NonFiniteInput(f"a fitted {names[b]} value is beyond the "
                                 f"float range")
        ds.write_csv(fit_path, [names[a], names[b], "fitted"],
                     np.column_stack([xs, ys, fitted]))

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
