"""Aggregate estimator: one independently-trained block per target column,
an optional input scaler, runtime hidden-width resizing, and JSON persistence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import dataset as ds
from .block import (
    REINFORCED,
    BlockMetaParams,
    RegressionBlock,
    TrainingTrace,
    blocks_output,
    cost,
    init_block,
    is_count,
    is_real,
    run_blocks,
    run_steps,
    trained_block,
    violation,
)
from .errors import (
    DimensionMismatch,
    Diverged,
    FormatError,
    IoError,
    TooFewRows,
    WeldnetError,
)
from .rng import derive_seed
from .workers import map_tasks

MODEL_FILE_VERSION = 1

RESIZE_PERIOD = 250      # training iterations between width probes
PROBE_ITERATIONS = 50    # probe budget per candidate width
RESIZE_MARGIN = 1e-4     # relative validation-cost improvement to adopt
VAL_FRACTION = 0.2       # rows carved out for width probes


@dataclass
class AggregateModel:
    """Deployable estimator: N blocks, one per target, plus the input scaler."""

    blocks: list
    scaler: ds.ScalerParams | None
    target_names: list

    def __post_init__(self):
        if len(self.blocks) != len(self.target_names):
            raise ValueError("need exactly one block per target")

    @property
    def input_dim(self) -> int:
        if self.scaler is not None:
            return len(self.scaler.means)
        b = self.blocks[0]
        return b.input_dim // (b.meta.degree + 1)


def train_all(metas, train_data: ds.Dataset, seed: int, standardize: bool = True,
              use_tau: bool = True, dynamic_width: bool = False,
              gamma_jitter: bool = False):
    """Train one block per target column; returns (AggregateModel, traces).

    Each block gets a seed derived from (seed, target name), so results do
    not depend on target order.  A run of train_models: a divergence raises
    Diverged naming the first diverging target in column order.
    """
    (out,) = train_models([(metas, train_data, seed, use_tau,
                            gamma_jitter, dynamic_width, REINFORCED)],
                          standardize)
    if isinstance(out, Exception):
        raise out
    return out


def train_models(runs, standardize: bool = True) -> list:
    """Train many models at once.  Each run is (metas, data, seed, use_tau,
    gamma_jitter, dynamic_width, rule) and trains one block per target
    column of data, the k-th from metas[k], initialized from
    derive_seed(seed, target name), on data's features prepared (fitting
    the scaler if standardize) for its degree.  Returns per run
    (AggregateModel, traces), or the error it ended in, unraised: the
    WeldnetError preparing its features raised, or its first error outcome
    in target order, a Diverged naming its target.  Runs with the same
    data object and degrees share one preparation.

    At fixed width the blocks of every run train as stacks through one
    block.run_blocks call, with the run's update rule.  With dynamic_width
    a run's blocks train with the reinforced rule alone (_train_dynamic),
    holding out a validation slice and probing neighboring hidden widths
    every RESIZE_PERIOD iterations, all such blocks of the call at the same
    time on forked workers (workers.map_tasks).  With gamma_jitter, a block
    draws its gamma noise from derive_seed(seed, target name, "jitter").
    """
    runs = [(list(metas), *rest) for metas, *rest in runs]
    prepared, feats, jobs = {}, [], ([], [])
    for r, (metas, data, seed, tau_on, jitter_on, dynamic, rule) in enumerate(runs):
        if len(metas) != data.n_targets:
            raise ValueError(f"need {data.n_targets} meta sets, got {len(metas)}")
        key = id(data), tuple(meta.degree for meta in metas)
        if key not in prepared:
            try:
                prepared[key] = ds.prepare_features(data.features, key[1],
                                                    fit=standardize)
            except WeldnetError as exc:
                prepared[key] = exc
        feats.append(prepared[key])
        if not isinstance(feats[-1], WeldnetError):
            # _train_dynamic's arguments, after the run index and rule
            jobs[bool(dynamic)].extend(
                (r, rule, init_block(meta, X.shape[1], derive_seed(seed, name)),
                 X, y, tau_on, np.random.default_rng(
                     derive_seed(seed, name, "jitter")) if jitter_on else None,
                 seed, name)
                for meta, X, y, name in zip(metas, feats[-1][1], data.targets.T,
                                            data.target_names))
    fixed, dynamic = jobs
    _, rules, blocks, inputs, targets, use_tau, rngs, _, _ = map(
        list, zip(*fixed) if fixed else [()] * 9)
    outcomes = run_blocks(blocks, inputs, targets,
                          [blk.meta.iterations for blk in blocks], use_tau,
                          rngs if any(rngs) else None, rules)
    if dynamic:
        outcomes += map_tasks(_train_dynamic, [job[2:] for job in dynamic])
    by_run = [[] for _ in runs]
    for job, out in zip(fixed + dynamic, outcomes):
        by_run[job[0]].append(out)
    results = []
    for (_, data, *_), result, outs in zip(runs, feats, by_run):
        if not isinstance(result, WeldnetError):
            try:
                blocks, traces = zip(*(trained_block(out, name) for name, out
                                       in zip(data.target_names, outs)))
                result = (AggregateModel(list(blocks), result[0],
                                         list(data.target_names)), list(traces))
            except WeldnetError as exc:
                result = exc
        results.append(result)
    return results


def _train_dynamic(block, X, y, use_tau, jitter_rng, seed, tname):
    """One target's dynamic-width training of block, a map_tasks task:
    RESIZE_PERIOD iterations at a time on the rows of X and y that
    ds.split_rows keeps for fitting, with width probes on the held-out
    validation rows between them; seed and tname seed the split and the
    probes.  Each segment's iterations, numbered from 1 by run_steps, are
    renumbered to follow the segments before it.  Returns (block,
    TrainingTrace), or the error it ended in, unraised: TooFewRows, or a
    Diverged at its iteration of the whole run, carrying the trace of every
    iteration before it."""
    if y.size < 3:
        return TooFewRows("dynamic width needs at least 3 training rows")
    fit, val = ds.split_rows(y.size, VAL_FRACTION, derive_seed(seed, tname, "val"))
    X, y, Xv, yv = X[fit], y[fit], X[val], y[val]
    trace = TrainingTrace(np.empty((6, 0)))
    while True:
        n = min(RESIZE_PERIOD, block.meta.iterations - len(trace))
        try:
            block, seg = run_steps(block, X, y, n, use_tau, jitter_rng)
        except Diverged as exc:
            return Diverged(iteration=len(trace) + exc.iteration,
                            trace=trace.then(exc.trace))
        trace = trace.then(seg)
        if len(trace) == block.meta.iterations:
            return block, trace
        block = resize_hidden(block, X, y, Xv, yv,
                              derive_seed(seed, tname, "resize", len(trace)),
                              use_tau=use_tau)


def _candidate_widths(k: int) -> list:
    return sorted(w for w in {k - 1, k, k + 1} if violation("neurons", w) is None)


def _resize_width(block: RegressionBlock, width: int, rng) -> RegressionBlock:
    """Copy of the block grown or shrunk to the given hidden width.

    Growth gives the new unit uniform(-0.01, 0.01) weights and zero bias:
    in each matrix, input side first, a column where the unit is an output,
    then a row where it is an input.  Shrinkage drops the unit whose theta1
    column has the least norm: its column and row in every matrix.
    """
    k = block.width
    if width == k:
        return block
    if abs(width - k) != 1:
        raise ValueError(f"can only resize by one unit, got {k} -> {width}")
    if width < k:
        with np.errstate(over="ignore"):  # a norm beyond the float range is inf
            j = int(np.argmin(np.linalg.norm(block.theta1, axis=0)))
    mats = block.matrices()
    for i, th in enumerate(mats):
        is_out, is_in = i < len(mats) - 1, i > 0  # the unit's roles in th
        if width < k:
            th = np.delete(th, j, axis=1) if is_out else th
            mats[i] = np.delete(th, 1 + j, axis=0) if is_in else th
            continue
        rows, cols = th.shape
        mats[i] = np.zeros((rows + is_in, cols + is_out))
        mats[i][:rows, :cols] = th
        if is_out:
            mats[i][1:, cols] = rng.uniform(-0.01, 0.01, rows - 1 + is_in)
        if is_in:
            mats[i][rows, :cols] = rng.uniform(-0.01, 0.01, cols)
    return replace(block, theta1=mats[0], hidden=mats[1:-1], theta2=mats[-1],
                   meta=replace(block.meta, neurons=width))


def resize_hidden(block: RegressionBlock, X: np.ndarray, y: np.ndarray,
                  Xv: np.ndarray, yv: np.ndarray, seed: int,
                  use_tau: bool = True) -> RegressionBlock:
    """Probe widths {k-1, k, k+1} and adopt a better one, else stay put.

    Every candidate (current width included) is probe-trained for
    PROBE_ITERATIONS from the current weights on the fit rows X (m, d) and
    targets y (m,), all of them in one run_blocks call, and scored on the
    validation rows Xv and yv.  The other width of least finite validation
    cost (the smaller on a tie) is adopted only if that cost beats the
    probed current width by RESIZE_MARGIN relative and does not exceed the
    block's entry validation cost.  With no adoption the original block is
    returned untouched.  Rows whose width is not the block's input width,
    or targets whose length is not their rows', raise DimensionMismatch:
    the validation rows' up front, the fit rows' from the probe training.
    """
    if np.ndim(yv) != 1 or np.shape(Xv) != (len(yv), block.input_dim):
        raise DimensionMismatch(f"validation rows {np.shape(Xv)} and targets "
                                f"{np.shape(yv)} for {block.input_dim} inputs")
    widths = _candidate_widths(block.width)
    cands = [_resize_width(block, w, np.random.default_rng(
        derive_seed(seed, "width", w))) for w in widths]
    outs = run_blocks(cands, [X] * len(cands), [y] * len(cands),
                      PROBE_ITERATIONS, use_tau=use_tau)
    probed = {w: (None, np.inf) if isinstance(out, Diverged)
              else (out[0], cost(out[0], Xv, yv)) for w, out in zip(widths, outs)}

    best_cost, best_w = min(((c, w) for w, (_, c) in probed.items()
                             if w != block.width and np.isfinite(c)),
                            default=(np.inf, None))
    if (best_cost < probed[block.width][1] * (1.0 - RESIZE_MARGIN)
            and best_cost <= cost(block, Xv, yv)):
        return probed[best_w][0]
    return block


def predict(model: AggregateModel, X_raw: np.ndarray) -> np.ndarray:
    """Estimates (n, N) for every target; column k comes from block k.
    Same-shape blocks go through block.stack_output as one stack, with one
    buffer set per call for all n rows.  Where the arithmetic overflows,
    the estimate is inf or nan, without a warning."""
    X_raw = np.asarray(X_raw, dtype=np.float64)
    if X_raw.ndim != 2 or X_raw.shape[1] != model.input_dim:
        raise DimensionMismatch(
            f"expected {model.input_dim} feature columns, got {X_raw.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        _, inputs = ds.prepare_features(
            X_raw, [blk.meta.degree for blk in model.blocks], model.scaler)
        return np.column_stack(blocks_output(model.blocks, inputs))


def _mat_to_doc(mat: np.ndarray) -> dict:
    return {"rows": mat.shape[0], "cols": mat.shape[1],
            "data": [float(v) for v in mat.ravel()]}


def _get(doc, key: str, where: str):
    """doc[key], or a FormatError naming what is missing."""
    if not isinstance(doc, dict):
        raise FormatError(MODEL_FILE_VERSION, f"{where} is not a JSON object")
    if key not in doc:
        raise FormatError(MODEL_FILE_VERSION, f"{where} has no {key!r}")
    return doc[key]


def _list(doc, key: str, where: str) -> list:
    value = _get(doc, key, where)
    if not isinstance(value, list):
        raise FormatError(MODEL_FILE_VERSION, f"{where}.{key} is not a list")
    return value


def _floats(values, where: str) -> np.ndarray:
    """A list of finite numbers (block.is_real) as a float64 array, or a
    FormatError naming the first value that is not one."""
    if not isinstance(values, list):
        raise FormatError(MODEL_FILE_VERSION, f"{where} is not a list")
    try:  # is_real's test in bulk: a JSON number loads as an int or a float
        out = np.array(values, dtype=np.float64)
        ok = {*map(type, values)} <= {int, float} and np.isfinite(out).all()
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        i = next(i for i, v in enumerate(values) if not is_real(v))
        raise FormatError(MODEL_FILE_VERSION, f"{where}[{i}] must be a finite "
                                              f"number, got {values[i]!r}")
    return out


def _mat_from_doc(doc, where: str, rows=None, cols=None) -> np.ndarray:
    """Matrix of a model file, checked against its own rows x cols and the
    shape the block's meta-parameters imply (rows/cols None: unchecked)."""
    r, c = _get(doc, "rows", where), _get(doc, "cols", where)
    data = _floats(_get(doc, "data", where), f"{where}.data")
    if not all(is_count(v) and v >= 0 for v in (r, c)):
        raise FormatError(MODEL_FILE_VERSION, f"{where} rows/cols are not counts")
    if data.size != r * c:
        raise FormatError(MODEL_FILE_VERSION,
                          f"{where} has {data.size} values for {r} x {c}")
    if (rows is not None and r != rows) or (cols is not None and c != cols):
        raise FormatError(MODEL_FILE_VERSION,
                          f"{where} is {r} x {c}, expected {rows} x {cols}")
    return data.reshape(r, c)


def _block_from_doc(bdoc, where: str, width):
    """(block, raw feature count); width is the model's raw feature count,
    None until a scaler or an earlier block has fixed it."""
    try:
        meta = BlockMetaParams.from_dict(_get(bdoc, "meta", where))
    except KeyError as exc:
        raise FormatError(MODEL_FILE_VERSION,
                          f"{where}.meta has no {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise FormatError(MODEL_FILE_VERSION, f"{where}.meta: {exc}") from exc
    k, powers = meta.neurons, meta.degree + 1
    theta1 = _mat_from_doc(_get(bdoc, "theta1", where), f"{where}.theta1",
                           None if width is None else width * powers + 1, k)
    if width is None:
        width = (theta1.shape[0] - 1) // powers
        if width < 1 or theta1.shape[0] != width * powers + 1:
            raise FormatError(MODEL_FILE_VERSION,
                              f"{where}.theta1 rows do not fit degree {meta.degree}")
    hidden = _list(bdoc, "hidden", where)
    if len(hidden) != meta.depth - 1:
        raise FormatError(MODEL_FILE_VERSION,
                          f"{where} has {len(hidden)} hidden matrices for depth {meta.depth}")
    hidden = [_mat_from_doc(h, f"{where}.hidden[{j}]", k + 1, k)
              for j, h in enumerate(hidden)]
    theta2 = _mat_from_doc(_get(bdoc, "theta2", where), f"{where}.theta2", k + 1, 1)
    tau = _get(bdoc, "tau", where)
    if not is_real(tau):
        raise FormatError(MODEL_FILE_VERSION,
                          f"{where}.tau must be a finite number, got {tau!r}")
    return RegressionBlock(theta1=theta1, theta2=theta2, hidden=hidden,
                           tau=float(tau), meta=meta), width


def save(model: AggregateModel, path) -> None:
    """Write the model as versioned JSON (lossless decimal floats)."""
    doc = {
        "version": MODEL_FILE_VERSION,
        "targets": list(model.target_names),
        "scaler": None if model.scaler is None else {
            "means": [float(v) for v in model.scaler.means],
            "stds": [float(v) for v in model.scaler.stds],
        },
        "blocks": [
            {
                "meta": blk.meta.to_dict(),
                "theta1": _mat_to_doc(blk.theta1),
                "theta2": _mat_to_doc(blk.theta2),
                "hidden": [_mat_to_doc(th) for th in blk.hidden],
                "tau": float(blk.tau),
            }
            for blk in model.blocks
        ],
    }
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def load(path) -> AggregateModel:
    """Read a model written by save(); predictions round-trip exactly."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, or too deep
        raise FormatError(None, f"not valid JSON: {exc}") from exc
    version = doc.get("version") if isinstance(doc, dict) else None
    if not is_count(version) or version != MODEL_FILE_VERSION:
        raise FormatError(version)

    scaler, width = None, None
    sdoc = _get(doc, "scaler", "model")
    if sdoc is not None:
        means = _floats(_get(sdoc, "means", "scaler"), "scaler.means")
        stds = _floats(_get(sdoc, "stds", "scaler"), "scaler.stds")
        try:
            scaler = ds.ScalerParams(means, stds)
        except ValueError as exc:
            raise FormatError(MODEL_FILE_VERSION, f"scaler: {exc}") from exc
        width = len(means)
    targets = _list(doc, "targets", "model")
    if not all(isinstance(t, str) for t in targets) or len(set(targets)) < len(targets):
        raise FormatError(MODEL_FILE_VERSION,
                          f"targets {targets!r} are not distinct strings")
    bdocs = _list(doc, "blocks", "model")
    if not targets or len(bdocs) != len(targets):
        raise FormatError(MODEL_FILE_VERSION,
                          f"{len(bdocs)} blocks for {len(targets)} targets")
    blocks = []
    for i, bdoc in enumerate(bdocs):
        blk, width = _block_from_doc(bdoc, f"blocks[{i}]", width)
        blocks.append(blk)
    return AggregateModel(blocks=blocks, scaler=scaler,
                          target_names=list(targets))
