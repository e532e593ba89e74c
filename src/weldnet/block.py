"""Regression blocks: sigmoid hidden layers, a linear output with a learned
scalar shift, and full-batch backpropagation whose gradient matrices are
scaled by a reinforcement coefficient before every weight update.

Shape conventions: samples are rows.  With m samples, d inputs, and width k,
theta1 is (d+1) x k, each extra hidden matrix is (k+1) x k, and theta2 is
(k+1) x 1; row 0 of every matrix holds the bias weights fed by an appended
all-ones column.

Training is B-way: a BlockStack holds B same-shape blocks, all their
weights in one (B, P) buffer viewed as every weight matrix stacked on a
leading axis, (B, rows, cols), and trains them on inputs (B, m, d) against
targets (B, m).  run_stack is the one training
loop, every step writing into one Workspace made for the stack's shape;
each backprop_step picks every block's shift tau from {-nu, 0, +nu}
(nu: that block's previous mean error), or 0 for a block with the shift
off, and hands the gamma-scaled gradients to each block's update rule,
which chooses where they are taken (look_ahead) and the new weights
(update).  The shift and the rule are per block: a stack's blocks that
share a rule are consecutive, and the rule works on their rows.
ReinforcedRule is the default; the plain ANN uses it with gamma = 1 and
tau off, the optimizer baselines plug in their own rules.  A single block
is a stack of one: run_steps and train are B = 1 calls of the same loop.
run_blocks trains any list of blocks, each on its own data, grouping those
of one shape into stacks whatever their rules, and cuts a group of at
least 2 * PART_BLOCKS blocks into sub-stacks that train at the same time,
one per usable CPU, on forked workers (workers.map_tasks).
stack_output (and blocks_output over any list of blocks) is the forward
pass alone: tau-shifted outputs for any number of rows, through one buffer
set per call, in OUTPUT_ROWS tiles with the bits of a single pass.

Every per-block quantity is computed slice by slice in the rounding order of
a lone block, so a block's weights, shifts and trace do not depend on what
it is stacked with.  A block whose cost or weights turn non-finite gets its
own Diverged and stays in the stack, masked; the others carry on.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import workers
from .dataset import MAX_DEGREE, MIN_DEGREE, write_csv
from .errors import DimensionMismatch, Diverged

MIN_NEURONS, MAX_NEURONS = 2, 100
MIN_DEPTH, MAX_DEPTH = 1, 4
MIN_ITERATIONS, MAX_ITERATIONS = 1000, 12000
# BlockMetaParams fields that count something: an int, not a float or bool.
INTEGER_FIELDS = ("neurons", "depth", "degree", "iterations")

# Rows stack_output passes through each hidden matmul at a time, reusing one
# buffer set, where one pass over 10^5 rows would allocate tens of MB per
# layer.  BLAS can pick another kernel, with other last bits, for a matmul
# of fewer rows; at 32768 rows or more it picked the single pass's kernel
# for every hidden matrix shape tried.
OUTPUT_ROWS = 32768

# Rows of one OUTPUT_ROWS tile that stack_output's sigmoid and its copy into
# the next layer input take at a time, so that their passes stay in cache.
# Elementwise ufuncs give an element the same bits at any offset, so this
# changes no result.  predict on 10^5 rows at widths 41 and 40 (depth 3, a
# 2-vCPU VM), median time relative to one training Workspace per tile
# length: 256 rows 0.68, 512 0.61, 1024 0.56, 2048 0.56, 4096 0.62, whole
# tiles 0.69.
SIGMOID_ROWS = 1024


def is_count(value) -> bool:
    """Whether value is an integer (numpy's too) and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether value is a real number (numpy's too) with a finite float
    value, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def check_fields(obj, counts=(), reals=()) -> None:
    """ValueError unless every field of obj named in counts is an integer
    (is_count) and every one named in reals a finite number (is_real)."""
    for names, ok, kind in ((counts, is_count, "an integer"),
                            (reals, is_real, "a finite number")):
        for name in names:
            if not ok(getattr(obj, name)):
                raise ValueError(f"{name} must be {kind}, got {getattr(obj, name)!r}")


@dataclass(frozen=True)
class BlockMetaParams:
    """Per-block hyperparameters.

    gamma multiplies every gradient matrix before the weight update; lam is
    the L2 coefficient on non-bias weights; degree counts extra per-feature
    polynomial powers applied to the block's inputs.
    """

    neurons: int
    alpha: float
    gamma: float
    lam: float
    iterations: int
    depth: int = 1
    degree: int = 0

    def __post_init__(self):
        check_fields(self, INTEGER_FIELDS, ("alpha", "gamma", "lam"))
        if not (MIN_NEURONS <= self.neurons <= MAX_NEURONS):
            raise ValueError(f"neurons must be in [{MIN_NEURONS}, {MAX_NEURONS}]")
        if not (MIN_DEPTH <= self.depth <= MAX_DEPTH):
            raise ValueError(f"depth must be in [{MIN_DEPTH}, {MAX_DEPTH}]")
        if not (MIN_DEGREE <= self.degree <= MAX_DEGREE):
            raise ValueError(f"degree must be in [{MIN_DEGREE}, {MAX_DEGREE}]")
        if not self.alpha > 0:
            raise ValueError("alpha must be > 0")
        if not self.gamma > 0:
            raise ValueError("gamma must be > 0")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if not (MIN_ITERATIONS <= self.iterations <= MAX_ITERATIONS):
            raise ValueError(
                f"iterations must be in [{MIN_ITERATIONS}, {MAX_ITERATIONS}]")

    def to_dict(self) -> dict:
        return {"neurons": self.neurons, "depth": self.depth, "degree": self.degree,
                "alpha": self.alpha, "gamma": self.gamma, "lambda": self.lam,
                "iterations": self.iterations}

    @classmethod
    def from_dict(cls, d: dict) -> "BlockMetaParams":
        """The meta of a to_dict dict; alpha, gamma and lambda turn into
        floats if they are finite numbers, and are rejected otherwise."""
        def real(key):
            return float(d[key]) if is_real(d[key]) else d[key]
        return cls(neurons=d["neurons"], alpha=real("alpha"),
                   gamma=real("gamma"), lam=real("lambda"),
                   iterations=d["iterations"], depth=d.get("depth", 1),
                   degree=d.get("degree", 0))


@dataclass
class RegressionBlock:
    """Weights and per-iteration state of one regression block; nu is None
    until the first iteration, which takes the error of all-zero estimates."""

    theta1: np.ndarray
    theta2: np.ndarray
    hidden: list
    tau: float
    meta: BlockMetaParams
    nu: float | None = None

    @property
    def input_dim(self) -> int:
        return self.theta1.shape[0] - 1

    @property
    def width(self) -> int:
        return self.theta1.shape[1]

    def matrices(self) -> list:
        """All weight matrices, input side first: [theta1, hidden..., theta2]."""
        return [self.theta1] + list(self.hidden) + [self.theta2]


@dataclass(frozen=True)
class TraceRecord:
    """Scalars recorded for one training iteration.

    cost is the regularized cost of the selected shift at the pre-update
    weights; cost_tau_zero is the zero-shift candidate from the same
    evaluation (kept in memory for audits, not serialized).
    """

    iteration: int
    cost: float
    grad1_norm: float
    grad2_norm: float
    tau: float
    nu: float
    cost_tau_zero: float


@dataclass
class TrainingTrace:
    """Per-iteration training log of one block: cols, a (6, n) array whose
    rows are the TraceRecord fields after the iteration (the columns
    run_stack writes), for the iterations numbered from start.  Traces
    compare by value: start, shape and the columns' bits."""

    cols: np.ndarray
    start: int = 1

    def __len__(self):
        return self.cols.shape[1]

    def __eq__(self, other):
        return (isinstance(other, TrainingTrace) and self.start == other.start
                and self.cols.shape == other.cols.shape
                and self.cols.tobytes() == other.cols.tobytes())

    @property
    def records(self) -> tuple:
        """One TraceRecord per iteration, built from the columns."""
        return tuple(TraceRecord(self.start + i, *vals)
                     for i, vals in enumerate(zip(*self.cols.tolist())))

    def then(self, later: "TrainingTrace") -> "TrainingTrace":
        """This trace followed by the iterations of later."""
        return TrainingTrace(np.concatenate([self.cols, later.cols], axis=1),
                             self.start)

    def write_csv(self, path) -> None:
        write_csv(path, ["iter", "cost", "grad1_norm", "grad2_norm", "tau", "nu"],
                  zip(range(self.start, self.start + len(self)),
                      *self.cols[:5].tolist()))


@dataclass
class BlockStack:
    """B same-shape blocks on a leading axis.

    params is one (B, P) buffer holding each block's weights, matrix after
    matrix, each row-major; mats are its (B, rows, cols) views, input side
    first.  tau, alpha, gamma and lam are (B,) vectors; nu is a (B,)
    vector, or None before the first iteration.
    """

    params: np.ndarray
    mats: list
    tau: np.ndarray
    nu: np.ndarray | None
    metas: list
    alpha: np.ndarray
    gamma: np.ndarray
    lam: np.ndarray

    def __len__(self):
        return len(self.metas)


def param_views(flat: np.ndarray, mats) -> list:
    """(B, rows, cols) views of a (B, P) buffer, shaped and ordered like
    the (B, rows, cols) arrays mats, each over its contiguous part of a row."""
    views, start = [], 0
    for th in mats:
        rows, cols = th.shape[1:]
        views.append(flat[:, start:start + rows * cols].reshape(-1, rows, cols))
        start += rows * cols
    return views


def stack_blocks(blocks) -> BlockStack:
    """Stack blocks of one shape; all must have started training, or none."""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("a stack needs at least one block")
    shapes = {tuple(th.shape for th in b.matrices()) for b in blocks}
    if len(shapes) != 1:
        raise DimensionMismatch(f"blocks of different shapes: {sorted(shapes)}")
    started = {b.nu is not None for b in blocks}
    if len(started) != 1:
        raise ValueError("cannot stack started and unstarted blocks")
    metas = [b.meta for b in blocks]
    params = np.array([np.concatenate([th.ravel() for th in b.matrices()])
                       for b in blocks], dtype=np.float64)
    return BlockStack(
        params=params,
        mats=param_views(params, [th[None] for th in blocks[0].matrices()]),
        tau=np.array([b.tau for b in blocks], dtype=np.float64),
        nu=np.array([b.nu for b in blocks]) if started == {True} else None,
        metas=metas,
        alpha=np.array([m.alpha for m in metas], dtype=np.float64),
        gamma=np.array([m.gamma for m in metas], dtype=np.float64),
        lam=np.array([m.lam for m in metas], dtype=np.float64))


def unstack(stack: BlockStack) -> list:
    """One RegressionBlock per stacked block, owning copies of its weights."""
    return [RegressionBlock(
        theta1=stack.mats[0][b].copy(), theta2=stack.mats[-1][b].copy(),
        hidden=[th[b].copy() for th in stack.mats[1:-1]],
        tau=float(stack.tau[b]), meta=meta,
        nu=None if stack.nu is None else float(stack.nu[b]))
        for b, meta in enumerate(stack.metas)]


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic function, branch-free.

    e = exp(-|z|) never overflows (taken as exp(min(z, -z)), which keeps a
    NaN's sign); as 0 <= e <= 1, max(e, z >= 0) is 1 where z >= 0 and e
    elsewhere, so this is 1 / (1 + e) or e / (1 + e), bit for bit.
    """
    z = np.array(z, dtype=np.float64)  # a copy: _sigmoid_into overwrites it
    return _sigmoid_into(z, np.empty(z.shape, dtype=bool),
                         np.empty_like(z) if out is None else out)


def _sigmoid_into(z, mask, out):
    """sigmoid(z) written into out, with z and mask (bool) as scratch."""
    np.greater_equal(z, 0.0, out=mask)
    np.negative(z, out=out)
    np.minimum(z, out, out=z)
    np.exp(z, out=z)
    np.maximum(z, mask, out=out)
    np.add(z, 1.0, out=z)
    return np.divide(out, z, out=out)


def init_block(meta: BlockMetaParams, input_dim: int, seed: int) -> RegressionBlock:
    """Seeded block with uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    if input_dim < 1:
        raise ValueError("input_dim must be >= 1")
    rng = np.random.default_rng(seed)
    k = meta.neurons

    def fresh(rows_in, cols_out):
        limit = np.sqrt(6.0 / (rows_in + cols_out))
        mat = np.zeros((rows_in + 1, cols_out), dtype=np.float64)
        mat[1:] = rng.uniform(-limit, limit, (rows_in, cols_out))
        return mat

    theta1 = fresh(input_dim, k)
    hidden = [fresh(k, k) for _ in range(meta.depth - 1)]
    theta2 = fresh(k, 1)
    return RegressionBlock(theta1=theta1, theta2=theta2, hidden=hidden,
                           tau=0.0, meta=meta)


def _with_bias(B: int, rows: int, cols: int) -> np.ndarray:
    """An empty (B, rows, cols) layer input whose column 0 is all ones."""
    buf = np.empty((B, rows, cols))
    buf[:, :, 0] = 1.0
    return buf


class Workspace:
    """Every array a stack's training steps write, made once for the
    stack's shape, rows X (B, m, d) and targets y (B, m).

    The forward part: inputs, the bias-augmented input of every weight
    matrix (column 0 all ones, the first filled with X here, the others
    with the hidden activations); z and mask, the pre-activation and
    sigmoid scratch of one layer; acts, every hidden activation (B, m, k);
    raw, the unshifted outputs (B, m).  The rest is what a backprop_step
    writes: shift candidates and their residuals and costs, the squared
    weights and the regularizer, the shifted output, the backward deltas,
    the gradients (grad, laid out like stack.params, and deltas, its views
    aligned with stack.mats), the update rules' scratch (step, and decay,
    whose bias entries stay zero), the look-ahead weights (ahead, laid out
    like stack.params, and at, the stack over them), the finite mask, nu,
    and row, the step's trace values (6, B): cost, grad1_norm, grad2_norm,
    tau, nu, cost_tau_zero.  nonbias marks the non-bias entries of a row of
    params; spans gives each matrix's non-bias part as a (start, stop)
    slice.
    """

    def __init__(self, stack: BlockStack, X, y):
        X = _block_rows(stack, X)
        B, m, _ = X.shape
        shapes = [th.shape[1:] for th in stack.mats]
        k = shapes[0][1]
        self.m = m
        self.inputs = [_with_bias(B, m, rows) for rows, _ in shapes]
        self.inputs[0][:, :, 1:] = X
        self.z = np.empty((B, m, k))
        self.mask = np.empty((B, m, k), dtype=bool)
        self.acts = [np.empty((B, m, k)) for _ in shapes[1:]]
        self.raw_col = np.empty((B, m, 1))
        self.raw = self.raw_col[:, :, 0]
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (B, m):
            raise DimensionMismatch(f"targets {y.shape} vs {(B, m)} blocks x samples")
        self.y = y
        self.taus = np.zeros((B, 3))        # shifts 0, -nu, +nu
        self.resid = np.empty((B, 3, m))
        self.sq = np.empty((B, 3, 1, 1))
        self.costs = np.empty((B, 3))
        self.better = np.empty(B, dtype=bool)
        P = stack.params.shape[1]
        self.nonbias = np.zeros(P, dtype=bool)
        self.spans, start = [], 0
        for rows, cols in shapes:
            span = (start + cols, start + rows * cols)
            self.nonbias[span[0]:span[1]] = True
            self.spans.append(span)
            start = span[1]
        self.squares = np.empty((B, P))
        self.reg = np.empty(B)
        self.reg_part = np.empty(B)
        self.lam_reg = np.empty(B)
        self.shifted = np.empty((B, m))
        self.d_out = np.empty((B, m, 1))
        self.back = [np.empty((B, m, k)) for _ in range(min(2, len(shapes) - 1))]
        self.grad = np.empty((B, P))
        self.deltas = param_views(self.grad, stack.mats)
        self.norm_rows = [d.reshape(B, 1, -1) for d in (self.deltas[0], self.deltas[-1])]
        self.norm = np.empty((B, 1, 1))
        self.step = np.empty((B, P))
        self.decay = np.zeros((B, P))
        self.ahead = np.empty((B, P))
        self.at = replace(stack, params=self.ahead,
                          mats=param_views(self.ahead, stack.mats))
        self.ok = np.empty((B, P), dtype=bool)
        self.ok_part = np.empty(B, dtype=bool)
        self.finite = np.empty(B, dtype=bool)
        self.nu = np.empty(B)
        self.row = np.empty((6, B))


def _block_rows(stack: BlockStack, X) -> np.ndarray:
    """X as a float array, checked to be (B, m, d) rows for the stack."""
    X = np.asarray(X, dtype=np.float64)
    d = stack.mats[0].shape[1] - 1
    if X.ndim != 3 or X.shape[0] != len(stack) or X.shape[2] != d:
        raise DimensionMismatch(
            f"expected {len(stack)} blocks x rows x {d} input columns, got {X.shape}")
    return X


def _forward_all(stack: BlockStack, ws: Workspace) -> None:
    """Forward pass at the stack's weights: every hidden activation into
    ws.acts, copied into the non-bias columns of the next layer input, and
    the raw (unshifted) outputs into ws.raw."""
    for th, a_in, act, a_next in zip(stack.mats, ws.inputs, ws.acts, ws.inputs[1:]):
        _sigmoid_into(np.matmul(a_in, th, out=ws.z), ws.mask, act)
        a_next[:, :, 1:] = act
    np.matmul(ws.inputs[-1], stack.mats[-1], out=ws.raw_col)


def stack_output(stack: BlockStack, X) -> np.ndarray:
    """Tau-shifted outputs (B, m) of the stacked blocks for rows X (B, m, d).

    One call allocates its buffers once: the first layer input, one input
    for the hidden layers after it (a layer no longer reads its input once
    its matmul is in z, so it overwrites it with its activations) and the
    pre-activations z, each for the longest OUTPUT_ROWS tile (the last tile
    takes the remainder, so no tile is shorter unless X is); the sigmoid
    scratch for SIGMOID_ROWS rows; and the output matrix's input for all
    rows.  Each hidden matmul is one call per tile, as BLAS can give a
    shorter call other bits; the sigmoid and the copy into the next layer
    input then take the tile's z SIGMOID_ROWS rows at a time.  The output
    matrix is one call over all rows, so the result has the bits of a
    single pass."""
    X = _block_rows(stack, X)
    B, m, d = X.shape
    hidden, out_mat = stack.mats[:-1], stack.mats[-1]
    k = out_mat.shape[1] - 1
    starts = range(0, max(m - OUTPUT_ROWS, 0) + 1, OUTPUT_ROWS)
    T = m - starts[-1]
    first = _with_bias(B, T, d + 1)
    mid = _with_bias(B, T, k + 1) if len(hidden) > 1 else None
    last = _with_bias(B, m, k + 1)
    z = np.empty((B, T, k))
    mask = np.empty((B, min(SIGMOID_ROWS, T), k), dtype=bool)
    act = np.empty(mask.shape)
    for lo, hi in zip(starts, [*starts[1:], m]):
        t = hi - lo
        a_in = first[:, :t]
        a_in[:, :, 1:] = X[:, lo:hi]
        for i, th in enumerate(hidden):
            np.matmul(a_in, th, out=z[:, :t])
            a_in = mid[:, :t] if i < len(hidden) - 1 else last[:, lo:hi]
            for r in range(0, t, SIGMOID_ROWS):
                s = min(SIGMOID_ROWS, t - r)
                _sigmoid_into(z[:, r:r + s], mask[:, :s], act[:, :s])
                a_in[:, r:r + s, 1:] = act[:, :s]
    return weighted_estimate(np.matmul(last, out_mat)[:, :, 0],
                             stack.tau[:, None])


def weighted_estimate(raw: np.ndarray, tau: float) -> np.ndarray:
    """Raw block output shifted by the scalar tau."""
    return np.asarray(raw, dtype=np.float64) + tau


def _reg_sum(stack: BlockStack, ws: Workspace) -> np.ndarray:
    """Per block, the sum of squared non-bias weights over all matrices,
    matrix by matrix, into ws.reg."""
    sq = np.square(stack.params, out=ws.squares)
    for i, (lo, hi) in enumerate(ws.spans):
        np.add.reduce(sq[:, lo:hi], axis=1, out=ws.reg_part if i else ws.reg)
        if i:
            np.add(ws.reg, ws.reg_part, out=ws.reg)
    return ws.reg


def _shift_costs(ws: Workspace, taus: np.ndarray, lam_reg) -> np.ndarray:
    """Regularized cost (B, n) of every shift in taus (B, n): (1/2m) [sum of
    squared residuals against the shifted output + lam * reg]."""
    n = taus.shape[1]
    resid = ws.resid[:, :n]
    np.add(ws.raw[:, None, :], taus[:, :, None], out=resid)
    np.subtract(ws.y[:, None, :], resid, out=resid)
    sq = ws.sq[:, :n]
    np.matmul(resid[:, :, None, :], resid[:, :, :, None], out=sq)
    costs = ws.costs[:, :n]
    np.add(sq[:, :, 0, 0], lam_reg[:, None], out=costs)
    return np.multiply(0.5 / ws.m, costs, out=costs)


def _pick_tau(ws: Workspace, nu, lam_reg, use_tau) -> None:
    """Per block, the shift tau (ws.row[3]) that minimizes the regularized
    cost over {0, -nu, +nu}, or 0 without use_tau, its cost (ws.row[0])
    and the cost at 0 (ws.row[5]).  use_tau is a bool for every block, or
    a (B,) bool mask of the blocks that shift.

    Ties prefer 0, then -nu (the least perturbation first); a NaN cost is
    never picked, so a block the mask leaves out gets NaN candidates for
    -nu and +nu.  Its cost at 0 is computed as for every block.
    """
    taus = ws.taus
    mask = use_tau if isinstance(use_tau, np.ndarray) else None
    shifts = 3 if mask is not None or use_tau else 1
    if shifts == 3:
        np.negative(nu, out=taus[:, 1])
        taus[:, 2] = nu
        if mask is not None:
            taus[~mask, 1:] = np.nan
    costs = _shift_costs(ws, taus[:, :shifts], lam_reg)
    best, tau = ws.row[0], ws.row[3]
    best[:] = costs[:, 0]
    ws.row[5] = best
    tau[:] = 0.0
    for c in range(1, costs.shape[1]):
        np.less(costs[:, c], best, out=ws.better)
        np.copyto(tau, taus[:, c], where=ws.better)
        np.copyto(best, costs[:, c], where=ws.better)


def cost(block: RegressionBlock, X: np.ndarray, y: np.ndarray) -> float:
    """Regularized cost: (1/2m) [sum squared residuals + lam * sum of
    squared non-bias weights], residuals against the tau-shifted output;
    inf or nan, without a warning, where the arithmetic overflows."""
    stack = stack_blocks([block])
    ws = Workspace(stack, np.asarray(X, dtype=np.float64)[None],
                   np.asarray(y, dtype=np.float64)[None])
    with np.errstate(over="ignore", invalid="ignore"):
        _forward_all(stack, ws)
        lam_reg = stack.lam * _reg_sum(stack, ws)
        return float(_shift_costs(ws, stack.tau[:, None], lam_reg)[0, 0])


def block_gradients(stack: BlockStack, ws: Workspace, gamma) -> list:
    """Gamma-scaled gradient matrices into ws.deltas, (B, rows, cols) each,
    aligned with stack.mats (views of ws.grad).

    Each delta equals -m * dJ_data/dtheta * gamma at the stack's weights,
    with J_data the squared-error half-mean against the output shifted by
    ws.row[3]; ws holds what _forward_all produced at those weights.
    """
    mats, inputs, deltas = stack.mats, ws.inputs, ws.deltas
    np.add(ws.raw, ws.row[3][:, None], out=ws.shifted)
    d = ws.d_out
    np.subtract(ws.y, ws.shifted, out=d[:, :, 0])
    np.matmul(inputs[-1].swapaxes(1, 2), d, out=deltas[-1])
    for i in range(len(mats) - 1, 0, -1):
        h, d_in = ws.acts[i - 1], ws.back[(len(mats) - 1 - i) % 2]
        w = mats[i][:, 1:].swapaxes(1, 2)
        if i == len(mats) - 1:
            # theta2 has one column, so each element of d @ w is the single
            # product 0 + d * w: einsum's outer product forms the same bits
            # without a K = 1 matmul
            np.einsum("bj,bl->bjl", d[:, :, 0], w[:, 0], out=d_in)
        else:
            np.matmul(d, w, out=d_in)
        s = ws.z
        np.subtract(1.0, h, out=s)
        np.multiply(h, s, out=s)
        np.multiply(d_in, s, out=d_in)
        np.matmul(inputs[i - 1].swapaxes(1, 2), d_in, out=deltas[i - 1])
        d = d_in
    # the backward pass reads no delta, so all are scaled at once
    np.multiply(ws.grad, gamma[:, None], out=ws.grad)
    return deltas


class Rows:
    """Row views of the blocks lo..hi-1 of a stack, made once per run_stack
    for the update rule they share: the stack's params, alpha and lam (as
    columns), and the workspace's look-ahead weights, gradients and update
    scratch.  Row slices of a C-contiguous (B, P) buffer, so an elementwise
    op on them gives every element the bits it gets on the whole buffer."""

    def __init__(self, stack: BlockStack, ws: Workspace, lo: int, hi: int):
        rows = slice(lo, hi)
        self.params, self.ahead = stack.params[rows], ws.ahead[rows]
        self.grad, self.step, self.decay = ws.grad[rows], ws.step[rows], ws.decay[rows]
        self.alpha, self.lam = stack.alpha[rows, None], stack.lam[rows, None]
        self.nonbias, self.m = ws.nonbias, ws.m


class ReinforcedRule:
    """Default update rule: gradients at the current weights, then
    theta <- theta + (alpha * delta - lam * theta_nobias) / m, in place.

    The rule protocol: start() gives the rule for one run of blocks (a
    rule with state starts it afresh); look_ahead(rows) says whether the
    gradients are taken elsewhere than at rows.params, having written that
    point into rows.ahead if so; update(rows) writes the new weights into
    rows.params from the gradients in rows.grad."""

    def start(self):
        return self

    def look_ahead(self, rows: Rows) -> bool:
        return False

    def update(self, rows: Rows) -> None:
        step, decay = rows.step, rows.decay
        np.multiply(rows.alpha, rows.grad, out=step)
        # bias entries of decay are never written, so they stay +0.0
        np.multiply(rows.lam, rows.params, out=decay, where=rows.nonbias)
        np.subtract(step, decay, out=step)
        np.divide(step, rows.m, out=step)
        np.add(rows.params, step, out=rows.params)


REINFORCED = ReinforcedRule()


def start_rules(stack: BlockStack, ws: Workspace, rule=REINFORCED) -> list:
    """(Rows, started rule) for every run of consecutive blocks that share
    a rule object; rule is one rule for every block or a list of one per
    block."""
    each = per_block(rule, len(stack))
    runs, lo = [], 0
    for hi in range(1, len(stack) + 1):
        if hi == len(stack) or each[hi] is not each[lo]:
            runs.append((Rows(stack, ws, lo, hi), each[lo].start()))
            lo = hi
    return runs


def backprop_step(stack: BlockStack, ws: Workspace, use_tau=True,
                  gamma=None, rules=None) -> np.ndarray:
    """One full-batch iteration of every block in a stack, in place.

    ws is the stack's Workspace (made with targets); use_tau is a bool or
    a (B,) bool mask; gamma, if given, is a (B,) vector; rules are the
    (Rows, rule) pairs of start_rules (default: the reinforced rule for
    every block).  Order: forward pass at the gradient point (the stack's
    weights, with the rows of a rule that looks ahead replaced by its
    look-ahead point), shift selection against that pre-update cost,
    gradients of every matrix at the same weights, then each rule's update
    of its rows.  The stack then holds the new weights, the selected
    shift, and the nu for the next iteration: the mean error of the
    shifted output emitted here.  The step's trace values are in ws.row
    and its gradients in ws.deltas.  Returns the (B,) mask of the blocks
    whose cost and new weights are all finite.  Overflow is divergence:
    run this under np.errstate(over="ignore", invalid="ignore").
    """
    m, row = ws.m, ws.row
    if gamma is None:
        gamma = stack.gamma
    if rules is None:
        rules = start_rules(stack, ws)
    ahead = [rule.look_ahead(rows) for rows, rule in rules]
    at = stack
    if any(ahead):
        for (rows, _), looked in zip(rules, ahead):
            if not looked:
                np.copyto(rows.ahead, rows.params)
        at = ws.at
    _forward_all(at, ws)
    if stack.nu is None:
        row[4] = np.mean(np.zeros_like(ws.y) - ws.y, axis=1)
    else:
        row[4] = stack.nu
    np.multiply(at.lam, _reg_sum(at, ws), out=ws.lam_reg)
    _pick_tau(ws, row[4], ws.lam_reg, use_tau)
    block_gradients(at, ws, gamma)
    for j, f in zip((1, 2), ws.norm_rows):
        np.matmul(f, f.swapaxes(1, 2), out=ws.norm)
        np.sqrt(ws.norm[:, 0, 0], out=row[j])
    for rows, rule in rules:
        rule.update(rows)
    stack.tau[:] = row[3]

    finite = ws.finite
    np.isfinite(row[0], out=finite)
    np.isfinite(stack.params, out=ws.ok)
    np.logical_and.reduce(ws.ok, axis=1, out=ws.ok_part)
    finite &= ws.ok_part
    # nu = np.mean(shifted output - y) in np.mean's own steps: a sum along
    # each row, then a division by m (block_gradients left raw + tau here)
    np.subtract(ws.shifted, ws.y, out=ws.shifted)
    np.add.reduce(ws.shifted, axis=1, out=ws.nu)
    stack.nu = np.divide(ws.nu, m, out=ws.nu)
    return finite


def _tau_mask(use_tau, B: int):
    """use_tau as _pick_tau takes it: a bool if it is the same for all B
    blocks, else a (B,) bool mask."""
    mask = np.broadcast_to(np.asarray(use_tau, dtype=bool), (B,))
    return bool(mask[0]) if (mask == mask[0]).all() else mask.copy()


def run_stack(stack: BlockStack, X, y, n_steps: int, start_iteration: int = 1,
              use_tau=True, jitter_rngs=None, rule=REINFORCED) -> list:
    """Run n_steps backprop iterations of every block in the stack.

    This is the only loop that trains block weights; it trains the stack in
    place, every step writing into one Workspace.  X is (B, m, d) and y
    (B, m); use_tau is a bool, or one per block; rule is an update rule, or
    a list of one per block, each started afresh for every run of
    consecutive blocks that share it (start_rules).  jitter_rngs, if given,
    holds one generator per block, or None for a block without jitter,
    whose standard-normal draw is added to that block's gamma every
    iteration.
    Returns one outcome per block, in stack order: (block, TrainingTrace)
    of its n_steps iterations numbered from start_iteration, or the
    Diverged of a block whose cost or weights turned non-finite, carrying
    its iteration and the trace of the iterations before it.  A diverged
    block stays in the stack behind a mask, and the others carry on
    unchanged; the call returns once every block has diverged.
    """
    ws = Workspace(stack, X, y)
    rules = start_rules(stack, ws, rule)
    use_tau = _tau_mask(use_tau, len(stack))
    outcomes = [None] * len(stack)
    alive = np.ones(len(stack), dtype=bool)
    # per step and block: cost, grad1_norm, grad2_norm, tau, nu, cost_tau_zero
    cols = np.empty((n_steps, 6, len(stack)))
    # Overflow here just means divergence; the finite mask reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            gamma = None
            if jitter_rngs is not None:
                # gamma + 0.0 is gamma, bit for bit, as gamma > 0
                gamma = stack.gamma + np.array([0.0 if r is None else r.standard_normal()
                                                for r in jitter_rngs])
            finite = backprop_step(stack, ws, use_tau, gamma, rules)
            cols[i] = ws.row
            if finite.all():
                continue
            for b in np.flatnonzero(alive & ~finite):
                outcomes[b] = Diverged(
                    iteration=start_iteration + i,
                    trace=TrainingTrace(cols[:i, :, b].T, start_iteration))
            alive &= finite
            if not alive.any():
                return outcomes
    for b, blk in enumerate(unstack(stack)):
        if outcomes[b] is None:
            outcomes[b] = (blk, TrainingTrace(cols[:, :, b].T, start_iteration))
    return outcomes


# Elements one stack may hold (layer inputs, activations and their
# temporaries, trace columns); bigger groups of same-shape blocks train in
# chunks of this size, which changes no result.
STACK_ELEMENTS = 1 << 22


def _stack_groups(blocks, inputs, rules=None):
    """Index lists of the blocks that can share a stack: same matrix shapes,
    input rows and iteration count, in first-seen order, each list ordered
    by rules[i] (in the order the rules first appear, so that blocks of one
    rule are consecutive) if rules are given, and cut into chunks under
    STACK_ELEMENTS."""
    groups = {}
    for i, (blk, X) in enumerate(zip(blocks, inputs)):
        shapes = tuple(th.shape for th in blk.matrices())
        groups.setdefault((shapes, len(X), blk.meta.iterations), []).append(i)
    for (shapes, m, iterations), idx in groups.items():
        if rules is not None:
            first = {}
            for i in idx:
                first.setdefault(id(rules[i]), len(first))
            idx.sort(key=lambda i: first[id(rules[i])])
        per_block = 4 * m * sum(rows for rows, _ in shapes) + 6 * iterations
        size = max(1, STACK_ELEMENTS // per_block)
        for start in range(0, len(idx), size):
            yield idx[start:start + size]


# Fewest blocks in a sub-stack when run_blocks cuts a group across CPUs.
# At m=160, d=3, k=8 and 1000 steps a stack step costs ~105 us of call
# overhead plus ~17 us per block, and one map_tasks call ~12 ms, so on 2
# CPUs two half-stacks beat the whole stack from B=8 on (-14%, faster in
# 13 of 15 alternating pairs; B=10: -18%, 15 of 15) but not at B=4 (-1%,
# 8 of 15).
PART_BLOCKS = 4


def _parts(idx, cpus: int) -> list:
    """idx cut into min(cpus, len(idx) // PART_BLOCKS) near-equal runs,
    at least one."""
    n = max(1, min(cpus, len(idx) // PART_BLOCKS))
    return [idx[k * len(idx) // n:(k + 1) * len(idx) // n] for k in range(n)]


def _train_stack(blocks, inputs, targets, use_tau, jitter_rngs, rules):
    """run_stack outcomes of same-shape blocks trained as one stack."""
    stack = stack_blocks(blocks)
    return run_stack(stack, inputs, targets, stack.metas[0].iterations,
                     use_tau=use_tau, jitter_rngs=jitter_rngs, rule=rules)


def per_block(value, n: int) -> list:
    """value as a list of n, one per block: as it is if it is a list."""
    return value if isinstance(value, list) else [value] * n


def run_blocks(blocks, inputs, targets, use_tau=True, jitter_rngs=None,
               rule=REINFORCED) -> list:
    """Train every block for its meta.iterations, each on its own inputs
    (m, d) and targets (m,), as few stacks as the shapes allow.

    Blocks with the same matrix shapes, rows and iteration count share a
    stack, whatever their shift and update rule: use_tau is a bool or a
    list of one per block, rule an update rule or a list of one per block
    (blocks that share a rule object are put next to each other in their
    stack, and each stack starts its own copy of it), and jitter_rngs, if
    given, holds one generator or None per block.  Returns one run_stack
    outcome per block, in input order; as a block's training does not
    depend on its stack, each equals the block trained alone.

    A group of at least 2 * PART_BLOCKS blocks is cut into
    min(usable CPUs, len // PART_BLOCKS) near-equal sub-stacks, and then
    every stack of the call trains on forked workers (workers.map_tasks).
    A generator of jitter_rngs used on a worker does not advance in the
    caller, so pass fresh ones.  A call with no group that large trains its
    stacks here, one after another.
    """
    rules = per_block(rule, len(blocks))
    use_tau = per_block(use_tau, len(blocks))
    groups = list(_stack_groups(blocks, inputs, rules))
    cpus = workers.usable_cpus()
    parts = [part for idx in groups for part in _parts(idx, cpus)]
    tasks = [([blocks[i] for i in idx], [inputs[i] for i in idx],
              [targets[i] for i in idx], [use_tau[i] for i in idx],
              None if jitter_rngs is None else [jitter_rngs[i] for i in idx],
              [rules[i] for i in idx]) for idx in parts]
    if len(parts) > len(groups):
        outs = workers.map_tasks(_train_stack, tasks)
    else:
        outs = [_train_stack(*task) for task in tasks]
    outcomes = [None] * len(blocks)
    for idx, part_outs in zip(parts, outs):
        for i, out in zip(idx, part_outs):
            outcomes[i] = out
    return outcomes


def trained_block(outcome, target=None):
    """A training outcome, (block, TrainingTrace); a Diverged outcome is
    raised naming target if given, any other error outcome as it is."""
    if isinstance(outcome, Diverged):
        raise Diverged(iteration=outcome.iteration, trace=outcome.trace,
                       target=target) from outcome
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def blocks_output(blocks, inputs) -> list:
    """Tau-shifted outputs (m,) of every block for its own rows (m, d), in
    input order, computed in as few stacked passes as the shapes allow."""
    out = [None] * len(blocks)
    for idx in _stack_groups(blocks, inputs):
        est = stack_output(stack_blocks(blocks[i] for i in idx),
                           [inputs[i] for i in idx])
        for i, e in zip(idx, est):
            out[i] = e
    return out


def run_steps(block: RegressionBlock, X: np.ndarray, y: np.ndarray,
              n_steps: int, start_iteration: int = 1, use_tau: bool = True,
              jitter_rng=None, rule=REINFORCED):
    """run_stack for one block; returns (block, TrainingTrace), or raises
    Diverged carrying the trace of the iterations before it."""
    (outcome,) = run_stack(
        stack_blocks([block]), np.asarray(X, dtype=np.float64)[None],
        np.asarray(y, dtype=np.float64)[None], n_steps,
        start_iteration=start_iteration, use_tau=use_tau,
        jitter_rngs=None if jitter_rng is None else [jitter_rng], rule=rule)
    return trained_block(outcome)


def train(block: RegressionBlock, X: np.ndarray, y: np.ndarray,
          use_tau: bool = True, gamma_jitter: bool = False,
          jitter_seed: int = 0):
    """run_steps for meta.iterations steps; returns (block, TrainingTrace).

    With gamma_jitter, each iteration adds seeded standard-normal noise to
    gamma (experimental; off by default).  Raises Diverged with the partial
    trace attached if any weight or cost turns non-finite.
    """
    rng = np.random.default_rng(jitter_seed) if gamma_jitter else None
    return run_steps(block, X, y, block.meta.iterations, use_tau=use_tau, jitter_rng=rng)
