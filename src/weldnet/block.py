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
each backprop_step picks every block's shift tau from {0, -nu*f, +nu*f}
(nu: that block's previous mean error; f: 1 with the shift on, 0 with it
off, so an off block's candidates cost what 0 costs and never win), and
hands the gamma-scaled gradients, always taken at stack.params, to each
block's update rule.  A rule may first move its rows of stack.params to
where it wants them taken (look_ahead) and then writes the new weights
(update).  The shift and the rule are per block: a stack's blocks that
share a rule are consecutive, and the rule works on their rows.
ReinforcedRule is the default; the plain ANN uses it with gamma = 1 and
tau off, the optimizer baselines plug in their own rules.  run_blocks
trains any list of blocks for a step count, each on its own data,
grouping those of one shape and step count into stacks whatever their
rules, and cuts a group of at least 2 * PART_BLOCKS blocks into
sub-stacks that train at the same time, one per usable CPU, on forked
workers (workers.map_tasks).  run_steps is its one-block form (train runs
it for meta.iterations); no other module builds a stack.  Every training
call numbers its iterations from 1, in its traces and its Diverged; a
caller that trains a block in segments renumbers them itself.
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
from dataclasses import dataclass, fields

import numpy as np

from . import workers
from .dataset import MAX_DEGREE, MIN_DEGREE, write_csv
from .errors import DimensionMismatch, Diverged

# Every hyperparameter's kind and interval: name -> (integer or not, low,
# high, ends), ends holding the interval's brackets, "(" or ")" where an end
# is open.  violation checks a value against it.
RANGES = {
    "neurons": (True, 2, 100, "[]"),
    "depth": (True, 1, 4, "[]"),
    "degree": (True, MIN_DEGREE, MAX_DEGREE, "[]"),
    "iterations": (True, 1000, 12000, "[]"),
    "alpha": (False, 0, math.inf, "()"),
    "gamma": (False, 0, math.inf, "()"),
    "lam": (False, 0, math.inf, "[)"),
    "eta": (False, 0, math.inf, "()"),
    "rho": (False, 0, 1, "()"),
    "momentum": (False, 0, 1, "[)"),
    "eps": (False, 0, math.inf, "()"),
}

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


def violation(name: str, value):
    """What value fails to be as the hyperparameter name of RANGES: "an
    integer", "a finite number" or "in" its interval; None if it fits."""
    count, lo, hi, ends = RANGES[name]
    if not (is_count(value) if count else is_real(value)):
        return "an integer" if count else "a finite number"
    above = lo < value if ends[0] == "(" else lo <= value
    below = value < hi if ends[1] == ")" else value <= hi
    return None if above and below else f"in {ends[0]}{lo}, {hi}{ends[1]}"


def check_fields(obj) -> None:
    """ValueError naming the first field of the dataclass obj that RANGES
    has and whose value violates it."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        what = f.name in RANGES and violation(f.name, value)
        if what:
            raise ValueError(f"{f.name} must be {what}, got {value!r}")


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
        check_fields(self)

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
    run_stack writes), for iterations 1..n.  Traces compare by value: shape
    and the columns' bits."""

    cols: np.ndarray

    def __len__(self):
        return self.cols.shape[1]

    def __eq__(self, other):
        return (isinstance(other, TrainingTrace)
                and self.cols.shape == other.cols.shape
                and self.cols.tobytes() == other.cols.tobytes())

    @property
    def records(self) -> tuple:
        """One TraceRecord per iteration, built from the columns."""
        return tuple(TraceRecord(i, *vals)
                     for i, vals in enumerate(zip(*self.cols.tolist()), 1))

    def then(self, later: "TrainingTrace") -> "TrainingTrace":
        """This trace followed by the iterations of later."""
        return TrainingTrace(np.concatenate([self.cols, later.cols], axis=1))

    def write_csv(self, path) -> None:
        write_csv(path, ["iter", "cost", "grad1_norm", "grad2_norm", "tau", "nu"],
                  zip(range(1, len(self) + 1), *self.cols[:5].tolist()))


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


def _sigmoid_into(z, mask, out):
    """Numerically stable logistic function of z written into out, with z
    and mask (bool) as scratch; branch-free.

    e = exp(-|z|) never overflows (taken as exp(min(z, -z)), which keeps a
    NaN's sign); as 0 <= e <= 1, max(e, z >= 0) is 1 where z >= 0 and e
    elsewhere, so this is 1 / (1 + e) or e / (1 + e), bit for bit.
    """
    np.greater_equal(z, 0.0, mask)
    np.negative(z, out)
    np.minimum(z, out, out=z)
    np.exp(z, z)
    np.maximum(z, mask, out=out)
    np.add(z, 1.0, z)
    return np.divide(out, z, out)


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
    stack's shape, rows X (B, m, d) and targets y (B, m), with every view
    of them a step reads, so that a step makes none.

    The forward part: inputs, the bias-augmented input of every weight
    matrix (column 0 all ones, the first filled with X here, the others
    with the hidden activations); z and mask, the pre-activation and
    sigmoid scratch of one layer; acts, every hidden activation (B, m, k);
    raw, the unshifted outputs (B, m).  The rest is what a backprop_step
    writes: the three shift candidates and their residuals and costs, the
    squared weights and the regularizer, the shifted output, the backward
    deltas, the gradients (grad, laid out like stack.params, and deltas,
    its views aligned with stack.mats), the update rules' scratch (step,
    and decay, whose bias entries stay zero), the finite mask, nu, and
    row, the step's trace values (6, B): cost, grad1_norm, grad2_norm,
    tau, nu, cost_tau_zero.  nonbias marks the non-bias entries of a row
    of params.
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
        # per hidden layer: input, activations, next input's non-bias columns
        self.layers = [(a, h, nxt[:, :, 1:]) for a, h, nxt
                       in zip(self.inputs, self.acts, self.inputs[1:])]
        self.raw_col = np.empty((B, m, 1))
        self.raw = self.raw_col[:, :, 0]
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (B, m):
            raise DimensionMismatch(f"targets {y.shape} vs {(B, m)} blocks x samples")
        self.y = y
        self.taus = np.zeros((B, 3))        # shifts 0, -nu*f, +nu*f
        resid, sq = np.empty((B, 3, m)), np.empty((B, 3, 1, 1))
        self.costs = np.empty((B, 3))
        self.lam_reg = np.empty(B)
        self.shift_views = (
            resid, self.raw[:, None, :], self.taus[:, :, None], y[:, None, :],
            resid[:, :, None, :], resid[:, :, :, None], sq, sq[:, :, 0, 0],
            self.lam_reg[:, None], self.costs)
        self.tau_cols, self.cost_cols = list(self.taus.T), list(self.costs.T)
        self.better = np.empty(B, dtype=bool)
        P = stack.params.shape[1]
        self.nonbias = np.ones(P, dtype=bool)
        for th in param_views(self.nonbias[None], stack.mats):
            th[:, 0] = False
        self.squares = np.empty((B, P))
        self.square_parts = [th[:, 1:].reshape(B, -1)
                             for th in param_views(self.squares, stack.mats)]
        self.reg, self.reg_part = np.empty(B), np.empty(B)
        self.shifted = np.empty((B, m))
        self.d_out = np.empty((B, m, 1))
        self.err = self.d_out[:, :, 0]
        back = [np.empty((B, m, k)) for _ in range(min(2, len(shapes) - 1))]
        self.grad = np.empty((B, P))
        self.deltas = param_views(self.grad, stack.mats)
        self.last_T = self.inputs[-1].swapaxes(1, 2)
        # block_gradients' views for each matrix i below the output one, top
        # first: acts[i], delta scratch, mats[i + 1]'s non-bias rows
        # transposed (a vector for the output one), inputs[i].T, deltas[i]
        L, mats = len(shapes), stack.mats
        self.backward = [(self.acts[i], back[(L - 2 - i) % 2],
                          mats[i + 1][:, 1:, 0] if i == L - 2
                          else mats[i + 1][:, 1:].swapaxes(1, 2),
                          self.inputs[i].swapaxes(1, 2), self.deltas[i])
                         for i in range(L - 2, -1, -1)]
        norm_rows = [d.reshape(B, 1, -1) for d in (self.deltas[0], self.deltas[-1])]
        norm = np.empty((2, B, 1, 1))
        self.norm_parts = [(f, f.swapaxes(1, 2), out) for f, out in zip(norm_rows, norm)]
        self.norm_sq = norm[:, :, 0, 0]
        self.step = np.empty((B, P))
        self.decay = np.zeros((B, P))
        self.gamma_col = stack.gamma[:, None]
        self.ok = np.empty((B, P), dtype=bool)
        self.ok_part = np.empty(B, dtype=bool)
        self.finite = np.empty(B, dtype=bool)
        self.nu = np.empty(B)
        self.row = np.empty((6, B))
        self.cost, self.norms, self.tau, self.nu_in, self.cost0 = (
            self.row[0], self.row[1:3], self.row[3], self.row[4], self.row[5])
        self.tau_col = self.tau[:, None]


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
    for th, (a_in, act, a_next) in zip(stack.mats, ws.layers):
        _sigmoid_into(np.matmul(a_in, th, ws.z), ws.mask, act)
        np.copyto(a_next, act)
    np.matmul(ws.inputs[-1], stack.mats[-1], ws.raw_col)


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
    return np.matmul(last, out_mat)[:, :, 0] + stack.tau[:, None]


def _reg_sum(stack: BlockStack, ws: Workspace) -> np.ndarray:
    """Per block, the sum of squared non-bias weights over all matrices,
    matrix by matrix, into ws.reg."""
    np.square(stack.params, ws.squares)
    for i, part in enumerate(ws.square_parts):
        np.add.reduce(part, 1, None, ws.reg_part if i else ws.reg)
        if i:
            np.add(ws.reg, ws.reg_part, ws.reg)
    return ws.reg


def _shift_costs(ws: Workspace) -> np.ndarray:
    """Regularized cost (B, 3) of the three shifts of ws.taus: (1/2m)
    [sum of squared residuals against the shifted output + ws.lam_reg]."""
    resid, raw, taus, y, left, right, sq, sq_sum, lam_reg, costs = ws.shift_views
    np.add(raw, taus, resid)
    np.subtract(y, resid, resid)
    np.matmul(left, right, sq)
    np.add(sq_sum, lam_reg, costs)
    return np.multiply(0.5 / ws.m, costs, costs)


def _pick_tau(ws: Workspace, nu, lam_reg, use_tau) -> None:
    """Per block, the shift tau (ws.row[3]) that minimizes the regularized
    cost over {0, -nu*f, +nu*f}, its cost (ws.row[0]) and the cost at 0
    (ws.row[5]).  use_tau gives f: a (B,) vector of 1.0 where the shift is
    on and 0.0 where it is off, or a bool for every block.

    Ties prefer 0, then -nu (the least perturbation first), and a NaN cost
    is never picked.  So a block with the shift off, whose candidates are
    +-0 (NaN for a non-finite nu), keeps tau = +0.0 and the cost at 0.
    """
    taus, costs = ws.tau_cols, ws.cost_cols
    np.multiply(nu, use_tau, taus[2])
    np.negative(taus[2], taus[1])
    if lam_reg is not ws.lam_reg:
        np.copyto(ws.lam_reg, lam_reg)
    _shift_costs(ws)
    best, tau = ws.cost, ws.tau
    np.copyto(best, costs[0])
    np.copyto(ws.cost0, best)
    tau.fill(0.0)
    for c in (1, 2):
        np.less(costs[c], best, ws.better)
        np.copyto(tau, taus[c], where=ws.better)
        np.copyto(best, costs[c], where=ws.better)


def cost(block: RegressionBlock, X: np.ndarray, y: np.ndarray) -> float:
    """Regularized cost: (1/2m) [sum squared residuals + lam * sum of
    squared non-bias weights], residuals against the tau-shifted output;
    inf or nan, without a warning, where the arithmetic overflows."""
    stack = stack_blocks([block])
    ws = Workspace(stack, np.asarray(X, dtype=np.float64)[None],
                   np.asarray(y, dtype=np.float64)[None])
    ws.taus[:, 0] = stack.tau  # this workspace only takes the cost
    with np.errstate(over="ignore", invalid="ignore"):
        _forward_all(stack, ws)
        np.multiply(stack.lam, _reg_sum(stack, ws), ws.lam_reg)
        return float(_shift_costs(ws)[0, 0])


def block_gradients(stack: BlockStack, ws: Workspace, gamma) -> list:
    """Gamma-scaled gradient matrices into ws.deltas, (B, rows, cols) each,
    aligned with stack.mats (views of ws.grad); stack is the workspace's
    stack, at the weights the step takes its gradients at (a rule's
    look-ahead point, if it moved them), gamma a (B, 1) column.

    Each delta equals -m * dJ_data/dtheta * gamma at the stack's weights,
    with J_data the squared-error half-mean against the output shifted by
    ws.row[3]; ws holds what _forward_all produced at those weights.
    """
    np.add(ws.raw, ws.tau_col, ws.shifted)
    np.subtract(ws.y, ws.shifted, ws.err)
    np.matmul(ws.last_T, ws.d_out, ws.deltas[-1])
    d, s = None, ws.z
    for h, d_in, w, a_T, delta in ws.backward:
        if d is None:
            # theta2 has one column, so each element of d @ w is the single
            # product 0 + d * w: einsum's outer product forms the same bits
            # without a K = 1 matmul
            np.einsum("bj,bl->bjl", ws.err, w, out=d_in)
        else:
            np.matmul(d, w, d_in)
        np.subtract(1.0, h, s)
        np.multiply(h, s, s)
        np.multiply(d_in, s, d_in)
        np.matmul(a_T, d_in, delta)
        d = d_in
    # the backward pass reads no delta, so all are scaled at once
    np.multiply(ws.grad, gamma, ws.grad)
    return ws.deltas


class Rows:
    """Row views of the blocks lo..hi-1 of a stack, made once per run_stack
    for the update rule they share: the stack's params, alpha and lam (as
    columns), and the workspace's gradients and update scratch.  Row
    slices of a C-contiguous (B, P) buffer, so an elementwise op on them
    gives every element the bits it gets on the whole buffer."""

    def __init__(self, stack: BlockStack, ws: Workspace, lo: int, hi: int):
        rows = slice(lo, hi)
        self.params = stack.params[rows]
        self.grad, self.step, self.decay = ws.grad[rows], ws.step[rows], ws.decay[rows]
        self.alpha, self.lam = stack.alpha[rows, None], stack.lam[rows, None]
        self.nonbias, self.m = ws.nonbias, ws.m


class ReinforcedRule:
    """Default update rule: gradients at the current weights, then
    theta <- theta + (alpha * delta - lam * theta_nobias) / m, in place.

    The rule protocol: start() gives the rule for one run of blocks (a
    rule with state starts it afresh); look_ahead(rows), before the forward
    pass, may write into rows.params the point the step's gradients are
    taken at, keeping what its update needs of the weights it replaced;
    update(rows) writes the new weights into rows.params from the
    gradients in rows.grad."""

    def start(self):
        return self

    def look_ahead(self, rows: Rows) -> None:
        """Gradients at the current weights: nothing to move."""

    def update(self, rows: Rows) -> None:
        step, decay = rows.step, rows.decay
        np.multiply(rows.alpha, rows.grad, step)
        # bias entries of decay are never written, so they stay +0.0
        np.multiply(rows.lam, rows.params, out=decay, where=rows.nonbias)
        np.subtract(step, decay, step)
        np.divide(step, rows.m, step)
        np.add(rows.params, step, rows.params)


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

    ws is the stack's Workspace (made with targets); use_tau is a (B,)
    vector of 1.0 (shift on) or 0.0 (off), or a bool for every block;
    gamma, if given, is a (B,) vector; rules are what start_rules gives
    (default: the reinforced rule for every block).  Order: each rule's
    look_ahead of its rows, the forward pass and the regularizer at
    stack.params, shift selection against that pre-update cost, gradients
    of every matrix at the same weights, then each rule's update.  The
    stack then holds the new weights, the selected shift, and the nu for
    the next iteration: the mean error of the shifted output emitted here.
    The step's trace values are in ws.row and its gradients in ws.deltas.
    Returns the (B,) mask of the blocks whose cost and new weights are all
    finite.  Overflow is divergence: run this under
    np.errstate(over="ignore", invalid="ignore").
    """
    runs = start_rules(stack, ws) if rules is None else rules
    for rows, rule in runs:
        rule.look_ahead(rows)
    _forward_all(stack, ws)
    if stack.nu is None:
        ws.nu_in[:] = np.mean(np.zeros_like(ws.y) - ws.y, axis=1)
    else:
        np.copyto(ws.nu_in, stack.nu)
    np.multiply(stack.lam, _reg_sum(stack, ws), ws.lam_reg)
    _pick_tau(ws, ws.nu_in, ws.lam_reg, use_tau)
    block_gradients(stack, ws, ws.gamma_col if gamma is None else gamma[:, None])
    for f, f_T, out in ws.norm_parts:
        np.matmul(f, f_T, out)
    np.sqrt(ws.norm_sq, ws.norms)
    for rows, rule in runs:
        rule.update(rows)
    np.copyto(stack.tau, ws.tau)

    finite = np.isfinite(ws.cost, ws.finite)
    np.isfinite(stack.params, ws.ok)
    np.logical_and.reduce(ws.ok, 1, None, ws.ok_part)
    np.logical_and(finite, ws.ok_part, finite)
    # nu = np.mean(shifted output - y) in np.mean's own steps: a sum along
    # each row, then a division by m (block_gradients left raw + tau here)
    np.subtract(ws.shifted, ws.y, ws.shifted)
    np.add.reduce(ws.shifted, 1, None, ws.nu)
    stack.nu = np.divide(ws.nu, ws.m, ws.nu)
    return finite


def run_stack(stack: BlockStack, X, y, n_steps: int, use_tau=True,
              jitter_rngs=None, rule=REINFORCED) -> list:
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
    of its n_steps iterations, numbered from 1, or the Diverged of a block
    whose cost or weights turned non-finite, carrying its iteration and the
    trace of the iterations before it.  A diverged block stays in the stack
    behind a mask, and the others carry on unchanged; the call returns once
    every block has diverged.
    """
    ws = Workspace(stack, X, y)
    rules = start_rules(stack, ws, rule)
    # f of _pick_tau: 1.0 where the shift is on, 0.0 where it is off
    use_tau = np.broadcast_to(np.asarray(use_tau, dtype=np.float64), len(stack))
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
                outcomes[b] = Diverged(iteration=i + 1,
                                       trace=TrainingTrace(cols[:i, :, b].T))
            alive &= finite
            if not alive.any():
                return outcomes
    for b, blk in enumerate(unstack(stack)):
        if outcomes[b] is None:
            outcomes[b] = (blk, TrainingTrace(cols[:, :, b].T))
    return outcomes


# Elements one stack may hold (layer inputs, activations and their
# temporaries, trace columns); bigger groups of same-shape blocks train in
# chunks of this size, which changes no result.
STACK_ELEMENTS = 1 << 22


def _stack_groups(blocks, inputs, steps, rules=None):
    """Index lists of the blocks that can share a stack: same matrix shapes,
    input rows and steps[i], in first-seen order, each list ordered by
    rules[i] (in the order the rules first appear, so that blocks of one
    rule are consecutive) if rules are given, and cut into chunks under
    STACK_ELEMENTS."""
    groups = {}
    for i, (blk, X, n) in enumerate(zip(blocks, inputs, steps)):
        shapes = tuple(th.shape for th in blk.matrices())
        groups.setdefault((shapes, len(X), n), []).append(i)
    for (shapes, m, n), idx in groups.items():
        if rules is not None:
            first = {}
            for i in idx:
                first.setdefault(id(rules[i]), len(first))
            idx.sort(key=lambda i: first[id(rules[i])])
        per_block = 4 * m * sum(rows for rows, _ in shapes) + 6 * n
        size = max(1, STACK_ELEMENTS // max(per_block, 1))
        for start in range(0, len(idx), size):
            yield idx[start:start + size]


# Fewest blocks in a sub-stack when run_blocks cuts a group across CPUs.
# At m=160, d=3, k=8 and 1000 steps a stack step cost ~105 us of call
# overhead plus ~17 us per block, and one map_tasks call ~12 ms (~5 ms
# since it forks without a pool), so on 2 CPUs two half-stacks beat the
# whole stack from B=8 on (-14%, faster in 13 of 15 alternating pairs;
# B=10: -18%, 15 of 15) but not at B=4 (-1%, 8 of 15).
PART_BLOCKS = 4


def _parts(idx, cpus: int) -> list:
    """idx cut into min(cpus, len(idx) // PART_BLOCKS) near-equal runs,
    at least one."""
    n = max(1, min(cpus, len(idx) // PART_BLOCKS))
    return [idx[k * len(idx) // n:(k + 1) * len(idx) // n] for k in range(n)]


def per_block(value, n: int) -> list:
    """value as a list of n, one per block: as it is if it is a list."""
    return value if isinstance(value, list) else [value] * n


def run_blocks(blocks, inputs, targets, steps, use_tau=True,
               jitter_rngs=None, rule=REINFORCED) -> list:
    """Train every block for steps iterations, numbered from 1, each on its
    own inputs (m, d) and targets (m,), as few stacks as the shapes allow.

    Blocks with the same matrix shapes, rows and step count share a stack,
    whatever their shift and update rule: steps is a count or a list of
    one per block, use_tau a bool or a list of one per block, rule an
    update rule or a list of one per block (blocks that share a rule
    object are put next to each other in their stack, and each stack
    starts its own copy of it), and jitter_rngs, if given, holds one
    generator or None per block.  Returns one run_stack outcome per block,
    in input order; as a block's training does not depend on its stack,
    each equals the block trained alone.

    A group of at least 2 * PART_BLOCKS blocks is cut into
    min(usable CPUs, len // PART_BLOCKS) near-equal sub-stacks, and then
    every stack of the call trains on forked workers (workers.map_tasks),
    each task a list of block indices into the lists the workers inherit.
    A generator of jitter_rngs used on a worker does not advance in the
    caller, so pass fresh ones.  A call with no group that large trains its
    stacks here, one after another.
    """
    rules = per_block(rule, len(blocks))
    use_tau = per_block(use_tau, len(blocks))
    steps = per_block(steps, len(blocks))
    groups = list(_stack_groups(blocks, inputs, steps, rules))
    cpus = workers.usable_cpus()
    parts = [part for idx in groups for part in _parts(idx, cpus)]

    def train_part(idx):
        return run_stack(stack_blocks(blocks[i] for i in idx),
                         [inputs[i] for i in idx], [targets[i] for i in idx],
                         steps[idx[0]], [use_tau[i] for i in idx],
                         None if jitter_rngs is None
                         else [jitter_rngs[i] for i in idx],
                         [rules[i] for i in idx])

    outs = (workers.map_tasks(train_part, [(idx,) for idx in parts])
            if len(parts) > len(groups) else [train_part(idx) for idx in parts])
    by_index = {i: out for idx, part_outs in zip(parts, outs)
                for i, out in zip(idx, part_outs)}
    return [by_index[i] for i in range(len(blocks))]


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
    for idx in _stack_groups(blocks, inputs, [0] * len(blocks)):
        est = stack_output(stack_blocks(blocks[i] for i in idx),
                           [inputs[i] for i in idx])
        for i, e in zip(idx, est):
            out[i] = e
    return out


def run_steps(block: RegressionBlock, X: np.ndarray, y: np.ndarray,
              n_steps: int, use_tau: bool = True, jitter_rng=None,
              rule=REINFORCED):
    """run_blocks for one block; returns (block, TrainingTrace) of iterations
    1..n_steps, or raises Diverged carrying the trace of the iterations
    before it."""
    (outcome,) = run_blocks([block], [X], [y], n_steps, use_tau,
                            None if jitter_rng is None else [jitter_rng], rule)
    return trained_block(outcome)


def train(block: RegressionBlock, X: np.ndarray, y: np.ndarray,
          use_tau: bool = True):
    """run_steps for meta.iterations steps; returns (block, TrainingTrace),
    or raises Diverged with the partial trace attached if any weight or
    cost turns non-finite."""
    return run_steps(block, X, y, block.meta.iterations, use_tau=use_tau)
