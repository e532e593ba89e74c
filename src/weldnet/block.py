"""Regression blocks: sigmoid hidden layers, a linear output with a learned
scalar shift, and full-batch backpropagation whose gradient matrices are
scaled by a reinforcement coefficient before every weight update.

Shape conventions: samples are rows.  With m samples, d inputs, and width k,
theta1 is (d+1) x k, each extra hidden matrix is (k+1) x k, and theta2 is
(k+1) x 1; row 0 of every matrix holds the bias weights fed by an appended
all-ones column.

Training is B-way: a BlockStack holds B same-shape blocks with every weight
matrix stacked on a leading axis, (B, rows, cols), and trains them on
inputs (B, m, d) against targets (B, m).  run_stack is the one training
loop; each backprop_step picks every block's shift tau from {-nu, 0, +nu}
(nu: that block's previous mean error) and hands the gamma-scaled gradients
to an update rule, which chooses where they are taken (gradient_point) and
the new weights (update).  ReinforcedRule is the default; the plain ANN
uses it with gamma = 1 and tau off, the optimizer baselines plug in their
own rules.  A single block is a stack of one: run_steps and train are
B = 1 calls of the same loop.

Every per-block quantity is computed slice by slice in the rounding order of
a lone block, so a block's weights, shifts and trace do not depend on what
it is stacked with.  A block whose cost or weights turn non-finite leaves
the stack with its own Diverged; the others carry on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import MAX_DEGREE, MIN_DEGREE, write_csv
from .errors import DimensionMismatch, Diverged, LengthMismatch

MIN_NEURONS, MAX_NEURONS = 2, 100
MIN_DEPTH, MAX_DEPTH = 1, 4
MIN_ITERATIONS, MAX_ITERATIONS = 1000, 12000


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
        return cls(neurons=int(d["neurons"]), alpha=float(d["alpha"]),
                   gamma=float(d["gamma"]), lam=float(d["lambda"]),
                   iterations=int(d["iterations"]), depth=int(d.get("depth", 1)),
                   degree=int(d.get("degree", 0)))


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


@dataclass
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
    """Per-iteration training log for one block."""

    records: list = field(default_factory=list)

    def __len__(self):
        return len(self.records)

    def write_csv(self, path) -> None:
        write_csv(path, ["iter", "cost", "grad1_norm", "grad2_norm", "tau", "nu"],
                  ((r.iteration, r.cost, r.grad1_norm, r.grad2_norm, r.tau, r.nu)
                   for r in self.records))


@dataclass
class BlockStack:
    """B same-shape blocks on a leading axis.

    mats are (B, rows, cols), input side first; tau, alpha, gamma and lam
    are (B,) vectors; nu is a (B,) vector, or None before the first
    iteration.
    """

    mats: list
    tau: np.ndarray
    nu: np.ndarray | None
    metas: list
    alpha: np.ndarray
    gamma: np.ndarray
    lam: np.ndarray

    def __len__(self):
        return len(self.metas)

    def take(self, keep) -> "BlockStack":
        """The stack of the blocks selected by a boolean mask."""
        return BlockStack(
            mats=[th[keep] for th in self.mats], tau=self.tau[keep],
            nu=None if self.nu is None else self.nu[keep],
            metas=[meta for meta, k in zip(self.metas, keep) if k],
            alpha=self.alpha[keep], gamma=self.gamma[keep], lam=self.lam[keep])


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
    return BlockStack(
        mats=[np.stack(ths) for ths in zip(*(b.matrices() for b in blocks))],
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


@dataclass
class StepResult:
    """One backprop iteration: selected shift, costs, and gradient matrices.

    deltas aligns with RegressionBlock.matrices() and already carries the
    gamma factor.  For a stack every scalar field is a (B,) vector and every
    delta is (B, rows, cols).
    """

    cost: float
    cost_tau_zero: float
    tau: float
    nu: float
    deltas: list
    grad1_norm: float
    grad2_norm: float


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic function, branch-free.

    e = exp(-|z|) never overflows (taken as exp(min(z, -z)), which keeps a
    NaN's sign); as 0 <= e <= 1, max(e, z >= 0) is 1 where z >= 0 and e
    elsewhere, so this is 1 / (1 + e) or e / (1 + e), bit for bit.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(np.minimum(z, -z))
    return np.divide(np.maximum(e, z >= 0), 1.0 + e, out=out)


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


def layer_inputs(stack: BlockStack, X) -> list:
    """Bias-augmented input buffer of every weight matrix for rows X (B, m, d).

    The first holds X, filled here once; the others receive the hidden
    activations in _forward_all.  Column 0 of each is the all-ones bias.
    """
    X = np.asarray(X, dtype=np.float64)
    d = stack.mats[0].shape[1] - 1
    if X.ndim != 3 or X.shape[0] != len(stack) or X.shape[2] != d:
        raise DimensionMismatch(
            f"expected {len(stack)} blocks x rows x {d} input columns, got {X.shape}")
    B, m, _ = X.shape
    inputs = [np.empty((B, m, th.shape[1])) for th in stack.mats]
    for buf in inputs:
        buf[:, :, 0] = 1.0
    inputs[0][:, :, 1:] = X
    return inputs


def _targets(inputs: list, y) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.shape != inputs[0].shape[:2]:
        raise DimensionMismatch(
            f"targets {y.shape} vs {inputs[0].shape[:2]} blocks x samples")
    return y


def _forward_all(stack: BlockStack, inputs: list):
    """Forward pass: every hidden activation (B, m, k), written straight into
    the non-bias columns of the next buffer in inputs (the activations are
    views of those columns), and the raw (unshifted) outputs (B, m)."""
    activations = []
    for th, a_in, a_out in zip(stack.mats, inputs, inputs[1:]):
        activations.append(sigmoid(a_in @ th, out=a_out[:, :, 1:]))
    return activations, (inputs[-1] @ stack.mats[-1])[:, :, 0]


def stack_output(stack: BlockStack, X) -> np.ndarray:
    """Tau-shifted outputs (B, m) of the stacked blocks for rows X (B, m, d)."""
    _, raw = _forward_all(stack, layer_inputs(stack, X))
    return weighted_estimate(raw, stack.tau[:, None])


def weighted_estimate(raw: np.ndarray, tau: float) -> np.ndarray:
    """Raw block output shifted by the scalar tau."""
    return np.asarray(raw, dtype=np.float64) + tau


def compute_nu(estimates: np.ndarray, y: np.ndarray) -> float:
    """Mean estimation error of one iteration's shifted output."""
    estimates = np.asarray(estimates, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if estimates.shape != y.shape or y.ndim != 1 or y.size == 0:
        raise LengthMismatch(f"estimates {estimates.shape} vs targets {y.shape}")
    return float(np.mean(estimates - y))


def _reg_sum(stack: BlockStack) -> np.ndarray:
    """Per block, the sum of squared non-bias weights over all matrices."""
    reg = 0
    for th in stack.mats:
        reg = reg + (th[:, 1:] ** 2).reshape(len(th), -1).sum(axis=1)
    return reg


def _sq_norms(mats: np.ndarray) -> np.ndarray:
    """f @ f.T of every flattened slice: the same dot as np.linalg.norm."""
    f = mats.reshape(len(mats), 1, -1)
    return (f @ f.swapaxes(1, 2))[:, 0, 0]


def _tau_cost(raw, y, tau, lam, reg, m):
    resid = y - (raw + tau[:, None])
    return (0.5 / m) * (_sq_norms(resid) + lam * reg)


def _pick_tau(raw, y, nu, lam, reg, m):
    """Per block, the argmin of the regularized cost over shifts {0, -nu, +nu}.

    Ties prefer 0, then -nu (the least perturbation first); a NaN cost is
    never picked.  Returns (tau, cost_at_tau, cost_at_zero).
    """
    tau = np.zeros_like(nu)
    cost_zero = _tau_cost(raw, y, tau, lam, reg, m)
    best = cost_zero
    for cand in (-nu, nu):
        c = _tau_cost(raw, y, cand, lam, reg, m)
        better = c < best
        tau = np.where(better, cand, tau)
        best = np.where(better, c, best)
    return tau, best, cost_zero


def cost(block: RegressionBlock, X: np.ndarray, y: np.ndarray) -> float:
    """Regularized cost: (1/2m) [sum squared residuals + lam * sum of
    squared non-bias weights], residuals against the tau-shifted output."""
    stack = stack_blocks([block])
    inputs = layer_inputs(stack, np.asarray(X, dtype=np.float64)[None])
    y = _targets(inputs, np.asarray(y, dtype=np.float64)[None])
    _, raw = _forward_all(stack, inputs)
    return float(_tau_cost(raw, y, stack.tau, stack.lam, _reg_sum(stack),
                           y.shape[1])[0])


def block_gradients(stack: BlockStack, inputs: list, activations: list, y,
                    raw, tau, gamma):
    """Gamma-scaled gradient matrices, (B, rows, cols) each, aligned with
    stack.mats.

    Each delta equals -m * dJ_data/dtheta * gamma at the stack's weights,
    with J_data the squared-error half-mean against the tau-shifted output;
    inputs and activations are what _forward_all produced at those weights.
    """
    g = gamma[:, None, None]
    d = (y - (raw + tau[:, None]))[:, :, None]
    deltas = [(inputs[-1].swapaxes(1, 2) @ d) * g]
    for i in range(len(inputs) - 1, 0, -1):
        h = activations[i - 1]
        d = (d @ stack.mats[i][:, 1:].swapaxes(1, 2)) * (h * (1.0 - h))
        deltas.append((inputs[i - 1].swapaxes(1, 2) @ d) * g)
    deltas.reverse()
    return deltas


class ReinforcedRule:
    """Default update rule: gradients at the current weights, then
    theta <- theta + (alpha * delta - lam * theta_nobias) / m."""

    def gradient_point(self, stack: BlockStack) -> BlockStack:
        return stack

    def update(self, stack, at, deltas: list, m: int) -> list:
        alpha = stack.alpha[:, None, None]
        lam = stack.lam[:, None, None]
        new_mats = []
        for th, delta in zip(stack.mats, deltas):
            nobias = th.copy()
            nobias[:, 0] = 0.0
            new_mats.append(th + (alpha * delta - lam * nobias) / m)
        return new_mats

    def take(self, keep) -> "ReinforcedRule":
        return self


REINFORCED = ReinforcedRule()


def backprop_step(block: BlockStack, X, y, use_tau: bool = True, gamma=None,
                  rule=REINFORCED):
    """One full-batch iteration of every block in a stack.

    block is a BlockStack, X its layer_inputs and y its targets (B, m);
    gamma, if given, is a (B,) vector.  Returns (updated stack, StepResult,
    finite): finite flags the blocks whose cost and new weights are all
    finite.  Order: forward pass at rule.gradient_point(stack), shift
    selection against that pre-update cost, gradients of every matrix at the
    same weights, then the new weights from rule.update.  The updated stack
    carries nu for the next iteration: the mean error of the shifted output
    emitted here.
    """
    m = y.shape[1]
    if gamma is None:
        gamma = block.gamma

    # Overflow here just means divergence; the finite mask reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        at = rule.gradient_point(block)
        activations, raw = _forward_all(at, X)
        nu = block.nu
        if nu is None:
            nu = np.mean(np.zeros_like(y) - y, axis=1)

        reg = _reg_sum(at)
        if use_tau:
            tau, cost_sel, cost_zero = _pick_tau(raw, y, nu, at.lam, reg, m)
        else:
            tau = np.zeros_like(nu)
            cost_zero = _tau_cost(raw, y, tau, at.lam, reg, m)
            cost_sel = cost_zero

        deltas = block_gradients(at, X, activations, y, raw, tau, gamma)
        new_mats = rule.update(block, at, deltas, m)
        grad1_norm = np.sqrt(_sq_norms(deltas[0]))
        grad2_norm = np.sqrt(_sq_norms(deltas[-1]))
        finite = np.isfinite(cost_sel)
        for th in new_mats:
            finite &= np.isfinite(th).reshape(len(th), -1).all(axis=1)
        new_nu = np.mean((raw + tau[:, None]) - y, axis=1)

    updated = replace(block, mats=new_mats, tau=tau, nu=new_nu)
    step = StepResult(cost=cost_sel, cost_tau_zero=cost_zero, tau=tau, nu=nu,
                      deltas=deltas, grad1_norm=grad1_norm,
                      grad2_norm=grad2_norm)
    return updated, step, finite


def _records(cols: np.ndarray, start_iteration: int) -> list:
    """TraceRecords from one block's trace columns (see run_stack)."""
    return [TraceRecord(start_iteration + i, *vals)
            for i, vals in enumerate(zip(*cols.tolist()))]


def run_stack(stack: BlockStack, X, y, n_steps: int, start_iteration: int = 1,
              use_tau: bool = True, jitter_rngs=None, rule=REINFORCED) -> list:
    """Run n_steps backprop iterations of every block in the stack.

    This is the only loop that trains block weights.  X is (B, m, d) and y
    (B, m); jitter_rngs, if given, holds one generator per block whose
    standard-normal draw is added to that block's gamma every iteration.
    Returns one outcome per block, in stack order: (block, trace columns),
    the columns a (6, n_steps) array of the TraceRecord fields after the
    iteration number, or the Diverged of a block whose cost or weights
    turned non-finite, carrying its iteration and the records before it
    (numbered from start_iteration).  A diverged block leaves the stack; the
    others carry on unchanged.
    """
    inputs = layer_inputs(stack, X)
    y = _targets(inputs, y)
    outcomes = [None] * len(stack)
    active = np.arange(len(stack))
    # per step: cost, grad1_norm, grad2_norm, tau, nu, cost_tau_zero
    cols = np.empty((6, n_steps, len(stack)))
    for i in range(n_steps):
        gamma = None
        if jitter_rngs is not None:
            gamma = stack.gamma + np.array([r.standard_normal() for r in jitter_rngs])
        stack, step, finite = backprop_step(stack, inputs, y, use_tau=use_tau,
                                            gamma=gamma, rule=rule)
        cols[:, i, active] = (step.cost, step.grad1_norm, step.grad2_norm,
                              step.tau, step.nu, step.cost_tau_zero)
        if finite.all():
            continue
        for b in active[~finite]:
            outcomes[b] = Diverged(
                iteration=start_iteration + i,
                trace=TrainingTrace(_records(cols[:, :i, b], start_iteration)))
        active = active[finite]
        if not active.size:
            return outcomes
        stack, rule = stack.take(finite), rule.take(finite)
        inputs, y = [buf[finite] for buf in inputs], y[finite]
        if jitter_rngs is not None:
            jitter_rngs = [r for r, ok in zip(jitter_rngs, finite) if ok]
    for b, blk in zip(active, unstack(stack)):
        outcomes[b] = (blk, cols[:, :, b])
    return outcomes


def run_steps(block: RegressionBlock, X: np.ndarray, y: np.ndarray,
              n_steps: int, start_iteration: int = 1, use_tau: bool = True,
              jitter_rng=None, rule=REINFORCED):
    """run_stack for one block; returns (block, list of TraceRecord).

    On divergence raises Diverged carrying the records accumulated so far.
    """
    (outcome,) = run_stack(
        stack_blocks([block]), np.asarray(X, dtype=np.float64)[None],
        np.asarray(y, dtype=np.float64)[None], n_steps,
        start_iteration=start_iteration, use_tau=use_tau,
        jitter_rngs=None if jitter_rng is None else [jitter_rng], rule=rule)
    if isinstance(outcome, Diverged):
        raise outcome
    block, cols = outcome
    return block, _records(cols, start_iteration)


def train(block: RegressionBlock, X: np.ndarray, y: np.ndarray,
          use_tau: bool = True, gamma_jitter: bool = False,
          jitter_seed: int = 0):
    """Run meta.iterations backprop steps; returns (block, TrainingTrace).

    With gamma_jitter, each iteration adds seeded standard-normal noise to
    gamma (experimental; off by default).  Raises Diverged with the partial
    trace attached if any weight or cost turns non-finite.
    """
    jitter_rng = np.random.default_rng(jitter_seed) if gamma_jitter else None
    block, records = run_steps(block, X, y, block.meta.iterations,
                               use_tau=use_tau, jitter_rng=jitter_rng)
    return block, TrainingTrace(records)
