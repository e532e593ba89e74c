"""Single regression block: sigmoid hidden layers, a linear output with a
learned scalar shift, and full-batch backpropagation whose gradient matrices
are scaled by a reinforcement coefficient before every weight update.

Shape conventions: samples are rows.  With m samples, d inputs, and width k,
theta1 is (d+1) x k, each extra hidden matrix is (k+1) x k, and theta2 is
(k+1) x 1; row 0 of every matrix holds the bias weights fed by an appended
all-ones column.

run_steps is the one training loop; each backprop_step picks the shift tau
from {-nu, 0, +nu} (nu: the previous iteration's mean error, a scalar on
the block) and hands the gamma-scaled gradients to an update rule, which
chooses where they are taken (gradient_point) and the new weights
(update).  ReinforcedRule is the default; the plain ANN uses it with
gamma = 1 and tau off, the optimizer baselines plug in their own rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import MAX_DEGREE, MIN_DEGREE, append_bias
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
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("iter,cost,grad1_norm,grad2_norm,tau,nu\n")
            for r in self.records:
                fh.write(f"{r.iteration},{r.cost!r},{r.grad1_norm!r},"
                         f"{r.grad2_norm!r},{r.tau!r},{r.nu!r}\n")


@dataclass
class StepResult:
    """One backprop iteration: selected shift, costs, and gradient matrices.

    deltas aligns with RegressionBlock.matrices() and already carries the
    gamma factor.
    """

    cost: float
    cost_tau_zero: float
    tau: float
    nu: float
    deltas: list
    grad1_norm: float
    grad2_norm: float


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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


def _forward_all(block: RegressionBlock, X: np.ndarray):
    """All hidden activations plus the raw (unshifted) output vector."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != block.input_dim:
        raise DimensionMismatch(
            f"expected {block.input_dim} input columns, got {X.shape}")
    activations = [sigmoid(append_bias(X) @ block.theta1)]
    for th in block.hidden:
        activations.append(sigmoid(append_bias(activations[-1]) @ th))
    raw = (append_bias(activations[-1]) @ block.theta2).ravel()
    return activations, raw


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


def _reg_sum(block: RegressionBlock) -> float:
    """Sum of squared non-bias weights over all matrices."""
    return float(sum(np.sum(th[1:] ** 2) for th in block.matrices()))


def _tau_cost(raw: np.ndarray, y: np.ndarray, tau: float,
              lam: float, reg: float, m: int) -> float:
    resid = y - (raw + tau)
    return (0.5 / m) * (float(np.dot(resid, resid)) + lam * reg)


def _pick_tau(raw, y, nu, lam, reg, m):
    """Argmin of the regularized cost over shifts {0, -nu, +nu}.

    Ties prefer 0, then -nu (the least perturbation first).  Returns
    (tau, cost_at_tau, cost_at_zero).
    """
    cost_zero = _tau_cost(raw, y, 0.0, lam, reg, m)
    best_tau, best_cost = 0.0, cost_zero
    for cand in (-nu, nu):
        c = _tau_cost(raw, y, cand, lam, reg, m)
        if c < best_cost:
            best_tau, best_cost = cand, c
    return best_tau, best_cost, cost_zero


def cost(block: RegressionBlock, X: np.ndarray, y: np.ndarray) -> float:
    """Regularized cost: (1/2m) [sum squared residuals + lam * sum of
    squared non-bias weights], residuals against the tau-shifted output."""
    _, raw = _forward_all(block, X)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size != raw.size:
        raise DimensionMismatch(f"targets {y.shape} vs {raw.size} samples")
    return _tau_cost(raw, y, block.tau, block.meta.lam, _reg_sum(block), y.size)


def block_gradients(block: RegressionBlock, X: np.ndarray, y: np.ndarray,
                    tau: float, gamma: float, activations=None, raw=None):
    """Gamma-scaled gradient matrices for every weight matrix.

    Each delta equals -m * dJ_data/dtheta * gamma at the given weights, with
    J_data the squared-error half-mean against the tau-shifted output.
    Returned list aligns with block.matrices().
    """
    if activations is None or raw is None:
        activations, raw = _forward_all(block, X)
    y = np.asarray(y, dtype=np.float64)
    dY = (y - (raw + tau))[:, None]

    last_b = append_bias(activations[-1])
    delta_out = (last_b.T @ dY) * gamma

    deltas = [delta_out]
    d = dY
    w_above = block.theta2
    layer_weights = [block.theta1] + list(block.hidden)
    for i in range(len(activations) - 1, -1, -1):
        h = activations[i]
        d = (d @ w_above[1:].T) * (h * (1.0 - h))
        inp = X if i == 0 else activations[i - 1]
        deltas.append((append_bias(inp).T @ d) * gamma)
        w_above = layer_weights[i]
    deltas.reverse()
    return deltas


class ReinforcedRule:
    """Default update rule: gradients at the current weights, then
    theta <- theta + (alpha * delta - lam * theta_nobias) / m."""

    def gradient_point(self, block: RegressionBlock) -> RegressionBlock:
        return block

    def update(self, block, at, deltas: list, m: int) -> list:
        meta = block.meta
        new_mats = []
        for th, delta in zip(block.matrices(), deltas):
            nobias = th.copy()
            nobias[0] = 0.0
            new_mats.append(th + (meta.alpha * delta - meta.lam * nobias) / m)
        return new_mats


REINFORCED = ReinforcedRule()


def backprop_step(block: RegressionBlock, X: np.ndarray, y: np.ndarray,
                  use_tau: bool = True, gamma: float | None = None,
                  rule=REINFORCED):
    """One full-batch iteration; returns (updated block, StepResult).

    Order: forward pass at rule.gradient_point(block), shift selection
    against that pre-update cost, gradients of every matrix at the same
    weights, then the new weights from rule.update.  The updated block
    carries nu for the next iteration: the mean error of the shifted
    output emitted here.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    meta = block.meta
    m = y.size
    if gamma is None:
        gamma = meta.gamma

    # Overflow here just means divergence; the finite check below raises.
    with np.errstate(over="ignore", invalid="ignore"):
        at = rule.gradient_point(block)
        activations, raw = _forward_all(at, X)
        if y.ndim != 1 or y.size != raw.size:
            raise DimensionMismatch(f"targets {y.shape} vs {raw.size} samples")

        nu = block.nu
        if nu is None:
            nu = compute_nu(np.zeros_like(y), y)

        reg = _reg_sum(at)
        if use_tau:
            tau, cost_sel, cost_zero = _pick_tau(raw, y, nu, meta.lam, reg, m)
        else:
            tau = 0.0
            cost_zero = _tau_cost(raw, y, 0.0, meta.lam, reg, m)
            cost_sel = cost_zero

        deltas = block_gradients(at, X, y, tau, gamma,
                                 activations=activations, raw=raw)
        new_mats = rule.update(block, at, deltas, m)
        grad1_norm = float(np.linalg.norm(deltas[0]))
        grad2_norm = float(np.linalg.norm(deltas[-1]))

    if not np.isfinite(cost_sel) or any(not np.all(np.isfinite(t)) for t in new_mats):
        raise Diverged(iteration=None)

    updated = replace(block, theta1=new_mats[0], hidden=new_mats[1:-1],
                      theta2=new_mats[-1], tau=tau,
                      nu=compute_nu(weighted_estimate(raw, tau), y))
    step = StepResult(cost=cost_sel, cost_tau_zero=cost_zero, tau=tau, nu=nu,
                      deltas=deltas, grad1_norm=grad1_norm,
                      grad2_norm=grad2_norm)
    return updated, step


def run_steps(block: RegressionBlock, X: np.ndarray, y: np.ndarray,
              n_steps: int, start_iteration: int = 1, use_tau: bool = True,
              jitter_rng=None, rule=REINFORCED):
    """Run n_steps backprop iterations; returns (block, list of TraceRecord).

    This is the only loop that trains block weights.  Iteration numbers in
    the records start at start_iteration.  On divergence raises Diverged
    carrying the records accumulated so far.
    """
    records = []
    for i in range(n_steps):
        gamma = None
        if jitter_rng is not None:
            gamma = block.meta.gamma + jitter_rng.standard_normal()
        try:
            block, step = backprop_step(block, X, y, use_tau=use_tau,
                                        gamma=gamma, rule=rule)
        except Diverged as exc:
            raise Diverged(iteration=start_iteration + i,
                           trace=TrainingTrace(records)) from exc
        records.append(TraceRecord(
            iteration=start_iteration + i, cost=step.cost,
            grad1_norm=step.grad1_norm, grad2_norm=step.grad2_norm,
            tau=step.tau, nu=step.nu, cost_tau_zero=step.cost_tau_zero))
    return block, records


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
