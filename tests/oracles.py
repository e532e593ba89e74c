"""Independent oracles shared by the unit and acceptance tests.

Everything here recomputes quantities through a different route than the
library (finite differences, explicit loops, naive summation, the
allocating step maths the workspace step replaced, Kendall's tau over
all pairs at once, CSV cells read and written one at a time, a block
resized matrix by matrix, one block trained as a hand-built stack of one,
or width probes trained one candidate at a time) so the tests do not just
compare the implementation with itself.
"""

import csv
import io
from dataclasses import dataclass, replace

import numpy as np

from weldnet.block import (
    REINFORCED,
    TrainingTrace,
    Workspace,
    _forward_all,
    backprop_step,
    cost,
    run_stack,
    stack_blocks,
    trained_block,
    unstack,
)
from weldnet.errors import (
    ConstantInput,
    Diverged,
    LengthMismatch,
    ParseError,
)
from weldnet.model import (
    PROBE_ITERATIONS,
    RESIZE_MARGIN,
    _candidate_widths,
    _resize_width,
)
from weldnet.rng import derive_seed


@dataclass
class StepResult:
    """One backprop iteration of one block: selected shift, costs, and the
    gamma-scaled gradient matrices (aligned with RegressionBlock.matrices())."""

    cost: float
    cost_tau_zero: float
    tau: float
    nu: float
    deltas: list
    grad1_norm: float
    grad2_norm: float


def compute_nu(estimates, y):
    """Mean estimation error of one iteration's shifted output."""
    estimates = np.asarray(estimates, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if estimates.shape != y.shape or y.ndim != 1 or y.size == 0:
        raise LengthMismatch(f"estimates {estimates.shape} vs targets {y.shape}")
    return float(np.mean(estimates - y))


def kendall_all_pairs(x, y) -> float:
    """Kendall tau-b from the n x n sign matrices of all pairs at once."""
    n = x.size
    iu = np.triu_indices(n, k=1)
    sx = np.sign(x[:, None] - x[None, :])[iu]
    sy = np.sign(y[:, None] - y[None, :])[iu]
    concordance = float(np.sum(sx * sy))
    n0 = n * (n - 1) // 2
    n1 = sum(t * (t - 1) // 2 for t in np.unique(x, return_counts=True)[1])
    n2 = sum(t * (t - 1) // 2 for t in np.unique(y, return_counts=True)[1])
    denom = float(np.sqrt(float(n0 - n1) * float(n0 - n2)))
    if denom == 0.0:
        raise ConstantInput("tau undefined for a constant vector")
    return min(1.0, max(-1.0, concordance / denom))


def csv_body_loop(lines, width) -> np.ndarray:
    """CSV body lines (line ends removed) parsed one cell at a time; raises
    the ParseError of the first line with a wrong cell count or the first
    unparsable cell (one holding "_" or a non-ASCII character, which
    Python's float may read, is unparsable), else of the first non-finite
    cell."""
    rows = np.empty((len(lines), width))
    for i, line in enumerate(lines):
        cells = line.split(",")
        if len(cells) != width:
            raise ParseError(i + 1, len(cells), line)
        for j, cell in enumerate(cells):
            if "_" in cell or not cell.isascii():
                raise ParseError(i + 1, j + 1, cell.strip())
            try:
                rows[i, j] = float(cell)
            except ValueError:
                raise ParseError(i + 1, j + 1, cell.strip()) from None
    for i, line in enumerate(lines):
        for j, cell in enumerate(line.split(",")):
            if not np.isfinite(float(cell)):
                raise ParseError(i + 1, j + 1, cell.strip())
    return rows


def csv_writer_bytes(header, rows) -> bytes:
    """What write_csv should write: each row through a "\r\n"-terminated
    csv.writer, cut back to "\n"."""
    out = io.StringIO()
    ref = csv.writer(out, lineterminator="\r\n")
    for row in [header, *rows]:
        ref.writerow(row)
        out.seek(out.tell() - 2)
        out.write("\n")
        out.truncate()
    return out.getvalue().encode("utf-8")


def average_ranks_loop(v) -> np.ndarray:
    """Average ranks 1..n, one run of equal sorted values at a time."""
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size, dtype=np.float64)
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def forward_one(block, X):
    """Hidden activations and raw output of one block (a stack of one)."""
    X = np.asarray(X, dtype=np.float64)
    stack = stack_blocks([block])
    ws = Workspace(stack, X[None], np.zeros((1, len(X))))
    _forward_all(stack, ws)
    return [a[0] for a in ws.acts], ws.raw[0]


def step_one(block, X, y, use_tau=True, gamma=None):
    """One backprop_step of one block (a stack of one) on X (m, d), y (m,),
    through a workspace made for this step alone.

    Returns (updated block, StepResult); raises Diverged if the cost or the
    new weights are not finite.
    """
    stack = stack_blocks([block])
    ws = Workspace(stack, np.asarray(X, dtype=np.float64)[None],
                   np.asarray(y, dtype=np.float64)[None])
    if gamma is not None:
        gamma = np.array([gamma], dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        finite = backprop_step(stack, ws, use_tau=use_tau, gamma=gamma)
    if not finite[0]:
        raise Diverged(iteration=None)
    (updated,) = unstack(stack)
    cost, grad1, grad2, tau, nu, cost_zero = ws.row[:, 0].tolist()
    return updated, StepResult(
        cost=cost, cost_tau_zero=cost_zero, tau=tau, nu=nu,
        deltas=[d[0].copy() for d in ws.deltas], grad1_norm=grad1,
        grad2_norm=grad2)


def data_cost(block, X, y, tau=0.0, lam=0.0):
    """Half-mean squared error of the tau-shifted output, plus lam / (2m)
    times the sum of squared non-bias weights (by default no regularizer)."""
    _, raw = forward_one(block, X)
    resid = y - (raw + tau)
    reg = sum(float(np.sum(th[1:] ** 2)) for th in block.matrices())
    return 0.5 / y.size * (float(resid @ resid) + lam * reg)


def fd_data_gradients(block, X, y, tau=0.0, h=1e-5, lam=0.0):
    """Central finite-difference gradients of data_cost for every weight
    matrix, one perturbed entry at a time."""
    grads = []
    for mat_idx, th in enumerate(block.matrices()):
        g = np.zeros_like(th)
        for idx in np.ndindex(th.shape):
            vals = []
            for sgn in (+1.0, -1.0):
                mats = [t.copy() for t in block.matrices()]
                mats[mat_idx][idx] += sgn * h
                b = replace(block, theta1=mats[0], hidden=mats[1:-1],
                            theta2=mats[-1])
                vals.append(data_cost(b, X, y, tau, lam))
            g[idx] = (vals[0] - vals[1]) / (2.0 * h)
        grads.append(g)
    return grads


def max_rel_error(got, want, floor=1e-6):
    """Worst-case per-entry relative error with an absolute floor."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), floor)))


# --- the allocating step: the training loop's maths before the workspace ---
#
# A fresh array for every intermediate, activations as views of the layer
# inputs, the backprop through theta2 as a K = 1 matmul and np.mean for nu.
# The workspace loop must match it bit for bit.


def _ref_sigmoid(z, out):
    e = np.exp(np.minimum(z, -z))
    return np.divide(np.maximum(e, z >= 0), 1.0 + e, out=out)


def _ref_sq_norms(mats):
    f = mats.reshape(len(mats), 1, -1)
    return (f @ f.swapaxes(1, 2))[:, 0, 0]


def _ref_tau_cost(raw, y, tau, lam, reg, m):
    resid = y - (raw + tau[:, None])
    return (0.5 / m) * (_ref_sq_norms(resid) + lam * reg)


def _ref_step(mats, inputs, y, nu, lam, gamma, use_tau):
    """(cost, cost_zero, tau, deltas, raw) of one step at weights mats."""
    m = y.shape[1]
    activations = [_ref_sigmoid(a_in @ th, out=a_out[:, :, 1:])
                   for th, a_in, a_out in zip(mats, inputs, inputs[1:])]
    raw = (inputs[-1] @ mats[-1])[:, :, 0]
    reg = 0
    for th in mats:
        reg = reg + (th[:, 1:] ** 2).reshape(len(th), -1).sum(axis=1)
    tau = np.zeros_like(nu)
    cost_zero = _ref_tau_cost(raw, y, tau, lam, reg, m)
    best = cost_zero
    if use_tau:
        for cand in (-nu, nu):
            c = _ref_tau_cost(raw, y, cand, lam, reg, m)
            better = c < best
            tau = np.where(better, cand, tau)
            best = np.where(better, c, best)
    g = gamma[:, None, None]
    d = (y - (raw + tau[:, None]))[:, :, None]
    deltas = [(inputs[-1].swapaxes(1, 2) @ d) * g]
    for i in range(len(inputs) - 1, 0, -1):
        h = activations[i - 1]
        d = (d @ mats[i][:, 1:].swapaxes(1, 2)) * (h * (1.0 - h))
        deltas.append((inputs[i - 1].swapaxes(1, 2) @ d) * g)
    deltas.reverse()
    return best, cost_zero, tau, deltas, raw


class RefReinforced:
    """theta + (alpha * delta - lam * theta_nobias) / m, into new arrays."""

    def __call__(self, mats, at, deltas, alpha, lam, m):
        new = []
        for th, delta in zip(mats, deltas):
            nobias = th.copy()
            nobias[:, 0] = 0.0
            new.append(th + (alpha[:, None, None] * delta
                             - lam[:, None, None] * nobias) / m)
        return new

    def point(self, mats):
        return mats

    def take(self, keep):
        return self


def optimizer_step(state, weights: np.ndarray, gradient: np.ndarray):
    """Apply one update of a baselines.OptimizerState to one weight matrix,
    into new arrays; returns (new state, new weights).

    adagrad:  acc += g^2;                w - eta * g / (sqrt(acc) + eps)
    rmsprop:  acc = rho*acc + (1-rho)g^2; w - eta * g / (sqrt(acc) + eps)
    nesterov: v = mu*v - eta*g;           w + v   (g evaluated by the caller
              at the look-ahead point, see lookahead())
    """
    weights = np.asarray(weights, dtype=np.float64)
    gradient = np.asarray(gradient, dtype=np.float64)
    if weights.shape != gradient.shape:
        raise ValueError(f"weights {weights.shape} vs gradient {gradient.shape}")
    acc = state.accum
    if acc is None:
        acc = np.zeros_like(weights)
    elif acc.shape != weights.shape:
        raise ValueError(f"accumulator {acc.shape} vs weights {weights.shape}")

    if state.kind == "adagrad":
        acc = acc + gradient * gradient
        new_w = weights - state.eta * gradient / (np.sqrt(acc) + state.eps)
    elif state.kind == "rmsprop":
        acc = state.rho * acc + (1.0 - state.rho) * gradient * gradient
        new_w = weights - state.eta * gradient / (np.sqrt(acc) + state.eps)
    else:  # nesterov
        acc = state.momentum * acc - state.eta * gradient
        new_w = weights + acc
    return replace(state, accum=acc), new_w


def lookahead(state, weights: np.ndarray) -> np.ndarray:
    """Point where the gradient should be evaluated for this state."""
    if state.kind == "nesterov" and state.accum is not None:
        return weights + state.momentum * state.accum
    return weights


class RefOptimizer:
    """An optimizer rule (see baselines.OptimizerRule) on its own states."""

    def __init__(self, states):
        self.states = states

    def point(self, mats):
        return [lookahead(st, th) for st, th in zip(self.states, mats)]

    def __call__(self, mats, at, deltas, alpha, lam, m):
        new, states = [], []
        for st, th, sh, delta in zip(self.states, mats, at, deltas):
            nobias = sh.copy()
            nobias[:, 0] = 0.0
            st, th = optimizer_step(st, th, (-delta + lam[:, None, None] * nobias) / m)
            states.append(st)
            new.append(th)
        self.states = states
        return new

    def take(self, keep):
        return RefOptimizer([st if st.accum is None
                             else replace(st, accum=st.accum[keep])
                             for st in self.states])


def reference_run(blocks, X, y, n_steps, use_tau=True, jitter_rngs=None,
                  rule=None):
    """run_stack's outcomes for blocks on X (B, m, d), y (B, m), computed
    with the allocating step; rule is RefReinforced() by default.

    A diverged block leaves this stack: every array, the rule's state and
    the jitter generators are cut down to the survivors.  run_stack keeps
    it in place behind a mask instead; this policy is kept on purpose, as
    an independent check that a masked block changes no other block."""
    stack = stack_blocks(blocks)
    rule = RefReinforced() if rule is None else rule
    B, m, _ = X.shape
    inputs = [np.empty((B, m, th.shape[1])) for th in stack.mats]
    for buf in inputs:
        buf[:, :, 0] = 1.0
    inputs[0][:, :, 1:] = X
    mats, tau, gamma0 = stack.mats, stack.tau, stack.gamma
    alpha, lam = stack.alpha, stack.lam
    nu = np.mean(np.zeros_like(y) - y, axis=1)
    outcomes, active = [None] * B, np.arange(B)
    cols = np.empty((6, n_steps, B))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            gamma = gamma0
            if jitter_rngs is not None:
                gamma = gamma0 + np.array([r.standard_normal() for r in jitter_rngs])
            at = rule.point(mats)
            cost, cost_zero, tau, deltas, raw = _ref_step(
                at, inputs, y, nu, lam, gamma, use_tau)
            mats = rule(mats, at, deltas, alpha, lam, m)
            finite = np.isfinite(cost)
            for th in mats:
                finite &= np.isfinite(th).reshape(len(th), -1).all(axis=1)
            cols[:, i, active] = (cost, np.sqrt(_ref_sq_norms(deltas[0])),
                                  np.sqrt(_ref_sq_norms(deltas[-1])), tau, nu,
                                  cost_zero)
            nu = np.mean((raw + tau[:, None]) - y, axis=1)
            if finite.all():
                continue
            for b in active[~finite]:
                outcomes[b] = Diverged(iteration=1 + i,
                                       trace=TrainingTrace(cols[:, :i, b]))
            active = active[finite]
            if not active.size:
                return outcomes
            mats = [th[finite] for th in mats]
            inputs = [buf[finite] for buf in inputs]
            y, nu, tau = y[finite], nu[finite], tau[finite]
            gamma0, alpha, lam = gamma0[finite], alpha[finite], lam[finite]
            rule = rule.take(finite)
            if jitter_rngs is not None:
                jitter_rngs = [r for r, ok in zip(jitter_rngs, finite) if ok]
    stack = replace(stack, mats=mats, tau=tau, nu=nu,
                    metas=[stack.metas[b] for b in active])
    for b, blk in zip(active, unstack(stack)):
        outcomes[b] = (blk, TrainingTrace(cols[:, :, b]))
    return outcomes


def resize_width(block, width: int, rng):
    """model._resize_width as it was written matrix by matrix: theta1, the
    hidden matrices, then theta2, each grown or shrunk by its own rule."""
    k = block.width
    if width == k:
        return block
    theta1, theta2 = block.theta1, block.theta2
    hidden = list(block.hidden)
    if width == k + 1:
        new_col = np.zeros((theta1.shape[0], 1))
        new_col[1:, 0] = rng.uniform(-0.01, 0.01, theta1.shape[0] - 1)
        theta1 = np.hstack([theta1, new_col])
        grown = []
        for th in hidden:
            mat = np.zeros((k + 2, k + 1))
            mat[:k + 1, :k] = th
            mat[1:, k] = rng.uniform(-0.01, 0.01, k + 1)
            mat[k + 1, :k] = rng.uniform(-0.01, 0.01, k)
            grown.append(mat)
        hidden = grown
        theta2 = np.vstack([theta2, rng.uniform(-0.01, 0.01, (1, 1))])
    elif width == k - 1:
        with np.errstate(over="ignore"):  # a norm beyond the float range is inf
            j = int(np.argmin(np.linalg.norm(block.theta1, axis=0)))
        theta1 = np.delete(block.theta1, j, axis=1)
        hidden = [np.delete(np.delete(th, 1 + j, axis=0), j, axis=1)
                  for th in hidden]
        theta2 = np.delete(block.theta2, 1 + j, axis=0)
    else:
        raise ValueError(f"can only resize by one unit, got {k} -> {width}")
    meta = replace(block.meta, neurons=width)
    return replace(block, theta1=theta1, theta2=theta2, hidden=hidden, meta=meta)


def run_steps_stacked(block, X, y, n_steps, use_tau=True, jitter_rng=None,
                      rule=REINFORCED):
    """block.run_steps as it was written before it went through run_blocks:
    a stack of one built by hand and run by run_stack; returns (block,
    TrainingTrace), or raises Diverged."""
    (outcome,) = run_stack(
        stack_blocks([block]), np.asarray(X, dtype=np.float64)[None],
        np.asarray(y, dtype=np.float64)[None], n_steps, use_tau=use_tau,
        jitter_rngs=None if jitter_rng is None else [jitter_rng], rule=rule)
    return trained_block(outcome)


def resize_hidden_loop(block, Xt, yt, Xv, yv, seed, use_tau=True):
    """model.resize_hidden as it was written before its candidates trained
    in one call: each candidate width probe-trained alone (by
    run_steps_stacked) and scored at once.  Returns (the block it chose,
    {width: (probed candidate, or None if it diverged, validation cost)})."""
    probed = {}
    for w in _candidate_widths(block.width):
        rng = np.random.default_rng(derive_seed(seed, "width", w))
        cand = _resize_width(block, w, rng)
        try:
            cand, _ = run_steps_stacked(cand, Xt, yt, PROBE_ITERATIONS,
                                        use_tau=use_tau)
            probed[w] = (cand, cost(cand, Xv, yv))
        except Diverged:
            probed[w] = (None, np.inf)
    best_cost, best_w = min(((c, w) for w, (_, c) in probed.items()
                             if w != block.width and np.isfinite(c)),
                            default=(np.inf, None))
    if (best_cost < probed[block.width][1] * (1.0 - RESIZE_MARGIN)
            and best_cost <= cost(block, Xv, yv)):
        return probed[best_w][0], probed
    return block, probed
