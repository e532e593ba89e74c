"""Independent oracles shared by the unit and acceptance tests.

Everything here recomputes quantities through a different route than the
library (finite differences, explicit loops, naive summation, or the
allocating step maths the workspace step replaced) so the tests do not
just compare the implementation with itself.
"""

from dataclasses import dataclass, replace

import numpy as np

from weldnet.baselines import lookahead, optimizer_step
from weldnet.block import (
    REINFORCED,
    TrainingTrace,
    Workspace,
    _forward_all,
    _records,
    backprop_step,
    stack_blocks,
    unstack,
)
from weldnet.errors import Diverged, LengthMismatch


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


def forward_one(block, X):
    """Hidden activations and raw output of one block (a stack of one)."""
    stack = stack_blocks([block])
    ws = Workspace(stack, np.asarray(X, dtype=np.float64)[None])
    _forward_all(stack, ws)
    return [a[0] for a in ws.acts], ws.raw[0]


def step_one(block, X, y, use_tau=True, gamma=None, rule=REINFORCED):
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
        finite = backprop_step(stack, ws, use_tau=use_tau, gamma=gamma,
                               rule=rule)
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
    with the allocating step; rule is RefReinforced() by default."""
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
                outcomes[b] = Diverged(iteration=1 + i, trace=TrainingTrace(
                    _records(cols[:, :i, b], 1)))
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
        outcomes[b] = (blk, cols[:, :, b])
    return outcomes
