"""Independent oracles shared by the unit and acceptance tests.

Everything here recomputes quantities through a different route than the
library (finite differences, explicit loops, naive summation) so the tests
do not just compare the implementation with itself.
"""

from dataclasses import replace

import numpy as np

from weldnet.block import (
    REINFORCED,
    StepResult,
    _forward_all,
    backprop_step,
    layer_inputs,
    stack_blocks,
    unstack,
)
from weldnet.errors import Diverged


def forward_one(block, X):
    """Hidden activations and raw output of one block (a stack of one)."""
    stack = stack_blocks([block])
    inputs = layer_inputs(stack, np.asarray(X, dtype=np.float64)[None])
    activations, raw = _forward_all(stack, inputs)
    return [a[0] for a in activations], raw[0]


def step_one(block, X, y, use_tau=True, gamma=None, rule=REINFORCED):
    """One backprop_step of one block (a stack of one) on X (m, d), y (m,).

    Returns (updated block, StepResult with scalar fields and 2-D deltas);
    raises Diverged if the cost or the new weights are not finite.
    """
    stack = stack_blocks([block])
    inputs = layer_inputs(stack, np.asarray(X, dtype=np.float64)[None])
    y = np.asarray(y, dtype=np.float64)[None]
    if gamma is not None:
        gamma = np.array([gamma], dtype=np.float64)
    stack, step, finite = backprop_step(stack, inputs, y, use_tau=use_tau,
                                        gamma=gamma, rule=rule)
    if not finite[0]:
        raise Diverged(iteration=None)
    (updated,) = unstack(stack)
    return updated, StepResult(
        cost=float(step.cost[0]), cost_tau_zero=float(step.cost_tau_zero[0]),
        tau=float(step.tau[0]), nu=float(step.nu[0]),
        deltas=[d[0] for d in step.deltas],
        grad1_norm=float(step.grad1_norm[0]),
        grad2_norm=float(step.grad2_norm[0]))


def data_cost(block, X, y, tau=0.0):
    """Half-mean squared error of the tau-shifted output (no regularizer)."""
    _, raw = forward_one(block, X)
    resid = y - (raw + tau)
    return 0.5 / y.size * float(resid @ resid)


def fd_data_gradients(block, X, y, tau=0.0, h=1e-5):
    """Central finite-difference gradients of the data cost for every
    weight matrix, one perturbed entry at a time."""
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
                vals.append(data_cost(b, X, y, tau))
            g[idx] = (vals[0] - vals[1]) / (2.0 * h)
        grads.append(g)
    return grads


def max_rel_error(got, want, floor=1e-6):
    """Worst-case per-entry relative error with an absolute floor."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), floor)))
