"""Comparison methods: plain ANN (no gradient reinforcement, no output
shift), adagrad/rmsprop/Nesterov-momentum update rules on the same block
architecture, closed-form normal-equation regression, and polynomial
least-squares fitted by gradient descent.

The plain ANN and the optimizer baselines train in block's one training
loop with gamma = 1 and the shift off; each optimizer plugs in an
OptimizerRule (optimizer_rules makes one per stack).
mcr_fit fits a linear multi-target model and keeps its own loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .block import (
    MAX_ITERATIONS,
    MIN_ITERATIONS,
    BlockMetaParams,
    init_block,
    param_views,
    run_blocks,
    train,
    trained_block,
)
from .dataset import MAX_DEGREE, MIN_DEGREE, Dataset, append_bias, expand_features
from .errors import Diverged, ShapeMismatch

OPTIMIZER_KINDS = ("plain", "adagrad", "rmsprop", "nesterov")


@dataclass
class OptimizerState:
    """Update rule plus per-matrix accumulator (squared-gradient sum, moving
    average, or velocity, depending on kind).  One state per weight matrix;
    the accumulator is created lazily on the first step."""

    kind: str
    eta: float
    rho: float = 0.9
    momentum: float = 0.9
    eps: float = 1e-8
    accum: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if not self.eta > 0:
            raise ValueError("eta must be > 0")
        if not (0.0 < self.rho < 1.0):
            raise ValueError("rho must be in (0, 1)")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")
        if not self.eps > 0:
            raise ValueError("eps must be > 0")


def optimizer_step(state: OptimizerState, weights: np.ndarray,
                   gradient: np.ndarray):
    """Apply one update; returns (new state, new weights).

    plain:    w - eta * g
    adagrad:  acc += g^2;                w - eta * g / (sqrt(acc) + eps)
    rmsprop:  acc = rho*acc + (1-rho)g^2; w - eta * g / (sqrt(acc) + eps)
    nesterov: v = mu*v - eta*g;           w + v   (g evaluated by the caller
              at the look-ahead point, see lookahead())
    """
    weights = np.asarray(weights, dtype=np.float64)
    gradient = np.asarray(gradient, dtype=np.float64)
    if weights.shape != gradient.shape:
        raise ShapeMismatch(f"weights {weights.shape} vs gradient {gradient.shape}")
    acc = state.accum
    if acc is None:
        acc = np.zeros_like(weights)
    elif acc.shape != weights.shape:
        raise ShapeMismatch(f"accumulator {acc.shape} vs weights {weights.shape}")

    if state.kind == "plain":
        return state, weights - state.eta * gradient
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


def lookahead(state: OptimizerState, weights: np.ndarray) -> np.ndarray:
    """Point where the gradient should be evaluated for this state."""
    if state.kind == "nesterov" and state.accum is not None:
        return weights + state.momentum * state.accum
    return weights


def plain_ann_train(meta: BlockMetaParams, X: np.ndarray, y: np.ndarray,
                    seed: int):
    """Block trained with gamma forced to 1 and the output shift disabled.

    The meta's gamma setting is ignored; everything else follows the
    reinforced training path exactly, so results are bit-comparable.
    """
    plain_meta = replace(meta, gamma=1.0)
    block = init_block(plain_meta, np.asarray(X).shape[1], seed)
    return train(block, X, y, use_tau=False)


class OptimizerRule:
    """Update rule of one OptimizerState for a whole stack, its accumulator
    (B, P) like the stack's params and updated in place: gradients at the
    look-ahead weights, then optimizer_step's arithmetic on the cost
    gradient, op for op, written into the stack's params."""

    def __init__(self, state: OptimizerState):
        self.state = state
        self.tmp = None  # (B, P) scratch: the look-ahead weights, then the step's

    def _tmp(self, params):
        if self.tmp is None:
            self.tmp = np.empty_like(params)
        return self.tmp

    def gradient_point(self, stack):
        st = self.state
        if st.kind != "nesterov" or st.accum is None:
            return stack
        ahead = np.multiply(st.momentum, st.accum, out=self._tmp(stack.params))
        np.add(stack.params, ahead, out=ahead)
        return replace(stack, params=ahead, mats=param_views(ahead, stack.mats))

    def update(self, stack, at, ws):
        st, w, g = self.state, stack.params, ws.step
        # g = (-delta + lam * nobias) / m; decay's bias entries stay +0.0
        np.multiply(stack.lam[:, None], at.params, out=ws.decay, where=ws.nonbias)
        np.negative(ws.grad, out=g)
        np.add(g, ws.decay, out=g)
        np.divide(g, ws.m, out=g)
        if st.kind == "plain":
            np.multiply(st.eta, g, out=g)
            np.subtract(w, g, out=w)
            return
        if st.accum is None:
            self.state = st = replace(st, accum=np.zeros_like(w))
        acc, tmp = st.accum, self._tmp(w)
        if st.kind == "nesterov":
            np.multiply(st.momentum, acc, out=acc)
            np.multiply(st.eta, g, out=g)
            np.subtract(acc, g, out=acc)
            np.add(w, acc, out=w)
            return
        if st.kind == "adagrad":
            np.multiply(g, g, out=tmp)
        else:  # rmsprop
            np.multiply(1.0 - st.rho, g, out=tmp)
            np.multiply(tmp, g, out=tmp)
            np.multiply(st.rho, acc, out=acc)
        np.add(acc, tmp, out=acc)
        np.sqrt(acc, out=tmp)
        np.add(tmp, st.eps, out=tmp)
        np.multiply(st.eta, g, out=g)
        np.divide(g, tmp, out=g)
        np.subtract(w, g, out=w)

    def take(self, keep) -> "OptimizerRule":
        st = self.state
        return OptimizerRule(st if st.accum is None
                             else replace(st, accum=st.accum[keep]))


def optimizer_rules(kind: str, eta: float, rho: float = 0.9,
                    momentum: float = 0.9, eps: float = 1e-8):
    """Update-rule factory for block.run_blocks: a fresh OptimizerRule, one
    OptimizerState over the stack's params, for every stack."""
    def rule_for(stack):
        return OptimizerRule(OptimizerState(kind, eta, rho, momentum, eps))
    return rule_for


def optimizer_train(kind: str, meta: BlockMetaParams, X: np.ndarray,
                    y: np.ndarray, seed: int, eta: float, rho: float = 0.9,
                    momentum: float = 0.9, eps: float = 1e-8):
    """Train a block with the named update rule instead of the reinforced
    update; gamma is fixed to 1 and the output shift stays off, so the
    comparison isolates the rule itself.  Returns (block, trace)."""
    block = init_block(replace(meta, gamma=1.0), np.asarray(X).shape[1], seed)
    (outcome,) = run_blocks([block], [X], [y], use_tau=False,
                            rule_for=optimizer_rules(kind, eta, rho, momentum, eps))
    return trained_block(outcome)


def normal_equation_fit(train_data: Dataset, degree: int) -> np.ndarray:
    """Closed-form least squares on polynomial-expanded, bias-augmented
    features via SVD pseudoinverse (singular values below 1e-12 relative
    are dropped).  Returns a (d'+1) x N weight matrix."""
    Xb = append_bias(expand_features(train_data.features, degree))
    return np.linalg.pinv(Xb, rcond=1e-12) @ train_data.targets


def linear_predict(theta: np.ndarray, features: np.ndarray,
                   degree: int) -> np.ndarray:
    """Apply a NER/MCR weight matrix to raw features."""
    return append_bias(expand_features(features, degree)) @ theta


@dataclass(frozen=True)
class McrParams:
    """Hyperparameters of the gradient-descent polynomial regression."""

    alpha: float
    lam: float
    degree: int
    iterations: int

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be > 0")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if not (MIN_DEGREE <= self.degree <= MAX_DEGREE):
            raise ValueError(f"degree must be in [{MIN_DEGREE}, {MAX_DEGREE}]")
        if not (MIN_ITERATIONS <= self.iterations <= MAX_ITERATIONS):
            raise ValueError(
                f"iterations must be in [{MIN_ITERATIONS}, {MAX_ITERATIONS}]")


def mcr_fit(params: McrParams, train_data: Dataset, seed: int) -> np.ndarray:
    """Full-batch gradient descent on regularized least squares over
    polynomial-expanded features (bias weight unregularized).  Returns the
    (d'+1) x N weight matrix."""
    Xb = append_bias(expand_features(train_data.features, params.degree))
    Y = train_data.targets
    m = Y.shape[0]
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-0.01, 0.01, (Xb.shape[1], Y.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, params.iterations + 1):
            resid = Xb @ theta - Y
            nobias = theta.copy()
            nobias[0] = 0.0
            theta = theta - params.alpha * ((Xb.T @ resid + params.lam * nobias) / m)
            if not np.all(np.isfinite(theta)):
                raise Diverged(iteration=t)
    return theta
