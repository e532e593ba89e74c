"""Comparison methods: plain ANN (no gradient reinforcement, no output
shift), adagrad/rmsprop/Nesterov-momentum update rules on the same block
architecture, closed-form normal-equation regression, and polynomial
least-squares fitted by gradient descent.

The plain ANN and the optimizer baselines train in block's one training
loop with gamma = 1 and the shift off; each optimizer plugs in an
OptimizerRule, which may share a stack with blocks of other rules.
mcr_fit fits a linear multi-target model and keeps its own loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .block import (
    BlockMetaParams,
    check_fields,
    init_block,
    run_steps,
    train,
)
from .dataset import Dataset, append_bias, expand_features
from .errors import Diverged, NonFiniteInput

OPTIMIZER_KINDS = ("adagrad", "rmsprop", "nesterov")


@dataclass
class OptimizerState:
    """An optimizer's kind and hyperparameters, and its accumulator
    (squared-gradient sum, moving average, or velocity, depending on
    kind), shaped like the weights it updates and created lazily on the
    first step."""

    kind: str
    eta: float
    rho: float = 0.9
    momentum: float = 0.9
    eps: float = 1e-8
    accum: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        check_fields(self)


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
    """Update rule of one OptimizerState (its accumulator None) for a run
    of a stack's blocks (block.Rows), the accumulator like their params
    and updated in place: the optimizer's arithmetic on the cost gradient
    at rows.params, written into the params.

    adagrad:  acc += g^2;                w - eta * g / (sqrt(acc) + eps)
    rmsprop:  acc = rho*acc + (1-rho)g^2; w - eta * g / (sqrt(acc) + eps)
    nesterov: v = mu*v - eta*g;           w + v, with g taken at the
              look-ahead weights w + mu*v (at w before the first step):
              look_ahead saves w in tmp and writes w + mu*v into the
              params, and update adds v to the saved w
    """

    def __init__(self, state: OptimizerState):
        self.state = state
        # like the params: nesterov's saved weights, adagrad's and
        # rmsprop's scratch
        self.tmp = None

    def start(self):
        return OptimizerRule(replace(self.state, accum=None))

    def look_ahead(self, rows) -> None:
        st = self.state
        if st.kind == "nesterov" and st.accum is not None:
            np.copyto(self.tmp, rows.params)
            np.multiply(st.momentum, st.accum, out=rows.params)
            np.add(self.tmp, rows.params, out=rows.params)

    def update(self, rows) -> None:
        st, w, g = self.state, rows.params, rows.step
        # g = (-delta + lam * nobias) / m; decay's bias entries stay +0.0
        np.multiply(rows.lam, w, out=rows.decay, where=rows.nonbias)
        np.negative(rows.grad, out=g)
        np.add(g, rows.decay, out=g)
        np.divide(g, rows.m, out=g)
        if st.accum is None:  # the first step, taken at w itself
            self.state = st = replace(st, accum=np.zeros_like(w))
            self.tmp = w.copy()
        acc, tmp = st.accum, self.tmp
        if st.kind == "nesterov":
            np.multiply(st.momentum, acc, out=acc)
            np.multiply(st.eta, g, out=g)
            np.subtract(acc, g, out=acc)
            np.add(tmp, acc, out=w)
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


def optimizer_train(kind: str, meta: BlockMetaParams, X: np.ndarray,
                    y: np.ndarray, seed: int, eta: float, **hyper):
    """Train a block with the named update rule instead of the reinforced
    update; gamma is fixed to 1 and the output shift stays off, so the
    comparison isolates the rule itself.  hyper holds any of rho, momentum
    and eps, each defaulting as in OptimizerState.  Returns (block, trace)."""
    block = init_block(replace(meta, gamma=1.0), np.asarray(X).shape[1], seed)
    return run_steps(block, X, y, meta.iterations, use_tau=False, rule=OptimizerRule(
        OptimizerState(kind, eta, **hyper)))


def normal_equation_fit(train_data: Dataset, degree: int) -> np.ndarray:
    """Closed-form least squares on polynomial-expanded, bias-augmented
    features via SVD pseudoinverse (singular values below 1e-12 relative
    are dropped).  Returns a (d'+1) x N weight matrix; NonFiniteInput if
    an expanded feature is beyond the float range."""
    Xb = append_bias(expand_features(train_data.features, degree))
    if not np.isfinite(Xb).all():
        raise NonFiniteInput(f"a degree {degree} feature power is beyond "
                             "the float range")
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
        check_fields(self)


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
