"""Independent reference for checking the benchmark's outputs.

A compact re-derivation of the block maths (sigmoid layers, gamma-scaled
gradients, the tau shift picked from {0, -nu, +nu}, L2 on non-bias weights),
of the seeded initialisation, fold split and validation split, and of the
dynamic-width probes.  It imports nothing from weldnet, so a change to the
package cannot change the reference it is checked against.  It evaluates the
sigmoid with the package's formula, so it matches the package as it is now;
checks still compare to a relative tolerance, because a later version may
change last bits (another sigmoid formula, a batched matmul) and training
amplifies them.
"""

from __future__ import annotations

import hashlib

import numpy as np

RTOL = 1e-6  # relative tolerance for every value checked against this module

RESIZE_PERIOD, PROBE_ITERATIONS, RESIZE_MARGIN, VAL_FRACTION = 250, 50, 1e-4, 0.2
MIN_NEURONS, MAX_NEURONS = 2, 100


class Diverged(Exception):
    pass


def derive_seed(*parts) -> int:
    text = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big") >> 1


def close(a: float, b: float, rtol: float = RTOL) -> bool:
    """Relative comparison that treats two infinities of one sign as equal."""
    if not (np.isfinite(a) and np.isfinite(b)):
        return a == b
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def standardize(features):
    means = features.mean(axis=0)
    stds = features.std(axis=0, ddof=1)
    return means, stds


def init_weights(d: int, k: int, depth: int, seed: int) -> list:
    rng = np.random.default_rng(seed)

    def fresh(rows_in, cols_out):
        limit = np.sqrt(6.0 / (rows_in + cols_out))
        mat = np.zeros((rows_in + 1, cols_out))
        mat[1:] = rng.uniform(-limit, limit, (rows_in, cols_out))
        return mat

    return [fresh(d, k)] + [fresh(k, k) for _ in range(depth - 1)] + [fresh(k, 1)]


def sigmoid(z):
    """Logistic function, split at 0 so that neither branch overflows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _with_bias(mat):
    out = np.empty((mat.shape[0], mat.shape[1] + 1))
    out[:, 0] = 1.0
    out[:, 1:] = mat
    return out


def forward(mats: list, X) -> tuple:
    """Bias-augmented layer inputs (input first) and the raw output."""
    inputs = [_with_bias(X)]
    for th in mats[:-1]:
        inputs.append(_with_bias(sigmoid(inputs[-1] @ th)))
    return inputs, (inputs[-1] @ mats[-1])[:, 0]


def predict(mats: list, tau: float, X):
    return forward(mats, X)[1] + tau


class Block:
    """Weights, shift and previous estimates of one block."""

    def __init__(self, mats, tau=0.0, prev=None):
        self.mats, self.tau, self.prev = mats, tau, prev

    @property
    def width(self) -> int:
        return self.mats[0].shape[1]


def run(block: Block, X, y, n: int, alpha: float, gamma: float, lam: float,
        use_tau: bool = True) -> Block:
    """n full-batch iterations; raises Diverged on a non-finite cost or weight."""
    m = y.size
    mats, prev = list(block.mats), block.prev
    tau = block.tau
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n):
            inputs, raw = forward(mats, X)
            nu = float(np.mean(prev - y))
            reg = sum(float(np.sum(th[1:] ** 2)) for th in mats)
            r0 = y - raw
            best = 0.5 / m * (float(r0 @ r0) + lam * reg)
            tau = 0.0
            if use_tau:
                for cand in (-nu, nu):
                    r = y - (raw + cand)
                    c = 0.5 / m * (float(r @ r) + lam * reg)
                    if c < best:
                        tau, best = cand, c
            d = (y - (raw + tau))[:, None]
            deltas = [None] * len(mats)
            for i in range(len(mats) - 1, -1, -1):
                deltas[i] = inputs[i].T @ d * gamma
                if i:
                    h = inputs[i][:, 1:]
                    d = (d @ mats[i][1:].T) * (h * (1.0 - h))
            new = []
            for th, delta in zip(mats, deltas):
                nobias = th.copy()
                nobias[0] = 0.0
                new.append(th + (alpha * delta - lam * nobias) / m)
            if not np.isfinite(best) or not all(np.all(np.isfinite(t)) for t in new):
                raise Diverged()
            mats, prev = new, raw + tau
    return Block(mats, tau, prev)


def val_cost(block: Block, X, y, lam: float) -> float:
    r = y - predict(block.mats, block.tau, X)
    reg = sum(float(np.sum(th[1:] ** 2)) for th in block.mats)
    return 0.5 / y.size * (float(r @ r) + lam * reg)


def cv_rmse(features, y, k, depth, alpha, gamma, lam, iterations, folds, seed):
    """Mean cross-validated RMSE of one grid point (inf if any fold diverges)."""
    m = y.size
    perm = np.random.default_rng(derive_seed(seed, "folds")).permutation(m)
    scores = []
    for f, val_idx in enumerate(np.sort(p) for p in np.array_split(perm, folds)):
        mask = np.ones(m, dtype=bool)
        mask[val_idx] = False
        means, stds = standardize(features[mask])
        Xt, Xv = (features[mask] - means) / stds, (features[val_idx] - means) / stds
        mats = init_weights(Xt.shape[1], k, depth, derive_seed(seed, "fold", f))
        try:
            blk = run(Block(mats, prev=np.zeros(mask.sum())), Xt, y[mask],
                      iterations, alpha, gamma, lam)
        except Diverged:
            return np.inf
        with np.errstate(over="ignore", invalid="ignore"):
            resid = y[val_idx] - predict(blk.mats, blk.tau, Xv)
            score = float(np.sqrt(np.mean(resid ** 2)))
        if not np.isfinite(score):
            return np.inf
        scores.append(score)
    return float(np.mean(scores))


def _resized(block: Block, width: int, rng) -> Block:
    k = block.width
    if width == k:
        return block
    th1, th2, hidden = block.mats[0], block.mats[-1], block.mats[1:-1]
    if width == k + 1:
        col = np.zeros((th1.shape[0], 1))
        col[1:, 0] = rng.uniform(-0.01, 0.01, th1.shape[0] - 1)
        th1 = np.hstack([th1, col])
        grown = []
        for th in hidden:
            mat = np.zeros((k + 2, k + 1))
            mat[:k + 1, :k] = th
            mat[1:, k] = rng.uniform(-0.01, 0.01, k + 1)
            mat[k + 1, :k] = rng.uniform(-0.01, 0.01, k)
            grown.append(mat)
        hidden = grown
        th2 = np.vstack([th2, rng.uniform(-0.01, 0.01, (1, 1))])
    else:
        j = int(np.argmin(np.linalg.norm(th1, axis=0)))
        th1 = np.delete(th1, j, axis=1)
        hidden = [np.delete(np.delete(th, 1 + j, axis=0), j, axis=1) for th in hidden]
        th2 = np.delete(th2, 1 + j, axis=0)
    return Block([th1] + hidden + [th2], block.tau, block.prev)


def train_dynamic(X, y, tname, k, depth, alpha, gamma, lam, iterations, seed):
    """One block of a dynamic-width fit, width probes included."""
    m = y.size
    n_val = min(max(1, int(m * VAL_FRACTION)), m - 2)
    perm = np.random.default_rng(derive_seed(seed, tname, "val")).permutation(m)
    val_idx, fit_idx = np.sort(perm[:n_val]), np.sort(perm[n_val:])
    Xt, yt, Xv, yv = X[fit_idx], y[fit_idx], X[val_idx], y[val_idx]
    block = Block(init_weights(X.shape[1], k, depth, derive_seed(seed, tname)),
                  prev=np.zeros(fit_idx.size))
    done = 0
    while done < iterations:
        n = min(RESIZE_PERIOD, iterations - done)
        block = run(block, Xt, yt, n, alpha, gamma, lam)
        done += n
        if done >= iterations:
            break
        rseed = derive_seed(seed, tname, "resize", done)
        probed = {}
        cur = block.width
        for w in sorted({cur - 1, cur, cur + 1}):
            if not MIN_NEURONS <= w <= MAX_NEURONS:
                continue
            cand = _resized(block, w, np.random.default_rng(derive_seed(rseed, "width", w)))
            try:
                cand = run(cand, Xt, yt, PROBE_ITERATIONS, alpha, gamma, lam)
                probed[w] = (cand, val_cost(cand, Xv, yv, lam))
            except Diverged:
                probed[w] = (None, np.inf)
        entry = val_cost(block, Xv, yv, lam)
        others = [(c, w) for w, (b, c) in sorted(probed.items()) if w != cur]
        best_cost, best_w = min(others, key=lambda t: t[0]) if others else (np.inf, None)
        if (best_w is not None and probed[best_w][0] is not None
                and best_cost < probed[cur][1] * (1.0 - RESIZE_MARGIN)
                and best_cost <= entry):
            block = probed[best_w][0]
    return block
