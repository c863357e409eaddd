"""Product-space variant for sums of several set-valued operators.

Solves 0 in B(x) + sum_k A_k(x) by lifting to p copies of the space with
block weights rho_k, projecting onto the diagonal with the weighted mean,
and evaluating one resolvent per block and step.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .crifba import KMState, extrapolate, iterate, schedule_violations
from .metriclin import all_finite, as_vector


class ProductVector:
    """p blocks of dimension d with positive weights summing to one."""

    def __init__(self, blocks, weights):
        b = np.asarray(blocks, dtype=float)
        if b.ndim != 2:
            raise ValueError("blocks must form a (p, d) array")
        w = np.asarray(weights, dtype=float).reshape(-1)
        if len(w) != b.shape[0]:
            raise ValueError("one weight per block required")
        if np.any(w <= 0) or np.any(w >= 1) and len(w) > 1 or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be in (0,1) and sum to 1")
        self.blocks = b
        self.weights = w

    @property
    def p(self):
        return self.blocks.shape[0]

    @property
    def d(self):
        return self.blocks.shape[1]

    def bar(self):
        """Weighted mean across blocks."""
        return self.weights @ self.blocks

    def inner(self, other):
        return float(np.sum(self.weights[:, None] * self.blocks * other.blocks))

    def norm2(self):
        return self.inner(self)

    def with_blocks(self, blocks):
        """New blocks with these weights, which were checked on construction."""
        b = np.asarray(blocks, dtype=float)
        if b.ndim != 2:
            raise ValueError("blocks must form a (p, d) array")
        if b.shape[0] != self.p:
            raise ValueError("one weight per block required")
        out = object.__new__(ProductVector)
        out.blocks = b
        out.weights = self.weights
        return out


def constant_product(x, p, weights=None):
    x = as_vector(x)
    w = np.full(p, 1.0 / p) if weights is None else np.asarray(weights, float)
    return ProductVector(np.tile(x, (p, 1)), w)


@dataclass
class GcrifbaParams:
    beta: float
    lam: float
    w: float = 0.5
    e: float = 3.0
    s0: float = 2.5
    s1: float = 1.0
    nu0: float = 0.0


def default_gcrifba_params(beta, safety=0.9, **overrides):
    lam = overrides.pop("lam", None)
    p = GcrifbaParams(beta=beta, lam=0.0, **overrides)
    p.lam = lam if lam is not None else safety * 4.0 * p.w * (1.0 - p.w) * beta
    return p


def validate_gcrifba(params):
    reasons = schedule_violations(params)
    if not 0.0 < params.lam < 4.0 * params.w * (1.0 - params.w) * params.beta:
        reasons.append("lam outside (0, 4w(1-w)beta)")
    if reasons:
        raise ValueError("invalid product-space parameters: " + "; ".join(reasons))


def apply_T(z, A_list, B, lam):
    """One application of the splitting operator on the product space.

    Block k of the output is J_{(lam/rho_k) A_k}(2 zbar - lam B(zbar) - z_k)
    - zbar + z_k, with zbar the weighted mean.
    """
    blocks, weights = z.blocks, z.weights
    zbar = z.bar()
    fw = 2.0 * zbar - lam * B(zbar)
    out = np.empty_like(blocks)
    for k in range(len(blocks)):
        out[k] = A_list[k].resolvent(lam / weights[k], fw - blocks[k]) \
            - zbar + blocks[k]
    return z.with_blocks(out)


def gcrifba_step(state, params, A_list, B, weights):
    """One inertial-corrected relaxed step over the product space.

    state.x is the (p, d) block array and weights the block weights. The
    forward point 2u - lam B(u) is formed once for all blocks; the new
    blocks are screened together with one dot.
    """
    lam, w = params.lam, params.w
    z = extrapolate(params, state)
    u = weights @ z
    fw = 2.0 * u - lam * B(u)
    new_blocks = np.empty_like(z)
    for k in range(len(z)):
        res = A_list[k].resolvent(lam / weights[k], fw - z[k])
        new_blocks[k] = z[k] + w * (res - u)
    if not all_finite(new_blocks.ravel()):
        raise ArithmeticError("non-finite iterate at n=%d" % state.n)
    return KMState(state.n + 1, state.x, new_blocks, z)


@dataclass
class GcrifbaResult:
    zeta: ProductVector
    x: np.ndarray
    n_iters: int
    stopped: str
    ns: np.ndarray
    zeta_vel2: np.ndarray
    corr2: np.ndarray
    fpr2: np.ndarray
    x_hist: Optional[np.ndarray] = None


def run_gcrifba(A_list, B, params, x0, max_iter=10**5, tol=1e-9,
                weights=None, keep_x_hist=False):
    """Iterate to a fixed point of the splitting operator.

    The averaged primal point is the weighted block mean of zeta. Trace
    columns (all in the weighted product norm, squared): block velocity,
    correction distance |zeta_{n+1} - z_n|, and fixed-point residual
    |T(zeta_n) - zeta_n|; the run stops on the latter, or as "diverged"
    once the norm of the blocks passes 1e12 (crifba.iterate). A non-finite
    residual ends the run with ArithmeticError.
    """
    validate_gcrifba(params)
    zeta = constant_product(x0, len(A_list), weights)
    lam = params.lam
    weights = zeta.weights
    wcol = weights[:, None]

    def norm2(blocks):
        # ProductVector.norm2 of these blocks, the weight column bound once
        return float((wcol * blocks * blocks).sum())

    ns, vel2, corr2, fpr2 = [], [], [], []
    xs = []

    def residual(state):
        zb = state.x
        zeta_n = zeta.with_blocks(zb)
        r2 = norm2(apply_T(zeta_n, A_list, B, lam).blocks - zb)
        # a non-finite entry of T(zeta_n) makes r2 non-finite, and this test
        # costs a fraction of a screen of T(zeta_n)
        if not math.isfinite(r2):
            raise ArithmeticError("non-finite residual at n=%d" % state.n)
        ns.append(state.n)
        vel2.append(norm2(zb - state.x_prev))
        fpr2.append(r2)
        if keep_x_hist:
            xs.append(zeta_n.bar())
        return np.sqrt(r2)

    def record(state):
        corr2.append(norm2(state.x - state.z_prev))

    b = zeta.blocks
    state, stopped = iterate(KMState(0, b, b, b),
                             lambda s: gcrifba_step(s, params, A_list, B, weights),
                             residual, record, max_iter, tol)
    if stopped == "tol":
        corr2.append(0.0)
    zeta = zeta.with_blocks(state.x)
    return GcrifbaResult(zeta, zeta.bar(), state.n, stopped,
                         np.array(ns), np.array(vel2), np.array(corr2),
                         np.array(fpr2),
                         np.array(xs) if keep_x_hist else None)
