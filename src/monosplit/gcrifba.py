"""Product-space variant for sums of several set-valued operators.

Solves 0 in B(x) + sum_k A_k(x) by lifting to p copies of the space with
block weights rho_k, projecting onto the diagonal with the weighted mean,
and evaluating one resolvent per block and step.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .metriclin import as_vector


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


def diag_project(z):
    """Replace every block by the weighted mean; the projection onto the
    diagonal subspace in the weighted inner product."""
    zbar = z.bar()
    return z.with_blocks(np.tile(zbar, (z.p, 1)))


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

    def schedule(self, n):
        nu_n = self.s1 * n + self.nu0
        tau = self.e + self.s1 * (n + 1) + self.nu0
        return nu_n, 1.0 - (self.e + self.s1) / tau, 1.0 - self.s0 / tau, tau


def default_gcrifba_params(beta, safety=0.9, **overrides):
    lam = overrides.pop("lam", None)
    p = GcrifbaParams(beta=beta, lam=0.0, **overrides)
    p.lam = lam if lam is not None else safety * 4.0 * p.w * (1.0 - p.w) * beta
    return p


def validate_gcrifba(params):
    reasons = []
    if not 0.0 < params.w < 1.0:
        reasons.append("w in (0,1) violated")
    if not 2.0 * params.s1 < params.s0 < params.e:
        reasons.append("2*s1 < s0 < e violated")
    if not 0.0 < params.lam < 4.0 * params.w * (1.0 - params.w) * params.beta:
        reasons.append("lam outside (0, 4w(1-w)beta)")
    if reasons:
        raise ValueError("invalid product-space parameters: " + "; ".join(reasons))


def apply_T(z, A_list, B, lam):
    """One application of the splitting operator on the product space.

    Block k of the output is J_{(lam/rho_k) A_k}(2 zbar - lam B(zbar) - z_k)
    - zbar + z_k, with zbar the weighted mean.
    """
    zbar = z.bar()
    fw = 2.0 * zbar - lam * B(zbar)
    out = np.empty_like(z.blocks)
    for k in range(z.p):
        out[k] = A_list[k].resolvent(lam / z.weights[k], fw - z.blocks[k]) \
            - zbar + z.blocks[k]
    return z.with_blocks(out)


@dataclass
class GcrifbaState:
    n: int
    zeta_prev: ProductVector
    zeta: ProductVector
    z_prev: ProductVector


def gcrifba_step(state, params, A_list, B):
    """One inertial-corrected relaxed step over the product space."""
    _, theta, gamma, _ = params.schedule(state.n)
    z_blocks = (state.zeta.blocks
                + theta * (state.zeta.blocks - state.zeta_prev.blocks)
                + gamma * (state.z_prev.blocks - state.zeta.blocks))
    z = state.zeta.with_blocks(z_blocks)
    u = z.bar()
    Bu = B(u)
    new_blocks = np.empty_like(z.blocks)
    for k in range(z.p):
        res = A_list[k].resolvent(params.lam / z.weights[k],
                                  2.0 * u - params.lam * Bu - z.blocks[k])
        new_blocks[k] = z.blocks[k] + params.w * (res - u)
    zeta_next = z.with_blocks(new_blocks)
    if not np.all(np.isfinite(new_blocks)):
        raise ArithmeticError("non-finite iterate at n=%d" % state.n)
    return GcrifbaState(state.n + 1, state.zeta, zeta_next, z), z


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
    |T(zeta_n) - zeta_n|; the run stops on the latter.
    """
    validate_gcrifba(params)
    p = len(A_list)
    zeta = constant_product(x0, p, weights)
    state = GcrifbaState(0, zeta, zeta, zeta)
    ns, vel2, corr2, fpr2 = [], [], [], []
    xs = []
    stopped = "max_iter"
    for n in range(max_iter):
        t_here = apply_T(state.zeta, A_list, B, params.lam)
        r2 = state.zeta.with_blocks(t_here.blocks - state.zeta.blocks).norm2()
        ns.append(n)
        vel2.append(state.zeta.with_blocks(
            state.zeta.blocks - state.zeta_prev.blocks).norm2())
        fpr2.append(r2)
        if keep_x_hist:
            xs.append(state.zeta.bar())
        if np.sqrt(r2) <= tol:
            stopped = "tol"
            corr2.append(0.0)
            break
        state_next, z = gcrifba_step(state, params, A_list, B)
        corr2.append(state.zeta.with_blocks(
            state_next.zeta.blocks - z.blocks).norm2())
        state = state_next
    return GcrifbaResult(state.zeta, state.zeta.bar(),
                         len(ns) - (stopped == "tol"), stopped,
                         np.array(ns), np.array(vel2), np.array(corr2),
                         np.array(fpr2),
                         np.array(xs) if keep_x_hist else None)
