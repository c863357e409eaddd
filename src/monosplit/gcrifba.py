"""Product-space variant for sums of several set-valued operators.

Solves 0 in B(x) + sum_k A_k(x) by lifting to p copies of the space with
block weights rho_k, projecting onto the diagonal with the weighted mean,
and evaluating one resolvent per block and step.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .crifba import (RECORD_ROWS, KMState, extrapolate, iterate, root,
                     schedule_violations)
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


def _resolvents(Z, A_list, B, lam, weights):
    """The weighted means U and the block resolvents R of a (k, p, d) stack
    Z of block arrays: R[i, j] = J_{(lam/rho_j) A_j}(2 U_i - lam B(U_i) -
    Z[i, j]). One block array (k = 1) takes the scalar forms; a stack takes
    one row call of B and of each A_j.
    """
    if len(Z) == 1:
        u = weights @ Z[0]
        fw = 2.0 * u - lam * B(u)
        R = np.empty_like(Z)
        for j, A in enumerate(A_list):
            R[0, j] = A.resolvent(lam / weights[j], fw - Z[0, j])
        return u[None], R
    U = weights @ Z
    FW = 2.0 * U - lam * B.apply_rows(U)
    R = np.empty_like(Z)
    for j, A in enumerate(A_list):
        R[:, j] = A.resolvent_rows(lam / weights[j], FW - Z[:, j])
    return U, R


def _T_blocks(z, u, r):
    """T(z) from the weighted mean u and the block resolvents r that
    _resolvents gives for the block array z: block j is r_j - u + z_j."""
    return r - u + z


def apply_T(z, A_list, B, lam):
    """One application of the splitting operator on the product space.

    Block k of the output is J_{(lam/rho_k) A_k}(2 zbar - lam B(zbar) - z_k)
    - zbar + z_k, with zbar the weighted mean.
    """
    U, R = _resolvents(z.blocks[None], A_list, B, lam, z.weights)
    return z.with_blocks(_T_blocks(z.blocks, U[0], R[0]))


def gcrifba_step(state, params, A_list, B, weights, ahead=None):
    """One inertial-corrected relaxed step over the product space.

    state.x is the (p, d) block array and weights the block weights. The
    forward point 2u - lam B(u) is formed once for all blocks; the new
    blocks are screened together with one dot. ahead, when given, is the
    extrapolated block array with its weighted mean and block resolvents,
    evaluated already by the residual (see crifba.iterate).
    """
    if ahead is None:
        z = extrapolate(params, state)
        U, R = _resolvents(z[None], A_list, B, params.lam, weights)
        ahead = z, U[0], R[0]
    z, u, r = ahead
    new_blocks = z + params.w * (r - u)
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
    once the norm of the blocks passes 1e12 (crifba.iterate). With row
    forms of B and of every A_k, T(zeta_n) and the step from zeta_n share
    one row call of each operator; the other columns are formed
    crifba.RECORD_ROWS states at a time. A non-finite residual ends the
    run with ArithmeticError.
    """
    validate_gcrifba(params)
    zeta = constant_product(x0, len(A_list), weights)
    lam = params.lam
    weights = zeta.weights
    wcol = weights[:, None]

    def norm2(blocks):
        # ProductVector.norm2 of these blocks, the weight column bound once
        return float((wcol * blocks * blocks).sum())

    def norm2_each(Z):
        # norm2 of every block array of a (k, p, d) stack: each row sum adds
        # the p * d products in the order of the sum in norm2
        return (wcol * Z * Z).reshape(len(Z), -1).sum(axis=1)

    ns, vel2, corr2, fpr2 = [], [], [], []
    xs = []
    tested, stepped = [], []

    def settle():
        # the columns the loop does not read, for the states tested and
        # stepped to since the last call
        if tested:
            Zb = np.array([s.x for s in tested])
            vel2.extend(norm2_each(Zb - np.array([s.x_prev for s in tested])))
            if keep_x_hist:
                xs.extend(weights @ Zb)
            tested.clear()
        if stepped:
            corr2.extend(norm2_each(np.array([s.x for s in stepped])
                                    - np.array([s.z_prev for s in stepped])))
            stepped.clear()

    def residual(state, ahead):
        zb = state.x
        if ahead:
            z = extrapolate(params, state)
            U, R = _resolvents(np.array([zb, z]), A_list, B, lam, weights)
            tz = _T_blocks(zb, U[0], R[0])
            ahead = z, U[1], R[1]
        else:
            tz = apply_T(zeta.with_blocks(zb), A_list, B, lam).blocks
            ahead = None
        r2 = norm2(tz - zb)
        # a non-finite entry of T(zeta_n) makes r2 non-finite, and this test
        # costs a fraction of a screen of T(zeta_n)
        if not math.isfinite(r2):
            raise ArithmeticError("non-finite residual at n=%d" % state.n)
        ns.append(state.n)
        fpr2.append(r2)
        tested.append(state)
        if len(tested) == RECORD_ROWS:
            settle()
        return root(r2), ahead

    residual.ahead = B.has_rows and all(A.has_rows for A in A_list)

    b = zeta.blocks
    state, stopped = iterate(KMState(0, b, b, b),
                             lambda s, ahead: gcrifba_step(s, params, A_list, B, weights, ahead),
                             residual, stepped.append, max_iter, tol)
    settle()
    if stopped == "tol":
        corr2.append(0.0)
    zeta = zeta.with_blocks(state.x)
    return GcrifbaResult(zeta, zeta.bar(), state.n, stopped,
                         np.array(ns), np.array(vel2), np.array(corr2),
                         np.array(fpr2),
                         np.array(xs) if keep_x_hist else None)
