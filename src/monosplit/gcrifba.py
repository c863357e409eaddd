"""Product-space variant for sums of several set-valued operators.

Solves 0 in B(x) + sum_k A_k(x) by lifting to p copies of the space with
block weights rho_k, projecting onto the diagonal with the weighted mean,
and evaluating one resolvent per block and step.
"""

import math
from dataclasses import dataclass

import numpy as np

from .crifba import RECORD_ROWS, CrifbaParams, KMState, iterate, validate
from .metriclin import SpdMap, as_vector
from .operators import _TWO


def _block_weights(weights, p):
    """The weights of p blocks as a float array, 1/p each by default; they
    must be positive, below one when p > 1, and sum to one, so no weight
    may be NaN or infinite."""
    w = np.full(p, 1.0 / p) if weights is None else np.asarray(weights, float).reshape(-1)
    if len(w) != p:
        raise ValueError("one weight per block required")
    if not (np.all(w > 0) and (np.all(w < 1) or len(w) == 1)
            and abs(w.sum() - 1.0) <= 1e-12):
        raise ValueError("weights must be in (0,1) and sum to 1")
    return w


def default_gcrifba_params(beta, safety=0.9, **overrides):
    """crifba parameters of a run on a problem whose B is beta-cocoercive:
    L = (1/beta) I_1, so that crifba.validate reads the step bound
    lam < 4w(1-w)beta as its condition 1 in the identity metric; lam, when
    not given, is that bound times safety."""
    lam = overrides.pop("lam", None)
    p = CrifbaParams(L=SpdMap(np.eye(1) / beta), **overrides)
    p.lam = lam if lam is not None else safety * 4.0 * p.w * (1.0 - p.w) * beta
    return p


def _resolvents(Z, A_list, B, lam, weights, steps):
    """R - U for the block resolvents R of a (k, p, d) stack Z of block
    arrays and their weighted means U: R[i, j] = J_{(lam/rho_j) A_j}(2 U_i
    - lam B(U_i) - Z[i, j]), from one row call of B and of each A_j, with U
    taken off by one subtraction over the stack, in R; steps[j] = lam/rho_j.

    Z, U and B's rows are not screened: a non-finite entry of any of them,
    or of lam B(U_i), makes every block argument of row i non-finite, so
    the argument screen of A_1's resolvent raises, before any A_j is
    called. The later A_j's arguments are not screened either
    (_loop_resolvent_rows): each differs from A_1's by the difference of two
    blocks of the row, which the loop keeps far below where it could
    overflow one argument and not the other. Every output is screened.
    """
    U = weights @ Z
    FW = _TWO * U - lam * B._loop_rows(U)
    R = np.empty_like(Z)
    R[:, 0] = A_list[0].resolvent_rows(steps[0], FW - Z[:, 0])
    for j in range(1, len(A_list)):
        R[:, j] = A_list[j]._loop_resolvent_rows(steps[j], FW - Z[:, j])
    return np.subtract(R, U[:, None], R)


def gcrifba_step(state, params, ahead, out=None):
    """One inertial-corrected relaxed step over the product space; returns
    the new state, with its block array written into out when out is given,
    by the same ufuncs either way.

    state.x is the (p, d) block array; ahead holds the extrapolated block
    array z and r - u, its block resolvents r centred on their weighted
    mean u, from the residual (see crifba.iterate, which screens the new
    blocks z + w (r - u)), and the run's w with w as a 0-d float64 operand
    (a step given another params.w takes it as a float, with the same bits).
    """
    z, ru, w_run, w = ahead
    if params.w != w_run:
        w = params.w
    new_blocks = np.add(z, np.multiply(w, ru, out), out)
    return KMState(state.n + 1, state.x, new_blocks, z)


@dataclass
class GcrifbaResult:
    blocks: np.ndarray     # (p, d), the last block array zeta_N
    x: np.ndarray          # its weighted mean
    n_iters: int
    stopped: str           # "tol" | "max_iter" | "diverged"
    ns: np.ndarray         # the indices of the tested states
    X: np.ndarray          # (N+1, d), weighted means of zeta_0..zeta_N
    vel2: np.ndarray       # (N+1,), |zeta_{n+1} - zeta_n|^2, NaN at N
    vn2: np.ndarray        # (N+1,), |z_{n-1} - zeta_n|^2, 0 at n = 0
    res2: np.ndarray       # (N+1,), |T(zeta_n) - zeta_n|^2, NaN if untested


def run_gcrifba(A_list, B, params, x0, max_iter=10**5, tol=1e-9, weights=None):
    """Iterate to a fixed point of the splitting operator.

    The run starts from p copies of x0, zeta_0 = z_{-1} = (x0, ..., x0).
    The averaged primal point is the weighted block mean of zeta. It stops
    on the fixed-point residual |T(zeta_n) - zeta_n|, or as "diverged" once
    the norm of the blocks passes 1e12 (crifba.iterate). T(zeta_n) and the
    step from zeta_n share one row call of B and of each A_k. The columns
    have the meaning of the core columns, squared in the weighted product
    norm, and are formed from the block arrays the loop keeps, RECORD_ROWS
    states at a time, once the run is over; res2 holds the residual of
    every tested state, which leaves out zeta_N unless the run stopped on
    tol. A non-finite residual ends the run with ArithmeticError. params
    are crifba parameters (default_gcrifba_params) in the identity metric,
    checked by crifba.validate.
    """
    if params.M is not None:
        raise ValueError("the product-space run takes no metric M")
    validate(params)
    x0 = as_vector(x0)
    weights = _block_weights(weights, len(A_list))
    lam = params.lam
    # the block steps lam/rho_j as Python floats: numpy's quotients, formed once
    steps = (lam / weights).tolist()
    wcol = weights[:, None]
    b = np.tile(x0, (len(A_list), 1))
    w, w_0d = params.w, np.array(params.w, dtype=float)
    lam_0d = np.array(lam, dtype=float)     # as forward_backward_map takes it
    diff, prod = np.empty_like(b), np.empty_like(b)
    flat = prod.ravel()     # a view: prod is contiguous

    def evaluate(S, n):
        zb = S[0]
        RU = _resolvents(S, A_list, B, lam_0d, weights, steps)
        # T(zeta_n) - zeta_n in work rows, T(zeta_n) formed as r - u + z: the
        # order of tests/_reference_solvers.apply_T, whose bits res2 keeps; the
        # flat np.add.reduce has the bits of prod.sum() at half its cost
        np.subtract(np.add(RU[0], zb, diff), zb, diff)
        np.multiply(np.multiply(wcol, diff, prod), diff, prod)
        r2 = float(np.add.reduce(flat))
        # a non-finite entry of T(zeta_n) makes r2 non-finite, and this test
        # costs a fraction of a screen of T(zeta_n)
        if not math.isfinite(r2):
            raise ArithmeticError("non-finite residual at n=%d" % n)
        # on the one row of iterate's fallback no step is taken
        return r2, (S[-1], RU[-1], w, w_0d)

    N, stopped, Zeta, Z, res2 = iterate(b, b, b, params, evaluate, gcrifba_step,
                                        (params,), max_iter, tol)
    tested = N + (stopped == "tol")

    def norm2_each(D):
        # the weighted norm of every block array of a (k, p, d) stack: each
        # row sum adds the p * d products in the order of the residual's sum
        return (wcol * D * D).reshape(len(D), b.size).sum(axis=1)

    vel2, vn2 = np.full(N + 1, np.nan), np.zeros(N + 1)
    for a in range(0, N, RECORD_ROWS):
        c = min(a + RECORD_ROWS, N)
        vel2[a:c] = norm2_each(Zeta[a + 1:c + 1] - Zeta[a:c])
        vn2[a + 1:c + 1] = norm2_each(Zeta[a + 1:c + 1] - Z[a:c])
    # an empty ns is float, as np.array([]); np.arange makes no Python ints
    return GcrifbaResult(Zeta[N].copy(), weights @ Zeta[N], N, stopped,
                         np.arange(tested) if tested else np.empty(0),
                         weights @ Zeta, vel2, vn2, res2)
