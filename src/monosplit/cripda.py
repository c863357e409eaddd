"""Primal-dual specialization for saddle problems.

The stacked monotone inclusion uses the block metric

    M = [[ I/tau, -K^T ],
         [ -K,    I/sigma ]]

whose shifted resolvent splits into two sequential prox evaluations, so
each step costs one prox of G and one prox of F*. The solver is the core
loop of crifba on this inclusion with the step index fixed to one; tau
and sigma carry the step-size role inside the metric.
"""

import copy
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .crifba import (RECORD_ROWS, CrifbaParams, RunResult, _run,
                     schedule_violations)
from .metriclin import SpdMap, as_rows, as_vector, operator_norm
from .operators import MonotoneOp, CocoerciveMap


@dataclass
class CripdaParams:
    tau: float
    sigma: float
    w: float = 0.5
    e: float = 3.0
    s0: float = 2.5
    s1: float = 1.0
    nu0: float = 0.0
    delta: Optional[float] = None


def build_metric(problem, tau, sigma):
    """Assemble the block metric as a dense SpdMap."""
    K = problem.K
    dy, dx = K.shape
    top = np.hstack([np.eye(dx) / tau, -K.T])
    bot = np.hstack([-K, np.eye(dy) / sigma])
    return SpdMap(np.vstack([top, bot]))


def validate_cripda(params, problem):
    """Check the two admissibility conditions; returns (selector, margins).

    Zero Lipschitz constants make the corresponding box constraint vacuous.
    Raises when the schedule is infeasible or neither condition holds.
    """
    reasons = schedule_violations(params)
    if reasons:
        raise ValueError("invalid saddle parameters: " + "; ".join(reasons))
    lq = problem.lip_Q
    lp = problem.lip_Pstar
    ww = params.w * (1.0 - params.w)
    Knorm2 = operator_norm(problem.K) ** 2
    margins = {}
    delta = params.delta
    if delta is None:
        delta = max(0.25 * max(lq, lp), 0.0) + 1e-3
    cap = ww / delta
    m1 = {
        "delta_slack": delta - 0.25 * max(lq, lp),
        "tau_slack": cap - params.tau,
        "sigma_slack": cap - params.sigma,
        "K_slack": (1.0 / params.tau - delta / ww) * (1.0 / params.sigma - delta / ww)
        - Knorm2 if params.tau < cap and params.sigma < cap else float("-inf"),
    }
    margins["cond1"] = m1
    sel1 = (m1["delta_slack"] > 0 and m1["tau_slack"] > 0
            and m1["sigma_slack"] > 0 and m1["K_slack"] > 0)
    tau_cap = ww / lq if lq > 0 else float("inf")
    sigma_cap = ww / lp if lp > 0 else float("inf")
    m2 = {
        "tau_slack": tau_cap - params.tau,
        "sigma_slack": sigma_cap - params.sigma,
        "K_slack": (1.0 / params.tau - lq / ww) * (1.0 / params.sigma - lp / ww)
        - Knorm2 if params.tau < tau_cap and params.sigma < sigma_cap
        else float("-inf"),
    }
    margins["cond2"] = m2
    sel2 = m2["tau_slack"] > 0 and m2["sigma_slack"] > 0 and m2["K_slack"] > 0
    if sel1:
        return 1, margins
    if sel2:
        return 2, margins
    raise ValueError("saddle step sizes inadmissible, margins: %r" % margins)


def stacked_operators(problem):
    """The stacked inclusion data: the multivalued part A, whose
    generalized resolvent in the block metric is the closed form below, and
    the smooth part B, the stacked gradients; both on (k, d) blocks of
    stacked (x, y) rows, each one call of every map of the pair.

    The lower-triangular structure of metric-plus-operator lets the primal
    prox go first and feed the dual prox. The products with K are stacked
    matrix-vector products, which take the path of a 1-D product, so each
    row is bit for bit what a one-row call gives. run_cripda takes a B of
    two constant gradients once per run.
    """
    K = problem.K
    dy, dx = K.shape

    def gen_resolvent(M, lam, R):
        # (M + A)^{-1} r_i in the block metric; lam is fixed to 1 upstream,
        # and tau and sigma are read off M. R is screened here, and the
        # block returned by metric_resolvent_rows
        R = as_rows(R)
        tau, sigma = 1.0 / M.matrix[0, 0], 1.0 / M.matrix[dx, dx]
        X = problem.prox_G(tau, tau * R[:, :dx])
        Y = problem.prox_Fstar(
            sigma, sigma * R[:, dx:] + 2.0 * sigma * (K @ X[:, :, None])[:, :, 0])
        return np.concatenate([X, Y], axis=1)

    def B_rows(U):
        return np.concatenate([problem.grad_Q(U[:, :dx]),
                               problem.grad_Pstar(U[:, dx:])], axis=1)

    A = MonotoneOp(None, label="saddle_stack", gen_resolvent=gen_resolvent,
                   rows=True)
    lip = np.zeros((dx + dy, dx + dy))
    lip[:dx, :dx] = np.eye(dx) * max(problem.lip_Q, 1e-12)
    lip[dx:, dx:] = np.eye(dy) * max(problem.lip_Pstar, 1e-12)
    B = CocoerciveMap(B_rows, SpdMap(lip), label="saddle_smooth", rows=True)
    return A, B


@dataclass
class CripdaResult:
    x: np.ndarray
    y: np.ndarray
    n_iters: int
    stopped: str
    ns: np.ndarray
    vel2: np.ndarray
    fpr2: np.ndarray
    hist: np.ndarray      # stacked (x, y) iterates
    selector: int
    core: Optional[RunResult] = None    # the run on the stacked inclusion


def stacked_problem(problem, params):
    """(A, B, core parameters) of the run on the stacked inclusion: the
    stacked operators, and crifba parameters with lam = 1 in the block
    metric, the schedule and w of params."""
    A, B = stacked_operators(problem)
    core = CrifbaParams(e=params.e, s0=params.s0, s1=params.s1, nu0=params.nu0,
                        lam=1.0, w=params.w, L=B.certificate_L,
                        M=build_metric(problem, params.tau, params.sigma))
    return A, B, core


def _constant_gradients(problem, x0, y0):
    """The pair itself, or a shallow copy whose gradients with a declared
    Lipschitz constant of 0 (a 0-Lipschitz gradient is constant) give the
    read-only block of their one value, evaluated and screened here once,
    one block per block height."""
    if problem.lip_Q != 0.0 and problem.lip_Pstar != 0.0:
        return problem
    pair = copy.copy(problem)
    for name, lip, at in (("grad_Q", problem.lip_Q, x0),
                          ("grad_Pstar", problem.lip_Pstar, y0)):
        if lip == 0.0:
            g = as_rows(getattr(problem, name)(at[None]))[0].copy()
            setattr(pair, name, _constant_rows(g))
    return pair


def _constant_rows(g):
    """Row form of the constant map to g: the read-only (k, d) block of
    rows g, one per block height k."""
    blocks = {}

    def rows(X):
        G = blocks.get(len(X))
        if G is None:
            G = blocks[len(X)] = np.tile(g, (len(X), 1))
            G.flags.writeable = False
        return G

    return rows


def run_cripda(problem, params, x0, y0, max_iter=10**5, tol=1e-9):
    """Iterate the saddle solver until the metric residual is below tol.

    The run is crifba's loop on the stacked inclusion (stacked_problem),
    from u_0 = (x_0, y_0), with the parameters checked by validate_cripda
    alone; any constant gradient is fixed once per run, and with both, B
    is taken once and not called: a non-finite z_n makes all of M z_n
    non-finite, which the resolvent screens. core is that run.
    The other columns are read off it: hist is its X; ns and fpr2 (its
    res2) cover the states tested, which leave out x_N unless the run
    stopped on tol; vel2 is the squared M-norm of u_{n+1} - u_n, formed
    crifba.RECORD_ROWS states at a time, with 0 for the state that met tol.
    """
    selector, _ = validate_cripda(params, problem)
    x0 = as_vector(x0)
    y0 = as_vector(y0)
    A, B, core = stacked_problem(_constant_gradients(problem, x0, y0), params)
    u0 = np.concatenate([x0, y0])
    c = B(u0) if problem.lip_Q == problem.lip_Pstar == 0.0 else None
    res = _run(A, B, core, u0, max_iter, tol, B_value=c)
    N, X, M, dx = res.n_iters, res.X, core.M, len(x0)
    tested = N + (res.stopped == "tol")
    vel2 = np.zeros(tested)
    for a in range(0, N, RECORD_ROWS):
        c = min(a + RECORD_ROWS, N)
        vel2[a:c] = M.norm2_each(np.diff(X[a:c + 1], axis=0))
    # an empty ns is float, as np.array([]); np.arange makes no Python ints
    return CripdaResult(res.x[:dx], res.x[dx:], N, res.stopped,
                        np.arange(tested) if tested else np.empty(0), vel2,
                        res.res2[:tested], X, selector, res)
