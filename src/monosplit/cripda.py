"""Primal-dual specialization for saddle problems.

The stacked monotone inclusion uses the block metric

    M = [[ I/tau, -K^T ],
         [ -K,    I/sigma ]]

whose shifted resolvent splits into two sequential prox evaluations, so
each step costs one prox of G and one prox of F*. The solver is the core
loop of crifba on this inclusion with the step index fixed to one; tau
and sigma carry the step-size role inside the metric.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .crifba import RECORD_ROWS, CrifbaParams, RunResult, _run, validate
from .metriclin import SpdMap, as_vector, operator_norm
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
    """Assemble the block metric as a dense SpdMap; ValueError on a step
    that is not positive or a metric that is not positive definite, which
    it is exactly when tau sigma ||K||^2 < 1."""
    for name, step in (("tau", tau), ("sigma", sigma)):
        if not step > 0:
            raise ValueError("%s must be positive, got %g" % (name, step))
    K = problem.K
    dy, dx = K.shape
    top = np.hstack([np.eye(dx) / tau, -K.T])
    bot = np.hstack([-K, np.eye(dy) / sigma])
    try:
        return SpdMap(np.vstack([top, bot]))
    except ValueError as exc:
        raise ValueError("block metric of tau=%g, sigma=%g and ||K||=%g: %s "
                         "(tau*sigma*||K||^2 must be below 1)"
                         % (tau, sigma, operator_norm(K), exc)) from None


def stacked_operators(problem):
    """The stacked inclusion data: the multivalued part A, whose
    generalized resolvent in the block metric is the closed form below, and
    the smooth part B, the stacked gradients; both on (k, d) blocks of
    stacked (x, y) rows, each one call of every map of the pair.

    The lower-triangular structure of metric-plus-operator lets the primal
    prox go first and feed the dual prox. The products with K are np.matvec
    calls, which take the path of a 1-D product, so each row is bit for bit
    what a one-row call gives. The proxes get tau and sigma as 0-d float64
    arrays. run_cripda takes a B of two constant gradients (Lipschitz
    constant 0) once per run.
    """
    K = problem.K
    dy, dx = K.shape
    # the SpdMap last handed to gen_resolvent, with its tau, sigma and
    # 2 sigma as 0-d float64 arrays, as forward_backward_map takes lam
    steps = (None,)

    def gen_resolvent(M, lam, R):
        # (M + A)^{-1} r_i in the block metric; lam is fixed to 1 upstream,
        # and tau and sigma are read off M. forward_backward_map screens R
        # and the block returned
        nonlocal steps
        if steps[0] is not M:
            tau, sigma = 1.0 / M.matrix[0, 0], 1.0 / M.matrix[dx, dx]
            steps = (M, np.array(tau), np.array(sigma), np.array(2.0 * sigma))
        _, tau, sigma, two_sigma = steps
        X = problem.prox_G(tau, tau * R[:, :dx])
        Y = problem.prox_Fstar(sigma, sigma * R[:, dx:] + two_sigma * np.matvec(K, X))
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
    metric, the schedule, w and delta of params. crifba.validate on them
    is the check of the saddle step sizes: its conditions 1 and 2 in the
    block metric are the box and product bounds on tau and sigma, through
    a Schur complement."""
    A, B = stacked_operators(problem)
    core = CrifbaParams(e=params.e, s0=params.s0, s1=params.s1, nu0=params.nu0,
                        lam=1.0, w=params.w, L=B.certificate_L,
                        M=build_metric(problem, params.tau, params.sigma),
                        delta=params.delta)
    return A, B, core


def run_cripda(problem, params, x0, y0, max_iter=10**5, tol=1e-9):
    """Iterate the saddle solver until the metric residual is below tol.

    The run is crifba's loop on the stacked inclusion (stacked_problem),
    from u_0 = (x_0, y_0), with its parameters checked by crifba.validate;
    with two constant gradients, B is taken once and not called: a
    non-finite z_n makes all of M z_n non-finite, which the resolvent
    screens. core is that run.
    The other columns are read off it: hist is its X; ns and fpr2 (its
    res2) cover the states tested, which leave out x_N unless the run
    stopped on tol; vel2 is the squared M-norm of u_{n+1} - u_n, formed
    crifba.RECORD_ROWS states at a time, with 0 for the state that met tol.
    """
    A, B, core = stacked_problem(problem, params)
    selector = validate(core).selector
    x0 = as_vector(x0)
    y0 = as_vector(y0)
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
