"""Primal-dual specialization for saddle problems.

The stacked monotone inclusion uses the block metric

    M = [[ I/tau, -K^T ],
         [ -K,    I/sigma ]]

whose shifted resolvent splits into two sequential prox evaluations, so
each step costs one prox of G and one prox of F*. The step index is fixed
to one; tau and sigma carry the step-size role inside the metric.
"""

import copy
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .crifba import (RECORD_ROWS, KMState, extrapolate, iterate,
                     schedule_violations)
from .metriclin import SpdMap, all_finite, as_vector, operator_norm
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


def precond_resolvent(problem, tau, sigma, xi_p, chi_p):
    """Closed form of the metric-shifted resolvent.

    The lower-triangular structure of metric-plus-operator lets the primal
    prox go first and feed the dual prox.
    """
    x = as_vector(problem.prox_G(tau, tau * as_vector(xi_p)))
    y = as_vector(problem.prox_Fstar(
        sigma, sigma * as_vector(chi_p) + 2.0 * sigma * (problem.K @ x)))
    return x, y


def stacked_operators(problem):
    """The stacked inclusion data: multivalued part, smooth part, metric
    factory. Used by the reduction tests and by the residual measure.

    When the pair has row forms, B gets apply_rows and A the row form of
    its generalized resolvent, each equal to the scalar form row by row
    bit for bit: the products with M and K are stacked matrix-vector
    products, which take the path of the 1-D products of the scalar forms.
    """
    K = problem.K
    dy, dx = K.shape

    def gen_resolvent(M, lam, u):
        # resolvent in the block metric; lam is fixed to 1 upstream
        r = M.apply(u)
        x, y = precond_resolvent(problem, _tau_of(M, dx), _sigma_of(M, dx, dy),
                                 r[:dx], r[dx:])
        return np.concatenate([x, y])

    def gen_resolvent_rows(M, lam, U):
        # precond_resolvent a block at a time; M.apply_each screens U and
        # generalized_resolvent_rows the block returned
        R = M.apply_each(U)
        tau, sigma = _tau_of(M, dx), _sigma_of(M, dx, dy)
        X = problem.prox_G_rows(tau, tau * R[:, :dx])
        Y = problem.prox_Fstar_rows(
            sigma, sigma * R[:, dx:] + 2.0 * sigma * (K @ X[:, :, None])[:, :, 0])
        return np.concatenate([X, Y], axis=1)

    def B_apply(u):
        x = u[:dx]
        y = u[dx:]
        return np.concatenate([problem.grad_Q(x), problem.grad_Pstar(y)])

    def B_rows(U):
        return np.concatenate([problem.grad_Q_rows(U[:, :dx]),
                               problem.grad_Pstar_rows(U[:, dx:])], axis=1)

    rows = problem.has_rows
    A = MonotoneOp(resolvent=None, label="saddle_stack",
                   gen_resolvent=gen_resolvent,
                   gen_resolvent_rows=gen_resolvent_rows if rows else None)
    lip = np.zeros((dx + dy, dx + dy))
    lip[:dx, :dx] = np.eye(dx) * max(problem.lip_Q, 1e-12)
    lip[dx:, dx:] = np.eye(dy) * max(problem.lip_Pstar, 1e-12)
    B = CocoerciveMap(B_apply, SpdMap(lip), label="saddle_smooth",
                      apply_rows=B_rows if rows else None)
    return A, B


def _tau_of(M, dx):
    return 1.0 / M.matrix[0, 0]


def _sigma_of(M, dx, dy):
    return 1.0 / M.matrix[dx, dx]


def cripda_step(state, params, problem):
    """One primal-dual step with inertia, correction and relaxation.

    state.x is the stacked (x, y). The reflected point fed to the dual prox
    is twice the primal resolvent output minus the extrapolated primal
    point, recovering the classical reflected primal-dual scheme when
    inertia and correction vanish. Both prox outputs are screened as they
    return and the new iterate here.
    """
    tau, sigma, w = params.tau, params.sigma, params.w
    K = problem.K
    dx = K.shape[1]
    z = extrapolate(params, state)
    xi, chi = z[:dx], z[dx:]
    x_hat = as_vector(problem.prox_G(
        tau, xi - tau * (problem.grad_Q(xi) + K.T @ chi)))
    u_next = (1.0 - w) * z      # its halves are (1 - w) xi and (1 - w) chi
    xi_w = u_next[:dx]
    x_next = xi_w + w * x_hat
    xi_bar = 2.0 / w * (x_next - xi_w) - xi
    y_hat = as_vector(problem.prox_Fstar(
        sigma, chi - sigma * (problem.grad_Pstar(chi) - K @ xi_bar)))
    u_next[:dx] = x_next
    u_next[dx:] += w * y_hat
    if not all_finite(u_next):
        raise ArithmeticError("non-finite iterate at n=%d" % state.n)
    return KMState(state.n + 1, state.x, u_next, z)


def fixed_point_residual(problem, params, M, x, y):
    """M-norm distance between (x, y) and its half-step image.

    u = (x, y) is the only vector stacked: the gradients are subtracted
    from the blocks of M u, and u becomes the difference in place. (x, y)
    is not screened here: the solver's iterates are screened as they are
    formed, each prox input and output is screened in precond_resolvent,
    and the difference only when its norm is not finite (SpdMap.norm2).
    """
    dx = len(x)
    gq, gp = problem.grad_Q(x), problem.grad_Pstar(y)
    u = np.concatenate([x, y])
    r = M.matrix @ u
    px, py = precond_resolvent(problem, params.tau, params.sigma,
                               r[:dx] - gq, r[dx:] - gp)
    u[:dx] -= px
    u[dx:] -= py
    return np.sqrt(max(M.norm2(u), 0.0))


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


def _constant_gradients(problem, x0, y0):
    """The pair itself, or a shallow copy whose gradients with a declared
    Lipschitz constant of 0 return their one value, evaluated and screened
    here once (a 0-Lipschitz gradient is constant)."""
    if problem.lip_Q != 0.0 and problem.lip_Pstar != 0.0:
        return problem
    pair = copy.copy(problem)
    for name, lip, at in (("grad_Q", problem.lip_Q, x0),
                          ("grad_Pstar", problem.lip_Pstar, y0)):
        if lip == 0.0:
            g = as_vector(getattr(problem, name)(at)).copy()
            g.flags.writeable = False
            setattr(pair, name, lambda _, g=g: g)
    return pair


def run_cripda(problem, params, x0, y0, max_iter=10**5, tol=1e-9):
    """Iterate the saddle solver until the metric residual is below tol.

    The metric and any constant gradient are fixed once per run. The
    iterate is the stacked u_n = (x_n, y_n): it is the history row and
    gives the step u_{n+1} - u_n, whose norms are formed crifba.RECORD_ROWS
    states at a time.
    """
    selector, _ = validate_cripda(params, problem)
    M = build_metric(problem, params.tau, params.sigma)
    x0 = as_vector(x0)
    y0 = as_vector(y0)
    problem = _constant_gradients(problem, x0, y0)
    dx = len(x0)
    ns, vel2, fpr2 = [], [], []
    u = np.concatenate([x0, y0])
    hist = [u]

    def residual(state, ahead):
        res = fixed_point_residual(problem, params, M, state.x[:dx], state.x[dx:])
        ns.append(state.n)
        fpr2.append(res ** 2)
        return res, None

    # the residual and the step call the pair's proxes and gradients one at
    # a time (see crifba.iterate): two-row calls of the catalog's cheap
    # proxes cost more in stacking than the calls they save
    residual.ahead = False

    stepped = []

    def settle():
        # vel2, which the loop does not read, for the states stepped to
        # since the last call
        if stepped:
            vel2.extend(M.norm2_each(np.array([s.x for s in stepped])
                                     - np.array([s.x_prev for s in stepped])))
            stepped.clear()

    def record(state):
        hist.append(state.x)
        stepped.append(state)
        if len(stepped) == RECORD_ROWS:
            settle()

    state, stopped = iterate(KMState(0, u, u, u),
                             lambda s, _: cripda_step(s, params, problem),
                             residual, record, max_iter, tol)
    settle()
    if stopped == "tol":
        vel2.append(0.0)
    return CripdaResult(state.x[:dx], state.x[dx:], state.n, stopped,
                        np.array(ns), np.array(vel2), np.array(fpr2),
                        np.array(hist), selector)
