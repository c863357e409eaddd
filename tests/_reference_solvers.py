"""The solver loops as they were before the lean rewrite, kept as the
reference that ``crifba.run``, ``cripda.run_cripda`` and
``gcrifba.run_gcrifba`` are compared against bit for bit.

Each loop comes with the step and residual functions it called, also as
they were: every call re-screens its arguments, the metric is looked up
per step, norms go through ``np.linalg.norm`` and ``ProductVector``, and
the saddle residual concatenates its pieces. The state types and the
schedule are kept here as they were too. Parameter types, validators,
result types and the operators themselves are the package's own.
"""

from dataclasses import dataclass

import numpy as np

from monosplit.crifba import RunResult, validate
from monosplit.cripda import (CripdaResult, build_metric, precond_resolvent,
                              validate_cripda)
from monosplit.gcrifba import (GcrifbaResult, ProductVector, constant_product,
                               validate_gcrifba)
from monosplit.metriclin import as_vector


def schedule(params, n):
    """Return (nu_n, theta_n, gamma_n, tau_n) with tau_n = e + nu_{n+1}."""
    nu_n = params.s1 * n + params.nu0
    tau = params.e + params.s1 * (n + 1) + params.nu0
    theta = 1.0 - (params.e + params.s1) / tau
    gamma = 1.0 - params.s0 / tau
    return nu_n, theta, gamma, tau


@dataclass
class CrifbaState:
    n: int
    x_prev: np.ndarray
    x: np.ndarray
    z_prev: np.ndarray


@dataclass
class StepTrace:
    v: np.ndarray
    z: np.ndarray
    x_next: np.ndarray
    g: np.ndarray  # residual operator evaluated at z_n


@dataclass
class SaddleState:
    n: int
    x_prev: np.ndarray
    x: np.ndarray
    y_prev: np.ndarray
    y: np.ndarray
    xi_prev: np.ndarray
    chi_prev: np.ndarray


@dataclass
class GcrifbaState:
    n: int
    zeta_prev: ProductVector
    zeta: ProductVector
    z_prev: ProductVector


# --- crifba -----------------------------------------------------------------

def generalized_resolvent(A, M, lam, u):
    u = as_vector(u)
    if M is None or M.is_identity:
        return as_vector(A.resolvent(lam, u))
    if A.gen_resolvent is not None:
        return as_vector(A.gen_resolvent(M, lam, u))
    if A.affine is not None:
        Q, b = A.affine
        d = len(u)
        Q = np.zeros((d, d)) if Q is None else np.asarray(Q, dtype=float)
        b = np.zeros(d) if b is None else as_vector(b)
        return np.linalg.solve(M.matrix + lam * Q, M.apply(u) - lam * b)
    raise ValueError("generalized resolvent unavailable: metric is not the "
                     "identity and operator %r has no affine form or closed "
                     "formula" % A)


def forward_backward(A, B, M, lam, x, Bx=None):
    x = as_vector(x)
    if Bx is None:
        Bx = B(x)
    if M is None or M.is_identity:
        return generalized_resolvent(A, M, lam, x - lam * Bx)
    return generalized_resolvent(A, M, lam, x - lam * M.solve(Bx))


def residual_G(A, B, M, lam, x):
    x = as_vector(x)
    return (x - forward_backward(A, B, M, lam, x)) / lam


def crifba_step(state, params, A, B):
    M = params.metric(len(state.x))
    v = state.z_prev - state.x
    _, theta, gamma, _ = schedule(params, state.n)
    z = state.x + theta * (state.x - state.x_prev) + gamma * v
    fb = forward_backward(A, B, M, params.lam, z)
    x_next = (1.0 - params.w) * z + params.w * fb
    if not np.all(np.isfinite(x_next)):
        raise ArithmeticError("non-finite iterate at n=%d" % state.n)
    g = (z - fb) / params.lam
    return (CrifbaState(state.n + 1, state.x, x_next, z),
            StepTrace(v, z, x_next, g))


def run(A, B, params, x0, max_iter=10**6, tol=1e-9, x_prev=None, z_prev=None):
    validate(params, d=len(as_vector(x0)))
    x = as_vector(x0).copy()
    xp = x.copy() if x_prev is None else as_vector(x_prev).copy()
    zp = x.copy() if z_prev is None else as_vector(z_prev).copy()
    M = params.metric(len(x))
    xs = [x.copy()]
    zs = []
    vs = [zp - x]
    res2 = []
    stopped = "max_iter"
    state = CrifbaState(0, xp, x, zp)
    for n in range(max_iter):
        g_here = residual_G(A, B, M, params.lam, state.x)
        res2.append(M.norm2(g_here))
        if np.sqrt(res2[-1]) <= tol:
            stopped = "tol"
            break
        state, tr = crifba_step(state, params, A, B)
        xs.append(tr.x_next)
        zs.append(tr.z)
        vs.append(tr.z - tr.x_next)
        if np.linalg.norm(tr.x_next) > 1e12:
            stopped = "diverged"
            break
    if stopped == "max_iter" or stopped == "diverged":
        g_here = residual_G(A, B, M, params.lam, state.x)
        res2.append(M.norm2(g_here))
    return RunResult(np.array(xs), np.array(zs).reshape(len(zs), len(x)),
                     np.array(vs), np.array(res2), xp,
                     len(xs) - 1, stopped, params)


# --- cripda -----------------------------------------------------------------

def cripda_step(state, params, problem):
    _, theta, gamma, _ = schedule(params, state.n)
    xi = state.x + theta * (state.x - state.x_prev) + gamma * (state.xi_prev - state.x)
    chi = state.y + theta * (state.y - state.y_prev) + gamma * (state.chi_prev - state.y)
    K = problem.K
    x_hat = as_vector(problem.prox_G(
        params.tau, xi - params.tau * (problem.grad_Q(xi) + K.T @ chi)))
    x_next = (1.0 - params.w) * xi + params.w * x_hat
    xi_bar = 2.0 / params.w * (x_next - (1.0 - params.w) * xi) - xi
    y_hat = as_vector(problem.prox_Fstar(
        params.sigma, chi - params.sigma * (problem.grad_Pstar(chi) - K @ xi_bar)))
    y_next = (1.0 - params.w) * chi + params.w * y_hat
    if not (np.all(np.isfinite(x_next)) and np.all(np.isfinite(y_next))):
        raise ArithmeticError("non-finite iterate at n=%d" % state.n)
    return SaddleState(state.n + 1, state.x, x_next, state.y, y_next, xi, chi)


def fixed_point_residual(problem, params, M, x, y):
    dx = len(x)
    u = np.concatenate([x, y])
    smooth = np.concatenate([problem.grad_Q(x), problem.grad_Pstar(y)])
    r = M.apply(u) - smooth
    px, py = precond_resolvent(problem, params.tau, params.sigma, r[:dx], r[dx:])
    diff = u - np.concatenate([px, py])
    return np.sqrt(max(M.norm2(diff), 0.0))


def run_cripda(problem, params, x0, y0, max_iter=10**5, tol=1e-9):
    selector, _ = validate_cripda(params, problem)
    M = build_metric(problem, params.tau, params.sigma)
    x0 = as_vector(x0)
    y0 = as_vector(y0)
    state = SaddleState(0, x0.copy(), x0.copy(), y0.copy(), y0.copy(),
                        x0.copy(), y0.copy())
    ns, vel2, fpr2 = [], [], []
    hist = [np.concatenate([x0, y0])]
    stopped = "max_iter"
    for n in range(max_iter):
        res = fixed_point_residual(problem, params, M, state.x, state.y)
        ns.append(n)
        fpr2.append(res ** 2)
        if res <= tol:
            stopped = "tol"
            vel2.append(0.0)
            break
        state_next = cripda_step(state, params, problem)
        step = np.concatenate([state_next.x - state.x, state_next.y - state.y])
        vel2.append(M.norm2(step))
        hist.append(np.concatenate([state_next.x, state_next.y]))
        if np.linalg.norm(hist[-1]) > 1e12:
            stopped = "diverged"
            state = state_next
            break
        state = state_next
    return CripdaResult(state.x, state.y, len(ns) - (1 if stopped == "tol" else 0),
                        stopped, np.array(ns), np.array(vel2), np.array(fpr2),
                        np.array(hist), selector)


# --- gcrifba ----------------------------------------------------------------

def apply_T(z, A_list, B, lam):
    zbar = z.bar()
    fw = 2.0 * zbar - lam * B(zbar)
    out = np.empty_like(z.blocks)
    for k in range(z.p):
        out[k] = A_list[k].resolvent(lam / z.weights[k], fw - z.blocks[k]) \
            - zbar + z.blocks[k]
    return z.with_blocks(out)


def gcrifba_step(state, params, A_list, B):
    _, theta, gamma, _ = schedule(params, state.n)
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


def run_gcrifba(A_list, B, params, x0, max_iter=10**5, tol=1e-9,
                weights=None, keep_x_hist=False):
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
