"""The solver loops as they were before the lean rewrite, kept as the
reference that ``crifba.run``, ``cripda.run_cripda``,
``gcrifba.run_gcrifba`` and ``baselines.run_baseline`` are compared
against: bit for bit, but for runs in a metric other than the identity
(the stacked primal-dual inclusion and ``run_cripda``, which iterates on
it), where the reference solves with M and the package applies M, and
which are compared within a relative bound.

Each loop comes with the step and residual functions it called, also as
they were: every call re-screens its arguments, the metric is looked up
per step, norms go through ``np.linalg.norm`` and ``ProductVector``, and
the saddle residual concatenates its pieces, and the baseline loop runs an
eight-way branch per step and evaluates its residual apart from the step,
on recorded rows only. The state types, the schedule and the block
vector type ``ProductVector`` are kept here as they were too; the
product-space loop forms the package's columns from its old lists.
Parameter types, validators, result types and the operators themselves
are the package's own; the maps of a saddle pair, which the package
stores only as row forms, are called here one vector at a time (one_row),
and the primal-dual residual writes its closed-form resolvent out, with
tau and sigma as given. The chambolle_dossal step reads B and A, as the
package's does.
"""

from dataclasses import dataclass

import numpy as np

from monosplit.baselines import _KINDS, BaselineResult, default_step
from monosplit.crifba import RunResult, validate
from monosplit.cripda import CripdaResult, build_metric, validate_cripda
from monosplit.gcrifba import GcrifbaResult, validate_gcrifba
from monosplit.metriclin import as_vector


def one_row(fn, *args):
    """A row form fn on one vector, its last argument: the row of its
    (1, d) block."""
    return fn(*args[:-1], np.reshape(args[-1], (1, -1)))[0]


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

    def bar(self):
        """Weighted mean across blocks."""
        return self.weights @ self.blocks

    def inner(self, other):
        return float(np.sum(self.weights[:, None] * self.blocks * other.blocks))

    def norm2(self):
        return self.inner(self)

    def with_blocks(self, blocks):
        return ProductVector(blocks, self.weights)


def constant_product(x, p, weights=None):
    x = as_vector(x)
    w = np.full(p, 1.0 / p) if weights is None else np.asarray(weights, float)
    return ProductVector(np.tile(x, (p, 1)), w)


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
        # gen_resolvent takes its argument with M applied
        return as_vector(A.gen_resolvent(M, lam, M.apply(u)))
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
    x_hat = as_vector(one_row(
        problem.prox_G, params.tau,
        xi - params.tau * (one_row(problem.grad_Q, xi) + K.T @ chi)))
    x_next = (1.0 - params.w) * xi + params.w * x_hat
    xi_bar = 2.0 / params.w * (x_next - (1.0 - params.w) * xi) - xi
    y_hat = as_vector(one_row(
        problem.prox_Fstar, params.sigma,
        chi - params.sigma * (one_row(problem.grad_Pstar, chi) - K @ xi_bar)))
    y_next = (1.0 - params.w) * chi + params.w * y_hat
    if not (np.all(np.isfinite(x_next)) and np.all(np.isfinite(y_next))):
        raise ArithmeticError("non-finite iterate at n=%d" % state.n)
    return SaddleState(state.n + 1, state.x, x_next, state.y, y_next, xi, chi)


def fixed_point_residual(problem, params, M, x, y):
    dx = len(x)
    u = np.concatenate([x, y])
    smooth = np.concatenate([one_row(problem.grad_Q, x),
                             one_row(problem.grad_Pstar, y)])
    r = M.apply(u) - smooth
    # the metric-shifted resolvent: the primal prox first, feeding the dual
    tau, sigma = params.tau, params.sigma
    px = as_vector(one_row(problem.prox_G, tau, tau * as_vector(r[:dx])))
    py = as_vector(one_row(problem.prox_Fstar, sigma, sigma * as_vector(r[dx:])
                           + 2.0 * sigma * (problem.K @ px)))
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


def run_gcrifba(A_list, B, params, x0, max_iter=10**5, tol=1e-9, weights=None):
    validate_gcrifba(params)
    p = len(A_list)
    zeta = constant_product(x0, p, weights)
    state = GcrifbaState(0, zeta, zeta, zeta)
    ns, vel2, corr2, fpr2 = [], [], [], []
    xs = []
    stopped = "max_iter"

    def velocity(state):
        return state.zeta.with_blocks(state.zeta.blocks - state.zeta_prev.blocks).norm2()

    for n in range(max_iter):
        t_here = apply_T(state.zeta, A_list, B, params.lam)
        r2 = state.zeta.with_blocks(t_here.blocks - state.zeta.blocks).norm2()
        ns.append(n)
        vel2.append(velocity(state))
        fpr2.append(r2)
        xs.append(state.zeta.bar())
        if np.sqrt(r2) <= tol:
            stopped = "tol"
            break
        state_next, z = gcrifba_step(state, params, A_list, B)
        corr2.append(state.zeta.with_blocks(
            state_next.zeta.blocks - z.blocks).norm2())
        state = state_next
    if stopped != "tol":
        # zeta_N, stepped to and not tested
        vel2.append(velocity(state))
        xs.append(state.zeta.bar())
        fpr2.append(np.nan)
    # vel2[n] is |zeta_{n+1} - zeta_n|^2 and vn2[n] |z_{n-1} - zeta_n|^2
    return GcrifbaResult(state.zeta.blocks, state.zeta.bar(), len(corr2), stopped,
                         np.array(ns), np.array(xs), np.array(vel2[1:] + [np.nan]),
                         np.array([0.0] + corr2), np.array(fpr2))


# --- baselines --------------------------------------------------------------

def ppa_step(A, lam, x):
    """Proximal point: one resolvent application."""
    return as_vector(A.resolvent(lam, as_vector(x)))


def fba_step(A, B, lam, x):
    """Forward-backward: gradient-style step on B, resolvent on A."""
    x = as_vector(x)
    return as_vector(A.resolvent(lam, x - lam * B(x)))


def fbf_step(A, B, lam, x):
    """Forward-backward-forward with the correcting second B evaluation."""
    x = as_vector(x)
    bx = B(x)
    y = as_vector(A.resolvent(lam, x - lam * bx))
    return y - lam * (B(y) - bx)


def dr_step(A, B_res, lam, x):
    """Douglas-Rachford-style governing iteration.

    B_res is the resolvent form of the single-valued part; the solution is
    read off through the shadow point J_{lam B}(x).
    """
    x = as_vector(x)
    jb = as_vector(B_res.resolvent(lam, x))
    return as_vector(A.resolvent(lam, 2.0 * jb - x)) + x - jb


def moudafi_oliny_step(A, B, lam, alpha_n, x, x_prev):
    """Inertial step with B evaluated at the non-extrapolated point."""
    x = as_vector(x)
    z = x + alpha_n * (x - as_vector(x_prev))
    return as_vector(A.resolvent(lam, z - lam * B(x)))


def lorenz_pock_step(A, B, lam, alpha_n, x, x_prev):
    """Inertial step with B evaluated at the extrapolated point."""
    x = as_vector(x)
    z = x + alpha_n * (x - as_vector(x_prev))
    return as_vector(A.resolvent(lam, z - lam * B(z)))


def attouch_cabot_step(A, B, lam, alpha_n, w_n, x, x_prev):
    """Relaxed inertial forward-backward step."""
    x = as_vector(x)
    z = x + alpha_n * (x - as_vector(x_prev))
    return (1.0 - w_n) * z + w_n * as_vector(A.resolvent(lam, z - lam * B(z)))


def chambolle_dossal_step(A, B, lam, alpha, n, x, x_prev):
    """Momentum forward-backward step with the (n-1)/(n+alpha-1)
    coefficient."""
    x = as_vector(x)
    mom = (n - 1.0) / (n + alpha - 1.0) if n >= 1 else 0.0
    z = x + mom * (x - as_vector(x_prev))
    return as_vector(A.resolvent(lam, z - lam * B(z)))


def run_baseline(kind, problem, x0, lam=None, max_iter=10**6, tol=1e-9,
                 stride=1, alpha=3.1, inertia=0.3, ac_alpha=3.0, ac_rho=None):
    """Drive one baseline on a two-operator problem.

    Residuals use the plain (identity metric) fixed-point residual at the
    current iterate, evaluated only at recorded rows; stopping is checked
    there too. Velocity rows store the squared step just taken.
    """
    if kind not in _KINDS:
        raise ValueError("unknown baseline kind %r" % kind)
    A, B = problem.A, problem.B
    if kind == "ppa":
        # the proximal point method sees the whole inclusion through one
        # resolvent, so it needs the resolvent of the full operator sum
        if "sum_op" not in problem.extras:
            raise ValueError("this problem has no resolvent of the full sum")
        A = problem.extras["sum_op"]
    if lam is None:
        lam = default_step(kind, problem)
    beta = problem.beta
    if kind in ("fba", "moudafi_oliny", "lorenz_pock", "attouch_cabot") \
            and not 0.0 < lam < 2.0 * beta:
        raise ValueError("step must lie in (0, 2*beta)")
    if kind == "fbf" and not 0.0 < lam < beta:
        raise ValueError("step must lie in (0, 1/Lipschitz)")
    if kind == "chambolle_dossal":
        if alpha <= 3.0:
            raise ValueError("momentum parameter must exceed 3")
        if not 0.0 < lam < beta:
            raise ValueError("step must lie in (0, 1/Lipschitz)")
    if kind == "dr":
        if problem.B_resolvent is None:
            raise ValueError("this problem has no resolvent form for B")
        B_res = problem.B_resolvent
    if kind == "attouch_cabot" and ac_rho is None:
        ac_rho = 0.5 * ac_alpha * (ac_alpha - 2.0) * (1.0 - lam / (4.0 * beta))

    def residual(x):
        if kind == "dr":
            return dr_step(A, B_res, lam, x) - x
        if kind == "ppa":
            return (x - as_vector(A.resolvent(lam, x))) / lam
        return (x - as_vector(A.resolvent(lam, x - lam * B(x)))) / lam

    x = as_vector(x0).copy()
    x_prev = x.copy()
    ns, vel2, res2 = [], [], []
    stopped = "max_iter"
    n = 0
    while n < max_iter:
        record = (n % stride == 0)
        if record:
            r = residual(x)
            r2 = float(r @ r)
        if kind == "ppa":
            x_next = ppa_step(A, lam, x)
        elif kind == "fba":
            x_next = fba_step(A, B, lam, x)
        elif kind == "fbf":
            x_next = fbf_step(A, B, lam, x)
        elif kind == "dr":
            x_next = dr_step(A, B_res, lam, x)
        elif kind == "moudafi_oliny":
            x_next = moudafi_oliny_step(A, B, lam, inertia, x, x_prev)
        elif kind == "lorenz_pock":
            x_next = lorenz_pock_step(A, B, lam, inertia, x, x_prev)
        elif kind == "attouch_cabot":
            a_n = max(0.0, 1.0 - ac_alpha / n) if n >= 1 else 0.0
            w_n = 1.0 - ac_rho / n ** 2 if n >= 1 else 1.0
            x_next = attouch_cabot_step(A, B, lam, a_n, w_n, x, x_prev)
        else:
            x_next = chambolle_dossal_step(A, B, lam, alpha, n, x, x_prev)
        if record:
            ns.append(n)
            res2.append(r2)
            d = x_next - x
            vel2.append(float(d @ d))
            if np.sqrt(r2) <= tol:
                stopped = "tol"
                break
        if not np.all(np.isfinite(x_next)):
            raise ArithmeticError("non-finite iterate at n=%d" % n)
        if np.linalg.norm(x_next) > 1e12:
            stopped = "diverged"
            break
        x_prev = x
        x = x_next
        n += 1
    return BaselineResult(x, n, stopped, np.array(ns), np.array(vel2),
                          np.array(res2))
