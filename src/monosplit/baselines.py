"""Reference splitting methods used for comparison runs.

All of them reuse the operator abstractions and emit the same trace
columns as the core solver (velocity, residual), so slope fits compare
like with like. Long runs store only stride-sampled rows and the row of
the step where they stop.
"""

import math
from dataclasses import dataclass

import numpy as np

from .metriclin import all_finite, as_vector


# Each *_step helper screens its vector arguments and hands them to the
# step itself, _ppa to _chambolle_dossal, which take screened 1-D float64
# arrays and screen every resolvent and prox output as it returns;
# run_baseline calls the steps on its iterates, which it screens as it
# forms them.

def _fb(J, lam, x, bx):
    """The forward-backward point J(lam, x - lam bx)."""
    return as_vector(J(lam, x - lam * bx))


def _ppa(A, lam, x):
    return as_vector(A.resolvent(lam, x))


def _fbf(A, B, lam, x):
    """x_{n+1} and the resolvent output y, screened and flattened as it
    enters B; the step's arithmetic uses that copy."""
    bx = B(x)
    y, by = B.with_value(A.resolvent(lam, x - lam * bx))
    return y - lam * (by - bx), y


def _dr(A, B_res, lam, x):
    jb = as_vector(B_res.resolvent(lam, x))
    return as_vector(A.resolvent(lam, 2.0 * jb - x)) + x - jb


def _moudafi_oliny(A, lam, alpha_n, x, x_prev, bx):
    return _fb(A.resolvent, lam, x + alpha_n * (x - x_prev), bx)


def _lorenz_pock(A, B, lam, alpha_n, x, x_prev):
    z = x + alpha_n * (x - x_prev)
    return _fb(A.resolvent, lam, z, B(z))


def _attouch_cabot(A, B, lam, alpha_n, w_n, x, x_prev):
    z = x + alpha_n * (x - x_prev)
    return (1.0 - w_n) * z + w_n * _fb(A.resolvent, lam, z, B(z))


def _chambolle_dossal(f_grad, g_prox, lam, alpha, n, x, x_prev):
    mom = (n - 1.0) / (n + alpha - 1.0) if n >= 1 else 0.0
    z = x + mom * (x - x_prev)
    return _fb(g_prox, lam, z, f_grad(z))


def ppa_step(A, lam, x):
    """Proximal point: one resolvent application."""
    return _ppa(A, lam, as_vector(x))


def fba_step(A, B, lam, x):
    """Forward-backward: gradient-style step on B, resolvent on A."""
    x = as_vector(x)
    return _fb(A.resolvent, lam, x, B(x))


def fbf_step(A, B, lam, x):
    """Forward-backward-forward with the correcting second B evaluation."""
    return _fbf(A, B, lam, as_vector(x))[0]


def dr_step(A, B_res, lam, x):
    """Douglas-Rachford-style governing iteration.

    B_res is the resolvent form of the single-valued part; the solution is
    read off through the shadow point J_{lam B}(x).
    """
    return _dr(A, B_res, lam, as_vector(x))


def moudafi_oliny_step(A, B, lam, alpha_n, x, x_prev):
    """Inertial step with B evaluated at the non-extrapolated point."""
    x = as_vector(x)
    return _moudafi_oliny(A, lam, alpha_n, x, as_vector(x_prev), B(x))


def lorenz_pock_step(A, B, lam, alpha_n, x, x_prev):
    """Inertial step with B evaluated at the extrapolated point."""
    return _lorenz_pock(A, B, lam, alpha_n, as_vector(x), as_vector(x_prev))


def attouch_cabot_step(A, B, lam, alpha_n, w_n, x, x_prev):
    """Relaxed inertial forward-backward step."""
    return _attouch_cabot(A, B, lam, alpha_n, w_n, as_vector(x),
                          as_vector(x_prev))


def chambolle_dossal_step(f_grad, g_prox, lam, alpha, n, x, x_prev):
    """Momentum prox-gradient step with the (n-1)/(n+alpha-1) coefficient."""
    return _chambolle_dossal(f_grad, g_prox, lam, alpha, n, as_vector(x),
                             as_vector(x_prev))


@dataclass
class BaselineResult:
    x: np.ndarray
    n_iters: int
    stopped: str
    ns: np.ndarray
    vel2: np.ndarray
    res2: np.ndarray


_KINDS = ("ppa", "fba", "fbf", "dr", "moudafi_oliny", "lorenz_pock",
          "attouch_cabot", "chambolle_dossal")


def default_step(kind, problem):
    """Feasible default step length for a baseline on a given problem."""
    beta = problem.beta
    if kind == "fba":
        return 0.9 * 2.0 * beta
    if kind in ("moudafi_oliny", "lorenz_pock", "attouch_cabot"):
        # well inside (0, 2*beta); heavy inertia tolerates less step than
        # the plain method before it starts to cycle
        return 0.9 * beta
    if kind in ("fbf", "chambolle_dossal"):
        return 0.9 * beta          # 1/Lip = beta for our smooth parts
    return 1.0                     # resolvent-only methods


def run_baseline(kind, problem, x0, lam=None, max_iter=10**6, tol=1e-9,
                 stride=1, alpha=3.1, inertia=0.3, ac_alpha=3.0, ac_rho=None):
    """Drive one baseline on a two-operator problem.

    Every step tests the plain (identity metric) fixed-point residual at
    the current iterate against tol, so where the run stops does not
    depend on stride. Rows are stored at n = 0, stride, 2 stride, ... and
    at the step where the run stops on tol or diverges; a row holds the
    squared residual at x_n and the squared step just taken. ppa, fba, fbf
    and dr read the residual off the step's own operator calls; the
    inertial kinds evaluate it with one resolvent of their own and, but for
    moudafi_oliny, one B call.
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
        f_grad = problem.extras["f_grad"]
        g_prox = problem.extras["g_prox"]
    if kind == "dr":
        if problem.B_resolvent is None:
            raise ValueError("this problem has no resolvent form for B")
        B_res = problem.B_resolvent
    if kind == "attouch_cabot" and ac_rho is None:
        ac_rho = 0.5 * ac_alpha * (ac_alpha - 2.0) * (1.0 - lam / (4.0 * beta))

    # step(n, x, x_prev) returns x_{n+1} and the residual vector at x_n,
    # the residual taken first, as the reference loop takes it.

    def residual(x, bx):
        return (x - _fb(A.resolvent, lam, x, bx)) / lam

    if kind == "ppa":
        def step(n, x, x_prev):
            jx = _ppa(A, lam, x)
            return jx, (x - jx) / lam
    elif kind == "fba":
        def step(n, x, x_prev):
            fb = _fb(A.resolvent, lam, x, B(x))
            return fb, (x - fb) / lam
    elif kind == "fbf":
        def step(n, x, x_prev):
            x_next, y = _fbf(A, B, lam, x)
            return x_next, (x - y) / lam
    elif kind == "dr":
        def step(n, x, x_prev):
            x_next = _dr(A, B_res, lam, x)
            return x_next, x_next - x
    elif kind == "moudafi_oliny":
        def step(n, x, x_prev):
            bx = B(x)
            r = residual(x, bx)
            return _moudafi_oliny(A, lam, inertia, x, x_prev, bx), r
    elif kind == "lorenz_pock":
        def step(n, x, x_prev):
            r = residual(x, B(x))
            return _lorenz_pock(A, B, lam, inertia, x, x_prev), r
    elif kind == "attouch_cabot":
        def step(n, x, x_prev):
            r = residual(x, B(x))
            a_n = max(0.0, 1.0 - ac_alpha / n) if n >= 1 else 0.0
            w_n = 1.0 - ac_rho / n ** 2 if n >= 1 else 1.0
            return _attouch_cabot(A, B, lam, a_n, w_n, x, x_prev), r
    else:
        def step(n, x, x_prev):
            r = residual(x, B(x))
            return _chambolle_dossal(f_grad, g_prox, lam, alpha, n, x,
                                     x_prev), r

    x = as_vector(x0).copy()
    x_prev = x
    ns, vel2, res2 = [], [], []
    stopped = "max_iter"
    n = 0
    while n < max_iter:
        x_next, r = step(n, x, x_prev)
        r2 = float(r @ r)
        if math.sqrt(r2) <= tol:
            stopped = "tol"
        elif not all_finite(x_next):
            raise ArithmeticError("non-finite iterate at n=%d" % n)
        elif math.sqrt(x_next.dot(x_next)) > 1e12:
            stopped = "diverged"
        if n % stride == 0 or stopped != "max_iter":
            ns.append(n)
            res2.append(r2)
            d = x_next - x
            vel2.append(float(d @ d))
            if stopped != "max_iter":
                break
        x_prev = x
        x = x_next
        n += 1
    return BaselineResult(x, n, stopped, np.array(ns), np.array(vel2),
                          np.array(res2))


def dr_shadow(problem, lam, x):
    """Solution read-out for the Douglas-Rachford governing sequence."""
    return as_vector(problem.B_resolvent.resolvent(lam, x))
