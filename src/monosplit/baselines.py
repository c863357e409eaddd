"""Reference splitting methods used for comparison runs.

All of them reuse the operator abstractions and emit the same trace
columns as the core solver (velocity, residual), so slope fits compare
like with like. Long runs store only stride-sampled rows and the row of
the step where they stop.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .metriclin import all_finite, as_vector


def _with_momentum(x, x_prev, a):
    """The (2, d) block of rows x and x + a (x - x_prev)."""
    X = np.empty((2, len(x)))
    X[0] = x
    np.add(x, a * (x - x_prev), out=X[1])
    return X


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


def baseline_step(kind, problem, lam, alpha=3.1, inertia=0.3, ac_alpha=3.0,
                  ac_rho=None):
    """The step of a baseline run, after every check the run makes: a
    ValueError when the kind is unknown, a parameter is not a number, the
    problem lacks an operator the kind needs or a parameter is infeasible.
    lam None takes default_step, and ac_rho None the attouch_cabot default.

    step(n, x, x_prev), on screened 1-D float64 arrays, returns x_{n+1}
    and the residual vector at x_n, the residual taken first, as the
    reference loop takes it. Every operator is called through its row form,
    which screens its blocks. ppa, fba, fbf and dr read the residual off the
    step's own operator calls; moudafi_oliny takes B at x_n and both of its
    resolvent arguments in one row call; lorenz_pock, attouch_cabot and
    chambolle_dossal take the (2, d) block of x_n and the extrapolated z_n
    in one B call and one resolvent call, which the residual and the step
    share.
    """
    if kind not in _KINDS:
        raise ValueError("unknown baseline kind %r" % kind)
    for name, value in (("lam", lam), ("alpha", alpha), ("inertia", inertia),
                        ("ac_alpha", ac_alpha), ("ac_rho", ac_rho)):
        if not (isinstance(value, numbers.Real) and type(value) is not bool
                or value is None and name in ("lam", "ac_rho")):
            raise ValueError("%s must be a number, got %r" % (name, value))
    A, B, extras = problem.A, problem.B, problem.extras
    if kind == "ppa":
        # the proximal point method sees the whole inclusion through one
        # resolvent, so it needs the resolvent of the full operator sum
        if "sum_op" not in extras:
            raise ValueError("this problem has no resolvent of the full sum")
        A = extras["sum_op"]
    lam = default_step(kind, problem) if lam is None else lam
    beta = problem.beta
    if kind in ("fba", "moudafi_oliny", "lorenz_pock", "attouch_cabot") \
            and not 0.0 < lam < 2.0 * beta:
        raise ValueError("step must lie in (0, 2*beta)")
    if kind == "chambolle_dossal" and alpha <= 3.0:
        raise ValueError("momentum parameter must exceed 3")
    if kind in ("fbf", "chambolle_dossal") and not 0.0 < lam < beta:
        raise ValueError("step must lie in (0, 1/Lipschitz)")
    B_res = problem.B_resolvent
    if kind == "dr" and B_res is None:
        raise ValueError("this problem has no resolvent form for B")
    if kind == "attouch_cabot" and ac_rho is None:
        ac_rho = 0.5 * ac_alpha * (ac_alpha - 2.0) * (1.0 - lam / (4.0 * beta))

    def inertial(x, x_prev, a):
        # z = x + a (x - x_prev), its forward-backward point and the
        # residual at x, from one row call of B and of the resolvent
        X = _with_momentum(x, x_prev, a)
        FB = A.resolvent_rows(lam, X - lam * B.apply_rows(X))
        return X[1], FB[1], (x - FB[0]) / lam

    if kind == "ppa":
        def step(n, x, x_prev):
            jx = A.resolvent_rows(lam, x[None])[0]
            return jx, (x - jx) / lam
    elif kind == "fba":
        def step(n, x, x_prev):
            X = x[None]
            fb = A.resolvent_rows(lam, X - lam * B.apply_rows(X))[0]
            return fb, (x - fb) / lam
    elif kind == "fbf":
        def step(n, x, x_prev):
            X = x[None]
            BX = B.apply_rows(X)
            Y = A.resolvent_rows(lam, X - lam * BX)
            return (Y - lam * (B.apply_rows(Y) - BX))[0], (x - Y[0]) / lam
    elif kind == "dr":
        def step(n, x, x_prev):
            jb = B_res.resolvent_rows(lam, x[None])[0]
            x_next = A.resolvent_rows(lam, (2.0 * jb - x)[None])[0] + x - jb
            return x_next, x_next - x
    elif kind == "moudafi_oliny":
        def step(n, x, x_prev):
            J = A.resolvent_rows(lam, _with_momentum(x, x_prev, inertia)
                                 - lam * B.apply_rows(x[None]))
            return J[1], (x - J[0]) / lam
    elif kind == "lorenz_pock":
        def step(n, x, x_prev):
            _, fz, r = inertial(x, x_prev, inertia)
            return fz, r
    elif kind == "attouch_cabot":
        def step(n, x, x_prev):
            a_n = max(0.0, 1.0 - ac_alpha / n) if n >= 1 else 0.0
            w_n = 1.0 - ac_rho / n ** 2 if n >= 1 else 1.0
            z, fz, r = inertial(x, x_prev, a_n)
            return (1.0 - w_n) * z + w_n * fz, r
    else:
        def step(n, x, x_prev):
            _, fz, r = inertial(x, x_prev,
                                (n - 1.0) / (n + alpha - 1.0) if n >= 1 else 0.0)
            return fz, r
    return step


def run_baseline(kind, problem, x0, lam=None, max_iter=10**6, tol=1e-9,
                 stride=1, alpha=3.1, inertia=0.3, ac_alpha=3.0, ac_rho=None):
    """Drive one baseline, its step from baseline_step, on a problem.

    Every step tests the plain (identity metric) fixed-point residual at
    the current iterate against tol, so where the run stops does not
    depend on stride, an integer >= 1. Rows are stored at n = 0, stride,
    2 stride, ... and at the step where the run stops on tol or diverges;
    a row holds the squared residual at x_n and the squared step just
    taken.
    """
    step = baseline_step(kind, problem, lam, alpha, inertia, ac_alpha, ac_rho)
    if not (stride >= 1 and stride % 1 == 0):
        raise ValueError("stride must be an integer >= 1, got %r" % (stride,))
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
