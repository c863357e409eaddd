"""The maps of the operator and problem catalogs written per vector, as the
package wrote them before it kept one row form of each: the independent
reference that the row forms are checked against, row by row.

``CATALOG`` maps each problem name to its maps, keyed by where the problem
keeps them: "A", "B", "B_resolvent", "sum_op", "A_list[j]" and, for the
saddle pairs, "prox_G", "prox_Fstar", "grad_Q" and "grad_Pstar". An
operator entry is a dict with "resolvent" and "graph_member"; a pair entry
is the pair's four callables. ``stacked`` gives the per-vector forms of
``cripda.stacked_operators``.
"""

import numpy as np

from monosplit import problems
from monosplit.metriclin import as_vector


# --- the operator catalog ---------------------------------------------------

def prox_l1(lam, x):
    x = as_vector(x)
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


def prox_box(lo, hi, x):
    return as_vector(x).clip(lo, hi)


def prox_quadratic(lam, Q, b, x):
    """(I + lam Q)^{-1}(x - lam b), with the plug-back check."""
    Q = np.asarray(Q, dtype=float)
    b = as_vector(b)
    x = as_vector(x)
    lhs = np.eye(len(x)) + lam * Q
    p = np.linalg.solve(lhs, x - lam * b)
    res = np.linalg.norm(lhs @ p - (x - lam * b))
    if res > 1e-10 * max(np.linalg.norm(x), 1.0):
        raise ArithmeticError("resolvent solve failed; check Q is PSD")
    return p


def zero_op():
    def graph_member(x, u, tol=1e-8):
        as_vector(x)
        return bool(np.all(np.abs(as_vector(u)) <= tol))

    return {"resolvent": lambda lam, x: as_vector(x), "graph_member": graph_member}


def box_op(lo, hi):
    def graph_member(x, u, tol=1e-8):
        x = as_vector(x)
        u = as_vector(u)
        if (x < lo - tol).any() or (x > hi + tol).any():
            return False
        up_ok = (u <= tol) | (x >= hi - tol)
        lo_ok = (u >= -tol) | (x <= lo + tol)
        return bool(up_ok.all() and lo_ok.all())

    return {"resolvent": lambda lam, x: prox_box(lo, hi, x),
            "graph_member": graph_member}


def l1_op(weight):
    def graph_member(x, u, tol=1e-8):
        x = as_vector(x)
        u = as_vector(u)
        if (np.abs(u) > weight + tol).any():
            return False
        active = np.abs(x) > tol
        return bool((np.abs(u[active] - weight * np.sign(x[active])) <= tol).all())

    return {"resolvent": lambda lam, x: prox_l1(lam * weight, x),
            "graph_member": graph_member}


def affine_op(Q, b):
    Q = np.asarray(Q, dtype=float)
    b = as_vector(b)

    def graph_member(x, u, tol=1e-8):
        return bool(np.linalg.norm(as_vector(u) - (Q @ as_vector(x) + b)) <= tol)

    return {"resolvent": lambda lam, x: prox_quadratic(lam, Q, b, x),
            "graph_member": graph_member}


def metric_resolvent_affine(Q, b, M, lam, r):
    """(M + lam A)^{-1} r for A(x) = Qx + b, by one solve."""
    return np.linalg.solve(M.matrix + lam * np.asarray(Q, dtype=float),
                           r - lam * as_vector(b))


# --- the problem catalog ----------------------------------------------------

def _lasso():
    spec = problems.get("p2_lasso")
    return spec.extras["K"], spec.extras["b"], spec.extras["mu"]


def _catalog():
    K, b, mu = _lasso()
    a = problems.get("p5_saddle").extras["a"]
    mus = problems.p3_spectrum_modes()
    return {
        "p1_clamp": {
            "A": box_op(0.0, np.inf),
            "B": lambda x: as_vector(x) - 1.0,
            "B_resolvent": affine_op(np.eye(1), np.array([-1.0])),
            "sum_op": {"resolvent": lambda lam, u: np.clip(
                (as_vector(u) + lam) / (1.0 + lam), 0.0, np.inf)},
        },
        "p2_lasso": {
            "A": l1_op(mu),
            "B": lambda x: K.T @ (K @ as_vector(x) - b),
        },
        "p3_spectrum": {"A": zero_op(), "B": lambda x: mus * as_vector(x)},
        "flat_interval": {
            "A": zero_op(),
            "B": lambda x: as_vector(x) - np.clip(as_vector(x), -1.0, 1.0),
        },
        "p4_three": {
            "A_list[0]": box_op(-np.inf, 2.0),
            "A_list[1]": box_op(1.0, np.inf),
            "B": lambda x: as_vector(x) - 1.5,
        },
        "p5_saddle": {
            "prox_G": lambda tau, u: as_vector(u),
            "prox_Fstar": lambda sigma, u: as_vector(u) / (1.0 + sigma),
            "grad_Q": lambda x: as_vector(x) - a,
            "grad_Pstar": lambda y: np.zeros_like(as_vector(y)),
        },
        "p5_lasso_pd": {
            "prox_G": lambda tau, u: prox_l1(tau * mu, u),
            "prox_Fstar": lambda sigma, u: (as_vector(u) - sigma * b) / (1.0 + sigma),
            "grad_Q": lambda x: np.zeros_like(as_vector(x)),
            "grad_Pstar": lambda y: np.zeros_like(as_vector(y)),
        },
        "p6_res_sum": {
            "A_list[0]": l1_op(1.0),
            "A_list[1]": l1_op(1.0),
            "B": lambda x: as_vector(x) - 3.0,
        },
    }


CATALOG = _catalog()


def stacked(name):
    """(gen_resolvent(M, lam, r), B(u)) of the stacked inclusion of the
    named saddle problem, per vector: the primal prox first, feeding the
    dual prox, with tau and sigma read off the block metric M."""
    forms = CATALOG[name]
    K = problems.get(name).saddle.K
    dx = K.shape[1]

    def gen_resolvent(M, lam, r):
        tau, sigma = 1.0 / M.matrix[0, 0], 1.0 / M.matrix[dx, dx]
        x = as_vector(forms["prox_G"](tau, tau * as_vector(r[:dx])))
        y = as_vector(forms["prox_Fstar"](
            sigma, sigma * as_vector(r[dx:]) + 2.0 * sigma * (K @ x)))
        return np.concatenate([x, y])

    def B(u):
        return np.concatenate([forms["grad_Q"](u[:dx]), forms["grad_Pstar"](u[dx:])])

    return gen_resolvent, B
