"""Desk-scale test problems with independently certified solutions."""

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Optional

import numpy as np

from .metriclin import SpdMap, as_vector, operator_norm
from .operators import (CocoerciveMap, MonotoneOp, SaddleFunctionPair,
                        affine_op, box_op, l1_op, prox_l1, zero_op)

SEED = 0x5EED


@dataclass
class ProblemSpec:
    name: str
    d: int
    start: np.ndarray
    A: Optional[MonotoneOp] = None
    B: Optional[CocoerciveMap] = None
    beta: float = 1.0
    A_list: Optional[list] = None
    saddle: Optional[SaddleFunctionPair] = None
    B_resolvent: Optional[MonotoneOp] = None
    certified_solution: Optional[object] = None
    certification: str = ""
    certify_fn: Optional[Callable] = None
    extras: dict = field(default_factory=dict)

    def L_map(self):
        """Co-coercivity certificate as a map: (1/beta) I."""
        return SpdMap(np.eye(self.d) / self.beta)


def certify(problem, candidate, tol=1e-6):
    """Problem-specific optimality residual; (ok, residual)."""
    if problem.certify_fn is None:
        return None, float("nan")
    r = float(problem.certify_fn(candidate))
    return r <= tol, r


def _p1_clamp():
    A = box_op(0.0, np.inf)
    B = CocoerciveMap(lambda x: x - 1.0, SpdMap(np.eye(1)), label="shifted_identity")

    def cert(x):
        x = as_vector(x)
        fb = np.clip(x - 0.5 * (x - 1.0), 0.0, np.inf)
        return np.linalg.norm((x - fb) / 0.5)

    return ProblemSpec(
        name="p1_clamp", d=1, start=np.array([1.5]), A=A, B=B, beta=1.0,
        B_resolvent=affine_op(np.eye(1), np.array([-1.0]), label="B_affine"),
        certified_solution=np.array([1.0]),
        certification="closed form: the constraint is inactive at the zero of B",
        certify_fn=cert,
        extras={"sum_op": MonotoneOp(
            lambda lam, u: np.clip((as_vector(u) + lam) / (1.0 + lam), 0.0, np.inf),
            label="clamped_shifted_resolvent"),
            "f_grad": lambda x: as_vector(x) - 1.0,
            "g_prox": lambda lam, x: np.clip(as_vector(x), 0.0, np.inf)})


def lasso_oracle(K, b, mu):
    """Exact lasso solution by enumerating all sign patterns.

    For each candidate support with signs s, solve the stationarity system
    on the support and keep patterns whose solution matches the signs and
    whose inactive coordinates satisfy the dual bound. Ties resolved by
    objective value.
    """
    d = K.shape[1]
    best = None
    best_obj = np.inf
    for signs in product((-1, 0, 1), repeat=d):
        s = np.array(signs, dtype=float)
        free = s != 0
        x = np.zeros(d)
        if free.any():
            KF = K[:, free]
            try:
                xf = np.linalg.solve(KF.T @ KF, KF.T @ b - mu * s[free])
            except np.linalg.LinAlgError:
                continue
            if np.any(np.sign(xf) != s[free]):
                continue
            x[free] = xf
        g = K.T @ (K @ x - b)
        if np.any(np.abs(g[~free]) > mu * (1 + 1e-12) + 1e-12):
            continue
        obj = 0.5 * np.sum((K @ x - b) ** 2) + mu * np.sum(np.abs(x))
        if obj < best_obj:
            best_obj = obj
            best = x
    if best is None:
        raise RuntimeError("no sign pattern satisfied the optimality system")
    return best


def lasso_cert(K, b, mu, x, tol_active=1e-9):
    """Subgradient optimality residual for the l1-regularized least squares."""
    x = as_vector(x)
    g = K.T @ (K @ x - b)
    active = np.abs(x) > tol_active
    r_active = np.abs(g[active] + mu * np.sign(x[active]))
    r_inactive = np.maximum(np.abs(g[~active]) - mu, 0.0)
    parts = np.concatenate([r_active, r_inactive])
    return parts.max() if parts.size else 0.0


def _p2_lasso():
    rng = np.random.default_rng(SEED)
    K = rng.standard_normal((5, 5))
    b = rng.standard_normal(5)
    mu = 0.3 * np.abs(K.T @ b).max()
    beta = 1.0 / operator_norm(K) ** 2
    q = lasso_oracle(K, b, mu)
    A = l1_op(mu)
    B = CocoerciveMap(lambda x: K.T @ (K @ x - b),
                      SpdMap(np.eye(5) / beta), label="least_squares_grad")

    def theta(x):
        x = as_vector(x)
        return 0.5 * np.sum((K @ x - b) ** 2) + mu * np.abs(x).sum()

    return ProblemSpec(
        name="p2_lasso", d=5, start=np.zeros(5), A=A, B=B, beta=beta,
        certified_solution=q,
        certification="exhaustive sign-pattern enumeration (3^5 stationarity systems)",
        certify_fn=lambda x: lasso_cert(K, b, mu, x),
        extras={"K": K, "b": b, "mu": mu,
                "f_grad": lambda x: K.T @ (K @ x - b),
                "g_prox": lambda lam, x: prox_l1(lam * mu, x),
                "objective": theta, "objective_opt": theta(q)})


def p3_spectrum_modes():
    """Eigenvalues of the rate-separation quadratic: twenty log-spaced
    modes spanning five orders of magnitude plus one near-flat mode."""
    return np.concatenate([np.logspace(0.0, np.log10(4e-5), 20), [3.5e-7]])


def _p3_spectrum():
    mus = p3_spectrum_modes()
    d = len(mus)
    Q = np.diag(mus)
    # mu <= 1 for every mode, so Q - Q^2 is PSD and the identity certifies
    # co-coercivity with modulus 1
    B = CocoerciveMap(lambda x: mus * x, SpdMap(np.eye(d)), label="degenerate_quadratic")
    return ProblemSpec(
        name="p3_spectrum", d=d, start=np.ones(d), A=zero_op(), B=B, beta=1.0,
        certified_solution=np.zeros(d),
        certification="unique zero of a positive diagonal quadratic",
        certify_fn=lambda x: np.linalg.norm(mus * as_vector(x)),
        extras={"modes": mus, "Q": Q})


def _flat_interval():
    B = CocoerciveMap(lambda x: x - np.clip(x, -1.0, 1.0),
                      SpdMap(np.eye(1)), label="outside_interval_pull")
    return ProblemSpec(
        name="flat_interval", d=1, start=np.array([3.0]), A=zero_op(), B=B,
        beta=1.0, certified_solution=np.array([0.5]),
        certification="every point of [-1,1] is a solution",
        certify_fn=lambda x: float(np.maximum(np.abs(as_vector(x)) - 1.0, 0.0).max()))


def _p4_three():
    B = CocoerciveMap(lambda x: x - 1.5, SpdMap(np.eye(1)), label="shifted_identity")
    return ProblemSpec(
        name="p4_three", d=1, start=np.array([4.0]),
        A_list=[box_op(-np.inf, 2.0), box_op(1.0, np.inf)], B=B, beta=1.0,
        certified_solution=np.array([1.5]),
        certification="zero of B interior to both constraint sets",
        certify_fn=lambda x: float(np.abs(as_vector(x) - 1.5).max()))


def _p5_saddle():
    rng = np.random.default_rng(SEED + 1)
    K = rng.standard_normal((2, 2))
    a = rng.standard_normal(2)
    pair = SaddleFunctionPair(
        prox_G=lambda tau, u: as_vector(u),
        prox_Fstar=lambda sigma, u: as_vector(u) / (1.0 + sigma),
        grad_Q=lambda x: as_vector(x) - a, lip_Q=1.0,
        grad_Pstar=lambda y: np.zeros_like(as_vector(y)), lip_Pstar=0.0,
        K=K, label="quadratic_saddle")
    xbar = np.linalg.solve(np.eye(2) + K.T @ K, a)
    ybar = K @ xbar

    def cert(candidate):
        x, y = (as_vector(candidate[0]), as_vector(candidate[1]))
        return max(np.abs((x - a) + K.T @ y).max(), np.abs(y - K @ x).max())

    return ProblemSpec(
        name="p5_saddle", d=4, start=np.zeros(2), saddle=pair,
        certified_solution=(xbar, ybar),
        certification="first-order stationarity is a 2x2 linear system",
        certify_fn=cert, extras={"a": a, "K": K})


def _p5_lasso_pd():
    base = _p2_lasso()
    K = base.extras["K"]
    b = base.extras["b"]
    mu = base.extras["mu"]
    pair = SaddleFunctionPair(
        prox_G=lambda tau, u: prox_l1(tau * mu, u),
        prox_Fstar=lambda sigma, u: (as_vector(u) - sigma * b) / (1.0 + sigma),
        grad_Q=lambda x: np.zeros_like(as_vector(x)), lip_Q=0.0,
        grad_Pstar=lambda y: np.zeros_like(as_vector(y)), lip_Pstar=0.0,
        K=K, label="l1_least_squares_saddle")
    q = base.certified_solution

    def cert(candidate):
        x = as_vector(candidate[0])
        return lasso_cert(K, b, mu, x)

    return ProblemSpec(
        name="p5_lasso_pd", d=10, start=np.zeros(5), saddle=pair,
        certified_solution=(q, K @ q - b),
        certification="primal part checked against the sign-pattern oracle",
        certify_fn=cert, extras={"K": K, "b": b, "mu": mu})


def _p6_res_sum():
    B = CocoerciveMap(lambda x: x - 3.0, SpdMap(np.eye(1)), label="anchor_pull")
    return ProblemSpec(
        name="p6_res_sum", d=1, start=np.array([0.0]),
        A_list=[l1_op(1.0), l1_op(1.0)], B=B, beta=1.0,
        certified_solution=np.array([1.0]),
        certification="resolvent of a doubled l1 subdifferential in closed form",
        certify_fn=lambda x: float(np.abs(as_vector(x) - 1.0).max()))


# name -> builder, in catalog order; every call builds a fresh spec
_BUILDERS = {
    "p1_clamp": _p1_clamp,
    "p2_lasso": _p2_lasso,
    "p3_spectrum": _p3_spectrum,
    "flat_interval": _flat_interval,
    "p4_three": _p4_three,
    "p5_saddle": _p5_saddle,
    "p5_lasso_pd": _p5_lasso_pd,
    "p6_res_sum": _p6_res_sum,
}


def catalog():
    """All shipped problems, in a stable order."""
    return [build() for build in _BUILDERS.values()]


def get(name):
    """Build the named problem only."""
    build = _BUILDERS.get(name) if isinstance(name, str) else None
    if build is None:
        raise KeyError("unknown problem %r" % name)
    return build()
