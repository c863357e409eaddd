"""Desk-scale test problems with independently certified solutions.

The random instances (the lasso data of p2_lasso and p5_lasso_pd, and K
and a of p5_saddle) are recorded float64 draws of numpy's default
generator seeded with SEED and SEED + 1, written out by repr, which
round-trips a float exactly; building them imports no numpy.random. The
lasso solution is certified by lasso_oracle, which enumerates every sign
pattern and solves the patterns of one support in one batched call.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Callable, Optional

import numpy as np

from .metriclin import SpdMap, _row_constant, as_vector, operator_norm
from .operators import (CocoerciveMap, MonotoneOp, SaddleFunctionPair,
                        _soft_rows, affine_op, box_op, l1_op, zero_op)

# the source of the recorded draws below: with rng = default_rng(SEED),
# _LASSO_K is rng.standard_normal((5, 5)) and _LASSO_B the next
# standard_normal(5); with rng = default_rng(SEED + 1), _SADDLE_K is
# rng.standard_normal((2, 2)) and _SADDLE_A the next standard_normal(2)
SEED = 0x5EED

_LASSO_K = (
    (0.33352022349401306, 0.9172215260365335, 1.5730051894320924,
     -0.016294883913270213, -1.6944050029422977),
    (1.0453565912042704, 1.1655008276549355, -0.7525601906848596,
     -0.6189613039986762, -1.4143017502421436),
    (-0.30351918084892965, -0.6379541313240132, 0.5501089729187354,
     -0.7914037419617501, 0.4480199326212812),
    (0.6144549027024118, -0.2572101641020711, 0.47294125011147975,
     1.2829082114582062, -0.6712604630766571),
    (-0.36091163096569345, -0.465203451955796, 1.6517807904407567,
     -0.43520036641850723, -0.356847947681846),
)
_LASSO_B = (-1.0386975428783947, -2.1146222599910818, -1.8467257940274615,
            0.14969169776806054, -0.1986179504701014)
_SADDLE_K = ((-1.7603796301471144, -1.4341948167777552),
             (-0.797776673973188, -1.1876650029808788))
_SADDLE_A = (0.35170086403236667, -0.3403717362114469)


@dataclass
class ProblemSpec:
    name: str
    d: int                 # of (x, y) stacked, for a saddle problem
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


def _shift_map(c, label):
    """x -> x - c in one dimension, c a 0-d float64 operand."""
    c = np.array(c, dtype=float)
    return CocoerciveMap(lambda X: X - c, SpdMap(np.eye(1)), label=label, rows=True)


def _p1_clamp():
    A = box_op(0.0, np.inf)
    B = _shift_map(1.0, "shifted_identity")

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
            lambda lam, U: np.clip((U + lam) / (1.0 + lam), 0.0, np.inf),
            label="clamped_shifted_resolvent", rows=True),
            # no solver reads this split (chambolle_dossal reads B and A);
            # the benchmark's harness_sweep picks its chambolle_dossal
            # configs by the f_grad key
            "f_grad": lambda x: as_vector(x) - 1.0,
            "g_prox": lambda lam, x: np.clip(as_vector(x), 0.0, np.inf)})


def lasso_oracle(K, b, mu):
    """Exact lasso solution by enumerating all sign patterns.

    For each candidate support with signs s, solve the stationarity system
    on the support and keep patterns whose solution matches the signs and
    whose inactive coordinates satisfy the dual bound. Ties resolved by
    objective value: the first minimum in the enumeration order of
    product((-1, 0, 1), repeat=d) wins.

    The patterns are solved one support at a time: the support's Gram
    matrix and K^T b are formed once, and one batched solve gives every
    pattern of the support its own single right-hand-side solve. A singular
    support skips all of its patterns.
    """
    d = K.shape[1]
    S = np.array(list(product((-1.0, 0.0, 1.0), repeat=d)))
    codes = (S != 0) @ (1 << np.arange(d))
    found = {}                          # pattern index -> x on its support
    for code in range(1 << d):
        idx = np.flatnonzero(codes == code)
        free = S[idx[0]] != 0
        if not free.any():
            found[idx[0]] = np.zeros(0)
            continue
        KF = K[:, free]
        G = KF.T @ KF
        SF = S[idx][:, free]
        try:
            XF = np.linalg.solve(np.broadcast_to(G, (len(idx),) + G.shape),
                                 (KF.T @ b - mu * SF)[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            continue
        for i in np.flatnonzero((np.sign(XF) == SF).all(axis=1)):
            found[idx[i]] = XF[i]
    best = None
    best_obj = np.inf
    for i in sorted(found):
        free = S[i] != 0
        x = np.zeros(d)
        x[free] = found[i]
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


@lru_cache(maxsize=None)
def _lasso_instance():
    """K, b, mu and the oracle solution q of the seeded lasso instance,
    computed once per process; read-only. K and b are the recorded draws
    _LASSO_K and _LASSO_B; q comes from lasso_oracle, which solves the 3^5
    sign patterns one support at a time (2^5 batched solves)."""
    K = np.array(_LASSO_K)
    b = np.array(_LASSO_B)
    mu = 0.3 * np.abs(K.T @ b).max()
    q = lasso_oracle(K, b, mu)
    for a in (K, b, q):
        a.flags.writeable = False
    return K, b, mu, q


@lru_cache(maxsize=None)
def _lasso_beta():
    """Co-coercivity modulus 1/||K||^2 of the lasso gradient, by the power
    iteration of operator_norm once per process."""
    return 1.0 / operator_norm(_lasso_instance()[0]) ** 2


def _lasso_data():
    """Fresh copies of the lasso instance for one spec: mutating them
    cannot reach the cache or another spec."""
    K, b, mu, q = _lasso_instance()
    return K.copy(), b.copy(), mu, q.copy()


def _p2_lasso():
    K, b, mu, q = _lasso_data()
    beta = _lasso_beta()
    A, b_rows, KT = l1_op(mu), _row_constant(b), K.T

    def grad_rows(X):
        # K^T (K x_i - b) by np.matvec, which takes the path of the 1-D
        # products for each row, where X @ K.T may sum in another order
        KX = np.matvec(K, X)
        return np.matvec(KT, np.subtract(KX, b_rows(KX.shape), KX))

    B = CocoerciveMap(grad_rows, SpdMap(np.eye(5) / beta),
                      label="least_squares_grad", rows=True)

    def theta(x):
        x = as_vector(x)
        return 0.5 * np.sum((K @ x - b) ** 2) + mu * np.abs(x).sum()

    return ProblemSpec(
        name="p2_lasso", d=5, start=np.zeros(5), A=A, B=B, beta=beta,
        certified_solution=q,
        certification="exhaustive sign-pattern enumeration (3^5 stationarity systems)",
        certify_fn=lambda x: lasso_cert(K, b, mu, x),
        # f_grad and g_prox as on p1_clamp: read by no solver, kept for the
        # benchmark's choice of chambolle_dossal configs
        extras={"K": K, "b": b, "mu": mu,
                "f_grad": lambda x: K.T @ (K @ x - b),
                "g_prox": A.resolvent,
                "objective": theta, "objective_opt": theta(q)})


def p3_spectrum_modes():
    """Eigenvalues of the rate-separation quadratic: twenty log-spaced
    modes spanning five orders of magnitude plus one near-flat mode."""
    return np.concatenate([np.logspace(0.0, np.log10(4e-5), 20), [3.5e-7]])


def _p3_spectrum():
    mus = p3_spectrum_modes()
    d = len(mus)
    # mu <= 1 for every mode, so Q - Q^2 is PSD for Q = diag(mus), and the
    # identity certifies co-coercivity with modulus 1
    mus_rows = _row_constant(mus)
    B = CocoerciveMap(lambda X: mus_rows(X.shape) * X, SpdMap(np.eye(d)),
                      label="degenerate_quadratic", rows=True)
    return ProblemSpec(
        name="p3_spectrum", d=d, start=np.ones(d), A=zero_op(), B=B, beta=1.0,
        certified_solution=np.zeros(d),
        certification="unique zero of a positive diagonal quadratic",
        certify_fn=lambda x: np.linalg.norm(mus * as_vector(x)),
        extras={"modes": mus})


def _flat_interval():
    B = CocoerciveMap(lambda X: X - np.clip(X, -1.0, 1.0), SpdMap(np.eye(1)),
                      label="outside_interval_pull", rows=True)
    return ProblemSpec(
        name="flat_interval", d=1, start=np.array([3.0]), A=zero_op(), B=B,
        beta=1.0, certified_solution=np.array([0.5]),
        certification="every point of [-1,1] is a solution",
        certify_fn=lambda x: float(np.maximum(np.abs(as_vector(x)) - 1.0, 0.0).max()))


def _p4_three():
    B = _shift_map(1.5, "shifted_identity")
    return ProblemSpec(
        name="p4_three", d=1, start=np.array([4.0]),
        A_list=[box_op(-np.inf, 2.0), box_op(1.0, np.inf)], B=B, beta=1.0,
        certified_solution=np.array([1.5]),
        certification="zero of B interior to both constraint sets",
        certify_fn=lambda x: float(np.abs(as_vector(x) - 1.5).max()))


def _dual_prox(b=None):
    """Rows of the prox of sigma (|y|^2 / 2 + <b, y>), b None as 0, with
    1 + sigma (0-d) and sigma b (tiled) formed from float(sigma) once per
    sigma handed to it, keyed on sigma as operators._soft_rows keys its t."""
    key = scale = shift = None

    def prox(sigma, U):
        nonlocal key, scale, shift
        if sigma is not key:
            key, s = sigma, float(sigma)
            scale, shift = np.array(1.0 + s), None if b is None else _row_constant(s * b)
        return (U if shift is None else U - shift(U.shape)) / scale

    return prox


def _p5_saddle():
    K = np.array(_SADDLE_K)
    a = np.array(_SADDLE_A)
    a_rows = _row_constant(a)
    pair = SaddleFunctionPair(
        prox_G=lambda tau, U: U,
        prox_Fstar=_dual_prox(),
        grad_Q=lambda X: X - a_rows(X.shape), lip_Q=1.0,
        grad_Pstar=lambda Y: np.zeros(Y.shape), lip_Pstar=0.0,
        K=K, label="quadratic_saddle", rows=True)
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
    K, b, mu, q = _lasso_data()
    pair = SaddleFunctionPair(
        prox_G=_soft_rows(mu),
        prox_Fstar=_dual_prox(b),
        grad_Q=np.zeros_like, lip_Q=0.0,
        grad_Pstar=np.zeros_like, lip_Pstar=0.0,
        K=K, label="l1_least_squares_saddle", rows=True)

    def cert(candidate):
        x = as_vector(candidate[0])
        return lasso_cert(K, b, mu, x)

    return ProblemSpec(
        name="p5_lasso_pd", d=10, start=np.zeros(5), saddle=pair,
        certified_solution=(q, K @ q - b),
        certification="primal part checked against the sign-pattern oracle",
        certify_fn=cert, extras={"K": K, "b": b, "mu": mu})


def _p6_res_sum():
    B = _shift_map(3.0, "anchor_pull")
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
