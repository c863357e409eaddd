"""Monotone operators through their resolvents, plus a small prox catalog."""

import numpy as np

from .metriclin import SpdMap, as_rows, as_vector


def _soft(t, x):
    """sign(x_i) * max(|x_i| - t, 0) on an array x that is not screened."""
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def prox_l1(lam, x):
    """Soft thresholding: sign(x_i) * max(|x_i| - lam, 0)."""
    return _soft(lam, as_vector(x))


def prox_box(lo, hi, x):
    """Componentwise clamp onto [lo, hi]."""
    if lo > hi:
        raise ValueError("empty box: lo > hi")
    return as_vector(x).clip(lo, hi)


def _per_row(fn):
    """The row form of a per-vector callable fn(..., x): fn on each row x
    of the (k, d) block, its last argument, in turn, each result flattened
    and the results stacked as float rows, which are not screened. None
    stays None."""
    if fn is None:
        return None

    def rows(*args):
        X = args[-1]
        out = [np.ravel(fn(*args[:-1], x)) for x in X]
        return np.array(out, dtype=float) if out else np.empty((0, X.shape[-1]))

    return rows


def _one_row(x):
    """x as the (1, d) block of a one-row call, as as_vector reads a vector."""
    return np.reshape(x, (1, -1))


def _solve_rows(lhs, R):
    """lhs^{-1} r_i for every row r_i of a (k, d) block, each solved as
    np.linalg.solve solves one vector: one batched call of its
    single-right-hand-side solve, lhs broadcast over the rows."""
    return np.linalg.solve(lhs, R[:, :, None])[:, :, 0]


def _quadratic_rows(lhs, R, X):
    """The rows (I + lam Q)^{-1}(x_i - lam b) of a (k, d) block X, given
    lhs = I + lam Q and R, the rows x_i - lam b; each solve is verified by
    plugging its result back into its equation."""
    P = _solve_rows(lhs, R)
    res = np.hypot.reduce((lhs @ P[:, :, None])[:, :, 0] - R, axis=1)
    if (res > 1e-10 * np.maximum(np.hypot.reduce(X, axis=1), 1.0)).any():
        raise ArithmeticError("resolvent solve failed; check Q is PSD")
    return P


def prox_quadratic(lam, Q, b, x):
    """Resolvent of the affine map u -> Qu + b, i.e. (I + lam Q)^{-1}(x - lam b).

    Q must be positive semidefinite; the solve is verified by plugging the
    result back into the defining equation.
    """
    x = as_vector(x)
    lhs = np.eye(len(x)) + lam * np.asarray(Q, dtype=float)
    return _quadratic_rows(lhs, (x - lam * as_vector(b))[None], x[None])[0]


class MonotoneOp:
    """A maximally monotone operator seen through its resolvent.

    Each map is stored once, as a callable on (k, d) blocks of rows:
    resolvent(lam, X) gives the rows (I + lam A)^{-1} x_i; graph_member(X,
    U, tol), which only the inclusion diagnostics need, tests each row pair
    (x_i, u_i) against the (k, 1) tolerance column tol, as k booleans; and
    gen_resolvent(M, lam, R), for a metric M other than the identity, gives
    the rows (M + lam A)^{-1} r_i of an argument with M applied already.
    affine=(Q, b) marks A(x) = Qx + b, which gets a direct linear solve in
    any metric. With rows false, the default, the callables given are
    per-vector forms, resolvent(lam, x), graph_member(x, u, tol) and
    gen_resolvent(M, lam, r), each made here a row callable that calls it
    once per row. resolvent_rows and member_rows screen the blocks going in
    (and the resolvent's coming out), metric_resolvent_rows the generalized
    resolvent's output. The attributes resolvent, graph_member and
    gen_resolvent are the one-row calls of the stored forms, or None where
    A has no such map; the first screens its argument, the second both.
    The solvers evaluate a state's resolvent before its stop test and again
    alone after a failed call, so the callables must be pure.
    """

    def __init__(self, resolvent, graph_member=None, label="", affine=None,
                 gen_resolvent=None, rows=False):
        if not rows:
            resolvent, gen_resolvent = _per_row(resolvent), _per_row(gen_resolvent)
            if graph_member is not None:
                member = graph_member
                graph_member = lambda X, U, tol: [
                    member(*row) for row in zip(X, U, tol[:, 0])]
        self._resolvent_rows = resolvent
        self._member_rows = graph_member
        self._gen_resolvent_rows = gen_resolvent
        self.label = label
        self.affine = affine
        self.resolvent = None if resolvent is None else (
            lambda lam, x: resolvent(lam, as_rows(_one_row(x)))[0])
        self.graph_member = None if graph_member is None else (
            lambda x, u, tol=1e-8: bool(
                self.member_rows(_one_row(x), _one_row(u), [tol])[0]))
        self.gen_resolvent = None if gen_resolvent is None else (
            lambda M, lam, r: gen_resolvent(M, lam, _one_row(r))[0])

    def resolvent_rows(self, lam, X):
        """(I + lam A)^{-1} x_i for every row x_i of a (k, d) block; the
        input and output blocks are screened."""
        return as_rows(self._resolvent_rows(lam, as_rows(X)))

    def member_rows(self, X, U, tol):
        """Graph membership of every row pair (x_i, u_i), as k booleans;
        tol is a length-k array. X and U are screened."""
        return np.asarray(self._member_rows(as_rows(X), as_rows(U),
                                            np.asarray(tol)[:, None]), dtype=bool)

    def __repr__(self):
        return "MonotoneOp(%s)" % (self.label or "anonymous")


def zero_op():
    return MonotoneOp(lambda lam, X: X,
                      lambda X, U, tol: np.all(np.abs(U) <= tol, axis=1),
                      label="zero", affine=(None, None), rows=True)


def box_op(lo, hi):
    """Normal cone of the box [lo, hi]^d."""
    if lo > hi:
        raise ValueError("empty box: lo > hi")

    def member(X, U, tol):
        outside = ((X < lo - tol) | (X > hi + tol)).any(axis=1)
        ok = ((U <= tol) | (X >= hi - tol)) & ((U >= -tol) | (X <= lo + tol))
        return ~outside & ok.all(axis=1)

    return MonotoneOp(lambda lam, X: X.clip(lo, hi), member,
                      label="normal_cone[%g,%g]" % (lo, hi), rows=True)


def l1_op(weight=1.0):
    """Subdifferential of weight * ||.||_1."""
    if weight < 0:
        raise ValueError("weight must be nonnegative")

    def member(X, U, tol):
        outside = (np.abs(U) > weight + tol).any(axis=1)
        ok = (np.abs(X) <= tol) | (np.abs(U - weight * np.sign(X)) <= tol)
        return ~outside & ok.all(axis=1)

    return MonotoneOp(lambda lam, X: _soft(lam * weight, X), member,
                      label="l1_subdiff(w=%g)" % weight, rows=True)


def affine_op(Q, b, label="affine"):
    """Monotone map A(x) = Qx + b with Q positive semidefinite."""
    Q = np.asarray(Q, dtype=float)
    b = as_vector(b)
    eye = np.eye(len(b))

    def member(X, U, tol):
        D = U - ((Q @ X[:, :, None])[:, :, 0] + b)
        return np.linalg.norm(D, axis=1) <= tol[:, 0]

    return MonotoneOp(lambda lam, X: _quadratic_rows(eye + lam * Q, X - lam * b, X),
                      member, label=label, affine=(Q, b), rows=True)


def _backward_rows(A, M, lam, X, lamBX):
    """(M + lam A)^{-1}(M x_i - lam B(x_i)) for every row x_i of X, given
    lamBX, the rows lam B(x_i) or one shared row: the plain resolvent in
    the identity metric, when A has one, else metric_resolvent_rows with
    M applied to the rows first."""
    if M.is_identity and A.resolvent is not None:
        return A.resolvent_rows(lam, X - lamBX)
    return metric_resolvent_rows(A, M, lam, M.apply_each(X) - lamBX)


def generalized_resolvent(A, M, lam, u):
    """Solve M p + lam a = M u with a in A(p), i.e. p = (M + lam A)^{-1}(M u),
    as a one-row call of _backward_rows; M None is the identity."""
    U = as_rows(_one_row(u))
    M = SpdMap.identity(U.shape[1]) if M is None else M
    return _backward_rows(A, M, lam, U, 0.0)[0]


def metric_resolvent_rows(A, M, lam, R):
    """(M + lam A)^{-1} r_i for every row r_i of a (k, d) block, in a
    metric M other than the identity.

    The operator's own generalized resolvent goes first, its output block
    screened; an affine operator gets a direct linear solve per row. A
    block with rows is rejected for anything else rather than
    approximated. R is taken as given: in the solvers it is M x - lam B(x)
    for screened x, and a generalized resolvent screens where it reads R,
    as the stacked saddle operator's does.
    """
    if A._gen_resolvent_rows is not None:
        return as_rows(A._gen_resolvent_rows(M, lam, R))
    if A.affine is None and len(R):
        raise ValueError("generalized resolvent unavailable: metric is not the "
                         "identity and operator %r has no affine form or closed "
                         "formula" % A)
    Q, b = A.affine or (None, None)
    d = R.shape[1]
    Q = np.zeros((d, d)) if Q is None else np.asarray(Q, dtype=float)
    b = np.zeros(d) if b is None else as_vector(b)
    return _solve_rows(M.matrix + lam * Q, R - lam * b)


class CocoerciveMap:
    """A single-valued map B together with its co-coercivity certificate L.

    The certificate means <Bx - By, x - y> >= ||Bx - By||^2 in the L^{-1}
    norm. With L = (1/beta) I this is the usual beta-co-coercivity.

    B is stored once, as a callable on (k, d) blocks that gives the rows
    B(x_i); with rows false, the default, the callable given is a
    per-vector form B(x), made here a row callable that calls it once per
    row. apply_rows screens the blocks going in and out; a call on a vector
    is the one-row call. Like the resolvent, B must be pure.
    """

    def __init__(self, apply, certificate_L, label="", rows=False):
        self._apply_rows = apply if rows else _per_row(apply)
        self.certificate_L = certificate_L
        self.label = label

    def __call__(self, x):
        return as_rows(self._apply_rows(as_rows(_one_row(x))))[0]

    def apply_rows(self, X):
        """B(x_i) for every row x_i of a (k, d) block; the input and
        output blocks are screened."""
        return as_rows(self._apply_rows(as_rows(X)))

    def __repr__(self):
        return "CocoerciveMap(%s)" % (self.label or "anonymous")


def cocoercivity_check(B, pairs, tol=1e-10):
    """Evaluate the co-coercivity inequality on sample pairs.

    Returns a dict with the per-pair slacks
    <Bx - By, x - y> - ||Bx - By||^2_{L^{-1}}; the check passes when the
    worst slack stays above -tol.
    """
    L = B.certificate_L
    slacks = []
    for x, y in pairs:
        x = as_vector(x)
        y = as_vector(y)
        db = B(x) - B(y)
        slacks.append(float(db @ (x - y)) - float(db @ L.solve(db)))
    slacks = np.array(slacks)
    return {
        "slacks": slacks,
        "min_slack": float(slacks.min()) if len(slacks) else 0.0,
        "passed": bool(len(slacks) and slacks.min() >= -tol),
    }


class SaddleFunctionPair:
    """Data of a convex-concave saddle problem.

    min_x max_y G(x) + Q(x) + <Kx, y> - F*(y) - P*(y), with G, F* given by
    their prox operators and Q, P* by gradients with known Lipschitz
    constants.

    Each of the four maps is stored once, as a callable on (k, d) blocks of
    rows: prox_G(tau, X) and prox_Fstar(sigma, Y) give the proxes of the
    rows, grad_Q(X) and grad_Pstar(Y) their gradients. With rows false,
    the default, the callables given are per-vector forms, each made here a
    row callable that calls it once per row. The maps must be pure; the
    callers of cripda.stacked_operators screen its blocks.
    """

    def __init__(self, prox_G, prox_Fstar, grad_Q, lip_Q, grad_Pstar,
                 lip_Pstar, K, label="", rows=False):
        maps = (prox_G, prox_Fstar, grad_Q, grad_Pstar)
        if not rows:
            maps = [_per_row(f) for f in maps]
        self.prox_G, self.prox_Fstar, self.grad_Q, self.grad_Pstar = maps
        self.lip_Q = float(lip_Q)
        self.lip_Pstar = float(lip_Pstar)
        self.K = np.asarray(K, dtype=float)
        self.label = label

    @property
    def d_primal(self):
        return self.K.shape[1]

    @property
    def d_dual(self):
        return self.K.shape[0]
