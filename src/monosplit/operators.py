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


def _per_row(fn, rows):
    """The fallback of the row forms: the scalar fn on each row of a (k, d)
    block in turn, the results stacked as rows."""
    out = [fn(row) for row in rows]
    return np.array(out) if out else np.empty((0, np.shape(rows)[-1]))


def prox_quadratic(lam, Q, b, x):
    """Resolvent of the affine map u -> Qu + b, i.e. (I + lam Q)^{-1}(x - lam b).

    Q must be positive semidefinite; the solve is verified by plugging the
    result back into the defining equation.
    """
    Q = np.asarray(Q, dtype=float)
    b = as_vector(b)
    x = as_vector(x)
    lhs = np.eye(len(x)) + lam * Q
    p = np.linalg.solve(lhs, x - lam * b)
    res = np.linalg.norm(lhs @ p - (x - lam * b))
    if res > 1e-10 * max(np.linalg.norm(x), 1.0):
        raise ArithmeticError("resolvent solve failed; check Q is PSD")
    return p


class MonotoneOp:
    """A maximally monotone operator seen through its resolvent.

    resolvent(lam, x) returns (I + lam A)^{-1} x. graph_member, when
    available, tests (x, u) membership in the graph of A up to a tolerance;
    only the inclusion diagnostics need it. affine=(Q, b) marks operators of
    the form A(x) = Qx + b, for which preconditioned resolvents have a
    direct linear solve.

    Row forms are opt-in. The resolvent_rows callable maps lam and a (k, d)
    block to the (k, d) block of resolvents of its rows; gen_resolvent_rows
    maps M, lam and a (k, d) block to the rows gen_resolvent(M, lam, u_i),
    screening each row u_i before M as gen_resolvent does; member_rows
    tests every row pair (x_i, u_i) against a (k, 1) tolerance column,
    screening as graph_member does, and returns k booleans. Each must agree
    with its scalar form row by row. The method resolvent_rows screens the
    blocks going in and out, so the resolvent_rows callable need not.
    Without them, the methods of the same names and
    generalized_resolvent_rows loop over the scalar forms. With
    them, the solvers evaluate the resolvent for the step from a state
    before its stop test, so the scalar and row forms must be pure
    functions of their arguments.
    """

    def __init__(self, resolvent, graph_member=None, label="", affine=None,
                 gen_resolvent=None, resolvent_rows=None, member_rows=None,
                 gen_resolvent_rows=None):
        self.resolvent = resolvent
        self.graph_member = graph_member
        self.label = label
        self.affine = affine
        self.gen_resolvent = gen_resolvent
        self._resolvent_rows = resolvent_rows
        self._member_rows = member_rows
        self._gen_resolvent_rows = gen_resolvent_rows

    @property
    def has_rows(self):
        """True when the operator carries its own resolvent row form, so
        that resolvent_rows costs one call per block, not one per row."""
        return self._resolvent_rows is not None

    def has_rows_in(self, M):
        """True when generalized_resolvent_rows in the metric M (None is
        the identity) costs one call per block, not one per row."""
        if M is None or M.is_identity:
            return self.has_rows
        return self._gen_resolvent_rows is not None

    def resolvent_rows(self, lam, X):
        """(I + lam A)^{-1} x_i for every row x_i of a (k, d) block; the
        input and output blocks are screened as the scalar path screens
        its vectors."""
        if self._resolvent_rows is None:
            return _per_row(lambda x: as_vector(self.resolvent(lam, x)), X)
        return as_rows(self._resolvent_rows(lam, as_rows(X)))

    def member_rows(self, X, U, tol):
        """graph_member(x_i, u_i, tol_i) for every row pair, as k booleans;
        tol is a length-k array."""
        if self._member_rows is None:
            return np.array([bool(self.graph_member(x, u, t))
                             for x, u, t in zip(X, U, tol)], dtype=bool)
        return np.asarray(self._member_rows(X, U, np.asarray(tol)[:, None]),
                          dtype=bool)

    def __repr__(self):
        return "MonotoneOp(%s)" % (self.label or "anonymous")


def zero_op():
    def graph_member(x, u, tol=1e-8):
        as_vector(x)
        return bool(np.all(np.abs(as_vector(u)) <= tol))

    def member_rows(X, U, tol):
        as_rows(X)
        return np.all(np.abs(as_rows(U)) <= tol, axis=1)

    return MonotoneOp(lambda lam, x: as_vector(x),
                      graph_member=graph_member,
                      label="zero",
                      affine=(None, None),
                      resolvent_rows=lambda lam, X: X,
                      member_rows=member_rows)


def box_op(lo, hi):
    """Normal cone of the box [lo, hi]^d."""
    if lo > hi:
        raise ValueError("empty box: lo > hi")

    def graph_member(x, u, tol=1e-8):
        x = as_vector(x)
        u = as_vector(u)
        if (x < lo - tol).any() or (x > hi + tol).any():
            return False
        up_ok = (u <= tol) | (x >= hi - tol)
        lo_ok = (u >= -tol) | (x <= lo + tol)
        return bool(up_ok.all() and lo_ok.all())

    def member_rows(X, U, tol):
        X = as_rows(X)
        U = as_rows(U)
        outside = ((X < lo - tol) | (X > hi + tol)).any(axis=1)
        ok = ((U <= tol) | (X >= hi - tol)) & ((U >= -tol) | (X <= lo + tol))
        return ~outside & ok.all(axis=1)

    return MonotoneOp(lambda lam, x: prox_box(lo, hi, x),
                      graph_member=graph_member,
                      label="normal_cone[%g,%g]" % (lo, hi),
                      resolvent_rows=lambda lam, X: X.clip(lo, hi),
                      member_rows=member_rows)


def l1_op(weight=1.0):
    """Subdifferential of weight * ||.||_1."""
    if weight < 0:
        raise ValueError("weight must be nonnegative")

    def graph_member(x, u, tol=1e-8):
        x = as_vector(x)
        u = as_vector(u)
        if (np.abs(u) > weight + tol).any():
            return False
        active = np.abs(x) > tol
        return bool((np.abs(u[active] - weight * np.sign(x[active])) <= tol).all())

    def member_rows(X, U, tol):
        X = as_rows(X)
        U = as_rows(U)
        outside = (np.abs(U) > weight + tol).any(axis=1)
        ok = (np.abs(X) <= tol) | (np.abs(U - weight * np.sign(X)) <= tol)
        return ~outside & ok.all(axis=1)

    return MonotoneOp(lambda lam, x: prox_l1(lam * weight, x),
                      graph_member=graph_member,
                      label="l1_subdiff(w=%g)" % weight,
                      resolvent_rows=lambda lam, X: _soft(lam * weight, X),
                      member_rows=member_rows)


def affine_op(Q, b, label="affine"):
    """Monotone map A(x) = Qx + b with Q positive semidefinite."""
    Q = np.asarray(Q, dtype=float)
    b = as_vector(b)

    def graph_member(x, u, tol=1e-8):
        return bool(np.linalg.norm(as_vector(u) - (Q @ as_vector(x) + b)) <= tol)

    return MonotoneOp(lambda lam, x: prox_quadratic(lam, Q, b, x),
                      graph_member=graph_member,
                      label=label,
                      affine=(Q, b))


def generalized_resolvent(A, M, lam, u):
    """Solve M p + lam a = M u with a in A(p), i.e. p = (M + lam A)^{-1}(M u).

    Dispatch: identity metric uses the plain resolvent; affine operators get
    a direct linear solve; otherwise the operator must carry its own closed
    form. Anything else is rejected rather than approximated.

    An ndarray u is taken as given: in the solvers it is x - lam B(x) for a
    screened x, and every path below screens either u itself (M.apply) or
    the resolvent's output. Other input is coerced and screened here.
    """
    if type(u) is not np.ndarray:
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


def generalized_resolvent_rows(A, M, lam, U):
    """generalized_resolvent(A, M, lam, u_i) for every row u_i of a (k, d)
    block, with the same dispatch: the identity metric takes the
    operator's resolvent_rows and any other its gen_resolvent_rows; without
    a row form the rows go one at a time. The output block is screened as
    generalized_resolvent screens its vector.
    """
    if M is None or M.is_identity:
        return A.resolvent_rows(lam, U)
    if A._gen_resolvent_rows is not None:
        return as_rows(A._gen_resolvent_rows(M, lam, U))
    return _per_row(lambda u: generalized_resolvent(A, M, lam, u), U)


class CocoerciveMap:
    """A single-valued map B together with its co-coercivity certificate L.

    The certificate means <Bx - By, x - y> >= ||Bx - By||^2 in the L^{-1}
    norm. With L = (1/beta) I this is the usual beta-co-coercivity.

    The apply_rows callable, when given, maps a (k, d) block to the (k, d)
    block of B(x_i) and must agree with apply row by row; without it, the
    method of the same name loops over apply. With it, the solvers evaluate
    B for the step from a state before its stop test, so apply and
    apply_rows must be pure functions of their arguments.
    """

    def __init__(self, apply, certificate_L, label="", apply_rows=None):
        self._apply = apply
        self.certificate_L = certificate_L
        self.label = label
        self._apply_rows = apply_rows

    def __call__(self, x):
        return as_vector(self._apply(as_vector(x)))

    def with_value(self, x):
        """(v, B(v)) for v = as_vector(x): the screened argument with its
        value, for a caller that goes on to use the argument."""
        v = as_vector(x)
        return v, as_vector(self._apply(v))

    @property
    def has_rows(self):
        """True when the map carries its own row form, so that apply_rows
        costs one call per block, not one per row."""
        return self._apply_rows is not None

    def apply_rows(self, X):
        """B(x_i) for every row x_i of a (k, d) block; the input and
        output blocks are screened as __call__ screens its vectors."""
        if self._apply_rows is None:
            return _per_row(self, X)
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

    Row forms are opt-in and, like the scalar forms, plain attributes (None
    when absent). The prox_G_rows and prox_Fstar_rows callables map a step
    size and a (k, d) block to the (k, d) block of proxes of its rows;
    grad_Q_rows and grad_Pstar_rows map a (k, d) block to the gradients of
    its rows. Each must agree with its scalar form row by row. Only with
    all four do the stacked operators of cripda.stacked_operators have row
    forms, whose callers screen the blocks going in and out
    (CocoerciveMap.apply_rows, SpdMap.apply_each and
    generalized_resolvent_rows). The solvers evaluate the row forms
    for the step from a state before its stop test, so the scalar and row
    forms must be pure functions of their arguments.
    """

    def __init__(self, prox_G, prox_Fstar, grad_Q, lip_Q, grad_Pstar,
                 lip_Pstar, K, label="", prox_G_rows=None,
                 prox_Fstar_rows=None, grad_Q_rows=None, grad_Pstar_rows=None):
        self.prox_G = prox_G
        self.prox_Fstar = prox_Fstar
        self.grad_Q = grad_Q
        self.lip_Q = float(lip_Q)
        self.grad_Pstar = grad_Pstar
        self.lip_Pstar = float(lip_Pstar)
        self.K = np.asarray(K, dtype=float)
        self.label = label
        self.prox_G_rows = prox_G_rows
        self.prox_Fstar_rows = prox_Fstar_rows
        self.grad_Q_rows = grad_Q_rows
        self.grad_Pstar_rows = grad_Pstar_rows

    @property
    def d_primal(self):
        return self.K.shape[1]

    @property
    def d_dual(self):
        return self.K.shape[0]

    @property
    def has_rows(self):
        """True when the pair carries all four row forms."""
        return None not in (self.prox_G_rows, self.prox_Fstar_rows,
                            self.grad_Q_rows, self.grad_Pstar_rows)
