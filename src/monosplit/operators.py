"""Monotone operators through their resolvents, plus a small prox catalog."""

from functools import partial

import numpy as np

from .metriclin import (_FLOAT64, SCREEN_CHUNK, SpdMap, _row_constant, _zeros,
                        all_finite, as_rows, as_vector)


# 0 and 2 as 0-d float64 arrays, as forward_backward_map takes lam
_ZERO, _TWO = np.array(0.0), np.array(2.0)
_ZERO.flags.writeable = _TWO.flags.writeable = False


def _soft(t, x):
    """sign(x_i) * max(|x_i| - t, 0) on an array x that is not screened."""
    return np.sign(x) * np.maximum(np.abs(x) - t, _ZERO)


def _soft_rows(scale):
    """The row map (t, X) -> _soft(t * scale, X), its threshold a read-only
    0-d float64 formed once per t handed to it, keyed on t as
    cripda.stacked_operators keys its steps on M; _soft's operations are
    written out, which saves a call per row call."""
    key, thresh = None, None

    def soft(t, X):
        nonlocal key, thresh
        if t is not key:
            key, thresh = t, np.array(t * scale, dtype=float)
            thresh.flags.writeable = False
        return np.sign(X) * np.maximum(np.abs(X) - thresh, _ZERO)

    return soft


def prox_l1(lam, x):
    """Soft thresholding: sign(x_i) * max(|x_i| - lam, 0)."""
    return _soft(lam, as_vector(x))


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
    res = np.hypot.reduce(np.matvec(lhs, P) - R, axis=1)
    if (res > 1e-10 * np.maximum(np.hypot.reduce(X, axis=1), 1.0)).any():
        raise ArithmeticError("resolvent solve failed; check Q is PSD")
    return P


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
    once per row. resolvent_rows and member_rows screen the blocks going
    in, and the resolvent's coming out unless it is the block that went in
    (zero_op's); _loop_resolvent_rows, which gcrifba's later blocks call,
    only the latter. The solver loops call the stored forms through
    forward_backward_map, whose argument screens also check B's rows. The
    attributes resolvent, graph_member and gen_resolvent are the one-row
    calls of the stored forms, or None where A has no such map; each
    screens its vectors. The solvers evaluate a state's resolvent before
    its stop test and again alone after a failed call, so the callables
    must be pure.
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
            lambda M, lam, r: gen_resolvent(M, lam, as_rows(_one_row(r)))[0])

    def resolvent_rows(self, lam, X):
        """(I + lam A)^{-1} x_i for every row x_i of a (k, d) block; the
        input block is screened, the output as _loop_resolvent_rows does."""
        return self._loop_resolvent_rows(lam, as_rows(X))

    def _loop_resolvent_rows(self, lam, X):
        """resolvent_rows of a float block of rows screened already, which
        are not screened again; the output block is screened unless it is X."""
        out = self._resolvent_rows(lam, X)
        return out if out is X else as_rows(out)

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
    """Normal cone of the box [lo, hi]^d; its resolvent clamps each
    component onto [lo, hi]."""
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

    return MonotoneOp(_soft_rows(weight), member,
                      label="l1_subdiff(w=%g)" % weight, rows=True)


def affine_op(Q, b, label="affine"):
    """Monotone map A(x) = Qx + b with Q positive semidefinite; its
    resolvent is (I + lam Q)^{-1}(x - lam b)."""
    Q = np.asarray(Q, dtype=float)
    b = as_vector(b)
    eye = np.eye(len(b))

    def member(X, U, tol):
        D = U - (np.matvec(Q, X) + b)
        return np.linalg.norm(D, axis=1) <= tol[:, 0]

    return MonotoneOp(lambda lam, X: _quadratic_rows(eye + lam * Q, X - lam * b, X),
                      member, label=label, affine=(Q, b), rows=True)


def forward_backward_map(A, M, lam, B=None, lamB=0.0):
    """The row callable of one run's forward-backward image: the rows
    (M + lam A)^{-1}(M x_i - lam B(x_i)) of a (k, d) block X, with B
    evaluated on X, or, with B None, lamB subtracted in place of the rows
    lam B(x_i): those rows, one shared row or 0. The branches over M and
    A's forms are taken here, once; the callable calls B's and A's stored
    row forms directly, M bound to the generalized one.

    X holds rows screened already and is not screened again, nor are B's
    rows where a resolvent screens its argument, x_i - lam B(x_i) for the
    plain one (the identity metric, when A has one), else M x_i - lam
    B(x_i): a non-finite B(x_i) or an overflowing lam B(x_i) makes it
    non-finite in the same row, so that screen raises the ValueError of a
    screen of B's rows, before A is called. The output is screened unless
    it is the argument (zero_op's). Both screens, and B's float check, are
    as_rows' and CocoerciveMap._loop_rows' written out, which saves a call
    each; an output that is not a float64 array goes through as_rows. An
    affine A otherwise gets a direct linear solve per row, which screens no
    argument, so that an overflowing M x_i fails where the solver tests its
    iterate; B's rows are screened there as they come out. Any other A
    outside the identity metric refuses a block with rows. lam is a 0-d
    float64 in lam B(x_i), and a shared row of lamB is tiled to the block
    (_row_constant): numpy takes either at less call cost, with the same
    bits (tests/test_step_operands.py). A's maps get lam as given.
    """
    apply_B = None if B is None else B._apply_rows
    lam_0d = np.array(lam, dtype=float)
    lamB_rows = _row_constant(lamB) if np.ndim(lamB) == 1 else lambda shape: lamB
    if M.is_identity and A._resolvent_rows is not None:
        J, image = A._resolvent_rows, None
    elif A._gen_resolvent_rows is not None:
        J, image = partial(A._gen_resolvent_rows, M), M.apply_each
    else:
        Q, b = A.affine or (None, None)
        Q = np.zeros((M.d, M.d)) if Q is None else np.asarray(Q, dtype=float)
        lhs, lamb = M.matrix + lam * Q, lam * (np.zeros(M.d) if b is None else as_vector(b))

        def affine_rows(X):
            lamBX = lamB_rows(X.shape) if B is None else lam_0d * as_rows(B._loop_rows(X))
            if A.affine is None and len(X):
                raise ValueError("generalized resolvent unavailable: metric is not the "
                                 "identity and operator %r has no affine form or closed "
                                 "formula" % A)
            return _solve_rows(lhs, M.apply_each(X) - lamBX - lamb)
        return affine_rows

    def fb_rows(X):
        if apply_B is None:
            lamBX = lamB_rows(X.shape)
        else:
            BX = apply_B(X)
            if type(BX) is not np.ndarray or BX.dtype is not _FLOAT64:
                BX = np.asarray(BX, dtype=float)
            lamBX = lam_0d * BX
        R = (X if image is None else image(X)) - lamBX
        if (R.ravel().dot(_zeros(R.size)) != 0.0 if R.size <= SCREEN_CHUNK
                else not all_finite(R.ravel())):
            raise ValueError("vector has non-finite entries")
        out = J(lam, R)
        if out is R or type(out) is not np.ndarray or out.dtype is not _FLOAT64:
            return out if out is R else as_rows(out)
        if (out.ravel().dot(_zeros(out.size)) != 0.0 if out.size <= SCREEN_CHUNK
                else not all_finite(out.ravel())):
            raise ValueError("vector has non-finite entries")
        return out
    return fb_rows


def generalized_resolvent(A, M, lam, u):
    """Solve M p + lam a = M u with a in A(p), i.e. p = (M + lam A)^{-1}(M u),
    as a one-row call of forward_backward_map; M None is the identity."""
    U = as_rows(_one_row(u))
    M = SpdMap.identity(U.shape[1]) if M is None else M
    return forward_backward_map(A, M, lam)(U)[0]


class CocoerciveMap:
    """A single-valued map B together with its co-coercivity certificate L.

    The certificate means <Bx - By, x - y> >= ||Bx - By||^2 in the L^{-1}
    norm. With L = (1/beta) I this is the usual beta-co-coercivity.

    B is stored once, as a callable on (k, d) blocks that gives the rows
    B(x_i); with rows false, the default, the callable given is a
    per-vector form B(x), made here a row callable that calls it once per
    row. apply_rows screens the blocks going in and out; a call on a vector
    is the one-row call. Like the resolvent, B must be pure.

    The solver loops screen neither block: their rows are screened
    already and are not screened again, and B's rows are checked by the
    argument screen of the resolvent they feed, plain or generalized, or,
    on the affine solve, which screens no argument, as they come out
    (forward_backward_map). The public entry points screen their caller's
    argument.
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

    def _loop_rows(self, X):
        """B(x_i) for every row x_i of a block of loop rows, as a float
        array; neither block is screened."""
        BX = self._apply_rows(X)
        if type(BX) is not np.ndarray or BX.dtype is not _FLOAT64:
            BX = np.asarray(BX, dtype=float)
        return BX

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
