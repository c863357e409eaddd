import numpy as np
import pytest

from monosplit import problems
from monosplit.metriclin import SpdMap
from monosplit.operators import (CocoerciveMap, MonotoneOp, affine_op, box_op,
                                 cocoercivity_check, generalized_resolvent,
                                 l1_op, prox_box, prox_l1, prox_quadratic,
                                 zero_op)


def test_prox_l1_examples():
    assert np.allclose(prox_l1(1.0, [2.0, -0.5, 0.0]), [1.0, 0.0, 0.0])
    assert np.allclose(prox_l1(0.0, [2.0, -0.5]), [2.0, -0.5])
    assert np.allclose(prox_l1(0.3, [-1.0]), [-0.7])


def test_prox_l1_subgradient_certificate():
    # p = prox(lam, x) must satisfy x - p in lam * sign-set(p)
    rng = np.random.default_rng(1)
    for _ in range(200):
        lam = rng.uniform(0.0, 2.0)
        x = rng.standard_normal(6) * 3
        p = prox_l1(lam, x)
        r = x - p
        on = np.abs(p) > 0
        assert np.all(np.abs(r[on] - lam * np.sign(p[on])) <= 1e-12)
        assert np.all(np.abs(r[~on]) <= lam + 1e-12)


def test_prox_box_examples():
    assert np.allclose(prox_box(0.0, 1.0, [-0.5, 0.5, 2.0]), [0.0, 0.5, 1.0])
    assert np.allclose(prox_box(-np.inf, 2.0, [5.0, -7.0]), [2.0, -7.0])
    with pytest.raises(ValueError):
        prox_box(1.0, 0.0, [0.0])


def test_prox_quadratic_example():
    # (I + 1*I)^{-1} (4 - 0) = 2
    assert np.allclose(prox_quadratic(1.0, np.eye(1), [0.0], [4.0]), [2.0])


def test_prox_quadratic_plugback():
    rng = np.random.default_rng(2)
    raw = rng.standard_normal((4, 4))
    Q = raw @ raw.T
    b = rng.standard_normal(4)
    x = rng.standard_normal(4)
    p = prox_quadratic(0.7, Q, b, x)
    assert np.linalg.norm(p + 0.7 * (Q @ p + b) - x) <= 1e-10


def test_resolvents_firmly_nonexpansive():
    # |Jx - Jy|^2 <= <Jx - Jy, x - y> for every maximally monotone operator
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((3, 3))
    ops = [(zero_op(), 3), (box_op(-1.0, 2.0), 3), (l1_op(0.7), 3),
           (affine_op(raw @ raw.T, rng.standard_normal(3)), 3)]
    for op, d in ops:
        for _ in range(1000):
            lam = rng.uniform(0.1, 3.0)
            x = rng.standard_normal(d) * 2
            y = rng.standard_normal(d) * 2
            dj = op.resolvent(lam, x) - op.resolvent(lam, y)
            slack = float(dj @ (x - y)) - float(dj @ dj)
            assert slack >= -1e-12, op.label


def test_graph_membership():
    box = box_op(0.0, 1.0)
    assert box.graph_member([0.0], [-3.0])          # lower face, outward normal
    assert box.graph_member([1.0], [5.0])
    assert box.graph_member([0.5], [0.0])
    assert not box.graph_member([0.5], [1.0])       # interior needs zero
    assert not box.graph_member([2.0], [0.0])       # outside the box
    sub = l1_op(1.0)
    assert sub.graph_member([2.0], [1.0])
    assert sub.graph_member([0.0], [0.4])
    assert not sub.graph_member([2.0], [-1.0])
    assert not sub.graph_member([0.0], [1.5])


def test_generalized_resolvent_identity_metric():
    op = l1_op(1.0)
    out = generalized_resolvent(op, SpdMap.identity(2), 0.5, [2.0, 0.1])
    assert np.allclose(out, prox_l1(0.5, [2.0, 0.1]))
    out = generalized_resolvent(op, None, 0.5, [2.0, 0.1])
    assert np.allclose(out, prox_l1(0.5, [2.0, 0.1]))


def test_generalized_resolvent_affine_example():
    # solve (M + lam Q) p = M u with M = 2, Q = 1, b = 0, u = 3: p = 2
    A = affine_op(np.eye(1), [0.0])
    out = generalized_resolvent(A, SpdMap([[2.0]]), 1.0, [3.0])
    assert out[0] == pytest.approx(2.0)


def test_generalized_resolvent_defining_inclusion():
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((3, 3))
    Q = raw @ raw.T
    b = rng.standard_normal(3)
    A = affine_op(Q, b)
    raw2 = rng.standard_normal((3, 3))
    M = SpdMap(raw2 @ raw2.T + 3 * np.eye(3))
    u = rng.standard_normal(3)
    p = generalized_resolvent(A, M, 0.8, u)
    assert np.linalg.norm(M.apply(p) + 0.8 * (Q @ p + b) - M.apply(u)) <= 1e-10


def test_generalized_resolvent_rejects_opaque_operator():
    with pytest.raises(ValueError):
        generalized_resolvent(l1_op(1.0), SpdMap([[2.0]]), 1.0, [3.0])


def test_cocoercivity_check_clamp():
    # x -> x - clip(x, -1, 1) is firmly nonexpansive, so 1-co-coercive
    B = CocoerciveMap(lambda x: x - np.clip(x, -1.0, 1.0),
                      SpdMap(np.eye(1)), label="clamp")
    rng = np.random.default_rng(6)
    pairs = [(rng.standard_normal(1) * 3, rng.standard_normal(1) * 3)
             for _ in range(500)]
    out = cocoercivity_check(B, pairs)
    assert out["passed"]
    assert out["min_slack"] >= -1e-10


def test_cocoercivity_check_catches_violation():
    # a 3-Lipschitz map is not 1-co-coercive
    bad = CocoerciveMap(lambda x: 3.0 * x, SpdMap(np.eye(1)))
    out = cocoercivity_check(bad, [([1.0], [0.0])])
    assert not out["passed"]


def test_cocoercivity_matrix_certificate():
    # B = Sx with eigenvalues in [0,1] satisfies S >= S^2, certificate L = I
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((4, 4))
    U = np.linalg.qr(raw)[0]
    S = U @ np.diag(rng.uniform(0.05, 1.0, 4)) @ U.T
    B = CocoerciveMap(lambda x: S @ x, SpdMap(np.eye(4)))
    pairs = [(rng.standard_normal(4), rng.standard_normal(4)) for _ in range(300)]
    assert cocoercivity_check(B, pairs)["passed"]


# --- the row-block forms against the scalar forms ------------------------

EPS = np.finfo(float).eps


def catalog_operators():
    """(problem name, operator) for every B and every resolvent-carrying
    operator of the catalog problems."""
    out = []
    for prob in problems.catalog():
        for op in [prob.A, prob.B, prob.B_resolvent] + list(prob.A_list or []):
            if op is not None:
                out.append((prob.name, op))
    return out


CATALOG = catalog_operators()
IDS = ["%s:%s" % (name, op.label) for name, op in CATALOG]
SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, 0.3, -0.3, 1.5, 2.0, 3.0])


def random_block(rng, k, d, special=()):
    """k random rows, about a third of the entries replaced by special
    values (kinks, box faces, signed zeros)."""
    X = 2.0 * rng.standard_normal((k, d))
    values = np.concatenate((SPECIAL, special))
    pick = rng.random((k, d)) < 0.35
    X[pick] = rng.choice(values, size=int(pick.sum()))
    return X


def assert_rows_match(got, want, elementwise, d):
    assert got.shape == want.shape
    if elementwise:
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    else:
        bound = 64 * d * EPS * max(1.0, float(np.abs(want).max(initial=0.0)))
        assert float(np.abs(got - want).max(initial=0.0)) <= bound


def scalar_rows(fn, X, d):
    return np.array([fn(x) for x in X]).reshape(len(X), d)


@pytest.mark.parametrize("k", [0, 1, 513])
@pytest.mark.parametrize("name, op", CATALOG, ids=IDS)
def test_row_forms_match_scalar_forms(name, op, k):
    d = problems.get(name).d
    rng = np.random.default_rng(k + 17)
    if isinstance(op, CocoerciveMap):
        X = random_block(rng, k, d)
        # only the lasso gradient is a matrix form
        assert_rows_match(op.apply_rows(X), scalar_rows(op, X, d),
                          name != "p2_lasso", d)
        return
    for lam in (0.3, 1.0, 2.5):
        # the l1 kinks sit at +-lam * weight
        X = random_block(rng, k, d, special=(lam, -lam, 0.3 * lam, -0.3 * lam))
        want = scalar_rows(lambda x: op.resolvent(lam, x), X, d)
        # elementwise row forms, or the fallback for the affine resolvent
        assert_rows_match(op.resolvent_rows(lam, X), want, True, d)


@pytest.mark.parametrize("k", [0, 1, 513])
@pytest.mark.parametrize("make", [zero_op, lambda: box_op(0.0, 1.0),
                                  lambda: box_op(-np.inf, 2.0),
                                  lambda: l1_op(0.7), lambda: l1_op(0.0)])
def test_member_rows_match_graph_member(make, k):
    op = make()
    d = 3
    rng = np.random.default_rng(k + 5)
    tol = rng.choice([0.0, 1e-8, 0.25], size=k)
    t = tol[:, None]
    # points on the box faces and the l1 kinks, normals at the l1 bound,
    # and values exactly one tolerance away from every edge
    X = random_block(rng, k, d)
    U = random_block(rng, k, d, special=(0.7, -0.7))
    edges_x = (t, -t, 1.0 + t, -t)
    edges_u = (0.7 + t, -(0.7 + t), t, -t)
    pick = rng.integers(0, 5, size=(k, d))
    for j in range(4):
        X = np.where(pick == j, edges_x[j], X)
        U = np.where(pick == j, edges_u[j], U)
    want = np.array([op.graph_member(x, u, tt) for x, u, tt in zip(X, U, tol)],
                    dtype=bool)
    got = op.member_rows(X, U, tol)
    assert got.dtype == bool and got.shape == (k,)
    assert np.array_equal(got, want)
    if k > 100:
        assert 0 < want.sum() < k        # both verdicts are exercised


def nan_map():
    # finite input, non-finite output on rows with a large first entry
    def f(x):
        return np.where(x > 5.0, np.nan, x)
    return CocoerciveMap(f, SpdMap(np.eye(2)), apply_rows=f)


def nan_resolvent_op():
    def f(lam, x):
        return np.where(x > 5.0, np.inf, x)
    return MonotoneOp(f, resolvent_rows=f)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_row_forms_screen_input_blocks(bad):
    X = np.ones((4, 2))
    X[2, 1] = bad
    for call in (lambda: l1_op(1.0).resolvent_rows(0.5, X),
                 lambda: box_op(0.0, 1.0).resolvent_rows(0.5, X),
                 lambda: zero_op().resolvent_rows(0.5, X),
                 lambda: CocoerciveMap(lambda x: x, SpdMap(np.eye(2))).apply_rows(X),
                 lambda: nan_map().apply_rows(X),
                 lambda: l1_op(1.0).member_rows(X, np.zeros((4, 2)), np.ones(4)),
                 lambda: box_op(0.0, 1.0).member_rows(np.zeros((4, 2)), X, np.ones(4)),
                 lambda: zero_op().member_rows(X, np.zeros((4, 2)), np.ones(4)),
                 lambda: zero_op().member_rows(np.zeros((4, 2)), X, np.ones(4))):
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="^vector has non-finite entries$"):
                call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("make", [zero_op, lambda: box_op(0.0, 1.0), l1_op])
def test_graph_member_screens_both_arguments(make, bad):
    # a non-finite point or normal is an error, not a failed membership
    op = make()
    for x, u in (([0.5, bad], [0.0, 0.0]), ([0.5, 0.5], [0.0, bad])):
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="^vector has non-finite entries$"):
                op.graph_member(np.array(x), np.array(u))


def test_row_forms_screen_output_blocks():
    X = np.ones((4, 2))
    X[3, 0] = 6.0
    B = nan_map()
    A = nan_resolvent_op()
    for scalar, rows in ((lambda: B(X[3]), lambda: B.apply_rows(X)),
                         (lambda: generalized_resolvent(A, None, 1.0, X[3]),
                          lambda: A.resolvent_rows(1.0, X))):
        for call in (scalar, rows):
            with np.errstate(invalid="ignore"):
                with pytest.raises(ValueError, match="^vector has non-finite entries$"):
                    call()


def test_fallback_loops_over_the_scalar_forms():
    calls = []

    def apply(x):
        calls.append("B")
        return 2.0 * x

    def resolvent(lam, x):
        calls.append("J")
        return np.asarray(x) / (1.0 + lam)

    def member(x, u, tol):
        calls.append("G")
        return bool(np.all(np.abs(u - x) <= tol))

    B = CocoerciveMap(apply, SpdMap(np.eye(3)))
    A = MonotoneOp(resolvent, graph_member=member)
    X = np.arange(15.0).reshape(5, 3)
    assert np.array_equal(B.apply_rows(X), 2.0 * X)
    assert np.array_equal(A.resolvent_rows(1.0, X), X / 2.0)
    assert np.array_equal(A.member_rows(X, X + [[0.0], [0.0], [1.0], [0.0], [0.5]],
                                        np.full(5, 0.5)),
                          [True, True, False, True, True])
    assert calls == ["B"] * 5 + ["J"] * 5 + ["G"] * 5
    empty = np.empty((0, 3))
    assert B.apply_rows(empty).shape == (0, 3)
    assert A.resolvent_rows(1.0, empty).shape == (0, 3)
    assert A.member_rows(empty, empty, np.empty(0)).shape == (0,)
