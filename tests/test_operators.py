import numpy as np
import pytest

from monosplit.metriclin import SpdMap
from monosplit.operators import (CocoerciveMap, MonotoneOp, affine_op, box_op,
                                 cocoercivity_check, generalized_resolvent,
                                 l1_op, prox_l1, zero_op)


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


def test_box_resolvent_examples():
    assert np.allclose(box_op(0.0, 1.0).resolvent(1.0, [-0.5, 0.5, 2.0]),
                       [0.0, 0.5, 1.0])
    assert np.allclose(box_op(-np.inf, 2.0).resolvent(1.0, [5.0, -7.0]), [2.0, -7.0])
    with pytest.raises(ValueError):
        box_op(1.0, 0.0)


def test_affine_resolvent_example():
    # (I + 1*I)^{-1} (4 - 0) = 2
    assert np.allclose(affine_op(np.eye(1), [0.0]).resolvent(1.0, [4.0]), [2.0])


def test_affine_resolvent_plugback():
    rng = np.random.default_rng(2)
    raw = rng.standard_normal((4, 4))
    Q = raw @ raw.T
    b = rng.standard_normal(4)
    x = rng.standard_normal(4)
    p = affine_op(Q, b).resolvent(0.7, x)
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


# --- the row forms: screens ------------------------------------------------

def nan_map():
    # finite input, non-finite output on rows with a large first entry
    def f(x):
        return np.where(x > 5.0, np.nan, x)
    return CocoerciveMap(f, SpdMap(np.eye(2)), rows=True)


def nan_resolvent_op():
    def f(lam, x):
        return np.where(x > 5.0, np.inf, x)
    return MonotoneOp(f, rows=True)


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
