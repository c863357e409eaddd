"""Every row form of the operator and problem catalogs against the
per-vector formulas of _reference_maps, row by row, on blocks of 1, 2 and
7 rows: bit for bit (the sign of a zero too), but for the lasso gradient,
a matrix form whose rows may sum in another order than K^T (K x - b) on
one vector, within 64 d eps of the largest magnitude."""

import numpy as np
import pytest

import _reference_maps as ref
from monosplit import cripda, problems
from monosplit.metriclin import operator_norm
from monosplit.operators import affine_op, box_op, l1_op, metric_resolvent_rows, zero_op

EPS = np.finfo(float).eps
KS = [1, 2, 7]
SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, 0.3, -0.3, 1.5, 2.0, 3.0])


def random_block(rng, k, d, special=()):
    """k random rows, about a third of the entries replaced by special
    values (kinks, box faces, signed zeros)."""
    X = 2.0 * rng.standard_normal((k, d))
    values = np.concatenate((SPECIAL, special))
    pick = rng.random((k, d)) < 0.35
    X[pick] = rng.choice(values, size=int(pick.sum()))
    return X


def wide_block(rng, k, d):
    """k rows over forty decades of scale, with a zero row and entries on
    the kinks of the l1 prox (|u| equal to the threshold)."""
    X = rng.standard_normal((k, d)) * np.exp(rng.uniform(-20, 20, (k, 1)))
    X[::7] = 0.0
    X[1::3, 0] = 0.2 * rng.choice([-1.0, 1.0])
    return X


def assert_rows(got, rows, d, exact=True):
    want = np.array(rows, dtype=float).reshape(-1, d)
    assert got.shape == want.shape and got.dtype == np.float64
    if exact:
        assert got.tobytes() == want.tobytes()
    else:
        bound = 64 * d * EPS * max(1.0, float(np.abs(want).max(initial=0.0)))
        assert float(np.abs(got - want).max(initial=0.0)) <= bound


def package_op(prob, key):
    """The package's operator that CATALOG keys so."""
    if key.startswith("A_list["):
        return prob.A_list[int(key[7:-1])]
    if key == "sum_op":
        return prob.extras["sum_op"]
    return getattr(prob, key)


# (problem, key) of every catalog operator, of those with a graph test, and
# the problems with a B
OPS = [(name, key) for name, maps in ref.CATALOG.items()
       for key, form in maps.items() if isinstance(form, dict)]
MEMBERS = [(name, key) for name, key in OPS if "graph_member" in ref.CATALOG[name][key]]
WITH_B = [name for name, maps in ref.CATALOG.items() if "B" in maps]


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("name,key", OPS)
def test_resolvent_rows_match_reference(name, key, k):
    prob = problems.get(name)
    op, want = package_op(prob, key), ref.CATALOG[name][key]["resolvent"]
    rng = np.random.default_rng(k + 17)
    for lam in (0.3, 1.0, 2.5):
        # the l1 kinks sit at +-lam * weight
        X = random_block(rng, k, prob.d, special=(lam, -lam, 0.3 * lam, -0.3 * lam))
        assert_rows(op.resolvent_rows(lam, X), [want(lam, x) for x in X], prob.d)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("name", WITH_B)
def test_B_rows_match_reference(name, k):
    prob = problems.get(name)
    want = ref.CATALOG[name]["B"]
    X = random_block(np.random.default_rng(k + 19), k, prob.d)
    assert_rows(prob.B.apply_rows(X), [want(x) for x in X], prob.d,
                exact=name != "p2_lasso")


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("name,key", MEMBERS)
def test_catalog_member_rows_match_reference(name, key, k):
    prob = problems.get(name)
    op, want = package_op(prob, key), ref.CATALOG[name][key]["graph_member"]
    rng = np.random.default_rng(k + 23)
    X, U = random_block(rng, k, prob.d), random_block(rng, k, prob.d)
    tol = rng.choice([0.0, 1e-8, 0.25], size=k)
    assert np.array_equal(op.member_rows(X, U, tol),
                          [want(x, u, t) for x, u, t in zip(X, U, tol)])


def _constructors():
    rng = np.random.default_rng(29)
    raw = rng.standard_normal((3, 3))
    Q, b = raw @ raw.T, rng.standard_normal(3)
    return [("zero", zero_op, ref.zero_op),
            ("box[0,1]", lambda: box_op(0.0, 1.0), lambda: ref.box_op(0.0, 1.0)),
            ("box[-inf,2]", lambda: box_op(-np.inf, 2.0), lambda: ref.box_op(-np.inf, 2.0)),
            ("l1(0.7)", lambda: l1_op(0.7), lambda: ref.l1_op(0.7)),
            ("l1(0)", lambda: l1_op(0.0), lambda: ref.l1_op(0.0)),
            ("affine", lambda: affine_op(Q, b), lambda: ref.affine_op(Q, b))]


CONSTRUCTORS = _constructors()


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("label,make,make_ref", CONSTRUCTORS,
                         ids=[c[0] for c in CONSTRUCTORS])
def test_constructor_row_forms_match_reference(label, make, make_ref, k):
    # points on the box faces and the l1 kinks, normals at the l1 bound,
    # values exactly one tolerance away from every edge, and for the affine
    # map normals on its graph; over forty blocks both verdicts show
    op, want = make(), make_ref()
    d = 3
    rng = np.random.default_rng(k + 5)
    verdicts = set()
    for _ in range(40):
        tol = rng.choice([0.0, 1e-8, 0.25], size=k)
        t = tol[:, None]
        X = random_block(rng, k, d)
        U = random_block(rng, k, d, special=(0.7, -0.7))
        edges_x = (t, -t, 1.0 + t, -t)
        edges_u = (0.7 + t, -(0.7 + t), t, -t)
        pick = rng.integers(0, 5, size=(k, d))
        for j in range(4):
            X = np.where(pick == j, edges_x[j], X)
            U = np.where(pick == j, edges_u[j], U)
        if label == "affine":
            on = rng.random(k) < 0.5
            U[on] = (op.affine[0] @ X[on][:, :, None])[:, :, 0] + op.affine[1]
        got = op.member_rows(X, U, tol)
        assert got.dtype == bool and got.shape == (k,)
        assert np.array_equal(got, [want["graph_member"](x, u, tt)
                                    for x, u, tt in zip(X, U, tol)])
        verdicts.update(got.tolist())
        lam = rng.uniform(0.1, 3.0)
        assert_rows(op.resolvent_rows(lam, X), [want["resolvent"](lam, x) for x in X], d)
    assert verdicts == {True, False}


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("name", ["p5_saddle", "p5_lasso_pd"])
def test_pair_maps_match_reference(name, k):
    pair, want = problems.get(name).saddle, ref.CATALOG[name]
    rng = np.random.default_rng(k)
    dx, dy = pair.d_primal, pair.d_dual
    U, V = wide_block(rng, k, dx), wide_block(rng, k, dy)
    for step in (0.2, 1.3):
        assert_rows(pair.prox_G(step, U), [want["prox_G"](step, u) for u in U], dx)
        assert_rows(pair.prox_Fstar(step, V), [want["prox_Fstar"](step, v) for v in V], dy)
    assert_rows(pair.grad_Q(U), [want["grad_Q"](u) for u in U], dx)
    assert_rows(pair.grad_Pstar(V), [want["grad_Pstar"](v) for v in V], dy)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("name", ["p5_saddle", "p5_lasso_pd"])
def test_stacked_operators_match_reference(name, k):
    pair = problems.get(name).saddle
    A, B = cripda.stacked_operators(pair)
    gen_resolvent, B_ref = ref.stacked(name)
    step = 0.2 if name == "p5_saddle" else 0.7 / operator_norm(pair.K)
    M = cripda.build_metric(pair, step, step)
    d = pair.d_primal + pair.d_dual
    U = wide_block(np.random.default_rng(100 + k), k, d)
    assert_rows(B.apply_rows(U), [B_ref(u) for u in U], d)
    for lam in (1.0, 0.6):
        assert_rows(metric_resolvent_rows(A, M, lam, U),
                    [gen_resolvent(M, lam, u) for u in U], d)
