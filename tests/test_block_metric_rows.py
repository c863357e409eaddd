"""Row forms in the block metric of the primal-dual stack, bit for bit
against their scalar forms: SpdMap.apply_each, the row forms of the
catalog saddle pairs, the stacked operators of cripda.stacked_operators,
the metric_resolvent_rows dispatch and the forward-backward image of a
block of rows in a non-identity metric."""

import numpy as np
import pytest

from monosplit import crifba, cripda, problems
from monosplit.metriclin import SpdMap, operator_norm
from monosplit.operators import (CocoerciveMap, MonotoneOp, SaddleFunctionPair,
                                 affine_op, l1_op, metric_resolvent,
                                 metric_resolvent_rows)

PAIRS = ["p5_saddle", "p5_lasso_pd"]


def same_rows(got, rows, d):
    """got is the (k, d) float block of the given rows, bit for bit (the
    sign of a zero too)."""
    want = np.array(rows, dtype=float).reshape(-1, d)
    assert got.shape == want.shape and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def sample(rng, k, d):
    """k rows over forty decades of scale, with zero rows and entries on
    the kinks of the l1 prox (|u| equal to the threshold)."""
    X = rng.standard_normal((k, d)) * np.exp(rng.uniform(-20, 20, (k, 1)))
    X[::7] = 0.0
    X[3::11, 0] = 0.2 * rng.choice([-1.0, 1.0])
    return X


def metric(pair):
    step = 0.2 if pair.label == "quadratic_saddle" else 0.7 / operator_norm(pair.K)
    return cripda.build_metric(pair, step, step)


# --- SpdMap --------------------------------------------------------------

@pytest.mark.parametrize("k", [0, 1, 2, 200])
@pytest.mark.parametrize("d", [1, 4, 21])
@pytest.mark.parametrize("identity", [True, False])
def test_apply_each_is_apply_of_each_row(identity, d, k):
    # apply_each takes rows that its caller has screened (the solvers and
    # the replay pass rows that B's row form screened), so it screens
    # nothing itself; apply screens its vector
    rng = np.random.default_rng(10 * d + k)
    raw = rng.standard_normal((d, d))
    m = SpdMap.identity(d) if identity else SpdMap(raw @ raw.T + d * np.eye(d))
    X = sample(rng, k, d)
    same_rows(m.apply_each(X), [m.apply(x) for x in X], d)
    bad = np.ones((3, d))
    bad[1, -1] = np.nan
    with pytest.raises(ValueError, match="^vector has non-finite entries$"):
        m.apply(bad[1])
    with np.errstate(invalid="ignore"):
        assert np.isnan(m.apply_each(bad)[1]).any()


# --- the row forms of the saddle pairs ------------------------------------

@pytest.mark.parametrize("k", [1, 2, 513])
@pytest.mark.parametrize("name", PAIRS)
def test_catalog_pair_row_forms_match_scalar_forms(name, k):
    pair = problems.get(name).saddle
    assert pair.has_rows
    rng = np.random.default_rng(k)
    dx, dy = pair.d_primal, pair.d_dual
    U, V = sample(rng, k, dx), sample(rng, k, dy)
    for step in (0.2, 1.3):
        same_rows(pair.prox_G_rows(step, U), [pair.prox_G(step, u) for u in U], dx)
        same_rows(pair.prox_Fstar_rows(step, V), [pair.prox_Fstar(step, v) for v in V], dy)
    same_rows(pair.grad_Q_rows(U), [pair.grad_Q(u) for u in U], dx)
    same_rows(pair.grad_Pstar_rows(V), [pair.grad_Pstar(v) for v in V], dy)


def test_pair_has_rows_only_with_all_four_row_forms():
    catalog = problems.get("p5_saddle").saddle
    scalar = (catalog.prox_G, catalog.prox_Fstar, catalog.grad_Q, 1.0,
              catalog.grad_Pstar, 0.0, catalog.K)
    pair = SaddleFunctionPair(*scalar)
    assert not pair.has_rows
    # one row form is not enough
    assert not SaddleFunctionPair(*scalar, prox_G_rows=catalog.prox_G_rows).has_rows


# --- the stacked operators and the forward-backward image -----------------

@pytest.mark.parametrize("k", [1, 2, 513])
@pytest.mark.parametrize("name", PAIRS)
def test_stacked_row_forms_match_scalar_forms(name, k):
    pair = problems.get(name).saddle
    A, B = cripda.stacked_operators(pair)
    M = metric(pair)
    d = pair.d_primal + pair.d_dual
    rng = np.random.default_rng(100 + k)
    U = sample(rng, k, d)
    BU = B.apply_rows(U)
    same_rows(BU, [B(u) for u in U], d)
    for lam in (1.0, 0.6):
        same_rows(metric_resolvent_rows(A, M, lam, U),
                  [metric_resolvent(A, M, lam, u) for u in U], d)
        same_rows(crifba._forward_backward_rows(A, B, M, lam, U, BU),
                  [crifba.forward_backward(A, B, M, lam, u) for u in U], d)


def test_stacked_row_forms_screen_where_the_scalar_forms_do():
    # r as it enters, and every prox input and output
    pair = problems.get("p5_saddle").saddle
    A, B = cripda.stacked_operators(pair)
    M = metric(pair)
    nan_prox = SaddleFunctionPair(
        pair.prox_G, lambda s, u: np.full(2, np.nan), pair.grad_Q, 1.0,
        pair.grad_Pstar, 0.0, pair.K, prox_G_rows=pair.prox_G_rows,
        prox_Fstar_rows=lambda s, U: np.full_like(U, np.nan),
        grad_Q_rows=pair.grad_Q_rows, grad_Pstar_rows=pair.grad_Pstar_rows)
    A_nan, _ = cripda.stacked_operators(nan_prox)
    bad = np.ones((3, 4))
    bad[2, 3] = np.nan
    for op, U in ((A, bad), (A_nan, np.ones((3, 4)))):
        for call in (lambda: metric_resolvent(op, M, 1.0, U[-1]),
                     lambda: metric_resolvent_rows(op, M, 1.0, U)):
            with np.errstate(invalid="ignore"):
                with pytest.raises(ValueError, match="^vector has non-finite entries$"):
                    call()
    for call in (lambda: B(bad[-1]), lambda: B.apply_rows(bad)):
        with pytest.raises(ValueError, match="^vector has non-finite entries$"):
            call()


def test_metric_resolvent_rows_dispatch():
    rng = np.random.default_rng(8)
    U = sample(rng, 6, 3)
    D = SpdMap(np.diag([1.0, 1.5, 2.0]))
    l1 = l1_op(0.7)
    # an affine operator outside the identity goes row by row
    raw = rng.standard_normal((3, 3))
    affine = affine_op(raw @ raw.T, rng.standard_normal(3))
    same_rows(metric_resolvent_rows(affine, D, 0.4, U),
              [metric_resolvent(affine, D, 0.4, u) for u in U], 3)
    assert metric_resolvent_rows(affine, D, 0.4, np.empty((0, 3))).shape == (0, 3)
    # a generalized row form's output is screened, as the scalar form's is
    nan_out = MonotoneOp(None, gen_resolvent=lambda M, lam, r: np.full(3, np.nan),
                         gen_resolvent_rows=lambda M, lam, R: np.full_like(R, np.nan))
    for call in (lambda: metric_resolvent(nan_out, D, 0.4, U[0]),
                 lambda: metric_resolvent_rows(nan_out, D, 0.4, U)):
        with pytest.raises(ValueError, match="^vector has non-finite entries$"):
            call()
    # and an operator with neither form is refused, as one row is
    for call in (lambda: metric_resolvent(l1, D, 0.4, U[0]),
                 lambda: metric_resolvent_rows(l1, D, 0.4, U)):
        with pytest.raises(ValueError, match="generalized resolvent unavailable"):
            call()


def test_forward_backward_rows_per_row_in_a_non_identity_metric():
    # without a generalized row form, the rows go one at a time after the
    # same block product with M
    rng = np.random.default_rng(9)
    raw = rng.standard_normal((3, 3))
    A = affine_op(raw @ raw.T, rng.standard_normal(3))
    S = rng.standard_normal((3, 3))
    B = CocoerciveMap(lambda x: S @ x, SpdMap(np.eye(3)))
    M = SpdMap(np.diag([1.0, 1.5, 2.0]))
    X = sample(rng, 9, 3)
    same_rows(crifba._forward_backward_rows(A, B, M, 0.3, X, B.apply_rows(X)),
              [crifba.forward_backward(A, B, M, 0.3, x) for x in X], 3)
