import numpy as np
import pytest

from monosplit import problems
from monosplit.gcrifba import (GcrifbaParams, ProductVector, apply_T,
                               constant_product, default_gcrifba_params,
                               run_gcrifba, validate_gcrifba)
from monosplit.metriclin import SpdMap
from monosplit.operators import CocoerciveMap, zero_op


def test_product_vector_basics():
    z = ProductVector([[1.0, 2.0], [3.0, 4.0]], [0.5, 0.5])
    assert z.p == 2 and z.d == 2
    assert np.allclose(z.bar(), [2.0, 3.0])
    assert z.norm2() == pytest.approx(0.5 * 5 + 0.5 * 25)


def test_product_vector_weighted_mean():
    z = ProductVector([[0.0], [4.0]], [0.25, 0.75])
    assert z.bar()[0] == pytest.approx(3.0)


def test_product_vector_rejects_bad_weights():
    with pytest.raises(ValueError):
        ProductVector([[1.0], [2.0]], [0.5])            # wrong count
    with pytest.raises(ValueError):
        ProductVector([[1.0], [2.0]], [0.9, 0.9])       # sum != 1
    with pytest.raises(ValueError):
        ProductVector([[1.0], [2.0]], [-0.5, 1.5])      # negative


def test_apply_T_zero_operators_projects():
    # with every A_k = 0 and B = 0 each output block equals the mean
    z = ProductVector([[1.0], [3.0]], [0.5, 0.5])
    B = CocoerciveMap(lambda x: np.zeros_like(x), SpdMap(np.eye(1)))
    out = apply_T(z, [zero_op(), zero_op()], B, 0.5)
    assert np.allclose(out.blocks, [[2.0], [2.0]])


def test_apply_T_fixed_point():
    # diagonal z with the mean at a zero of B and A_k = 0 is a fixed point
    B = CocoerciveMap(lambda x: x - 1.5, SpdMap(np.eye(1)))
    z = constant_product([1.5], 2)
    out = apply_T(z, [zero_op(), zero_op()], B, 0.5)
    assert np.allclose(out.blocks, z.blocks)


def test_default_params_and_validation():
    p = default_gcrifba_params(2.0)
    assert p.lam == pytest.approx(0.9 * 4 * 0.25 * 2.0)
    validate_gcrifba(p)
    with pytest.raises(ValueError):
        validate_gcrifba(GcrifbaParams(beta=1.0, lam=1.1, w=0.5))
    with pytest.raises(ValueError):
        validate_gcrifba(GcrifbaParams(beta=1.0, lam=0.5, w=1.5))


def test_run_two_constraint_problem():
    prob = problems.get("p4_three")
    p = default_gcrifba_params(prob.beta)
    res = run_gcrifba(prob.A_list, prob.B, p, prob.start, tol=1e-10)
    assert res.stopped == "tol"
    ok, r = problems.certify(prob, res.x)
    assert ok, r


def test_run_resolvent_sum_problem():
    prob = problems.get("p6_res_sum")
    p = default_gcrifba_params(prob.beta)
    res = run_gcrifba(prob.A_list, prob.B, p, prob.start, tol=1e-10)
    ok, r = problems.certify(prob, res.x)
    assert ok, r


def test_run_trace_columns():
    prob = problems.get("p4_three")
    p = default_gcrifba_params(prob.beta)
    res = run_gcrifba(prob.A_list, prob.B, p, prob.start, max_iter=30,
                      tol=0.0, keep_x_hist=True)
    assert res.stopped == "max_iter"
    n = len(res.ns)
    assert len(res.zeta_vel2) == n == len(res.corr2) == len(res.fpr2)
    assert res.x_hist.shape == (n, prob.d)
    assert res.zeta_vel2[0] == 0.0                 # cold start
    assert np.all(res.fpr2 >= 0.0)


def test_single_block_reduces_to_core_solver():
    # p = 1 product-space run must reproduce the core iterates exactly
    from monosplit.crifba import default_params, run
    prob = problems.get("p1_clamp")
    lam = 0.9
    core = run(prob.A, prob.B, default_params(prob.L_map(), lam=lam),
               prob.start, max_iter=300, tol=0.0)
    p = default_gcrifba_params(prob.beta, lam=lam)
    lifted = run_gcrifba([prob.A], prob.B, p, prob.start, max_iter=300,
                         tol=0.0, keep_x_hist=True)
    n = min(core.X.shape[0], lifted.x_hist.shape[0])
    dev = np.abs(core.X[:n] - lifted.x_hist[:n]).max()
    assert dev <= 1e-12
