import numpy as np
import pytest

from monosplit import problems
from monosplit.crifba import validate
from monosplit.gcrifba import default_gcrifba_params, run_gcrifba
from monosplit.metriclin import SpdMap


def test_run_rejects_bad_weights():
    prob = problems.get("p4_three")
    p = default_gcrifba_params(prob.beta)
    for weights, message in (([1.0], "one weight per block required"),
                             ([0.9, 0.9], "weights must be in"),      # sum != 1
                             ([-0.5, 1.5], "weights must be in")):    # negative
        with pytest.raises(ValueError, match=message):
            run_gcrifba(prob.A_list, prob.B, p, prob.start, weights=weights)


@pytest.mark.parametrize("weights", [[np.nan, np.nan], [np.nan], [0.5, np.inf]],
                         ids=["nan_nan", "nan", "half_inf"])
def test_run_refuses_non_finite_weights(weights):
    # every comparison with NaN is false, so a NaN weight must be refused
    # as such, not left to fail in the resolvent's argument screen
    prob = problems.get("p4_three")
    p = default_gcrifba_params(prob.beta)
    with pytest.raises(ValueError, match=r"^weights must be in \(0,1\) and sum to 1$"):
        run_gcrifba(prob.A_list[:len(weights)], prob.B, p, prob.start, weights=weights)


def test_default_params_and_validation():
    # the parameters carry L = (1/beta) I_1, so crifba.validate reads the
    # step bound lam < 4w(1-w)beta as its condition 1
    p = default_gcrifba_params(2.0)
    assert p.lam == pytest.approx(0.9 * 4 * 0.25 * 2.0)
    assert p.L.matrix.tolist() == [[0.5]] and p.M is None
    assert validate(p).selector == 1
    with pytest.raises(ValueError, match="step/metric conditions failed"):
        validate(default_gcrifba_params(1.0, lam=1.1, w=0.5))
    with pytest.raises(ValueError, match=r"w in \(0,1\) violated"):
        validate(default_gcrifba_params(1.0, lam=0.5, w=1.5))


def test_run_refuses_a_metric():
    # the product-space loop iterates in the identity metric, so it takes
    # no M to validate in
    prob = problems.get("p4_three")
    p = default_gcrifba_params(prob.beta, M=SpdMap(np.eye(1)))
    with pytest.raises(ValueError, match="takes no metric M"):
        run_gcrifba(prob.A_list, prob.B, p, prob.start)


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
    res = run_gcrifba(prob.A_list, prob.B, p, prob.start, max_iter=30, tol=0.0)
    assert res.stopped == "max_iter" and res.n_iters == 30
    assert res.X.shape == (31, prob.d) and res.blocks.shape == (2, prob.d)
    assert len(res.vel2) == len(res.vn2) == len(res.res2) == 31
    assert np.array_equal(res.ns, np.arange(30))
    assert res.vn2[0] == 0.0                       # cold start
    assert np.isnan(res.vel2[30]) and np.isnan(res.res2[30])
    assert np.all(res.vel2[:30] >= 0.0) and np.all(res.res2[:30] >= 0.0)
