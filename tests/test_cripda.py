import numpy as np
import pytest

from monosplit import problems
from monosplit.crifba import KMState, crifba_step, residual_G
from monosplit.cripda import (CripdaParams, build_metric, run_cripda,
                              stacked_operators, stacked_problem, validate_cripda)
from monosplit.metriclin import operator_norm
from monosplit.operators import SaddleFunctionPair, prox_l1


def plain_pair(K, lip_Q=0.0, lip_Pstar=0.0, grad_Q=None, grad_Pstar=None):
    zero = lambda u: np.zeros_like(np.asarray(u, dtype=float))
    return SaddleFunctionPair(
        prox_G=lambda tau, u: np.asarray(u, dtype=float),
        prox_Fstar=lambda sigma, u: np.asarray(u, dtype=float),
        grad_Q=grad_Q or zero, lip_Q=lip_Q,
        grad_Pstar=grad_Pstar or zero, lip_Pstar=lip_Pstar,
        K=K, label="plain")


def test_build_metric_example():
    m = build_metric(plain_pair(np.array([[1.0]])), 0.5, 0.5)
    assert np.allclose(m.matrix, [[2.0, -1.0], [-1.0, 2.0]])
    assert m.min_eigenvalue() == pytest.approx(1.0)


def test_validate_condition1_example():
    # delta = 0.3, w = 1/2: both step sizes below 0.25/0.3 and the product
    # bound (1/0.1 - 1.2)^2 = 77.44 leaves plenty of room for ||K|| = 1
    pair = plain_pair(np.array([[1.0]]), lip_Q=1.0)
    params = CripdaParams(tau=0.1, sigma=0.1, w=0.5, delta=0.3)
    selector, margins = validate_cripda(params, pair)
    assert selector == 1
    assert margins["cond1"]["K_slack"] == pytest.approx(77.44 - 1.0)


def test_validate_condition2_example():
    # a too-small delta disables condition 1; condition 2 needs
    # tau < w(1-w)/lip_Q = 0.125
    pair = plain_pair(np.array([[0.5]]), lip_Q=2.0)
    params = CripdaParams(tau=0.1, sigma=0.1, w=0.5, delta=0.1)
    selector, margins = validate_cripda(params, pair)
    assert selector == 2
    assert margins["cond1"]["delta_slack"] < 0
    assert margins["cond2"]["tau_slack"] == pytest.approx(0.025)


def test_validate_rejects_oversized_steps():
    pair = plain_pair(np.array([[0.5]]), lip_Q=2.0)
    with pytest.raises(ValueError):
        validate_cripda(CripdaParams(tau=0.2, sigma=0.1, w=0.5, delta=0.1), pair)


def test_validate_vacuous_bounds_for_smooth_free_problem():
    # zero Lipschitz constants leave only the K product bound
    pair = plain_pair(np.array([[1.0]]))
    selector, _ = validate_cripda(CripdaParams(tau=0.5, sigma=0.5, w=0.5), pair)
    assert selector in (1, 2)


def precond_resolvent(pair, tau, sigma, xi_p, chi_p):
    """The stacked operator's generalized resolvent in the block metric of
    tau and sigma, on the argument (xi', chi'), split into (x, y)."""
    A, _ = stacked_operators(pair)
    u = A.gen_resolvent(build_metric(pair, tau, sigma), 1.0,
                        np.concatenate([xi_p, chi_p]))
    return u[:pair.d_primal], u[pair.d_primal:]


def test_precond_resolvent_decouples_when_K_zero():
    pair = plain_pair(np.zeros((1, 1)))
    x, y = precond_resolvent(pair, 0.25, 0.5, [2.0], [-3.0])
    assert x[0] == pytest.approx(0.5)      # tau * xi'
    assert y[0] == pytest.approx(-1.5)     # sigma * chi'


def test_precond_resolvent_plugback_certificate():
    # the outputs must satisfy the two block inclusions
    # xi' - x/tau in dG(x) and chi' + 2Kx - y/sigma in dF*(y)
    prob = problems.get("p5_lasso_pd")
    pair = prob.saddle
    mu = prob.extras["mu"]
    b = prob.extras["b"]
    rng = np.random.default_rng(8)
    for _ in range(50):
        # tau sigma ||K||^2 < 1 keeps the block metric positive definite
        tau, sigma = rng.uniform(0.05, 1.0, 2) / operator_norm(pair.K)
        xi_p = rng.standard_normal(5)
        chi_p = rng.standard_normal(5)
        x, y = precond_resolvent(pair, tau, sigma, xi_p, chi_p)
        gx = xi_p - x / tau
        on = np.abs(x) > 1e-12
        assert np.all(np.abs(gx[on] - mu * np.sign(x[on])) <= 1e-10)
        assert np.all(np.abs(gx[~on]) <= mu + 1e-10)
        # F*(y) = 0.5|y|^2 + <b, y>, so dF* is y + b
        fy = chi_p + 2.0 * (pair.K @ x) - y / sigma
        assert np.abs(fy - (y + b)).max() <= 1e-10


def test_step_hand_computation():
    # s0 = e and s1 = 0 kill inertia and correction; with identity proxes,
    # K = 1, tau = sigma = 0.2, w = 1/2, from (x, y) = (1, 1):
    # x_hat = 1 - 0.2 * 1 = 0.8, x+ = 0.9, reflected point 2*0.8 - 1 = 0.6,
    # y_hat = 1 + 0.2 * 0.6 = 1.12, y+ = 1.06. The step is the core step on
    # the stack: M u = (4, 4), x_hat = 0.2 * 4, y_hat = 0.2 * 4 + 0.4 x_hat
    pair = plain_pair(np.array([[1.0]]))
    params = CripdaParams(tau=0.2, sigma=0.2, w=0.5, e=3.0, s0=3.0, s1=0.0)
    A, B, core = stacked_problem(pair, params)
    u = np.array([1.0, 1.0])       # the stacked (x, y)
    out = crifba_step(KMState(0, u, u, u), core, A, B)
    assert out.n == 1
    assert out.x[0] == pytest.approx(0.9)
    assert out.x[1] == pytest.approx(1.06)


def test_fixed_point_residual_at_solution():
    # the residual of the run, crifba's on the stack, vanishes at the
    # saddle point and not away from it
    prob = problems.get("p5_saddle")
    A, B, core = stacked_problem(prob.saddle, CripdaParams(tau=0.2, sigma=0.2))
    q = np.concatenate(prob.certified_solution)
    assert core.M.norm_of(residual_G(A, B, core.M, core.lam, q)) <= 1e-10
    assert core.M.norm_of(residual_G(A, B, core.M, core.lam, q + 0.1)) > 1e-3


def test_run_quadratic_saddle():
    prob = problems.get("p5_saddle")
    res = run_cripda(prob.saddle, CripdaParams(tau=0.2, sigma=0.2),
                     prob.start, np.zeros(2), tol=1e-9)
    assert res.stopped == "tol"
    assert res.selector == 1
    ok, r = problems.certify(prob, (res.x, res.y))
    assert ok, r


def test_run_lasso_saddle():
    prob = problems.get("p5_lasso_pd")
    step = 0.7 / operator_norm(prob.saddle.K)
    res = run_cripda(prob.saddle, CripdaParams(tau=step, sigma=step),
                     prob.start, np.zeros(5), tol=1e-10)
    ok, r = problems.certify(prob, (res.x, res.y))
    assert ok, r


def test_stacked_operators_resolvent_matches_closed_form():
    prob = problems.get("p5_lasso_pd")
    A, B = stacked_operators(prob.saddle)
    M = build_metric(prob.saddle, 0.2, 0.2)
    rng = np.random.default_rng(9)
    u = rng.standard_normal(10)
    from monosplit.operators import generalized_resolvent
    out = generalized_resolvent(A, M, 1.0, u)
    r = M.apply(u)
    # the primal prox first, feeding the dual prox
    mu, b, K = prob.extras["mu"], prob.extras["b"], prob.extras["K"]
    x = prox_l1(0.2 * mu, 0.2 * r[:5])
    y = (0.2 * r[5:] + 0.4 * (K @ x) - 0.2 * b) / 1.2
    assert np.allclose(out, np.concatenate([x, y]))
    # gen_resolvent takes its argument with M applied
    assert np.array_equal(A.gen_resolvent(M, 1.0, r), out)
    # the smooth part stacks the two gradients
    v = rng.standard_normal(10)
    assert np.allclose(B(v), np.zeros(10))
