"""End-to-end guarantees: long-run identity replay, bounded partial sums,
rate separation against the plain method, oracle inequalities on random
configurations, certified solutions across every solver, exact reductions,
the feasibility predicate, and graph-element convergence."""

import time

import numpy as np
import pytest

from monosplit import problems
from monosplit.baselines import run_baseline
from monosplit.checks import (check_energy_decrease, check_g_cocoercivity,
                              check_gfru0_identity, check_graph_inclusion,
                              check_rilo, check_step_identities,
                              check_ystar_bound)
from monosplit.cripda import (CripdaParams, build_metric, run_cripda,
                              stacked_operators)
from monosplit.crifba import (CrifbaParams, decade_trend, default_params,
                              graph_sequence, run, summability_monitors,
                              validate_metric)
from monosplit.gcrifba import default_gcrifba_params, run_gcrifba
from monosplit.harness import fit_slope
from monosplit.metriclin import SpdMap, operator_norm
from monosplit.operators import CocoerciveMap, affine_op, cocoercivity_check


def crifba_run(name, max_iter, tol=0.0):
    prob = problems.get(name)
    res = run(prob.A, prob.B, default_params(prob.L_map()), prob.start,
              max_iter=max_iter, tol=tol)
    return prob, res


@pytest.fixture(scope="module")
def p1_short():
    return crifba_run("p1_clamp", 10**4)


@pytest.fixture(scope="module")
def p2_short():
    return crifba_run("p2_lasso", 10**4)


@pytest.fixture(scope="module")
def p3_short():
    return crifba_run("p3_spectrum", 10**4)


@pytest.fixture(scope="module")
def p1_long():
    return crifba_run("p1_clamp", 10**5)


@pytest.fixture(scope="module")
def p2_long():
    return crifba_run("p2_lasso", 10**5)


@pytest.fixture(scope="module")
def p3_long():
    return crifba_run("p3_spectrum", 10**5)


# --- per-step identities replayed over long recorded runs ---------------

@pytest.mark.parametrize("fix", ["p1_short", "p2_short", "p3_short"])
def test_step_identities_hold_over_long_runs(fix, request):
    prob, res = request.getfixturevalue(fix)
    assert res.n_iters >= 10**4
    t0 = time.perf_counter()
    rep = check_step_identities(res, prob.A, prob.B)
    elapsed = time.perf_counter() - t0
    assert rep.passed, rep.worst_violation
    assert rep.worst_violation <= 1e-10
    assert elapsed <= 30.0


# --- energy decrease and bounded partial sums ---------------------------

@pytest.mark.parametrize("fix", ["p1_long", "p2_long"])
def test_energy_nonincreasing(fix, request):
    prob, res = request.getfixturevalue(fix)
    rep = check_energy_decrease(res, prob.certified_solution)
    assert rep.passed, rep.worst_violation


@pytest.mark.parametrize("fix", ["p1_long", "p2_long"])
def test_partial_sums_saturate(fix, request):
    prob, res = request.getfixturevalue(fix)
    mon = summability_monitors(res, q=prob.certified_solution)
    assert set(mon) == {"vdot_weighted", "xdot_weighted", "anchor_products",
                        "acceleration", "drift"}
    for key, rep in mon.items():
        assert rep["ratio"] < 0.01, (key, rep)


# --- rate separation on the degenerate-spectrum quadratic ---------------

def test_fast_rates_on_spectrum_problem(p3_long):
    prob, res = p3_long
    N = res.n_iters
    res_fit = fit_slope(np.arange(N + 1), res.res2)
    M = res.params.metric(prob.d)
    vel2 = np.einsum("ij,jk,ik->i", res.X[1:] - res.X[:-1], M.matrix,
                     res.X[1:] - res.X[:-1])
    vel_fit = fit_slope(np.arange(N), vel2)
    assert res_fit["status"] == "ok" and vel_fit["status"] == "ok"
    assert res_fit["slope"] <= -1.85, res_fit
    assert vel_fit["slope"] <= -1.85, vel_fit


def test_plain_method_stays_slow_on_spectrum_problem():
    prob = problems.get("p3_spectrum")
    base = run_baseline("fba", prob, prob.start, max_iter=10**6, tol=0.0,
                        stride=100)
    res_fit = fit_slope(base.ns, base.res2)
    vel_fit = fit_slope(base.ns, base.vel2)
    assert res_fit["status"] == "ok" and vel_fit["status"] == "ok"
    assert res_fit["slope"] >= -1.5, res_fit
    assert vel_fit["slope"] >= -1.5, vel_fit
    # it does decay, just on the slow branch
    assert res_fit["slope"] <= -0.3


# --- residual co-coercivity and the energy identity on random data ------

def test_energy_identity_on_synthetic_sequences():
    rep = check_gfru0_identity(n_instances=100, d=5)
    assert rep.passed
    assert rep.n_checked == 100
    assert rep.worst_violation <= 1e-10


def _random_psd_affine(rng, d):
    raw = rng.standard_normal((d, d))
    return affine_op(raw @ raw.T, rng.standard_normal(d))


def _bounded_symmetric_map(rng, d):
    # eigenvalues in (0, 1] so the identity certifies co-coercivity
    U = np.linalg.qr(rng.standard_normal((d, d)))[0]
    S = U @ np.diag(rng.uniform(0.05, 1.0, d)) @ U.T
    return CocoerciveMap(lambda x: S @ x, SpdMap(np.eye(d)))


def test_residual_cocoercivity_first_condition():
    rng = np.random.default_rng(0x5EED)
    d = 3
    A = _random_psd_affine(rng, d)
    B = _bounded_symmetric_map(rng, d)
    M = SpdMap(np.diag([1.0, 1.5, 2.0]))
    params = CrifbaParams(lam=0.2, w=0.5, delta=0.1, M=M, L=B.certificate_L)
    assert validate_metric(params).selector == 1
    pairs = [(rng.standard_normal(d) * 2, rng.standard_normal(d) * 2)
             for _ in range(1000)]
    assert cocoercivity_check(B, pairs)["passed"]
    rep = check_g_cocoercivity(A, B, M, params.lam, pairs)
    assert rep.passed, rep.details
    assert rep.worst_violation <= 1e-10


def test_residual_cocoercivity_second_condition():
    rng = np.random.default_rng(0x5EED + 1)
    d = 3
    A = _random_psd_affine(rng, d)
    B = _bounded_symmetric_map(rng, d)
    M = SpdMap(np.diag([2.0, 2.5, 3.0]))
    # a too-small delta rules out the first condition; the second holds
    params = CrifbaParams(lam=0.3, w=0.5, delta=0.05, M=M, L=B.certificate_L)
    assert validate_metric(params).selector == 2
    pairs = [(rng.standard_normal(d) * 2, rng.standard_normal(d) * 2)
             for _ in range(1000)]
    rep = check_g_cocoercivity(A, B, M, params.lam, pairs)
    assert rep.passed, rep.details
    assert rep.worst_violation <= 1e-10


# --- certified solutions across every solver ----------------------------

def test_core_solver_certifies():
    for name in ("p1_clamp", "p2_lasso"):
        prob, res = crifba_run(name, 10**5, tol=1e-9)
        assert res.stopped == "tol", name
        ok, r = problems.certify(prob, res.x, tol=1e-6)
        assert ok, (name, r)


def test_every_baseline_certifies_on_clamp():
    from monosplit.baselines import _KINDS, dr_shadow
    prob = problems.get("p1_clamp")
    for kind in _KINDS:
        res = run_baseline(kind, prob, prob.start, max_iter=10**5, tol=1e-9)
        x = dr_shadow(prob, 1.0, res.x) if kind == "dr" else res.x
        ok, r = problems.certify(prob, x, tol=1e-6)
        assert ok, (kind, r)


def test_baselines_certify_on_lasso():
    prob = problems.get("p2_lasso")
    for kind in ("fba", "chambolle_dossal"):
        res = run_baseline(kind, prob, prob.start, max_iter=10**5, tol=1e-9)
        ok, r = problems.certify(prob, res.x, tol=1e-6)
        assert ok, (kind, r)


def test_product_space_solver_certifies():
    for name in ("p4_three", "p6_res_sum"):
        prob = problems.get(name)
        p = default_gcrifba_params(prob.beta)
        res = run_gcrifba(prob.A_list, prob.B, p, prob.start, tol=1e-10)
        ok, r = problems.certify(prob, res.x, tol=1e-6)
        assert ok, (name, r)


def test_saddle_solver_certifies():
    prob = problems.get("p5_saddle")
    res = run_cripda(prob.saddle, CripdaParams(tau=0.2, sigma=0.2),
                     prob.start, np.zeros(2), tol=1e-9)
    ok, r = problems.certify(prob, (res.x, res.y), tol=1e-6)
    assert ok, r

    prob = problems.get("p5_lasso_pd")
    step = 0.7 / operator_norm(prob.saddle.K)
    res = run_cripda(prob.saddle, CripdaParams(tau=step, sigma=step),
                     prob.start, np.zeros(5), tol=1e-9)
    ok, r = problems.certify(prob, (res.x, res.y), tol=1e-6)
    assert ok, r


def _count_calls(monkeypatch, module, name):
    calls = []
    step = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return step(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_n_iters_counts_steps_on_tolerance_stop(monkeypatch):
    # every solver reports the steps it performed, counted here by wrapping
    # its step function, also when the run ends on the tolerance test
    from monosplit import crifba, cripda, gcrifba
    steps = {mod: _count_calls(monkeypatch, mod, name) for mod, name in
             ((crifba, "crifba_step"), (gcrifba, "gcrifba_step"),
              (cripda, "cripda_step"))}
    prob = problems.get("p1_clamp")
    core = run(prob.A, prob.B, default_params(prob.L_map()), prob.start,
               tol=1e-9)
    prob = problems.get("p4_three")
    lifted = run_gcrifba(prob.A_list, prob.B, default_gcrifba_params(prob.beta),
                         prob.start, tol=1e-6)
    prob = problems.get("p5_saddle")
    saddle = run_cripda(prob.saddle, CripdaParams(tau=0.2, sigma=0.2),
                        prob.start, np.zeros(2), tol=1e-9)
    for mod, res in ((crifba, core), (gcrifba, lifted), (cripda, saddle)):
        assert res.stopped == "tol", mod.__name__
        assert res.n_iters == len(steps[mod]) > 0, mod.__name__


# --- exact reductions ---------------------------------------------------

def test_product_space_with_one_block_matches_core():
    prob = problems.get("p1_clamp")
    lam = 0.9
    core = run(prob.A, prob.B, default_params(prob.L_map(), lam=lam),
               prob.start, max_iter=300, tol=0.0)
    p = default_gcrifba_params(prob.beta, lam=lam)
    lifted = run_gcrifba([prob.A], prob.B, p, prob.start, max_iter=300,
                         tol=0.0, keep_x_hist=True)
    n = min(core.X.shape[0], lifted.x_hist.shape[0])
    assert np.abs(core.X[:n] - lifted.x_hist[:n]).max() <= 1e-12


def test_saddle_solver_matches_stacked_core():
    prob = problems.get("p5_saddle")
    pair = prob.saddle
    tau = sigma = 0.2
    A, B = stacked_operators(pair)
    M = build_metric(pair, tau, sigma)
    params = CrifbaParams(lam=1.0, w=0.5, M=M, L=B.certificate_L)
    x0 = np.zeros(pair.d_primal + pair.d_dual)
    stacked = run(A, B, params, x0, max_iter=200, tol=0.0)
    direct = run_cripda(pair, CripdaParams(tau=tau, sigma=sigma),
                        np.zeros(pair.d_primal), np.zeros(pair.d_dual),
                        max_iter=200, tol=0.0)
    n = min(stacked.X.shape[0], direct.hist.shape[0])
    assert np.abs(stacked.X[:n] - direct.hist[:n]).max() <= 1e-10


# --- feasibility predicate sweep ----------------------------------------

def test_metric_validation_matches_closed_form_region():
    # with M = I and L = I/beta the validator must agree with the predicate
    # lam < 4 w (1-w) beta on every sampled point
    rng = np.random.default_rng(0x5EED)
    disagreements = 0
    for _ in range(100):
        lam = rng.uniform(0.01, 3.0)
        w = rng.uniform(0.05, 0.95)
        beta = rng.uniform(0.2, 2.0)
        d = int(rng.integers(1, 4))
        params = CrifbaParams(lam=lam, w=w, L=SpdMap(np.eye(d) / beta))
        predicted = lam < 4.0 * w * (1.0 - w) * beta
        if validate_metric(params).ok != predicted:
            disagreements += 1
    assert disagreements == 0


# --- graph elements: inclusion, norm bound, decay -----------------------

def test_graph_elements_stay_in_graph(p1_long):
    prob, res = p1_long
    rep = check_graph_inclusion(res, prob.A, prob.B)
    assert rep.passed
    assert rep.n_checked == res.n_iters


def test_graph_element_norm_bound(p1_long):
    prob, res = p1_long
    rep = check_ystar_bound(res, prob.B)
    assert rep.passed, rep.worst_violation


def test_graph_elements_decay_fast(p1_long):
    prob, res = p1_long
    N = res.n_iters
    p = res.params
    norms2 = np.empty(N)
    for n in range(1, N + 1):
        _, ystar = graph_sequence(res.X[n], res.V[n], res.Z[n - 1], p, prob.B)
        norms2[n - 1] = float(ystar @ ystar)
    ns = np.arange(1, N + 1)
    trend = decade_trend(ns, ns.astype(float) ** 2 * norms2)
    assert trend["ratio"] <= 0.1, trend


def test_anchored_correction_bound(p2_long):
    prob, res = p2_long
    rep = check_rilo(res, prob.B, prob.certified_solution)
    assert rep.passed, rep.worst_violation
