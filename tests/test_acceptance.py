"""End-to-end guarantees: long-run identity replay, bounded partial sums,
rate separation against the plain method, oracle inequalities on random
configurations, certified solutions across every solver, the stops and the
schedule checks the three solvers share, exact reductions, the feasibility
predicate, and graph-element convergence."""

import json
import re
import time

import numpy as np
import pytest

from monosplit import problems
from monosplit.baselines import run_baseline
from monosplit.cli import main
from monosplit.checks import check_g_cocoercivity, standard_suite
from monosplit.cripda import (CripdaParams, build_metric, run_cripda,
                              stacked_operators)
from monosplit.crifba import (CrifbaParams, decade_trend, default_params,
                              diagnostics, graph_sequence, run,
                              summability_monitors, validate_metric)
from monosplit.gcrifba import default_gcrifba_params, run_gcrifba
from monosplit.harness import fit_slope
from monosplit.metriclin import SpdMap, operator_norm
from monosplit.operators import (CocoerciveMap, SaddleFunctionPair, affine_op,
                                 cocoercivity_check, zero_op)


def crifba_run(name, max_iter, tol=0.0):
    prob = problems.get(name)
    res = run(prob.A, prob.B, default_params(prob.L_map()), prob.start,
              max_iter=max_iter, tol=tol)
    return prob, res


def suite_report(prob, res, name):
    """The named standard_suite report of a run, q the certified solution."""
    reports = standard_suite(res, prob.A, prob.B, q=prob.certified_solution)
    return {r.name: r for r in reports}[name]


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
    rep = suite_report(prob, res, "step_identities")
    elapsed = time.perf_counter() - t0
    assert rep.passed, rep.worst_violation
    assert rep.worst_violation <= 1e-10
    assert elapsed <= 30.0


# --- energy decrease and bounded partial sums ---------------------------

@pytest.mark.parametrize("fix", ["p1_long", "p2_long"])
def test_energy_nonincreasing(fix, request):
    prob, res = request.getfixturevalue(fix)
    rep = suite_report(prob, res, "energy_decrease")
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


# --- residual co-coercivity on random data --------------------------------

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


def expansive_B():
    """B(x) = -x on the line, with certificate I: not co-coercive, so the
    iterates grow geometrically past the divergence bound."""
    return CocoerciveMap(lambda x: -x, SpdMap(np.eye(1)), label="expansive")


def pushing_pair():
    """A saddle pair whose primal prox multiplies by 10."""
    return SaddleFunctionPair(
        prox_G=lambda tau, u: 10.0 * np.asarray(u, dtype=float),
        prox_Fstar=lambda sigma, u: np.asarray(u, dtype=float),
        grad_Q=lambda x: 0.0 * x, lip_Q=1.0,
        grad_Pstar=lambda y: 0.0 * y, lip_Pstar=1.0,
        K=np.array([[0.1]]), label="push")


def stop_cases():
    """(solver, stop, solve) for each solver and each of its three stops."""
    p1, p4, p5 = (problems.get(n) for n in ("p1_clamp", "p4_three", "p5_saddle"))

    def core(**kw):
        return run(p1.A, p1.B, default_params(p1.L_map()), p1.start, **kw)

    def lifted(**kw):
        return run_gcrifba(p4.A_list, p4.B, default_gcrifba_params(p4.beta),
                           p4.start, **kw)

    def saddle(**kw):
        return run_cripda(p5.saddle, CripdaParams(tau=0.2, sigma=0.2),
                          p5.start, np.zeros(2), **kw)

    unit = SpdMap(np.eye(1))
    return [
        ("crifba", "tol", lambda: core(tol=1e-9)),
        ("crifba", "max_iter", lambda: core(max_iter=7, tol=0.0)),
        ("crifba", "diverged", lambda: run(
            zero_op(), expansive_B(), CrifbaParams(lam=0.5, L=unit), [1.0],
            max_iter=3000)),
        ("gcrifba", "tol", lambda: lifted(tol=1e-6)),
        ("gcrifba", "max_iter", lambda: lifted(max_iter=7, tol=0.0)),
        ("gcrifba", "diverged", lambda: run_gcrifba(
            [zero_op(), zero_op()], expansive_B(), default_gcrifba_params(1.0),
            [1.0], max_iter=3000)),
        ("cripda", "tol", lambda: saddle(tol=1e-9)),
        ("cripda", "max_iter", lambda: saddle(max_iter=7, tol=0.0)),
        ("cripda", "diverged", lambda: run_cripda(
            pushing_pair(), CripdaParams(tau=0.2, sigma=0.2, delta=0.3),
            [1.0], [1.0], max_iter=3000)),
    ]


def test_n_iters_counts_steps_on_tolerance_stop(monkeypatch):
    # every solver reports the steps it performed, counted here by wrapping
    # its step function, on the tolerance stop and on the other two stops;
    # cripda takes the core step on the stacked inclusion
    from monosplit import crifba, gcrifba
    steps = {kind: _count_calls(monkeypatch, mod, kind + "_step") for kind, mod in
             (("crifba", crifba), ("gcrifba", gcrifba))}
    steps["cripda"] = steps["crifba"]
    for kind, stop, solve in stop_cases():
        steps[kind].clear()
        res = solve()
        assert res.stopped == stop, (kind, stop)
        assert res.n_iters == len(steps[kind]) > 0, (kind, stop)


def test_gcrifba_stops_on_divergence():
    # with zero_op blocks and B(x) = -x the block iterate grows until its
    # norm (over the whole (p, d) block array) passes 1e12, where the run
    # stops as crifba does on the same operators
    def solve(max_iter):
        return run_gcrifba([zero_op(), zero_op()], expansive_B(),
                           default_gcrifba_params(1.0), [1.0], max_iter=max_iter)

    res = solve(3000)
    assert res.stopped == "diverged"
    assert np.linalg.norm(res.blocks) > 1e12
    # the state that diverged is never tested
    assert len(res.ns) == res.n_iters == len(res.res2) - 1
    assert np.isnan(res.res2[-1])
    before = solve(res.n_iters - 1)
    assert before.stopped == "max_iter"
    assert np.linalg.norm(before.blocks) <= 1e12
    assert np.array_equal(before.res2[:-1], res.res2[:-2])
    core = run(zero_op(), expansive_B(), CrifbaParams(lam=0.5, L=SpdMap(np.eye(1))),
               [1.0], max_iter=3000)
    assert core.stopped == "diverged"


SCHEDULE_VIOLATIONS = [
    ("s1", -1.0, "s1 must be nonnegative"),
    ("nu0", -5.0, "nu0 must be nonnegative"),
    ("s1", 2.0, "2*s1 < s0 violated (got 2*2 >= 2.5)"),
    ("s0", 5.0, "s0 < e violated (got 5 >= 3)"),
    ("w", 1.5, "w in (0,1) violated (got 1.5)"),
]
SCHEDULE_PROBLEM = {"crifba": "p1_clamp", "gcrifba": "p4_three",
                    "cripda": "p5_saddle"}


@pytest.mark.parametrize("key,value,reason", SCHEDULE_VIOLATIONS,
                         ids=["s1<0", "nu0<0", "2s1>=s0", "s0>=e", "w>=1"])
@pytest.mark.parametrize("kind", ["crifba", "gcrifba", "cripda"])
def test_infeasible_schedule_is_refused(kind, key, value, reason, tmp_path,
                                        capsys):
    # every solver checks the same schedule inequalities before its first
    # step: the library call raises ValueError naming the violated one, and
    # the CLI's validate and run exit 1 with a report that names it
    prob = problems.get(SCHEDULE_PROBLEM[kind])
    with pytest.raises(ValueError, match=re.escape(reason)):
        if kind == "crifba":
            run(prob.A, prob.B, default_params(prob.L_map(), **{key: value}),
                prob.start, max_iter=50)
        elif kind == "gcrifba":
            run_gcrifba(prob.A_list, prob.B,
                        default_gcrifba_params(prob.beta, **{key: value}),
                        prob.start, max_iter=50)
        else:
            run_cripda(prob.saddle, CripdaParams(tau=0.2, sigma=0.2, **{key: value}),
                       prob.start, np.zeros(2), max_iter=50)
    solver = {"kind": kind, key: value}
    if kind == "cripda":
        solver.update(tau=0.2, sigma=0.2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": SCHEDULE_PROBLEM[kind], "solver": solver,
                               "stop": {"max_iter": 50}, "output": "r"}))
    out = tmp_path / "out"
    for argv in (["validate", str(cfg)], ["run", str(cfg), "--outdir", str(out)]):
        assert main(argv) == 1
        assert reason in json.loads(capsys.readouterr().out)["error"]
    assert not out.exists()


# --- exact reductions ---------------------------------------------------

@pytest.mark.parametrize("w", [0.5, 0.3])
def test_product_space_with_one_block_matches_core(w):
    # one block of weight 1 is the core iteration on the same operators:
    # the iterates and the trace agree, where gcrifba's residual
    # T(zeta) - zeta is lam times the core's, and it tests no residual at
    # the last state of a capped run
    prob = problems.get("p1_clamp")
    p = default_gcrifba_params(prob.beta, w=w)
    core = run(prob.A, prob.B, default_params(prob.L_map(), lam=p.lam, w=w),
               prob.start, max_iter=300, tol=0.0)
    trace = diagnostics(core, prob.A, prob.B)
    lifted = run_gcrifba([prob.A], prob.B, p, prob.start, max_iter=300, tol=0.0)
    assert (lifted.n_iters, lifted.stopped) == (core.n_iters, core.stopped)
    N = core.n_iters
    assert np.isnan(lifted.res2[N])
    for got, want in ((lifted.X, core.X), (lifted.vel2[:N], trace["vel2"][:N]),
                      (lifted.vn2, trace["vn2"]),
                      (lifted.res2[:N] / p.lam**2, trace["res2"][:N])):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.isnan(lifted.vel2[N]) and np.isnan(trace["vel2"][N])


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
    rep = suite_report(prob, res, "graph_inclusion")
    assert rep.passed
    assert rep.n_checked == res.n_iters


def test_graph_element_norm_bound(p1_long):
    prob, res = p1_long
    rep = suite_report(prob, res, "ystar_bound")
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
    rep = suite_report(prob, res, "rilo")
    assert rep.passed, rep.worst_violation
