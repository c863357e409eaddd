import numpy as np
import pytest

from monosplit import problems
from monosplit.crifba import (CrifbaParams, KMState, crifba_step,
                              decade_trend, default_params, diagnostics,
                              energy, feasible_step_bound, graph_sequence,
                              partial_sum_report, residual_G, run, schedule,
                              summability_monitors, validate, validate_core,
                              validate_metric)
from monosplit.metriclin import SpdMap
from monosplit.operators import CocoerciveMap, zero_op


def ident_L(d=1, beta=1.0):
    return SpdMap(np.eye(d) / beta)


def test_schedule_examples_defaults():
    p = CrifbaParams()
    nu, theta, gamma, tau = schedule(p, 0)
    assert (nu, theta, gamma, tau) == (0.0, 0.0, 0.375, 4.0)
    nu, theta, gamma, tau = schedule(p, 6)
    assert nu == 6.0 and tau == 10.0
    assert theta == pytest.approx(0.6)
    assert gamma == pytest.approx(0.75)


def test_schedule_identity_tau_theta():
    p = CrifbaParams(e=4.0, s1=0.7, nu0=1.3, s0=2.0)
    for n in range(0, 40):
        nu, theta, _, tau = schedule(p, n)
        assert tau * theta == pytest.approx(nu, abs=1e-12)


def test_schedule_constant_when_s1_zero():
    p = CrifbaParams(s1=0.0, nu0=0.0, s0=1.0)
    vals = {schedule(p, n) for n in range(10)}
    assert len(vals) == 1
    nu, theta, gamma, tau = vals.pop()
    assert nu == 0.0 and theta == 0.0 and tau == p.e
    assert gamma == pytest.approx(1.0 - p.s0 / p.e)


def test_validate_core_defaults_pass():
    ok, reasons = validate_core(CrifbaParams())
    assert ok and reasons == []


@pytest.mark.parametrize("bad", [
    dict(s1=2.0),            # 2*s1 >= s0
    dict(s0=3.5),            # s0 >= e
    dict(w=0.0),
    dict(w=1.0),
    dict(lam=0.0),
    dict(nu0=-1.0),
])
def test_validate_core_rejects(bad):
    ok, reasons = validate_core(CrifbaParams(**bad))
    assert not ok and reasons


def test_validate_metric_example_selector1():
    p = CrifbaParams(lam=0.1, delta=0.1, L=ident_L())
    report = validate_metric(p)
    assert report.selector == 1
    assert report.delta_used == 0.1
    assert report.margins["cond1_step_slack"] == pytest.approx(0.3)


def test_validate_metric_auto_delta_matches_closed_form():
    # with M = I, L = I/beta the feasible set is exactly 0 < lam < 4 w (1-w) beta
    for lam, feasible in [(0.9, True), (0.999, True), (1.0, False), (1.3, False)]:
        p = CrifbaParams(lam=lam, w=0.5, L=ident_L())
        assert validate_metric(p).ok == feasible


def test_validate_metric_condition2_route():
    # supplied delta kills condition 1; condition 2 still holds for M = 2I
    p = CrifbaParams(lam=0.3, w=0.5, delta=0.05, L=ident_L(2),
                     M=SpdMap(2.0 * np.eye(2)))
    report = validate_metric(p)
    assert report.selector == 2
    assert report.margins["cond1_step_slack"] < 0
    assert report.margins["cond2_min_eig"] == pytest.approx(0.8)


def test_validate_raises_with_all_reasons():
    p = CrifbaParams(w=2.0, lam=-1.0, L=ident_L())
    with pytest.raises(ValueError) as err:
        validate(p)
    assert "w in (0,1)" in str(err.value)
    assert "lam must be positive" in str(err.value)


def test_feasible_step_bound_and_defaults():
    bound = feasible_step_bound(SpdMap.identity(1), ident_L(), 0.5)
    assert bound == pytest.approx(1.0)
    p = default_params(ident_L())
    assert p.lam == pytest.approx(0.9)
    assert validate_metric(p).ok
    p2 = default_params(ident_L(), w=0.25)
    assert p2.lam == pytest.approx(0.9 * 4 * 0.25 * 0.75)


def test_residual_vanishes_at_solution():
    prob = problems.get("p1_clamp")
    g = residual_G(prob.A, prob.B, SpdMap.identity(1), 0.5, [1.0])
    assert np.allclose(g, [0.0])


def test_residual_plain_gradient_case():
    # A = 0, B = identity, lam = 1: G(x) = x
    B = CocoerciveMap(lambda x: x, SpdMap(np.eye(1)))
    g = residual_G(zero_op(), B, SpdMap.identity(1), 1.0, [2.0])
    assert np.allclose(g, [2.0])


def test_step_hand_computation():
    # one step on the clamp problem with default coefficients and lam = 1/2,
    # started from x = 1.5 with memory z_prev = 2:
    # v0 = 0.5, z0 = 1.5 + 0.375 * 0.5 = 1.6875,
    # x1 = (z0 + clip(z0 - 0.5 (z0 - 1))) / 2 = 1.515625
    prob = problems.get("p1_clamp")
    p = CrifbaParams(lam=0.5, L=ident_L())
    state = KMState(0, np.array([1.5]), np.array([1.5]), np.array([2.0]))
    new = crifba_step(state, p, prob.A, prob.B)
    assert new.n == 1
    assert (state.z_prev - state.x)[0] == pytest.approx(0.5)
    assert new.z_prev[0] == pytest.approx(1.6875)
    assert new.x[0] == pytest.approx(1.515625)
    assert new.x_prev is state.x


def test_step_fixed_point_is_stationary():
    prob = problems.get("p1_clamp")
    p = CrifbaParams(lam=0.5, L=ident_L())
    q = np.array([1.0])
    state = crifba_step(KMState(3, q, q, q), p, prob.A, prob.B)
    assert np.allclose(state.x, q)
    g = residual_G(prob.A, prob.B, SpdMap.identity(1), p.lam, state.z_prev)
    assert np.allclose(g, [0.0])


def test_run_clamp_converges_to_certificate():
    prob = problems.get("p1_clamp")
    res = run(prob.A, prob.B, default_params(prob.L_map()), prob.start,
              max_iter=10**5, tol=1e-9)
    assert res.stopped == "tol"
    ok, r = problems.certify(prob, res.x)
    assert ok, r


def test_run_cold_start_and_shapes():
    prob = problems.get("p1_clamp")
    res = run(prob.A, prob.B, default_params(prob.L_map()), prob.start,
              max_iter=50, tol=0.0)
    N = res.n_iters
    assert N == 50 and res.stopped == "max_iter"
    assert res.X.shape == (N + 1, 1)
    assert res.Z.shape == (N, 1)
    assert res.V.shape == (N + 1, 1)
    assert res.res2.shape == (N + 1,)
    assert np.allclose(res.V[0], 0.0)              # z_{-1} = x_0
    assert np.allclose(res.x_prev_init, res.X[0])
    # v_{n+1} = z_n - x_{n+1} by construction
    assert np.allclose(res.V[1:], res.Z - res.X[1:])


def test_run_rejects_infeasible_params():
    prob = problems.get("p1_clamp")
    with pytest.raises(ValueError):
        run(prob.A, prob.B, CrifbaParams(lam=2.0, L=prob.L_map()),
            prob.start, max_iter=10)


def test_energy_domain_and_value():
    p = CrifbaParams(L=ident_L())
    # at n with x = q and zero velocity and correction, the energy is zero
    q = np.array([1.0])
    assert energy(p, q, q, np.zeros(1), 5, p.s0, q) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        energy(p, q, q, np.zeros(1), 5, 0.0, q)
    with pytest.raises(ValueError):
        energy(p, q, q, np.zeros(1), 5, p.e + 0.1, q)


def test_energy_quadratic_hand_value():
    # d = 1, M = I, s = 2, e = 3, nu_n = n at n = 1, x = 2, x_prev = 1.5,
    # v = 0.25, q = 0:
    # 0.5*(2*(0-2) - 1*0.5)^2 + 0.5*2*1*4 + 2*4*0.25*2 = 10.125 + 4 + 4
    p = CrifbaParams(L=ident_L())
    val = energy(p, [2.0], [1.5], [0.25], 1, 2.0, [0.0])
    assert val == pytest.approx(0.5 * 4.5 ** 2 + 4.0 + 4.0)


def test_graph_sequence_vanishes_at_solution():
    prob = problems.get("p1_clamp")
    p = CrifbaParams(lam=0.5, L=ident_L())
    y, ystar = graph_sequence([1.0], [0.0], [1.0], p, prob.B)
    assert np.allclose(y, [1.0])
    assert np.allclose(ystar, [0.0])


def test_diagnostics_rows_and_stride():
    prob = problems.get("p1_clamp")
    res = run(prob.A, prob.B, default_params(prob.L_map()), prob.start,
              max_iter=40, tol=0.0)
    recs = diagnostics(res, prob.A, prob.B, q=prob.certified_solution)
    assert len(recs) == 41
    # NaN marks an undefined cell
    assert not np.isnan(recs["vel2"][0]) and np.isnan(recs["vel2"][-1])
    assert np.isnan(recs["ystar_norm"][0]) and not np.isnan(recs["ystar_norm"][1])
    assert not np.isnan(recs["energy"]).any()
    strided = diagnostics(res, prob.A, prob.B, stride=10)
    assert strided["n"].tolist() == [0, 10, 20, 30, 40]
    assert np.isnan(strided["energy"]).all()


def test_partial_sum_report():
    ns = np.arange(1, 101)
    out = partial_sum_report(ns, np.ones(100))
    assert out["total"] == 100.0
    assert out["final_decade_increment"] == 91.0     # n >= 10
    assert out["ratio"] == pytest.approx(0.91)
    empty = partial_sum_report([], [])
    assert empty["total"] == 0.0 and empty["ratio"] == 0.0


def test_decade_trend():
    ns = np.arange(1, 101)
    vals = 1.0 / ns
    out = decade_trend(ns, vals)
    assert out["first_decade_max"] == 1.0
    assert out["final_decade_max"] == pytest.approx(0.1)
    assert out["ratio"] == pytest.approx(0.1)


def test_summability_monitor_keys():
    prob = problems.get("p1_clamp")
    res = run(prob.A, prob.B, default_params(prob.L_map()), prob.start,
              max_iter=100, tol=0.0)
    mon = summability_monitors(res, q=prob.certified_solution)
    assert set(mon) == {"vdot_weighted", "xdot_weighted", "anchor_products",
                        "acceleration", "drift"}
    for rep in mon.values():
        assert np.isfinite(rep["total"])
