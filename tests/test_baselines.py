import numpy as np
import pytest

from monosplit import problems
from monosplit.baselines import (baseline_step, default_step, dr_shadow,
                                 run_baseline)
from monosplit.crifba import CrifbaParams, KMState, crifba_step
from monosplit.harness import fit_slope
from monosplit.metriclin import SpdMap

# The step examples go through baseline_step, the step a run takes after
# its checks; it takes screened 1-D float64 arrays and returns x_{n+1}
# and the residual vector at x_n.


@pytest.fixture(scope="module")
def clamp():
    return problems.get("p1_clamp")


@pytest.fixture(scope="module")
def lasso():
    return problems.get("p2_lasso")


def one_step(kind, problem, x0, lam):
    """x_1 of run_baseline from x0, which must not meet the tolerance."""
    res = run_baseline(kind, problem, x0, lam=lam, max_iter=1)
    assert res.n_iters == 1 and res.stopped == "max_iter"
    return res.x


def step_at(kind, problem, lam, n, x, x_prev=None, **kw):
    """x_{n+1} and the residual at x_n of one step of baseline_step."""
    x = np.array(x)
    x_prev = x if x_prev is None else np.array(x_prev)
    return baseline_step(kind, problem, lam, **kw)(n, x, x_prev)


def test_fba_step_example(clamp):
    # x = 2: forward point 2 - 0.5*(2-1) = 1.5, clamp leaves it
    assert one_step("fba", clamp, [2.0], 0.5)[0] == pytest.approx(1.5)
    # x = -1: forward point -1 - 0.5*(-2) = 0, already on the boundary;
    # the residual is (x - fb)/lam = -2
    x_next, r = step_at("fba", clamp, 0.5, 0, [-1.0])
    assert (x_next[0], r[0]) == pytest.approx((0.0, -2.0))


def test_ppa_step_example(clamp):
    # resolvent of the full sum: clip((u + lam)/(1 + lam), 0, inf)
    assert one_step("ppa", clamp, [3.0], 1.0)[0] == pytest.approx(2.0)
    assert step_at("ppa", clamp, 1.0, 0, [3.0])[0][0] == pytest.approx(2.0)


def test_fbf_step_example(clamp):
    # x = 2, lam = 0.5: y = 1.5, correction -0.5*(0.5 - 1.0) = +0.25; the
    # residual (x - y)/lam = 1
    assert one_step("fbf", clamp, [2.0], 0.5)[0] == pytest.approx(1.75)
    x_next, r = step_at("fbf", clamp, 0.5, 0, [2.0])
    assert (x_next[0], r[0]) == pytest.approx((1.75, 1.0))


def test_dr_step_fixed_point(clamp):
    # at the solution of the inclusion the governing map is stationary
    x_next, r = step_at("dr", clamp, 1.0, 0, [1.0])
    assert (x_next[0], r[0]) == pytest.approx((1.0, 0.0))


def test_inertial_steps_extrapolate(clamp):
    # same data, different evaluation point for the smooth part
    x, xp = [2.0], [1.0]
    mo = step_at("moudafi_oliny", clamp, 0.5, 5, x, xp, inertia=0.5)[0]
    lp = step_at("lorenz_pock", clamp, 0.5, 5, x, xp, inertia=0.5)[0]
    # z = 2.5; B at x gives 2.5 - 0.5*1 = 2.0, B at z gives 2.5 - 0.5*1.5
    assert mo[0] == pytest.approx(2.0)
    assert lp[0] == pytest.approx(1.75)


def test_attouch_cabot_step_no_inertia_full_relaxation(clamp):
    # at n = 0, alpha_n = 0 and w_n = 1 reduce to the plain
    # forward-backward step
    x, xp = [2.0], [7.0]
    out = step_at("attouch_cabot", clamp, 0.5, 0, x, xp)[0]
    assert out[0] == pytest.approx(step_at("fba", clamp, 0.5, 0, x)[0][0])


def test_chambolle_dossal_step_momentum_coefficient(clamp):
    x, xp = [2.0], [5.0]
    # n = 0 has no momentum
    out0 = step_at("chambolle_dossal", clamp, 0.5, 0, x, xp)[0]
    assert out0[0] == pytest.approx(1.5)
    # n = 3, alpha = 3.5: momentum (3-1)/(3+3.5-1) = 4/11, z = 26/11, and
    # z - 0.5*(z - 1) = 37/22
    out3 = step_at("chambolle_dossal", clamp, 0.5, 3, x, [1.0], alpha=3.5)[0]
    assert out3[0] == pytest.approx(37.0 / 22.0)


def test_default_steps(clamp):
    assert default_step("fba", clamp) == pytest.approx(1.8)
    assert default_step("fbf", clamp) == pytest.approx(0.9)
    assert default_step("lorenz_pock", clamp) == pytest.approx(0.9)
    assert default_step("ppa", clamp) == 1.0
    assert default_step("dr", clamp) == 1.0


@pytest.mark.parametrize("kind,name,kw,message", [
    ("nope", "p1_clamp", {}, "unknown baseline kind 'nope'"),
    ("fba", "p1_clamp", {"lam": 2.5}, "step must lie in (0, 2*beta)"),
    ("attouch_cabot", "p1_clamp", {"lam": 0.0}, "step must lie in (0, 2*beta)"),
    ("fbf", "p1_clamp", {"lam": 1.5}, "step must lie in (0, 1/Lipschitz)"),
    ("chambolle_dossal", "p1_clamp", {"lam": 0.5, "alpha": 3.0},
     "momentum parameter must exceed 3"),
    ("chambolle_dossal", "p1_clamp", {"lam": 1.5},
     "step must lie in (0, 1/Lipschitz)"),
    ("moudafi_oliny", "p1_clamp", {"inertia": "x"}, "inertia must be a number, got 'x'"),
    ("attouch_cabot", "p2_lasso", {"ac_rho": "x"}, "ac_rho must be a number, got 'x'"),
    ("chambolle_dossal", "p1_clamp", {"alpha": True}, "alpha must be a number, got True"),
    ("ppa", "p1_clamp", {"lam": [1.0]}, "lam must be a number, got [1.0]"),
    ("ppa", "p2_lasso", {}, "this problem has no resolvent of the full sum"),
    ("dr", "p2_lasso", {}, "this problem has no resolvent form for B"),
])
def test_baseline_step_refuses_what_a_run_refuses(kind, name, kw, message):
    prob = problems.get(name)
    kw = dict({"lam": None}, **kw)
    for make in (lambda: baseline_step(kind, prob, **kw),
                 lambda: run_baseline(kind, prob, prob.start, max_iter=0, **kw)):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message


@pytest.mark.parametrize("stride", [0, -2, 1.5, float("nan"), float("inf")])
def test_a_run_refuses_a_stride_that_is_not_a_positive_integer(clamp, stride):
    with pytest.raises(ValueError) as err:
        run_baseline("fba", clamp, clamp.start, max_iter=10, stride=stride)
    assert str(err.value) == "stride must be an integer >= 1, got %r" % (stride,)


def test_all_kinds_converge_on_clamp(clamp):
    for kind in ("ppa", "fba", "fbf", "dr", "moudafi_oliny", "lorenz_pock",
                 "attouch_cabot", "chambolle_dossal"):
        res = run_baseline(kind, clamp, clamp.start, max_iter=10**4, tol=1e-10)
        assert res.stopped == "tol", kind
        x = dr_shadow(clamp, 1.0, res.x) if kind == "dr" else res.x
        ok, r = problems.certify(clamp, x)
        assert ok, (kind, r)


@pytest.mark.parametrize("stride", [10, 10.0])
def test_stride_rows(clamp, stride):
    res = run_baseline("fba", clamp, clamp.start, max_iter=100, tol=0.0,
                       stride=stride)
    assert list(res.ns) == list(range(0, 100, 10))
    assert len(res.vel2) == len(res.res2) == 10


def test_attouch_cabot_matches_core_without_inertia(clamp):
    # constant schedule (s0 = e, s1 = 0) makes the core update the relaxed
    # forward-backward iteration, which is the alpha_n = 0, w_n = w case:
    # at n = 1, alpha_n = max(0, 1 - ac_alpha) = 0 and w_n = 1 - ac_rho = w
    lam, w = 0.9, 0.5
    step = baseline_step("attouch_cabot", clamp, lam, ac_alpha=1.0,
                         ac_rho=1.0 - w)
    params = CrifbaParams(e=3.0, s0=3.0, s1=0.0, lam=lam, w=w,
                          L=SpdMap(np.eye(1)))
    x = np.array([4.0])
    state = KMState(0, x.copy(), x.copy(), x.copy())
    xa = x.copy()
    xa_prev = x.copy()
    for _ in range(60):
        state = crifba_step(state, params, clamp.A, clamp.B)
        nxt = step(1, xa, xa_prev)[0]
        xa_prev, xa = xa, nxt
        # the core correction term vanishes only in the limit of the
        # constant schedule when gamma = 0, which s0 = e delivers exactly
        assert abs(state.x[0] - xa[0]) <= 1e-12


def test_objective_decay_on_lasso(lasso):
    # momentum prox-gradient on the small l1 least-squares problem: the
    # objective gap decays superlinearly on the log-log scale; fit over the
    # final decade of a 250-iteration run
    obj = lasso.extras["objective"]
    opt = lasso.extras["objective_opt"]
    step = baseline_step("chambolle_dossal", lasso, 0.9 * lasso.beta)
    x = lasso.start.copy()
    x_prev = x.copy()
    gaps = []
    for n in range(250):
        gaps.append(obj(x) - opt)
        nxt = step(n, x, x_prev)[0]
        x_prev, x = x, nxt
    fit = fit_slope(np.arange(250), np.array(gaps))
    assert fit["status"] == "ok"
    assert fit["slope"] <= -1.5
