import numpy as np
import pytest

from monosplit import problems
from monosplit.baselines import (_attouch_cabot, _chambolle_dossal, _dr, _fb,
                                 _fbf, _lorenz_pock, _moudafi_oliny, _ppa,
                                 default_step, dr_shadow, run_baseline)
from monosplit.crifba import CrifbaParams, KMState, crifba_step
from monosplit.harness import fit_slope
from monosplit.metriclin import SpdMap

# The step formulas are the private steps _ppa ... _chambolle_dossal, which
# take screened 1-D float64 arrays; the examples below call them directly
# or through one step of run_baseline.


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


def fba(clamp, lam, x):
    x = np.array(x)
    return _fb(clamp.A.resolvent, lam, x, clamp.B(x))


def test_fba_step_example(clamp):
    # x = 2: forward point 2 - 0.5*(2-1) = 1.5, clamp leaves it
    assert one_step("fba", clamp, [2.0], 0.5)[0] == pytest.approx(1.5)
    # x = -1: forward point -1 - 0.5*(-2) = 0, already on the boundary
    assert fba(clamp, 0.5, [-1.0])[0] == pytest.approx(0.0)


def test_ppa_step_example(clamp):
    # resolvent of the full sum: clip((u + lam)/(1 + lam), 0, inf)
    assert one_step("ppa", clamp, [3.0], 1.0)[0] == pytest.approx(2.0)
    assert _ppa(clamp.extras["sum_op"], 1.0, np.array([3.0]))[0] == pytest.approx(2.0)


def test_fbf_step_example(clamp):
    # x = 2, lam = 0.5: y = 1.5, correction -0.5*(0.5 - 1.0) = +0.25
    assert one_step("fbf", clamp, [2.0], 0.5)[0] == pytest.approx(1.75)
    x_next, y = _fbf(clamp.A, clamp.B, 0.5, np.array([2.0]))
    assert (x_next[0], y[0]) == pytest.approx((1.75, 1.5))


def test_dr_step_fixed_point(clamp):
    # at the solution of the inclusion the governing map is stationary
    out = _dr(clamp.A, clamp.B_resolvent, 1.0, np.array([1.0]))
    assert out[0] == pytest.approx(1.0)


def test_inertial_steps_extrapolate(clamp):
    # same data, different evaluation point for the smooth part
    x, xp = np.array([2.0]), np.array([1.0])
    mo = _moudafi_oliny(clamp.A, 0.5, 0.5, x, xp, clamp.B(x))
    lp = _lorenz_pock(clamp.A, clamp.B, 0.5, 0.5, x, xp)
    # z = 2.5; B at x gives 2.5 - 0.5*1 = 2.0, B at z gives 2.5 - 0.5*1.5
    assert mo[0] == pytest.approx(2.0)
    assert lp[0] == pytest.approx(1.75)


def test_attouch_cabot_step_no_inertia_full_relaxation(clamp):
    # alpha_n = 0 and w_n = 1 reduce to the plain forward-backward step
    x = np.array([2.0])
    out = _attouch_cabot(clamp.A, clamp.B, 0.5, 0.0, 1.0, x, x)
    assert out[0] == pytest.approx(fba(clamp, 0.5, x)[0])


def test_chambolle_dossal_step_momentum_coefficient(clamp):
    f_grad = clamp.extras["f_grad"]
    g_prox = clamp.extras["g_prox"]
    x, xp = np.array([2.0]), np.array([5.0])
    # n = 0 has no momentum
    out0 = _chambolle_dossal(f_grad, g_prox, 0.5, 3.1, 0, x, xp)
    assert out0[0] == pytest.approx(1.5)
    # n = 3, alpha = 3: momentum (3-1)/(3+3-1) = 0.4, z = 2.4
    out3 = _chambolle_dossal(f_grad, g_prox, 0.5, 3.0, 3, x, np.array([1.0]))
    assert out3[0] == pytest.approx(2.4 - 0.5 * 1.4)


def test_default_steps(clamp):
    assert default_step("fba", clamp) == pytest.approx(1.8)
    assert default_step("fbf", clamp) == pytest.approx(0.9)
    assert default_step("lorenz_pock", clamp) == pytest.approx(0.9)
    assert default_step("ppa", clamp) == 1.0
    assert default_step("dr", clamp) == 1.0


def test_run_guards(clamp, lasso):
    with pytest.raises(ValueError):
        run_baseline("nope", clamp, clamp.start)
    with pytest.raises(ValueError):
        run_baseline("fba", clamp, clamp.start, lam=2.5)   # > 2 beta
    with pytest.raises(ValueError):
        run_baseline("fbf", clamp, clamp.start, lam=1.5)   # > 1/Lip
    with pytest.raises(ValueError):
        run_baseline("chambolle_dossal", clamp, clamp.start, alpha=2.0)
    with pytest.raises(ValueError):
        run_baseline("ppa", lasso, lasso.start)            # no sum resolvent
    with pytest.raises(ValueError):
        run_baseline("dr", lasso, lasso.start)             # no B resolvent


def test_all_kinds_converge_on_clamp(clamp):
    for kind in ("ppa", "fba", "fbf", "dr", "moudafi_oliny", "lorenz_pock",
                 "attouch_cabot", "chambolle_dossal"):
        res = run_baseline(kind, clamp, clamp.start, max_iter=10**4, tol=1e-10)
        assert res.stopped == "tol", kind
        x = dr_shadow(clamp, 1.0, res.x) if kind == "dr" else res.x
        ok, r = problems.certify(clamp, x)
        assert ok, (kind, r)


def test_stride_rows(clamp):
    res = run_baseline("fba", clamp, clamp.start, max_iter=100, tol=0.0,
                       stride=10)
    assert list(res.ns) == list(range(0, 100, 10))
    assert len(res.vel2) == len(res.res2) == 10


def test_attouch_cabot_matches_core_without_inertia(clamp):
    # constant schedule (s0 = e, s1 = 0) makes the core update the relaxed
    # forward-backward iteration, which is the alpha_n = 0, w_n = w case
    lam, w = 0.9, 0.5
    params = CrifbaParams(e=3.0, s0=3.0, s1=0.0, lam=lam, w=w,
                          L=SpdMap(np.eye(1)))
    x = np.array([4.0])
    state = KMState(0, x.copy(), x.copy(), x.copy())
    xa = x.copy()
    xa_prev = x.copy()
    for _ in range(60):
        state = crifba_step(state, params, clamp.A, clamp.B)
        nxt = _attouch_cabot(clamp.A, clamp.B, lam, 0.0, w, xa, xa_prev)
        xa_prev, xa = xa, nxt
        # the core correction term vanishes only in the limit of the
        # constant schedule when gamma = 0, which s0 = e delivers exactly
        assert abs(state.x[0] - xa[0]) <= 1e-12


def test_objective_decay_on_lasso(lasso):
    # momentum prox-gradient on the small l1 least-squares problem: the
    # objective gap decays superlinearly on the log-log scale; fit over the
    # final decade of a 250-iteration run
    f_grad = lasso.extras["f_grad"]
    g_prox = lasso.extras["g_prox"]
    obj = lasso.extras["objective"]
    opt = lasso.extras["objective_opt"]
    lam = 0.9 * lasso.beta
    x = lasso.start.copy()
    x_prev = x.copy()
    gaps = []
    for n in range(250):
        gaps.append(obj(x) - opt)
        nxt = _chambolle_dossal(f_grad, g_prox, lam, 3.1, n, x, x_prev)
        x_prev, x = x, nxt
    fit = fit_slope(np.arange(250), np.array(gaps))
    assert fit["status"] == "ok"
    assert fit["slope"] <= -1.5
