"""The lean step paths: the finiteness screens a solver step makes
(as_vector and as_rows calls per step, pinned), the failures that a
put-off screen must still raise as the screen did, and the primal-dual
run against its reference loop at w != 1/2, where (1 - w) products
round."""

import numpy as np
import pytest

import _reference_solvers as reference
from monosplit import (baselines, checks, crifba, cripda, gcrifba, harness,
                       metriclin, operators, problems)
from monosplit.metriclin import as_vector, operator_norm
from monosplit.operators import SaddleFunctionPair
from test_reference_solvers import (assert_close, saddle_case, same_failure,
                                    same_outcome, start)

MODULES = (metriclin, operators, crifba, cripda, gcrifba, baselines, problems,
           checks, harness)


@pytest.fixture
def screens(monkeypatch):
    """as_vector and as_rows, counted through every module's binding of
    them; returns the dict of counts."""
    counts = {}
    for name in ("as_vector", "as_rows"):
        counts[name] = 0
        screen = getattr(metriclin, name)

        def counted(x, screen=screen, name=name):
            counts[name] += 1
            return screen(x)

        for mod in MODULES:
            if getattr(mod, name, None) is screen:
                monkeypatch.setattr(mod, name, counted)
    return counts


def per_step(screens, run, n1=128, n2=256):
    """Screens per step: the difference between runs of n2 and n1 steps
    over n2 - n1, which leaves out the screens of the set-up. n1 and n2 are
    multiples of crifba.RECORD_ROWS, so block screens count exactly."""
    def calls(n):
        for name in screens:
            screens[name] = 0
        res = run(n)
        assert res.n_iters == n and res.stopped == "max_iter"
        return dict(screens)

    a, b = calls(n1), calls(n2)
    return {name: (b[name] - a[name]) / (n2 - n1) for name in screens}


def test_cripda_screens_per_step(screens):
    # cripda runs the core step on the stack, with its residual and its
    # step sharing one row call of the resolvent. p5_lasso_pd's gradients
    # are both constant, so the stacked B is taken once per run and the
    # loop makes no B call: the two screens left are the stack's resolvent
    # row form screening the block M u - B(u) of x_n and z_n as it enters
    # (1), and its output block as it returns (1); the catalog l1 prox row
    # form soft-thresholds its block unscreened, and M u itself is not
    # screened, nor is any of these values a second time. vel2 is formed
    # RECORD_ROWS states at a time, one screen of each block
    prob = problems.get("p5_lasso_pd")
    step = 0.7 / operator_norm(prob.saddle.K)
    params = cripda.CripdaParams(tau=step, sigma=step)
    y0 = 0.01 * np.random.default_rng(1).standard_normal(5)
    got = per_step(screens, lambda n: cripda.run_cripda(
        prob.saddle, params, start(prob, 1), y0, max_iter=n, tol=0.0))
    assert got == {"as_vector": 0, "as_rows": 2 + 1 / crifba.RECORD_ROWS}


def test_crifba_and_gcrifba_screen_only_blocks(screens):
    # the shared row calls screen their blocks in and out (as_rows); the
    # catalog row forms and the residual norm screen nothing again
    p2 = problems.get("p2_lasso")
    got = per_step(screens, lambda n: crifba.run(
        p2.A, p2.B, crifba.default_params(p2.L_map()), start(p2, 2),
        max_iter=n, tol=0.0))
    assert got == {"as_vector": 0, "as_rows": 4}
    p4 = problems.get("p4_three")
    got = per_step(screens, lambda n: gcrifba.run_gcrifba(
        p4.A_list, p4.B, gcrifba.default_gcrifba_params(p4.beta), start(p4, 2),
        max_iter=n, tol=0.0))
    assert got == {"as_vector": 0, "as_rows": 6}


# every operator call is a row call, which screens its block going in and
# coming out (2): fbf makes three (B, the resolvent, B again), and the
# inertial kinds two, each on the rows of x_n and the extrapolated point
BASELINE_SCREENS = {"fba": 4, "fbf": 6, "moudafi_oliny": 4, "lorenz_pock": 4,
                    "attouch_cabot": 4, "chambolle_dossal": 4}


@pytest.mark.parametrize("kind", sorted(BASELINE_SCREENS))
def test_baseline_screens_per_step(screens, kind):
    # tol = -1 never stops: p2's forward-backward kinds reach their fixed
    # point exactly within a few dozen steps
    p2 = problems.get("p2_lasso")
    got = per_step(screens, lambda n: baselines.run_baseline(
        kind, p2, start(p2, 3), max_iter=n, tol=-1.0))
    assert got == {"as_vector": 0, "as_rows": BASELINE_SCREENS[kind]}


def big_prox_pair(k, big, rows=False):
    """A saddle pair with zero gradients and K = 0.1 whose primal prox
    returns the constant big on its k-th call (from 0) and its argument
    otherwise; counts its calls in .calls. With rows, the pair has row
    forms too, whose proxes take the rows of a block one call at a time, so
    that a run through the row path meets big where the per-row path
    does."""
    calls = []

    def prox_G(tau, u):
        calls.append(None)
        u = as_vector(u)
        return np.full_like(u, big) if len(calls) == k + 1 else u

    def prox_Fstar(sigma, u):
        return as_vector(u) / (1.0 + sigma)

    def each(prox):
        return lambda t, U: np.array([prox(t, u) for u in U]).reshape(U.shape)

    forms = dict(prox_G=prox_G, prox_Fstar=prox_Fstar,
                 grad_Q=lambda x: 0.0 * x, grad_Pstar=lambda y: 0.0 * y)
    if rows:
        forms = dict(prox_G=each(prox_G), prox_Fstar=each(prox_Fstar),
                     grad_Q=np.zeros_like, grad_Pstar=np.zeros_like)
    pair = SaddleFunctionPair(lip_Q=0.0, lip_Pstar=0.0, K=np.array([[0.1]]),
                              label="big_prox", rows=rows, **forms)
    pair.calls = calls
    return pair


def test_cripda_overflowing_difference_raises_as_before():
    # x_0 = 1e308 is finite and so is M u_0 (tau = 2); the prox returns
    # -1e308, so u_0 - (px, py) overflows: the put-off screen of the
    # difference raises the ValueError of the screen it replaces. The
    # package makes three prox calls, where the reference loop makes one:
    # two in the row call on u_0 and z_0, and one in the retry on u_0
    # alone, which meets no tol and raises the first error again
    params = cripda.CripdaParams(tau=2.0, sigma=2.0)
    pairs = []

    def go(solve):
        pairs.append(big_prox_pair(0, -1e308))
        return solve(pairs[-1], params, [1e308], [0.0], max_iter=10, tol=0.0)

    err = same_failure(lambda: go(cripda.run_cripda),
                       lambda: go(reference.run_cripda))
    assert type(err) is ValueError and str(err) == "vector has non-finite entries"
    assert len(pairs[0].calls) == 3 and len(pairs[1].calls) == 1


@pytest.mark.parametrize("k", [0, 6])
def test_cripda_overflowing_residual_norm_is_recorded_as_before(k):
    # the prox calls alternate between the residual and the step, so call
    # 2n is the residual's at n: its difference is finite but its M-norm
    # overflows, which is no failure; the residual is inf and the run goes on
    params = cripda.CripdaParams(tau=2.0, sigma=2.0)

    def go(solve):
        return solve(big_prox_pair(k, 1e308), params, [1.0], [0.5],
                     max_iter=10, tol=0.0)

    res = same_outcome(lambda: go(cripda.run_cripda),
                       lambda: go(reference.run_cripda), same=assert_close)
    assert res.stopped == "max_iter"
    assert np.isinf(res.fpr2[k // 2])
    assert np.isfinite(np.delete(res.fpr2, k // 2)).all()


# (x_0, k, big): the overflowing difference of the test above, the
# overflowing residual norms of the one above that, and NaN proxes in the
# residual (even k) and in the step (odd k)
BIG_PROX = [(1e308, 0, -1e308), (1.0, 0, 1e308), (1.0, 6, 1e308),
            (1.0, 0, np.nan), (1.0, 1, np.nan), (1.0, 6, np.nan), (1.0, 7, np.nan)]


@pytest.mark.parametrize("rows", [False, True], ids=["scalar_forms", "row_forms"])
@pytest.mark.parametrize("x0,k,big", BIG_PROX)
def test_cripda_big_prox_through_either_path_of_the_constant_stack(rows, x0, k, big):
    # both gradients are constant, so the loop takes the stacked B once and
    # calls it no more: without the screens of a B call, each run still
    # ends as the reference loop ends it, through the per-row path and the
    # row path alike
    params = cripda.CripdaParams(tau=2.0, sigma=2.0)

    def go(solve):
        return solve(big_prox_pair(k, big, rows), params, [x0], [0.5],
                     max_iter=10, tol=0.0)

    same_outcome(lambda: go(cripda.run_cripda),
                 lambda: go(reference.run_cripda), same=assert_close)


@pytest.mark.parametrize("rows", [False, True], ids=["scalar_forms", "row_forms"])
def test_cripda_overflowing_metric_image_raises_before_any_prox(rows):
    # M u_0 overflows (tau = 0.2): with no B call, the screen of the
    # resolvent's argument raises, before the pair's forms see it
    params = cripda.CripdaParams(tau=0.2, sigma=0.2)
    pairs = []

    def go(solve):
        pairs.append(big_prox_pair(-1, 0.0, rows))
        return solve(pairs[-1], params, [1.7e308], [0.0], max_iter=10, tol=0.0)

    err = same_failure(lambda: go(cripda.run_cripda),
                       lambda: go(reference.run_cripda))
    assert type(err) is ValueError and str(err) == "vector has non-finite entries"
    assert [len(p.calls) for p in pairs] == [0, 0]


@pytest.mark.parametrize("steps,tol", [(200, 0.0), (50000, 1e-6)])
@pytest.mark.parametrize("name", ["p5_saddle", "p5_lasso_pd"])
def test_cripda_matches_reference_off_half(name, steps, tol):
    # the reference tests run w = 1/2, where 1 - w, 2/w and the products
    # with them are exact; here they round
    pair, params, x0, y0 = saddle_case(name)
    params = cripda.CripdaParams(tau=params.tau, sigma=params.sigma, w=0.3,
                                 e=3.3, s0=2.2, s1=0.7)
    res = assert_close(
        cripda.run_cripda(pair, params, x0, y0, max_iter=steps, tol=tol),
        reference.run_cripda(pair, params, x0, y0, max_iter=steps, tol=tol))
    assert res.stopped == ("tol" if tol else "max_iter")
