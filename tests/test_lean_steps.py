"""The lean step paths: the finiteness screens a solver step makes
(as_vector and as_rows calls per step, pinned), the failures that a
put-off screen must still raise as the screen did, and the primal-dual
step against its reference loop at w != 1/2, where (1 - w) products
round."""

import numpy as np
import pytest

import _reference_solvers as reference
from monosplit import (baselines, checks, crifba, cripda, gcrifba, harness,
                       metriclin, operators, problems)
from monosplit.metriclin import as_vector, operator_norm
from monosplit.operators import SaddleFunctionPair
from test_reference_solvers import (assert_same, saddle_case, same_failure,
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
    # the step screens its two prox outputs (4 screens with the catalog
    # proxes' own input screens), and the residual its two prox inputs and
    # outputs (6), but neither the stacked iterate nor the difference
    prob = problems.get("p5_lasso_pd")
    step = 0.7 / operator_norm(prob.saddle.K)
    params = cripda.CripdaParams(tau=step, sigma=step)
    y0 = 0.01 * np.random.default_rng(1).standard_normal(5)
    got = per_step(screens, lambda n: cripda.run_cripda(
        prob.saddle, params, start(prob, 1), y0, max_iter=n, tol=0.0))
    assert got == {"as_vector": 10, "as_rows": 1 / crifba.RECORD_ROWS}


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


# a B call screens its argument and its value (2), the catalog l1 prox its
# argument (1); every resolvent or prox output is screened as it returns
# (1), but fbf's, which B screens as it enters
BASELINE_SCREENS = {"fba": 4, "fbf": 5, "moudafi_oliny": 6, "lorenz_pock": 8,
                    "attouch_cabot": 8, "chambolle_dossal": 6}


@pytest.mark.parametrize("kind", sorted(BASELINE_SCREENS))
def test_baseline_screens_per_step(screens, kind):
    # tol = -1 never stops: p2's forward-backward kinds reach their fixed
    # point exactly within a few dozen steps
    p2 = problems.get("p2_lasso")
    got = per_step(screens, lambda n: baselines.run_baseline(
        kind, p2, start(p2, 3), max_iter=n, tol=-1.0))
    assert got == {"as_vector": BASELINE_SCREENS[kind], "as_rows": 0}


def big_prox_pair(k, big):
    """A saddle pair with zero gradients and K = 0.1 whose primal prox
    returns the constant big on its k-th call (from 0) and its argument
    otherwise; counts its calls in .calls."""
    calls = []

    def prox_G(tau, u):
        calls.append(None)
        u = as_vector(u)
        return np.full_like(u, big) if len(calls) == k + 1 else u

    pair = SaddleFunctionPair(
        prox_G=prox_G, prox_Fstar=lambda sigma, u: as_vector(u) / (1.0 + sigma),
        grad_Q=lambda x: 0.0 * x, lip_Q=0.0, grad_Pstar=lambda y: 0.0 * y,
        lip_Pstar=0.0, K=np.array([[0.1]]), label="big_prox")
    pair.calls = calls
    return pair


def test_cripda_overflowing_difference_raises_as_before():
    # x_0 = 1e308 is finite and so is M u_0 (tau = 2); the prox returns
    # -1e308, so u_0 - (px, py) overflows: the put-off screen of the
    # difference raises the ValueError of the screen it replaces, after the
    # same prox calls
    params = cripda.CripdaParams(tau=2.0, sigma=2.0)
    pairs = []

    def go(solve):
        pairs.append(big_prox_pair(0, -1e308))
        return solve(pairs[-1], params, [1e308], [0.0], max_iter=10, tol=0.0)

    err = same_failure(lambda: go(cripda.run_cripda),
                       lambda: go(reference.run_cripda))
    assert type(err) is ValueError and str(err) == "vector has non-finite entries"
    assert len(pairs[0].calls) == len(pairs[1].calls) == 1


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
                       lambda: go(reference.run_cripda))
    assert res.stopped == "max_iter"
    assert np.isinf(res.fpr2[k // 2])
    assert np.isfinite(np.delete(res.fpr2, k // 2)).all()


@pytest.mark.parametrize("steps,tol", [(200, 0.0), (50000, 1e-6)])
@pytest.mark.parametrize("name", ["p5_saddle", "p5_lasso_pd"])
def test_cripda_matches_reference_off_half(name, steps, tol):
    # the reference tests run w = 1/2, where 1 - w, 2/w and the products
    # with them are exact; here they round
    pair, params, x0, y0 = saddle_case(name)
    params = cripda.CripdaParams(tau=params.tau, sigma=params.sigma, w=0.3,
                                 e=3.3, s0=2.2, s1=0.7)
    res = assert_same(
        cripda.run_cripda(pair, params, x0, y0, max_iter=steps, tol=tol),
        reference.run_cripda(pair, params, x0, y0, max_iter=steps, tol=tol))
    assert res.stopped == ("tol" if tol else "max_iter")
