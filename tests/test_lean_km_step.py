"""The lean shared step: crifba.iterate screens each new iterate with the
one dot of its divergence test, and a stacked B of two constant gradients
is taken once per run (cripda.run_cripda), against the reference loops in
_reference_solvers, which screen every iterate in the step and call B on
every state.

No screened operator value can make an iterate non-finite or near the
overflow threshold after a record block of steps: the step is a convex
combination of finite values whose state passed the 1e12 divergence bound.
The tests below take one step, from state k, with another relaxation w,
in the package's loop and in the reference loop alike: w = inf makes
x_{k+1} non-finite, and w = 1e200 makes it finite with a squared norm that
overflows."""

import dataclasses

import numpy as np
import pytest

import _reference_solvers as reference
from monosplit import crifba, cripda, gcrifba, problems
from monosplit.crifba import KMState
from monosplit.metriclin import SpdMap
from monosplit.operators import CocoerciveMap, affine_op
from test_deferred_residual import counting
from test_reference_solvers import (assert_close, assert_same,
                                    constant_gradient_pair, outcome,
                                    saddle_case, same_failure, start)

ROWS = crifba.RECORD_ROWS
# the steps from the last state of the first record block, the first state
# of the second and the one after it
EDGES = [ROWS - 1, ROWS, ROWS + 1]


def core_case():
    prob = problems.get("p2_lasso")
    params = crifba.default_params(prob.L_map())
    x0 = start(prob, 21)
    return (lambda **kw: crifba.run(prob.A, prob.B, params, x0, **kw),
            lambda **kw: reference.run(prob.A, prob.B, params, x0, **kw))


def product_case():
    prob = problems.get("p4_three")
    params = gcrifba.default_gcrifba_params(prob.beta)
    x0 = start(prob, 22)
    return (lambda **kw: gcrifba.run_gcrifba(prob.A_list, prob.B, params, x0, **kw),
            lambda **kw: reference.run_gcrifba(prob.A_list, prob.B, params, x0, **kw))


def constant_stack_case():
    """run_cripda on p5_lasso_pd, whose gradients are both constant, so the
    loop takes the stacked B once; its core run against the reference loop
    on the stacked inclusion, which calls B on every state."""
    pair, params, x0, y0 = saddle_case("p5_lasso_pd")
    A, B, core = cripda.stacked_problem(pair, params)
    u0 = np.concatenate([x0, y0])
    return (lambda **kw: cripda.run_cripda(pair, params, x0, y0, **kw).core,
            lambda **kw: reference.run(A, B, core, u0, **kw))


# case -> (runs, the package module whose step the loop calls, the name of
# that step in it and in the reference module, comparison)
CASES = {"crifba": (core_case, crifba, "crifba_step", assert_same),
         "gcrifba": (product_case, gcrifba, "gcrifba_step", assert_same),
         "cripda_constant_stack": (constant_stack_case, crifba, "crifba_step",
                                   assert_close)}


def relax_at(monkeypatch, case, k, w):
    """Both loops of case take the step from state k with relaxation w;
    every other step is their own."""
    _, module, name, _ = CASES[case]
    for mod in (module, reference):
        def relaxed(state, params, *args, step=getattr(mod, name)):
            if state.n == k:
                params = dataclasses.replace(params, w=w)
            return step(state, params, *args)
        monkeypatch.setattr(mod, name, relaxed)


@pytest.mark.parametrize("k", EDGES)
@pytest.mark.parametrize("case", list(CASES))
def test_a_non_finite_iterate_raises_as_the_step_did(monkeypatch, case, k):
    # the package's step no longer screens x_{k+1}; the loop's dot does,
    # and names the state stepped from as the reference step does
    new, ref = CASES[case][0]()
    relax_at(monkeypatch, case, k, np.inf)
    err = same_failure(lambda: new(max_iter=3 * ROWS, tol=0.0),
                       lambda: ref(max_iter=3 * ROWS, tol=0.0))
    assert type(err) is ArithmeticError
    assert str(err) == "non-finite iterate at n=%d" % k


@pytest.mark.parametrize("k", EDGES)
@pytest.mark.parametrize("case", list(CASES))
def test_an_iterate_whose_square_overflows_diverges(monkeypatch, case, k):
    # x_{k+1} is finite, but its dot with itself overflows to inf: the
    # run stops as "diverged" at the step that made it, as before
    new, ref = CASES[case][0]()
    relax_at(monkeypatch, case, k, 1e200)
    got = outcome(lambda: new(max_iter=3 * ROWS, tol=0.0))
    if case == "gcrifba":
        # the reference product-space loop has no divergence stop: it is
        # capped at the step instead
        want = outcome(lambda: ref(max_iter=k + 1, tol=0.0))
        want = dataclasses.replace(want, stopped="diverged")
        x = got.blocks.ravel()
    else:
        want = outcome(lambda: ref(max_iter=3 * ROWS, tol=0.0))
        x = got.x
    CASES[case][3](got, want)
    assert got.stopped == "diverged" and got.n_iters == k + 1
    assert np.isfinite(x).all()
    with np.errstate(over="ignore"):
        assert np.isinf(x.dot(x))


def test_a_standalone_step_still_screens_its_iterate():
    # without ahead, crifba_step evaluates its own operators and screens
    # x_{n+1} itself: M z_n overflows in the affine metric resolvent
    A = affine_op(np.eye(1), [0.0])
    B = CocoerciveMap(lambda x: 0.0 * x, SpdMap(np.eye(1)), label="zero")
    params = crifba.CrifbaParams(lam=1.0, M=SpdMap([[2.0]]), L=SpdMap(np.eye(1)))
    x, xp, zp = np.array([6e307]), np.array([0.0]), np.array([1.7e308])
    err = same_failure(
        lambda: crifba.crifba_step(KMState(5, xp, x, zp), params, A, B),
        lambda: reference.crifba_step(reference.CrifbaState(5, xp, x, zp),
                                      params, A, B))
    assert type(err) is ArithmeticError and str(err) == "non-finite iterate at n=5"


# --- the constant stacked B ---------------------------------------------------

@pytest.mark.parametrize("steps,tol", [(3 * ROWS, 0.0), (10**5, 1e-6)])
def test_a_constant_stack_takes_B_once_per_run(monkeypatch, steps, tol):
    # calls of the stacked B's stored row form, through any of its entry
    # points: the one-row call of the constant's value, or the loop's rows
    pair, params, x0, y0 = saddle_case("p5_lasso_pd")
    calls = {}

    def counted_stack(problem, stack=cripda.stacked_operators):
        A, B = stack(problem)
        B._apply_rows = counting(calls, "B_rows", B._apply_rows)
        return A, B

    monkeypatch.setattr(cripda, "stacked_operators", counted_stack)
    res = cripda.run_cripda(pair, params, x0, y0, max_iter=steps, tol=tol)
    assert res.stopped == ("tol" if tol else "max_iter")
    assert calls == {"B_rows": 1}
    # a pair with one gradient that is not constant calls B on every state
    calls.clear()
    res = cripda.run_cripda(problems.get("p5_saddle").saddle,
                            cripda.CripdaParams(tau=0.2, sigma=0.2),
                            np.zeros(2), np.zeros(2), max_iter=steps, tol=tol)
    assert calls == {"B_rows": res.n_iters + 1}


def linear_pair(rows):
    """constant_gradient_pair, whose grad_Q is a nonzero constant, given
    per vector, or with rows its maps replaced by row forms."""
    pair = constant_gradient_pair([])
    if rows:
        c = pair.grad_Q(np.zeros((1, 2)))[0]
        pair.prox_G = lambda tau, U: U
        pair.prox_Fstar = lambda sigma, U: U / (1.0 + sigma)
        pair.grad_Q = lambda X: np.tile(c, (len(X), 1))
        pair.grad_Pstar = np.zeros_like
    return pair


@pytest.mark.parametrize("rows", [False, True], ids=["scalar_forms", "row_forms"])
@pytest.mark.parametrize("steps,tol", [(3 * ROWS + 5, 0.0), (10**5, 1e-6)])
def test_a_nonzero_constant_gradient_runs_as_the_B_call_did(rows, steps, tol):
    # lam c, formed once and subtracted from M u, against crifba's loop on
    # the same stacked inclusion, which calls B on every block of rows: bit
    # for bit
    pair = linear_pair(rows)
    params = cripda.CripdaParams(tau=0.3, sigma=0.3)
    x0, y0 = np.array([1.0, -2.0]), np.array([0.5, 0.0])
    res = cripda.run_cripda(pair, params, x0, y0, max_iter=steps, tol=tol)
    A, B, core = cripda.stacked_problem(pair, params)
    called = crifba._run(A, B, core, np.concatenate([x0, y0]), steps, tol)
    assert_same(res.core, called)
    assert res.stopped == ("tol" if tol else "max_iter")


@pytest.mark.parametrize("metric", [None, "block"])
def test_a_constant_B_value_off_a_unit_step(metric):
    # crifba._run with the value of a constant B, at lam != 1, in the
    # identity and in another metric: bit for bit the run that calls B
    c = np.array([0.4, -1.3, 0.2])
    B = CocoerciveMap(lambda X: np.tile(c, (len(X), 1)), SpdMap(np.eye(3)),
                      rows=True)
    A = affine_op(np.diag([1.0, 0.5, 2.0]), [0.1, 0.0, -0.3])
    M = None if metric is None else SpdMap([[2.0, 0.3, 0.0], [0.3, 1.5, -0.2],
                                             [0.0, -0.2, 1.8]])
    params = crifba.CrifbaParams(lam=0.37, w=0.3, e=3.3, s0=2.2, s1=0.7, M=M,
                                 L=SpdMap(np.eye(3)))
    x0 = np.array([1.0, -0.5, 2.0])
    assert_same(crifba._run(A, B, params, x0, 3 * ROWS + 5, 0.0, B_value=c),
                crifba._run(A, B, params, x0, 3 * ROWS + 5, 0.0))
