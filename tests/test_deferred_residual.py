"""The shared loop crifba.iterate with the step's operator values evaluated
by the residual (one row call of each operator on the state and on its
extrapolated point) and with the record columns the loop does not read
formed RECORD_ROWS states at a time, against the reference loops in
_reference_solvers, which test and step one state at a time: tolerance
stops and step caps around the edges of a record block, divergence, a warm
start, the operator calls and step calls a run makes, and failures of
row-form operators, which must end the run where the one-state-at-a-time
loop ends it; the stacked primal-dual run in its block metric among
them, whose arrays agree with the reference loops within
test_reference_solvers.REL relative."""

import math

import numpy as np
import pytest

import _reference_solvers as reference
from monosplit import checks, crifba, cripda, gcrifba, problems
from monosplit.metriclin import SpdMap, operator_norm
from monosplit.operators import (CocoerciveMap, MonotoneOp, SaddleFunctionPair,
                                 box_op, l1_op, zero_op)
from test_reference_solvers import assert_close, assert_same, outcome, start

ROWS = crifba.RECORD_ROWS


def core(name):
    prob = problems.get(name)
    params = crifba.default_params(prob.L_map())
    x0 = start(prob, 11)
    return (lambda **kw: crifba.run(prob.A, prob.B, params, x0, **kw),
            lambda **kw: reference.run(prob.A, prob.B, params, x0, **kw))


def product(name):
    prob = problems.get(name)
    params = gcrifba.default_gcrifba_params(prob.beta)
    x0 = start(prob, 12)
    return (lambda **kw: gcrifba.run_gcrifba(prob.A_list, prob.B, params, x0, **kw),
            lambda **kw: reference.run_gcrifba(prob.A_list, prob.B, params, x0, **kw))


def mixed():
    """gcrifba in dimension 5 on an l1 block and a box block with the lasso
    gradient: each norm sums more than eight products."""
    prob = problems.get("p2_lasso")
    A_list = [l1_op(0.3), box_op(-0.5, 0.5)]
    params = gcrifba.default_gcrifba_params(prob.beta)
    x0 = start(prob, 19)
    kw0 = dict(weights=[0.4, 0.6])
    return (lambda **kw: gcrifba.run_gcrifba(A_list, prob.B, params, x0, **kw0, **kw),
            lambda **kw: reference.run_gcrifba(A_list, prob.B, params, x0, **kw0, **kw))


def stack(pair=None, metric=None, seed=11):
    """crifba on the stacked p5_saddle inclusion in its block metric (the
    catalog pair, or the given one, and the given metric)."""
    pair = problems.get("p5_saddle").saddle if pair is None else pair
    A, B = cripda.stacked_operators(pair)
    M = cripda.build_metric(pair, 0.2, 0.2) if metric is None else metric
    params = crifba.CrifbaParams(lam=1.0, w=0.5, M=M, L=B.certificate_L)
    x0 = 0.5 * np.random.default_rng(seed).standard_normal(4)
    return (lambda **kw: crifba.run(A, B, params, x0, **kw),
            lambda **kw: reference.run(A, B, params, x0, **kw))


def saddle(name):
    prob = problems.get(name)
    step = 0.2 if name == "p5_saddle" else 0.7 / operator_norm(prob.saddle.K)
    params = cripda.CripdaParams(tau=step, sigma=step)
    x0 = start(prob, 13)
    y0 = 0.1 * np.random.default_rng(13).standard_normal(prob.saddle.d_dual)
    return (lambda **kw: cripda.run_cripda(prob.saddle, params, x0, y0, **kw),
            lambda **kw: reference.run_cripda(prob.saddle, params, x0, y0, **kw))


# the catalog problems of each solver whose operators all have row forms,
# the stacked primal-dual inclusion in its block metric, one product-space
# problem in a higher dimension, and the saddle solver, which forms its
# velocity column a block at a time
CASES = {"crifba:p2_lasso": lambda: core("p2_lasso"),
         "crifba:p3_spectrum": lambda: core("p3_spectrum"),
         "crifba:p5_saddle_stack": stack,
         "gcrifba:p4_three": lambda: product("p4_three"),
         "gcrifba:p6_res_sum": lambda: product("p6_res_sum"),
         "gcrifba:l1_box_lasso": mixed,
         "cripda:p5_lasso_pd": lambda: saddle("p5_lasso_pd"),
         "cripda:p5_saddle": lambda: saddle("p5_saddle")}
# the cases on the stacked primal-dual path, compared within a bound
BOUNDED = {"crifba:p5_saddle_stack", "cripda:p5_lasso_pd", "cripda:p5_saddle"}


def same(case):
    return assert_close if case in BOUNDED else assert_same


def norms(res):
    """The residual norm of every tested state of a run (NaN past them)."""
    return np.sqrt(res.fpr2 if isinstance(res, cripda.CripdaResult) else res.res2)


@pytest.mark.parametrize("n", [2 * ROWS - 2, 2 * ROWS - 1, 2 * ROWS, 2 * ROWS + 1,
                               2 * ROWS + 37])
@pytest.mark.parametrize("case", list(CASES))
def test_tolerance_stop_around_a_record_block(case, n):
    # the stop falls on state n, next to the end of the second block of
    # tested or of stepped states; tol lies strictly between the residual
    # at the stop and every residual before it
    new, ref = CASES[case]()
    r = norms(ref(max_iter=n + 1, tol=0.0))[:n + 1]
    assert r[n] < r[:n].min()
    tol = 0.5 * (r[n] + r[:n].min())
    res = same(case)(new(max_iter=10 * ROWS, tol=tol), ref(max_iter=10 * ROWS, tol=tol))
    assert res.stopped == "tol" and res.n_iters == n


@pytest.mark.parametrize("steps", [1, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 37])
@pytest.mark.parametrize("case", list(CASES))
def test_step_cap_around_a_record_block(case, steps):
    new, ref = CASES[case]()
    res = same(case)(new(max_iter=steps, tol=0.0), ref(max_iter=steps, tol=0.0))
    assert res.stopped == "max_iter" and res.n_iters == steps


def test_divergence():
    unit = SpdMap(np.eye(1))
    push = MonotoneOp(lambda lam, x: 10.0 * np.asarray(x),
                      resolvent_rows=lambda lam, X: 10.0 * X)
    still = CocoerciveMap(lambda x: 0.0 * x, unit, apply_rows=lambda X: 0.0 * X)
    p = crifba.CrifbaParams(lam=0.5, L=unit)
    core_run = assert_same(crifba.run(push, still, p, [1.0], max_iter=1000, tol=0.0),
                           reference.run(push, still, p, [1.0], max_iter=1000, tol=0.0))
    # the reference gcrifba loop has no divergence stop: the same operators
    # without row forms give the one-state-at-a-time run
    g = gcrifba.default_gcrifba_params(1.0)
    lifted = assert_same(
        gcrifba.run_gcrifba([zero_op(), zero_op()],
                            CocoerciveMap(lambda x: -x, unit, apply_rows=lambda X: -X),
                            g, [1.0], max_iter=1000),
        gcrifba.run_gcrifba([zero_op(), zero_op()], CocoerciveMap(lambda x: -x, unit),
                            g, [1.0], max_iter=1000))
    pair = SaddleFunctionPair(
        prox_G=lambda tau, u: 10.0 * np.asarray(u, dtype=float),
        prox_Fstar=lambda sigma, u: np.asarray(u, dtype=float),
        grad_Q=lambda x: 0.0 * x, lip_Q=1.0,
        grad_Pstar=lambda y: 0.0 * y, lip_Pstar=1.0, K=np.array([[0.1]]))
    params = cripda.CripdaParams(tau=0.2, sigma=0.2, delta=0.3)
    primal_dual = assert_close(
        cripda.run_cripda(pair, params, [1.0], [1.0], max_iter=1000, tol=0.0),
        reference.run_cripda(pair, params, [1.0], [1.0], max_iter=1000, tol=0.0))
    for res in (core_run, lifted, primal_dual):
        assert res.stopped == "diverged"


@pytest.mark.parametrize("steps,tol", [(2 * ROWS + 5, 0.0), (10**5, 1e-7)])
def test_warm_start(steps, tol):
    prob = problems.get("p2_lasso")
    params = crifba.default_params(prob.L_map())
    x0 = start(prob, 14)
    kw = dict(max_iter=steps, tol=tol, x_prev=x0 + 0.1, z_prev=x0 - 0.2)
    res = assert_same(crifba.run(prob.A, prob.B, params, x0, **kw),
                      reference.run(prob.A, prob.B, params, x0, **kw))
    assert res.stopped == ("tol" if tol else "max_iter")


def test_root_is_numpys_square_root():
    # the loop tests root(r2) <= tol where it tested np.sqrt(r2) <= tol: the
    # root of a negative squared norm is NaN and meets no tol; that of -0.0
    # is -0.0, which meets tol 0
    values = [4.0, 2.0, 1e-300, 5e-324, 0.0, -0.0, -1e-30, -np.inf, np.inf, np.nan]
    with np.errstate(invalid="ignore"):
        want = [np.sqrt(v) for v in values]
    got = [crifba.root(v) for v in values]
    for g, w in zip(got, want):
        assert np.array_equal(g, w, equal_nan=True)
        assert math.isnan(g) or math.copysign(1.0, g) == np.copysign(1.0, w)
        assert (g <= 0.0) == (w <= 0.0) and (g <= 1.0) == (w <= 1.0)


def counting(calls, key, fn):
    def counted(*args):
        calls[key] = calls.get(key, 0) + 1
        return fn(*args)
    return counted


@pytest.mark.parametrize("rows", [True, False], ids=["row_forms", "scalar_forms"])
@pytest.mark.parametrize("tol", [0.0, 1e-6], ids=["max_iter", "tol"])
def test_residual_and_step_share_one_row_call(monkeypatch, rows, tol):
    # each tested state costs one row call of B and of the resolvent, on the
    # state and the point its step starts from, and a capped run one more,
    # on its last state alone; without row forms each row is one scalar
    # call. Either way the step runs once per step taken, never ahead of
    # the stop test
    prob = problems.get("p2_lasso")
    calls = {}
    A = MonotoneOp(counting(calls, "resolvent", prob.A.resolvent),
                   resolvent_rows=counting(calls, "resolvent_rows",
                                           prob.A._resolvent_rows) if rows else None)
    B = CocoerciveMap(counting(calls, "B", prob.B._apply), prob.B.certificate_L,
                      apply_rows=counting(calls, "B_rows", prob.B._apply_rows)
                      if rows else None)
    monkeypatch.setattr(crifba, "crifba_step",
                        counting(calls, "step", crifba.crifba_step))
    res = crifba.run(A, B, crifba.default_params(prob.L_map()), start(prob, 15),
                     max_iter=10**5 if tol else 300, tol=tol)
    n = res.n_iters
    assert res.stopped == ("tol" if tol else "max_iter") and 0 < n
    if rows:
        assert calls == {"B_rows": n + 1, "resolvent_rows": n + 1, "step": n}
    else:
        scalar = 2 * n + (2 if tol else 1)
        assert calls == {"B": scalar, "resolvent": scalar, "step": n}


FORMS = ("prox_G", "prox_Fstar", "grad_Q", "grad_Pstar")


def counted_pair(calls, rows):
    """The p5_saddle pair with its scalar forms, and with rows its row
    forms, counted."""
    pair = problems.get("p5_saddle").saddle
    forms = {name: counting(calls, name, getattr(pair, name)) for name in FORMS}
    if rows:
        forms.update({name + "_rows": counting(calls, name + "_rows",
                                               getattr(pair, "%s_rows" % name))
                      for name in FORMS})
    return SaddleFunctionPair(lip_Q=pair.lip_Q, lip_Pstar=pair.lip_Pstar, K=pair.K,
                              **forms)


@pytest.mark.parametrize("rows", [True, False], ids=["row_forms", "scalar_forms"])
@pytest.mark.parametrize("tol", [0.0, 1e-6], ids=["max_iter", "tol"])
def test_stacked_run_in_the_block_metric_shares_one_row_call(monkeypatch, rows, tol):
    # each tested state costs one row call of B (each gradient) and of the
    # generalized resolvent (each prox) and one block product with M, and a
    # capped run one more of each, on its last state alone: n + 1 of each
    # with the pair's row forms, and no scalar call. Without them each row
    # is one scalar call of each form: 2n + 1 on a cap, 2n + 2 on a tol
    # stop. No run makes a scalar forward-backward call, applies M to one
    # vector or solves with M. The replay makes no scalar call, and calls
    # each row form once per block of rows
    calls = {}
    monkeypatch.setattr(crifba, "forward_backward",
                        counting(calls, "forward_backward", crifba.forward_backward))
    for name in ("apply", "apply_each", "solve"):
        monkeypatch.setattr(SpdMap, name, counting(calls, name, getattr(SpdMap, name)))
    pair = counted_pair(calls, rows)
    A, B = cripda.stacked_operators(pair)
    new, _ = stack(pair, seed=15)
    res = new(max_iter=10**5 if tol else 300, tol=tol)
    n = res.n_iters
    assert res.stopped == ("tol" if tol else "max_iter") and 0 < n
    want = {"apply_each": n + 1}
    if rows:
        want.update(dict.fromkeys([f + "_rows" for f in FORMS], n + 1))
    else:
        want.update(dict.fromkeys(FORMS, 2 * n + (2 if tol else 1)))
    assert calls == want
    calls.clear()
    q = np.concatenate(problems.get("p5_saddle").certified_solution)
    reports = checks.standard_suite(res, A, B, q=q)
    assert all(r.passed for r in reports)
    blocks = -(-n // checks.BLOCK_ROWS)
    # B(q) of rilo is the one scalar call of the gradients
    want = dict.fromkeys(["grad_Q", "grad_Pstar"], 1)
    if rows:
        want.update(dict.fromkeys(["grad_Q_rows", "grad_Pstar_rows"], 2 * blocks))
        want.update(dict.fromkeys(["prox_G_rows", "prox_Fstar_rows", "apply_each"], blocks))
    else:
        want.update(dict.fromkeys(["grad_Q", "grad_Pstar"], 2 * n + 1))
        want.update(dict.fromkeys(["prox_G", "prox_Fstar"], n))
        want["apply_each"] = blocks
    assert calls == want


def test_record_columns_of_a_long_run():
    # many record blocks, every column bit for bit
    for case in ("gcrifba:p4_three", "cripda:p5_lasso_pd"):
        new, ref = CASES[case]()
        same(case)(new(max_iter=40 * ROWS + 3, tol=0.0),
                   ref(max_iter=40 * ROWS + 3, tol=0.0))


# --- failures of pure row-form operators -------------------------------------

def recording(fn, seen):
    """fn, appending a copy of its last argument to seen on every call."""
    def wrapped(*args):
        seen.append(np.array(args[-1], dtype=float))
        return fn(*args)
    return wrapped


def poisoned(fn, nan_at, fail_at):
    """fn as a pure scalar form and row form: NaN where the last argument
    is nan_at, RuntimeError where it is fail_at."""
    def scalar(*args):
        v = np.asarray(args[-1], dtype=float)
        if np.array_equal(v, fail_at):
            raise RuntimeError("step failed")
        out = np.asarray(fn(*args), dtype=float)
        return np.full_like(out, np.nan) if np.array_equal(v, nan_at) else out

    def rows(*args):
        X = args[-1]
        return np.array([scalar(*args[:-1], x) for x in X]).reshape(X.shape)

    return scalar, rows


def core_with(which, make):
    """crifba on p2_lasso with B or the resolvent replaced by
    make(scalar form)."""
    prob = problems.get("p2_lasso")
    params = crifba.default_params(prob.L_map())
    x0 = start(prob, 16)
    scalar_of = {"B": prob.B._apply, "resolvent": prob.A.resolvent}[which]

    def solve(rows, ref=False, tol=0.0):
        scalar, row_form = make(scalar_of)
        if which == "B":
            A, B = prob.A, CocoerciveMap(scalar, prob.B.certificate_L,
                                         apply_rows=row_form if rows else None)
        else:
            A, B = MonotoneOp(scalar, resolvent_rows=row_form if rows else None), prob.B
        run = reference.run if ref else crifba.run
        return run(A, B, params, x0, max_iter=3 * ROWS, tol=tol)

    return solve


def product_with(which, make):
    """gcrifba on p4_three with B or the second block's resolvent replaced."""
    prob = problems.get("p4_three")
    params = gcrifba.default_gcrifba_params(prob.beta)
    x0 = start(prob, 17)
    scalar_of = {"B": prob.B._apply, "resolvent": prob.A_list[1].resolvent}[which]

    def solve(rows, ref=False, tol=0.0):
        scalar, row_form = make(scalar_of)
        A_list, B = list(prob.A_list), prob.B
        if which == "B":
            B = CocoerciveMap(scalar, B.certificate_L, apply_rows=row_form if rows else None)
        else:
            A_list[1] = MonotoneOp(scalar, resolvent_rows=row_form if rows else None)
        run = reference.run_gcrifba if ref else gcrifba.run_gcrifba
        return run(A_list, B, params, x0, max_iter=3 * ROWS, tol=tol)

    return solve


def stack_with(which, make):
    """crifba on the stacked p5_saddle inclusion in its block metric with a
    form of the pair replaced by make(scalar form), or with the metric's
    apply_each, which is how the loop applies M, replaced by make(apply)
    row by row; without row forms the pair has none, and its forms are
    called one row at a time."""
    pair = problems.get("p5_saddle").saddle

    def solve(rows, ref=False, tol=0.0):
        M = cripda.build_metric(pair, 0.2, 0.2)
        forms = {name: getattr(pair, name) for name in FORMS}
        if rows:
            forms.update({name + "_rows": getattr(pair, "%s_rows" % name)
                          for name in FORMS})
        scalar, row_form = make(M.apply if which == "apply" else forms[which])
        if which == "apply":
            M.apply_each = lambda X: np.array([scalar(x) for x in X])
        else:
            forms[which] = scalar
            if rows:
                forms[which + "_rows"] = row_form
        new, reference_run = stack(SaddleFunctionPair(
            lip_Q=pair.lip_Q, lip_Pstar=pair.lip_Pstar, K=pair.K, **forms),
            metric=M, seed=18)
        return (reference_run if ref else new)(max_iter=3 * ROWS, tol=tol)

    return solve


FAILING = [(core_with, "B"), (core_with, "resolvent"),
           (product_with, "B"), (product_with, "resolvent"),
           (stack_with, "grad_Q"), (stack_with, "prox_G"),
           (stack_with, "prox_Fstar"), (stack_with, "apply")]
IDS = ["%s:%s" % (s.__name__, w) for s, w in FAILING]


def same_args(setup, which):
    """True when the reference loop calls the operator with the arguments
    the package calls it with, bit for bit. On the stacked path it does
    not: it solves with M where the package applies M, so its iterates and
    operator arguments differ from the package's in the last bits."""
    return setup is not stack_with


def arguments(setup, which):
    """The operator's arguments in a clean run without row forms, of the
    reference loop or, on the stacked path (see same_args), of the
    package's own loop, which calls the scalar form once per row: those of
    the residual at each state and those of the step from each state (the
    two calls alternate)."""
    seen = []
    setup(which, lambda fn: (recording(fn, seen), None))(
        rows=False, ref=same_args(setup, which))
    return seen[0::2], seen[1::2]


@pytest.mark.parametrize("failing", ["raises", "nan"])
@pytest.mark.parametrize("setup,which", FAILING, ids=IDS)
def test_a_failing_step_past_a_tolerance_stop_leaves_no_trace(setup, which, failing):
    # the run stops on tol at state n; the operator fails only at the
    # argument of the step from n, which the row call evaluates before the
    # stop test and the one-state-at-a-time loop never evaluates
    n = ROWS + 10
    clean = setup(which, lambda fn: (fn, None))(rows=False, ref=True)
    r = norms(clean)
    assert r[n] < r[:n].min()
    tol = 0.5 * (r[n] + r[:n].min())
    _, step_args = arguments(setup, which)
    bad = step_args[n]
    nan_at, fail_at = (None, bad) if failing == "raises" else (bad, None)
    solve = setup(which, lambda fn: poisoned(fn, nan_at, fail_at))
    compare = assert_same if same_args(setup, which) else assert_close
    res = compare(solve(rows=True, tol=tol), solve(rows=False, ref=True, tol=tol))
    assert res.stopped == "tol" and res.n_iters == n


@pytest.mark.parametrize("fail", [ROWS + 36, 2 * ROWS - 1], ids=["inside", "block_end"])
@pytest.mark.parametrize("nan", [-1, 0, 1], ids=["before", "at", "after"])
@pytest.mark.parametrize("setup,which", FAILING, ids=IDS)
def test_failures_land_where_one_state_at_a_time_puts_them(setup, which, nan, fail):
    # the operator's scalar and row forms return NaN at the argument of the
    # residual at state fail + nan and raise at the argument of the step
    # from state fail
    residual_args, step_args = arguments(setup, which)
    r = fail + nan
    solve = setup(which, lambda fn: poisoned(fn, residual_args[r], step_args[fail]))
    shared, per_row = outcome(lambda: solve(rows=True)), \
        outcome(lambda: solve(rows=False))
    want = RuntimeError("step failed") if r > fail \
        else ValueError("vector has non-finite entries")
    for got in (shared, per_row):
        assert type(got) is type(want) and str(got) == str(want)
    # where the row call screens a NaN block resolvent of gcrifba, the
    # reference loop records a NaN residual and runs on
    nan_block = setup is product_with and which == "resolvent" and r <= fail
    if same_args(setup, which) and not nan_block:
        ref = outcome(lambda: solve(rows=False, ref=True))
        assert type(ref) is type(want) and str(ref) == str(want)
