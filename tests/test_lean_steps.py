"""The lean step paths: the finiteness screens a solver step makes
(as_vector calls and block screens per step, pinned), the failures that a
put-off screen must still raise as the screen did, and the primal-dual
run against its reference loop at w != 1/2, where (1 - w) products
round."""

import traceback

import numpy as np
import pytest

import _reference_solvers as reference
from monosplit import (baselines, checks, crifba, cripda, gcrifba, harness,
                       metriclin, operators, problems)
from monosplit.metriclin import as_vector, operator_norm
from monosplit.operators import SaddleFunctionPair, box_op
from test_reference_solvers import (assert_close, saddle_case, same_failure,
                                    same_outcome, start)

MODULES = (metriclin, operators, crifba, cripda, gcrifba, baselines, problems,
           checks, harness)


@pytest.fixture
def screens(monkeypatch):
    """The screens, counted: "as_vector" its calls, and "rows" the block
    screens, which are as_rows calls and the screens that the row callable
    of operators.forward_backward_map writes out, each one call of the
    operators module's binding of _zeros, or of all_finite on a block
    longer than SCREEN_CHUNK; as_vector and as_rows are counted through
    every module's binding of them. Returns the dict of counts."""
    counts = {"as_vector": 0, "rows": 0}

    def counted(fn, key):
        def call(*args):
            counts[key] += 1
            return fn(*args)
        return call

    for name, key in (("as_vector", "as_vector"), ("as_rows", "rows")):
        screen = getattr(metriclin, name)
        for mod in MODULES:
            if getattr(mod, name, None) is screen:
                monkeypatch.setattr(mod, name, counted(screen, key))
    for name in ("_zeros", "all_finite"):
        monkeypatch.setattr(operators, name, counted(getattr(operators, name), "rows"))
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
    # loop makes no B call: the two screens left are forward_backward_map's
    # row callable screening the block M u - B(u) of x_n and z_n as it
    # enters the stack's resolvent (1), and its output block (1); the
    # catalog l1 prox row form soft-thresholds its block unscreened, and
    # M u itself is not screened, nor is any of these values a second time.
    # vel2 is formed RECORD_ROWS states at a time, one screen of each block
    prob = problems.get("p5_lasso_pd")
    step = 0.7 / operator_norm(prob.saddle.K)
    params = cripda.CripdaParams(tau=step, sigma=step)
    y0 = 0.01 * np.random.default_rng(1).standard_normal(5)
    got = per_step(screens, lambda n: cripda.run_cripda(
        prob.saddle, params, start(prob, 1), y0, max_iter=n, tol=0.0))
    assert got == {"as_vector": 0, "rows": 2 + 1 / crifba.RECORD_ROWS}


def test_crifba_and_gcrifba_screen_only_blocks(screens):
    # the shared row calls evaluate B on the loop's rows, which are not
    # screened again, and leave B's rows to the resolvent's screen of its
    # argument (1); the resolvent's output is screened as it returns (1).
    # The catalog row forms and the residual norm screen nothing again
    p2 = problems.get("p2_lasso")
    got = per_step(screens, lambda n: crifba.run(
        p2.A, p2.B, crifba.default_params(p2.L_map()), start(p2, 2),
        max_iter=n, tol=0.0))
    assert got == {"as_vector": 0, "rows": 2}
    # p3's A is zero_op, whose resolvent returns its screened argument:
    # that block is not screened again on the way out
    p3 = problems.get("p3_spectrum")
    got = per_step(screens, lambda n: crifba.run(
        p3.A, p3.B, crifba.default_params(p3.L_map()), start(p3, 2),
        max_iter=n, tol=0.0))
    assert got == {"as_vector": 0, "rows": 1}
    # one row call of B, whose rows feed both block arguments, and of each
    # of the two block resolvents, which screen their output; only the first
    # screens its argument, which is non-finite in every row where the
    # second's is (gcrifba._resolvents, test_gcrifba_screens_one_block_argument)
    p4 = problems.get("p4_three")
    got = per_step(screens, lambda n: gcrifba.run_gcrifba(
        p4.A_list, p4.B, gcrifba.default_gcrifba_params(p4.beta), start(p4, 2),
        max_iter=n, tol=0.0))
    assert got == {"as_vector": 0, "rows": 3}


def stacked_saddle_run():
    """The stacked p5_saddle operators (A, B) and a run of crifba on them in
    the block metric, run(n, A, B), which takes max_iter=n and tol=0."""
    pair = problems.get("p5_saddle").saddle
    A, B = cripda.stacked_operators(pair)
    params = crifba.CrifbaParams(lam=1.0, w=0.5, M=cripda.build_metric(pair, 0.2, 0.2),
                                 L=B.certificate_L)
    x0 = 0.5 * np.random.default_rng(3).standard_normal(4)
    return A, B, lambda n: crifba.run(A, B, params, x0, max_iter=n, tol=0.0)


def test_the_stacked_run_screens_B_in_the_resolvent_argument(screens):
    # in the block metric forward_backward_map's row callable screens the
    # generalized resolvent's argument M u - B(u) (1), which checks B's
    # rows, and its output (1)
    _, _, run = stacked_saddle_run()
    got = per_step(screens, run)
    assert got == {"as_vector": 0, "rows": 2}


def test_a_nan_B_row_on_the_stacked_run_fails_in_the_argument_screen():
    # from B's fifth call on, one entry of its last row is NaN: the
    # argument M u - B(u) is NaN in that row, and its screen, written out in
    # forward_backward_map's row callable, raises there the ValueError that
    # a screen of B's rows raised, in the same row call, before the stack's
    # generalized resolvent is called; the retry on x_n alone meets the same
    # NaN and raises again
    A, B, run = stacked_saddle_run()
    apply_rows, gen_rows = B._apply_rows, A._gen_resolvent_rows
    events = []

    def B_rows(U):
        events.append("B")
        out = apply_rows(U)
        if events.count("B") >= 5:
            out[-1, 0] = np.nan
        return out

    def gen(M, lam, R):
        events.append("gen")
        return gen_rows(M, lam, R)

    B._apply_rows, A._gen_resolvent_rows = B_rows, gen
    with pytest.raises(ValueError, match="^vector has non-finite entries$") as info:
        run(10)
    assert traceback.extract_tb(info.tb)[-1].name == "fb_rows"
    assert events == ["B", "gen"] * 4 + ["B", "B"]


def recorded_blocks(monkeypatch, p, events, nan_B_row=False):
    """p box blocks and p4_three's B, each row call of which appends its
    name ("B", "A0", "A1", ...) to events, as does each screen ("screen")
    of a block argument or output; with nan_B_row, B's last row is NaN."""
    A_list = [box_op(-np.inf, 2.0), box_op(1.0, np.inf), box_op(-5.0, 5.0)][:p]
    B = problems.get("p4_three").B
    apply_rows = B._apply_rows

    def B_rows(U):
        events.append("B")
        out = apply_rows(U)
        if nan_B_row:
            out[-1, 0] = np.nan
        return out

    B._apply_rows = B_rows
    for j, A in enumerate(A_list):
        A._resolvent_rows = lambda lam, X, J=A._resolvent_rows, j=j: (
            events.append("A%d" % j), J(lam, X))[1]
    screen = operators.as_rows
    monkeypatch.setattr(operators, "as_rows",
                        lambda X: (events.append("screen"), screen(X))[1])
    return A_list, B


# a NaN in the last block of row 1 of Z; a NaN in B's last row; Z's row 1
# at the largest float, whose weighted mean overflows under weights that
# _block_weights accepts, summing to 1 + 8e-13
SCREEN_CASES = ["finite", "nan_later_block", "nan_B_row", "inf_U_row"]


@pytest.mark.parametrize("case", SCREEN_CASES)
@pytest.mark.parametrize("p", [2, 3])
def test_gcrifba_screens_one_block_argument(monkeypatch, p, case):
    # the block arguments of a row share 2 U_i - lam B(U_i): a non-finite
    # entry of Z, U or B's rows makes all of them non-finite, so only A_1's
    # is screened, and its screen raises before any A_j is called; every
    # block output is screened
    events = []
    A_list, B = recorded_blocks(monkeypatch, p, events, nan_B_row=case == "nan_B_row")
    Z = np.random.default_rng(p).standard_normal((2, p, 1))
    weights = np.full(p, 1.0 / p)
    if case == "nan_later_block":
        Z[1, p - 1, 0] = np.nan
    if case == "inf_U_row":
        weights = gcrifba._block_weights(weights * (1.0 + 8e-13), p)
        Z[1] = np.finfo(float).max
        with np.errstate(over="ignore"):
            assert np.isinf(weights @ Z[1]).all() and np.isfinite(Z).all()
    lam = 0.5
    call = lambda: gcrifba._resolvents(Z, A_list, B, np.array(lam), weights,
                                       (lam / weights).tolist())
    if case == "finite":
        RU = call()
        assert events == ["B", "screen"] + sum([["A%d" % j, "screen"]
                                                for j in range(p)], [])
        assert RU.shape == Z.shape and np.isfinite(RU).all()
        return
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="^vector has non-finite entries$"):
            call()
    assert events == ["B", "screen"]


# every resolvent call is a row call, which screens its argument and its
# output (2); B's rows on the loop's rows are checked by the argument
# screen of the resolvent they feed. fbf's second B call, on the screened
# resolvent output, screens only B's rows (1). The inertial kinds take the
# rows of x_n and the extrapolated point in one call of each operator.
# ppa's one resolvent call and dr's first, of B's resolvent, take x_n as it
# is and screen only their output (1); dr's second screens its argument
# 2 jb - x_n, which can overflow, and its output (2)
BASELINE_SCREENS = {"fba": 2, "fbf": 3, "moudafi_oliny": 2, "lorenz_pock": 2,
                    "attouch_cabot": 2, "chambolle_dossal": 2, "ppa": 1, "dr": 3}


@pytest.mark.parametrize("kind", sorted(BASELINE_SCREENS))
def test_baseline_screens_per_step(screens, kind):
    # tol = -1 never stops: p2's forward-backward kinds reach their fixed
    # point exactly within a few dozen steps. p2 has no resolvent of the
    # full sum or of B, so ppa and dr run on p1_clamp
    prob = problems.get("p1_clamp" if kind in ("ppa", "dr") else "p2_lasso")
    got = per_step(screens, lambda n: baselines.run_baseline(
        kind, prob, start(prob, 3), max_iter=n, tol=-1.0))
    assert got == {"as_vector": 0, "rows": BASELINE_SCREENS[kind]}


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
