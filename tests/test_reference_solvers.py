"""The three solver loops against the reference loops in _reference_solvers:
every returned array bit for bit (within REL of its largest magnitude on
the stacked primal-dual path, see assert_close), the same step count and
stop reason, and the same exception on the failure paths; at w = 1/2 and
at w = 0.3, where 1 - w and the products with w round."""

import dataclasses

import numpy as np
import pytest

import _reference_solvers as reference
from monosplit import crifba, cripda, gcrifba, problems
from monosplit.metriclin import SpdMap, operator_norm
from monosplit.operators import (CocoerciveMap, MonotoneOp, SaddleFunctionPair,
                                 affine_op, box_op)

FIXED_STEPS = (0, 1, 200)
TO_TOL = 50000          # step cap of the runs to tolerance; none reaches it


def assert_same(new, ref):
    """Equal n_iters and stop reason, and every array field bit for bit."""
    assert type(new) is type(ref)
    assert (new.n_iters, new.stopped) == (ref.n_iters, ref.stopped)
    for name, value in vars(ref).items():
        got = getattr(new, name)
        if isinstance(value, np.ndarray):
            assert got.dtype == value.dtype, name
            assert np.array_equal(got, value, equal_nan=True), name
    return new


# The stacked primal-dual path (crifba on cripda.stacked_operators in the
# block metric, and cripda.run_cripda, which runs it) applies M to its
# forward point where the reference loops solve with M and apply M again,
# so its arrays agree with theirs only up to rounding: measured within
# 4.2e-15 of each array's largest magnitude over every bounded test.
REL = 1e-13


def saddle_columns(res, pair):
    """The columns of the reference run_cripda read through what a
    run_cripda result on pair keeps: ns and fpr2, the core run's res2, over
    the states tested, which leave out x_N unless the run stopped on tol;
    vel2, the trace's (crifba.diagnostics) over the N steps taken; and the
    selector of the core run's parameters."""
    N, tested = res.n_iters, res.n_iters + (res.stopped == "tol")
    trace = crifba.diagnostics(res.core, *cripda.stacked_operators(pair))
    return {"ns": np.arange(tested), "fpr2": res.core.res2[:tested],
            "vel2": trace["vel2"][:N],
            "selector": crifba.validate(res.core.params).selector}


def assert_close(new, ref, rel=REL, pair=None):
    """Equal n_iters and stop reason, and every array field of equal shape
    and dtype, its non-finite entries equal and its finite ones within rel
    of the largest finite magnitude in the reference's array. A run_cripda
    result on pair meets the reference's columns through saddle_columns:
    the reference's vel2 on the N steps taken, ns and selector equal."""
    assert (new.n_iters, new.stopped) == (ref.n_iters, ref.stopped)
    want, cols = vars(ref), {}
    if isinstance(ref, reference.CripdaResult):
        assert type(new) is cripda.CripdaResult
        want, cols = dict(want), saddle_columns(new, pair)
        assert cols.pop("selector") == want.pop("selector")
        assert np.array_equal(cols.pop("ns"), want.pop("ns"))
        want["vel2"] = want["vel2"][:new.n_iters]
    else:
        assert type(new) is type(ref)
    for name, value in want.items():
        got = cols[name] if name in cols else getattr(new, name)
        if isinstance(value, np.ndarray):
            assert (got.dtype, got.shape) == (value.dtype, value.shape), name
            finite = np.isfinite(value)
            assert np.array_equal(got[~finite], value[~finite], equal_nan=True), name
            scale = np.abs(value[finite]).max(initial=0.0)
            assert np.all(np.abs(got[finite] - value[finite]) <= rel * scale), name
    return new


def start(prob, seed):
    """A seeded perturbation of the catalog start."""
    x = np.asarray(prob.start, dtype=float)
    return x + 0.25 * np.random.default_rng(seed).standard_normal(x.shape)


# --- crifba -----------------------------------------------------------------

def core_case(name):
    """(A, B, params, x0, tol) of a core run; p5_saddle is the stacked
    inclusion in its block metric."""
    prob = problems.get(name)
    if name == "p5_saddle":
        A, B = cripda.stacked_operators(prob.saddle)
        M = cripda.build_metric(prob.saddle, 0.2, 0.2)
        params = crifba.CrifbaParams(lam=1.0, w=0.5, M=M, L=B.certificate_L)
        x0 = 0.5 * np.random.default_rng(3).standard_normal(4)
        return A, B, params, x0, 1e-6
    tol = 1e-3 if name == "p3_spectrum" else 1e-6
    return prob.A, prob.B, crifba.default_params(prob.L_map()), start(prob, 3), tol


CORE = ["p1_clamp", "p2_lasso", "p3_spectrum", "flat_interval", "p5_saddle"]
# off w = 1/2: another relaxation and schedule
OFF_HALF = dict(w=0.3, e=3.3, s0=2.2, s1=0.7)


def off_half(params):
    """params with the OFF_HALF relaxation and schedule; lam shrinks to
    stay inside 4 w (1 - w) beta, but not in the stacked run, whose lam is
    1 and whose metric is feasible at w = 0.3 too."""
    if params.M is None:
        return crifba.default_params(params.L, **OFF_HALF)
    return dataclasses.replace(params, **OFF_HALF)


def same_in(name):
    """The comparison of the core runs on problem name."""
    return assert_close if name == "p5_saddle" else assert_same


@pytest.mark.parametrize("w", ["half", "0.3"])
@pytest.mark.parametrize("steps", FIXED_STEPS)
@pytest.mark.parametrize("name", CORE)
def test_crifba_fixed_steps(name, steps, w):
    A, B, params, x0, _ = core_case(name)
    if w != "half":
        params = off_half(params)
    res = same_in(name)(crifba.run(A, B, params, x0, max_iter=steps, tol=0.0),
                        reference.run(A, B, params, x0, max_iter=steps, tol=0.0))
    assert res.n_iters == steps and res.stopped == "max_iter"


@pytest.mark.parametrize("w", ["half", "0.3"])
@pytest.mark.parametrize("name", CORE)
def test_crifba_to_tolerance(name, w):
    A, B, params, x0, tol = core_case(name)
    if w != "half":
        params = off_half(params)
    res = same_in(name)(crifba.run(A, B, params, x0, max_iter=TO_TOL, tol=tol),
                        reference.run(A, B, params, x0, max_iter=TO_TOL, tol=tol))
    assert res.stopped == "tol"


def test_crifba_warm_start_and_divergence():
    # a given x_{-1} and z_{-1}; an operator pair that pushes the iterates
    # past the divergence bound
    prob = problems.get("p2_lasso")
    params = crifba.default_params(prob.L_map())
    x0 = start(prob, 4)
    kw = dict(max_iter=100, tol=0.0, x_prev=x0 + 0.1, z_prev=x0 - 0.2)
    assert_same(crifba.run(prob.A, prob.B, params, x0, **kw),
                reference.run(prob.A, prob.B, params, x0, **kw))
    B = CocoerciveMap(lambda x: 0.0 * x, SpdMap(np.eye(1)), label="zero")
    push = MonotoneOp(lambda lam, x: 10.0 * np.asarray(x), label="push")
    p = crifba.CrifbaParams(lam=0.5, L=SpdMap(np.eye(1)))
    res = assert_same(crifba.run(push, B, p, [1.0], max_iter=100, tol=0.0),
                      reference.run(push, B, p, [1.0], max_iter=100, tol=0.0))
    assert res.stopped == "diverged"


# --- cripda -----------------------------------------------------------------

def saddle_case(name):
    prob = problems.get(name)
    if name == "p5_saddle":
        params = cripda.CripdaParams(tau=0.2, sigma=0.2)
    else:
        step = 0.7 / operator_norm(prob.saddle.K)
        params = cripda.CripdaParams(tau=step, sigma=step)
    y0 = 0.1 * np.random.default_rng(5).standard_normal(prob.saddle.d_dual)
    return prob.saddle, params, start(prob, 5), y0


SADDLE = ["p5_saddle", "p5_lasso_pd"]


@pytest.mark.parametrize("steps", FIXED_STEPS)
@pytest.mark.parametrize("name", SADDLE)
def test_cripda_fixed_steps(name, steps):
    pair, params, x0, y0 = saddle_case(name)
    res = assert_close(
        cripda.run_cripda(pair, params, x0, y0, max_iter=steps, tol=0.0),
        reference.run_cripda(pair, params, x0, y0, max_iter=steps, tol=0.0),
        pair=pair)
    assert res.n_iters == steps


@pytest.mark.parametrize("name", SADDLE)
def test_cripda_to_tolerance(name):
    pair, params, x0, y0 = saddle_case(name)
    res = assert_close(
        cripda.run_cripda(pair, params, x0, y0, max_iter=TO_TOL, tol=1e-6),
        reference.run_cripda(pair, params, x0, y0, max_iter=TO_TOL, tol=1e-6),
        pair=pair)
    assert res.stopped == "tol"


def constant_gradient_pair(calls):
    """min_x max_y c.x + <Kx, y> - |y|^2/2: grad_Q is the constant c
    (declared Lipschitz constant 0) and counts its calls."""
    c = np.array([0.3, -0.7])

    def grad_Q(x):
        calls.append(None)
        return c

    return SaddleFunctionPair(
        prox_G=lambda tau, u: np.asarray(u, dtype=float),
        prox_Fstar=lambda sigma, u: np.asarray(u, dtype=float) / (1.0 + sigma),
        grad_Q=grad_Q, lip_Q=0.0,
        grad_Pstar=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
        lip_Pstar=0.0, K=np.array([[1.0, 0.5], [-0.2, 1.0]]), label="linear_Q")


@pytest.mark.parametrize("steps,tol", [(200, 0.0), (TO_TOL, 1e-6)])
def test_cripda_constant_gradient_once_per_run(steps, tol):
    calls, ref_calls = [], []
    params = cripda.CripdaParams(tau=0.3, sigma=0.3)
    x0, y0 = np.array([1.0, -2.0]), np.array([0.5, 0.0])
    res = assert_close(
        cripda.run_cripda(constant_gradient_pair(calls), params, x0, y0,
                          max_iter=steps, tol=tol),
        reference.run_cripda(constant_gradient_pair(ref_calls), params, x0, y0,
                             max_iter=steps, tol=tol),
        pair=constant_gradient_pair([]))
    assert res.stopped == ("tol" if tol else "max_iter")
    assert len(calls) == 1
    assert len(ref_calls) == 2 * res.n_iters + (res.stopped == "tol")


def test_cripda_divergence():
    pair = SaddleFunctionPair(
        prox_G=lambda tau, u: 10.0 * np.asarray(u, dtype=float),
        prox_Fstar=lambda sigma, u: np.asarray(u, dtype=float),
        grad_Q=lambda x: 0.0 * x, lip_Q=1.0,
        grad_Pstar=lambda y: 0.0 * y, lip_Pstar=1.0,
        K=np.array([[0.1]]), label="push")
    params = cripda.CripdaParams(tau=0.2, sigma=0.2, delta=0.3)
    res = assert_close(
        cripda.run_cripda(pair, params, [1.0], [1.0], max_iter=100, tol=0.0),
        reference.run_cripda(pair, params, [1.0], [1.0], max_iter=100, tol=0.0),
        pair=pair)
    assert res.stopped == "diverged"


# --- gcrifba ----------------------------------------------------------------

PRODUCT = [("p4_three", None), ("p4_three", [0.3, 0.7]), ("p6_res_sum", None)]


def product_params(prob, w):
    if w == "half":
        return gcrifba.default_gcrifba_params(prob.beta)
    return gcrifba.default_gcrifba_params(prob.beta, **OFF_HALF)


@pytest.mark.parametrize("w", ["half", "0.3"])
@pytest.mark.parametrize("steps", FIXED_STEPS)
@pytest.mark.parametrize("name,weights", PRODUCT)
def test_gcrifba_fixed_steps(name, weights, steps, w):
    prob = problems.get(name)
    params = product_params(prob, w)
    kw = dict(max_iter=steps, tol=0.0, weights=weights)
    res = assert_same(
        gcrifba.run_gcrifba(prob.A_list, prob.B, params, start(prob, 6), **kw),
        reference.run_gcrifba(prob.A_list, prob.B, params, start(prob, 6), **kw))
    assert res.n_iters == steps


@pytest.mark.parametrize("w", ["half", "0.3"])
@pytest.mark.parametrize("name,weights", PRODUCT)
def test_gcrifba_to_tolerance(name, weights, w):
    prob = problems.get(name)
    params = product_params(prob, w)
    kw = dict(max_iter=TO_TOL, tol=1e-6, weights=weights)
    res = assert_same(
        gcrifba.run_gcrifba(prob.A_list, prob.B, params, start(prob, 6), **kw),
        reference.run_gcrifba(prob.A_list, prob.B, params, start(prob, 6), **kw))
    assert res.stopped == "tol"


# --- failure paths ----------------------------------------------------------

def nan_on_call(fn, k):
    """fn, except that its k-th call (from 0) returns NaN."""
    calls = []

    def wrapped(*args):
        calls.append(None)
        out = fn(*args)
        return np.full_like(np.asarray(out, dtype=float), np.nan) \
            if len(calls) == k + 1 else out

    return wrapped


def outcome(solve):
    """The result of solve(), or the exception it raised."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return solve()
        except Exception as err:
            return err


def same_outcome(new, ref, same=assert_same):
    """Both calls raise the same exception class with the same message, or
    both return the same result, compared by same (by default bit for bit,
    NaN where the other has NaN); returns the new outcome."""
    got, want = outcome(new), outcome(ref)
    if isinstance(want, Exception):
        assert type(got) is type(want)
        assert str(got) == str(want)
    else:
        assert not isinstance(got, Exception), got
        same(got, want)
    return got


def same_failure(new, ref):
    """Both calls raise; same exception class and message."""
    err = same_outcome(new, ref)
    assert isinstance(err, Exception)
    return err


def _lasso_with(B_apply=None, resolvent=None):
    prob = problems.get("p2_lasso")
    B = prob.B if B_apply is None else CocoerciveMap(
        nan_on_call(prob.B, B_apply), prob.B.certificate_L)
    A = prob.A if resolvent is None else MonotoneOp(
        nan_on_call(prob.A.resolvent, resolvent), label="l1")
    return A, B, crifba.default_params(prob.L_map()), start(prob, 7)


@pytest.mark.parametrize("k", [0, 1, 7, 8])
def test_crifba_nan_from_B_or_resolvent(k):
    for which in ("B_apply", "resolvent"):
        def go(solve, which=which):
            A, B, params, x0 = _lasso_with(**{which: k})
            return solve(A, B, params, x0, max_iter=50, tol=0.0)
        err = same_failure(lambda: go(crifba.run), lambda: go(reference.run))
        assert isinstance(err, ValueError)


def test_crifba_overflowing_iterate():
    # the residual at x_0 stays finite, but M z_0 overflows in the affine
    # metric resolvent, so x_1 is infinite
    A = affine_op(np.eye(1), [0.0])
    B = CocoerciveMap(lambda x: 0.0 * x, SpdMap(np.eye(1)), label="zero")
    params = crifba.CrifbaParams(lam=1.0, M=SpdMap([[2.0]]), L=SpdMap(np.eye(1)))
    kw = dict(max_iter=10, tol=0.0, x_prev=[0.0], z_prev=[1.7e308])
    err = same_failure(lambda: crifba.run(A, B, params, [6e307], **kw),
                       lambda: reference.run(A, B, params, [6e307], **kw))
    assert type(err) is ArithmeticError and str(err) == "non-finite iterate at n=0"


def _saddle_with(grad=None, prox=None):
    prob = problems.get("p5_saddle")
    pair = prob.saddle
    pair = SaddleFunctionPair(
        prox_G=pair.prox_G if prox is None else nan_on_call(pair.prox_G, prox),
        prox_Fstar=pair.prox_Fstar,
        grad_Q=pair.grad_Q if grad is None else nan_on_call(pair.grad_Q, grad),
        lip_Q=pair.lip_Q, grad_Pstar=pair.grad_Pstar, lip_Pstar=pair.lip_Pstar,
        K=pair.K)
    return pair, cripda.CripdaParams(tau=0.2, sigma=0.2), start(prob, 8), np.zeros(2)


@pytest.mark.parametrize("k", [0, 1, 7, 8])
def test_cripda_nan_from_gradient_or_prox(k):
    for which in ("grad", "prox"):
        def go(solve, which=which):
            pair, params, x0, y0 = _saddle_with(**{which: k})
            return solve(pair, params, x0, y0, max_iter=50, tol=0.0)
        err = same_failure(lambda: go(cripda.run_cripda),
                           lambda: go(reference.run_cripda))
        assert isinstance(err, ValueError)


def test_cripda_overflowing_start():
    pair, params, _, y0 = _saddle_with()
    same_failure(
        lambda: cripda.run_cripda(pair, params, [1.7e308, 0.0], y0, max_iter=10),
        lambda: reference.run_cripda(pair, params, [1.7e308, 0.0], y0, max_iter=10))


def _three_with(B_apply=None, resolvent=None):
    prob = problems.get("p4_three")
    B = prob.B if B_apply is None else CocoerciveMap(
        nan_on_call(prob.B, B_apply), prob.B.certificate_L)
    A_list = list(prob.A_list)
    if resolvent is not None:
        A_list[1] = MonotoneOp(nan_on_call(box_op(1.0, np.inf).resolvent, resolvent))
    return A_list, B, gcrifba.default_gcrifba_params(prob.beta), start(prob, 9)


@pytest.mark.parametrize("k", [0, 1, 7, 8])
def test_gcrifba_nan_from_B(k):
    def go(solve):
        A_list, B, params, x0 = _three_with(B_apply=k)
        return solve(A_list, B, params, x0, max_iter=50, tol=0.0)
    err = same_failure(lambda: go(gcrifba.run_gcrifba),
                       lambda: go(reference.run_gcrifba))
    assert isinstance(err, ValueError)


@pytest.mark.parametrize("k", [0, 1, 7, 8])
def test_gcrifba_nan_from_resolvent(k):
    # resolvent calls alternate between T(zeta_n) for the residual (even k)
    # and the step itself (odd k); the package's row call screens the
    # block resolvents of both, where the reference loop records a NaN
    # residual and runs on, or ends on the non-finite new blocks
    def go(solve):
        A_list, B, params, x0 = _three_with(resolvent=k)
        return solve(A_list, B, params, x0, max_iter=50, tol=0.0)
    with pytest.raises(ValueError) as err:
        go(gcrifba.run_gcrifba)
    assert type(err.value) is ValueError
    assert str(err.value) == "vector has non-finite entries"
    ref = outcome(lambda: go(reference.run_gcrifba))
    if k % 2:
        assert type(ref) is ArithmeticError
        assert str(ref) == "non-finite iterate at n=%d" % (k // 2)
    else:
        assert np.isnan(ref.res2[k // 2]) and ref.stopped == "max_iter"


def test_gcrifba_overflowing_start():
    A_list, B, params, _ = _three_with()
    same_failure(
        lambda: gcrifba.run_gcrifba(A_list, B, params, [1.7e308], max_iter=10),
        lambda: reference.run_gcrifba(A_list, B, params, [1.7e308], max_iter=10))


def test_gcrifba_overflowing_residual_raises():
    # the blocks and their resolvents are finite, but the squared residual
    # overflows: the residual screen ends the run at the state it tests
    A_list, B, params, _ = _three_with()
    with np.errstate(over="ignore"), pytest.raises(ArithmeticError) as err:
        gcrifba.run_gcrifba(A_list, B, params, [1e200], max_iter=10)
    assert type(err.value) is ArithmeticError
    assert str(err.value) == "non-finite residual at n=0"
