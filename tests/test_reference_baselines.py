"""run_baseline against the reference loop in _reference_solvers: every
returned array bit for bit at stride 1, the same exception on the failure
paths, and a stop that does not depend on the trace stride."""

import numpy as np
import pytest

import _reference_solvers as reference
from monosplit import baselines, problems
from monosplit.metriclin import SpdMap, as_vector
from monosplit.operators import CocoerciveMap, MonotoneOp, zero_op
from test_reference_solvers import assert_same, nan_on_call, same_outcome, start

TWO_OPERATOR = ["p1_clamp", "p2_lasso", "p3_spectrum", "flat_interval"]


def kinds_on(prob):
    """The baseline kinds that run on prob: ppa needs the resolvent of the
    sum, dr a resolvent form of B, chambolle_dossal the smooth/prox split."""
    return [kind for kind in baselines._KINDS
            if (kind != "ppa" or "sum_op" in prob.extras)
            and (kind != "dr" or prob.B_resolvent is not None)
            and (kind != "chambolle_dossal" or "f_grad" in prob.extras)]


CASES = [(kind, name) for name in TWO_OPERATOR
         for kind in kinds_on(problems.get(name))]


def both(kind, prob, x0, **kw):
    """The new and the reference run of one config, as two thunks."""
    return (lambda: baselines.run_baseline(kind, prob, x0, **kw),
            lambda: reference.run_baseline(kind, prob, x0, **kw))


@pytest.mark.parametrize("steps", [0, 1, 200])
@pytest.mark.parametrize("kind,name", CASES)
def test_baseline_fixed_steps(kind, name, steps):
    # steps = 0 is the harness's feasibility probe
    prob = problems.get(name)
    new, ref = both(kind, prob, start(prob, 11), max_iter=steps, tol=0.0)
    res = assert_same(new(), ref())
    assert res.n_iters <= steps


@pytest.mark.parametrize("kind,name", CASES)
def test_baseline_to_tolerance(kind, name):
    # p3_spectrum's flat mode keeps most kinds from 1e-9 within the cap:
    # those runs compare on max_iter
    prob = problems.get(name)
    new, ref = both(kind, prob, start(prob, 12), max_iter=3000, tol=1e-9)
    res = assert_same(new(), ref())
    assert res.stopped == "tol" or name == "p3_spectrum"


def test_baseline_infeasible_step_is_refused_alike():
    prob = problems.get("p1_clamp")
    for kind, lam in (("fba", 2.5), ("fbf", 1.5), ("chambolle_dossal", 1.5)):
        new, ref = both(kind, prob, prob.start, lam=lam, max_iter=0)
        err = same_outcome(new, ref)
        assert type(err) is ValueError


def _with_nan(name, which, k):
    """A fresh catalog problem whose B, A, sum resolvent or B resolvent
    (which) returns NaN on its k-th call."""
    prob = problems.get(name)
    if which == "B":
        prob.B = CocoerciveMap(nan_on_call(prob.B, k), prob.B.certificate_L)
    elif which == "A":
        prob.A = MonotoneOp(nan_on_call(prob.A.resolvent, k))
    elif which == "sum_op":
        prob.extras["sum_op"] = MonotoneOp(
            nan_on_call(prob.extras["sum_op"].resolvent, k))
    else:
        prob.B_resolvent = MonotoneOp(nan_on_call(prob.B_resolvent.resolvent, k))
    return prob


@pytest.mark.parametrize("k", [0, 1, 7, 8])
@pytest.mark.parametrize("name", ["p1_clamp", "p2_lasso"])
def test_baseline_nan_from_B_or_resolvent(name, k):
    # the new loop makes fewer calls per step, so the NaN may land a step
    # later; the run still ends with the same exception class and message
    raised = 0
    for kind in kinds_on(problems.get(name)):
        for which in ("B", "A", "sum_op", "B_resolvent"):
            if (which == "sum_op") != (kind == "ppa") or \
                    (which == "B_resolvent" and kind != "dr"):
                continue

            def go(solve, kind=kind, which=which):
                prob = _with_nan(name, which, k)
                return solve(kind, prob, start(prob, 13), max_iter=50, tol=0.0)

            got = same_outcome(lambda: go(baselines.run_baseline),
                               lambda: go(reference.run_baseline))
            if isinstance(got, Exception):
                assert type(got) is ValueError
                raised += 1
    assert raised >= len(kinds_on(problems.get(name)))


def _with_columns(name):
    """A fresh catalog problem whose resolvents and prox return (d, 1)
    columns: each is flattened as it returns."""
    prob = problems.get(name)

    def column(J):
        return lambda lam, x: np.reshape(J(lam, x), (-1, 1))

    prob.A = MonotoneOp(column(prob.A.resolvent))
    if "sum_op" in prob.extras:
        prob.extras["sum_op"] = MonotoneOp(column(prob.extras["sum_op"].resolvent))
    if prob.B_resolvent is not None:
        prob.B_resolvent = MonotoneOp(column(prob.B_resolvent.resolvent))
    if "g_prox" in prob.extras:
        prob.extras["g_prox"] = column(prob.extras["g_prox"])
    return prob


@pytest.mark.parametrize("kind,name", [c for c in CASES
                                       if c[1] in ("p1_clamp", "p2_lasso")])
def test_baseline_column_resolvent(kind, name):
    prob = _with_columns(name)
    new, ref = both(kind, prob, start(prob, 15), max_iter=50, tol=0.0)
    res = assert_same(new(), ref())
    assert res.x.shape == (prob.d,)
    plain = baselines.run_baseline(kind, problems.get(name), start(prob, 15),
                                   max_iter=50, tol=0.0)
    assert_same(res, plain)


def expansive_problem():
    """B(x) = -x with the zero operator, and the sum and B resolvents and
    the smooth/prox split to match: every kind's iterates grow
    geometrically until they pass the divergence bound."""
    B = CocoerciveMap(lambda x: -x, SpdMap(np.eye(1)), label="expansive")
    double = MonotoneOp(lambda lam, u: 2.0 * as_vector(u), label="double")
    return problems.ProblemSpec(
        name="expansive", d=1, start=np.array([1.0]), A=zero_op(), B=B,
        beta=1.0, B_resolvent=double,
        extras={"sum_op": double, "f_grad": lambda x: -as_vector(x),
                "g_prox": lambda lam, x: as_vector(x)})


@pytest.mark.parametrize("kind", baselines._KINDS)
def test_baseline_divergence(kind):
    prob = expansive_problem()
    new, ref = both(kind, prob, prob.start, max_iter=3000)
    res = assert_same(new(), ref())
    assert res.stopped == "diverged"
    # at any stride the row of the step that diverged is stored last
    strided = baselines.run_baseline(kind, prob, prob.start, max_iter=3000,
                                     stride=7)
    assert (strided.n_iters, strided.stopped) == (res.n_iters, "diverged")
    assert strided.ns[-1] == res.n_iters
    assert strided.res2[-1] == res.res2[-1]


@pytest.mark.parametrize("kind,name", [c for c in CASES if c[1] != "p3_spectrum"])
def test_stop_does_not_depend_on_stride(kind, name):
    # every step tests the residual; a strided run keeps every stride-th
    # row of the stride-1 run and the row where it stopped
    prob = problems.get(name)
    x0 = start(prob, 14)
    full = baselines.run_baseline(kind, prob, x0, max_iter=10**5, tol=1e-8)
    assert full.stopped == "tol"
    n = full.n_iters
    assert list(full.ns) == list(range(n + 1))
    for stride in (2, 5, 7):
        res = baselines.run_baseline(kind, prob, x0, max_iter=10**5, tol=1e-8,
                                     stride=stride)
        assert (res.n_iters, res.stopped) == (n, "tol")
        assert np.array_equal(res.x, full.x)
        rows = sorted(set(range(0, n + 1, stride)) | {n})
        assert list(res.ns) == rows
        assert np.array_equal(res.res2, full.res2[rows])
        assert np.array_equal(res.vel2, full.vel2[rows])
