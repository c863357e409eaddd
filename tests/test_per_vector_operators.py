"""Operators built from per-vector callables only: each callable is made a
row form once, at construction, that calls it once per row. Runs of every
solver on such operators equal runs on their row-form twins bit for bit,
and a call counter sees one per-vector call for every row the twin takes.

The twins share their maps: the per-vector callables are the one-row calls
of the catalog's row forms, so the two differ only in how a block reaches
the map."""

import numpy as np
import pytest

from monosplit import baselines, checks, crifba, cripda, gcrifba, problems
from monosplit.metriclin import SpdMap
from monosplit.operators import CocoerciveMap, MonotoneOp, SaddleFunctionPair
from test_reference_solvers import assert_same, start

PAIR_MAPS = ("prox_G", "prox_Fstar", "grad_Q", "grad_Pstar")


def one_row(form):
    """The per-vector call of a row form: form on its last argument as a
    one-row block."""
    return lambda *args: form(*args[:-1], args[-1][None])[0]


def counting_rows(calls, key, form):
    """A row form that adds the height of each block it takes to calls[key];
    None stays None."""
    if form is None:
        return None

    def counted(*args):
        X = args[-1] if key != "member" else args[0]
        calls[key] = calls.get(key, 0) + len(X)
        return form(*args)
    return counted


def counting_calls(calls, key, fn):
    """A per-vector callable that adds one to calls[key] per call; None
    stays None."""
    if fn is None:
        return None

    def counted(*args):
        calls[key] = calls.get(key, 0) + 1
        return fn(*args)
    return counted


def twin_op(op, calls, rows):
    """op rebuilt, counted: from its stored row forms (rows) or from per-vector
    callables only, the one-row calls of those forms."""
    if op is None:
        return None
    if rows:
        return MonotoneOp(counting_rows(calls, "resolvent", op._resolvent_rows),
                          counting_rows(calls, "member", op._member_rows),
                          label=op.label, affine=op.affine, rows=True)
    return MonotoneOp(counting_calls(calls, "resolvent", op.resolvent),
                      graph_member=counting_calls(calls, "member", op.graph_member),
                      label=op.label, affine=op.affine)


def twin_map(B, calls, rows):
    if rows:
        return CocoerciveMap(counting_rows(calls, "B", B._apply_rows),
                             B.certificate_L, label=B.label, rows=True)
    return CocoerciveMap(counting_calls(calls, "B", B), B.certificate_L,
                         label=B.label)


def twin_pair(pair, calls, rows):
    counted = counting_rows if rows else counting_calls
    maps = {name: counted(calls, name, getattr(pair, name) if rows
                          else one_row(getattr(pair, name)))
            for name in PAIR_MAPS}
    return SaddleFunctionPair(lip_Q=pair.lip_Q, lip_Pstar=pair.lip_Pstar,
                              K=pair.K, label=pair.label, rows=rows, **maps)


def twin(name, calls, rows):
    """The named catalog problem with every operator rebuilt as twin_op,
    twin_map and twin_pair rebuild it."""
    prob = problems.get(name)
    prob.A = twin_op(prob.A, calls, rows)
    prob.B = None if prob.B is None else twin_map(prob.B, calls, rows)
    prob.B_resolvent = twin_op(prob.B_resolvent, calls, rows)
    if prob.A_list is not None:
        prob.A_list = [twin_op(op, calls, rows) for op in prob.A_list]
    if "sum_op" in prob.extras:
        prob.extras["sum_op"] = twin_op(prob.extras["sum_op"], calls, rows)
    if prob.saddle is not None:
        prob.saddle = twin_pair(prob.saddle, calls, rows)
    return prob


def both(name, solve):
    """solve on the per-vector twin and on the row-form twin; both results
    and the per-vector calls, which must count the rows the row forms
    took."""
    per_vector, by_rows = {}, {}
    got = solve(twin(name, per_vector, False))
    want = solve(twin(name, by_rows, True))
    assert per_vector == by_rows and per_vector
    return got, want


def same_reports(got, want):
    assert [r.to_dict() for r in got] == [r.to_dict() for r in want]


@pytest.mark.parametrize("tol", [0.0, 1e-8])
@pytest.mark.parametrize("name", ["p1_clamp", "p2_lasso", "p3_spectrum",
                                  "flat_interval"])
def test_crifba_and_its_replay(name, tol):
    def solve(prob):
        params = crifba.default_params(prob.L_map())
        res = crifba.run(prob.A, prob.B, params, start(prob, 21), max_iter=300, tol=tol)
        reports = checks.standard_suite(res, prob.A, prob.B, q=prob.certified_solution)
        return res, reports

    (res, reports), (twin_res, twin_reports) = both(name, solve)
    assert_same(res, twin_res)
    same_reports(reports, twin_reports)


@pytest.mark.parametrize("name", ["p4_three", "p6_res_sum"])
def test_gcrifba(name):
    def solve(prob):
        params = gcrifba.default_gcrifba_params(prob.beta)
        return gcrifba.run_gcrifba(prob.A_list, prob.B, params, start(prob, 22),
                                   max_iter=300, tol=1e-9)

    assert_same(*both(name, solve))


@pytest.mark.parametrize("name", ["p5_saddle", "p5_lasso_pd"])
def test_cripda(name):
    # p5_lasso_pd's gradients are constant, taken once per run
    def solve(prob):
        step = 0.2 if name == "p5_saddle" else 0.1
        params = cripda.CripdaParams(tau=step, sigma=step)
        return cripda.run_cripda(prob.saddle, params, start(prob, 23),
                                 np.zeros(prob.saddle.d_dual), max_iter=300, tol=1e-9)

    got, want = both(name, solve)
    assert_same(got, want)
    assert_same(got.core, want.core)


CASES = [(kind, name) for name in ("p1_clamp", "p2_lasso", "p3_spectrum",
                                   "flat_interval")
         for kind in baselines._KINDS
         if (kind != "ppa" or name == "p1_clamp") and (kind != "dr" or name == "p1_clamp")]


@pytest.mark.parametrize("kind,name", CASES)
def test_baselines(kind, name):
    def solve(prob):
        return baselines.run_baseline(kind, prob, start(prob, 24), max_iter=300,
                                      tol=1e-9, stride=3)

    assert_same(*both(name, solve))


def test_each_callable_is_called_once_per_row():
    calls = []

    def apply(x):
        calls.append("B")
        return 2.0 * x

    def resolvent(lam, x):
        calls.append("J")
        return np.asarray(x) / (1.0 + lam)

    def member(x, u, tol):
        calls.append("G")
        return bool(np.all(np.abs(u - x) <= tol))

    def gen_resolvent(M, lam, r):
        calls.append("R")
        return r / (M.matrix[0, 0] + lam)

    def grad(x):
        calls.append("g")
        return x

    B = CocoerciveMap(apply, SpdMap(np.eye(3)))
    A = MonotoneOp(resolvent, graph_member=member, gen_resolvent=gen_resolvent)
    pair = SaddleFunctionPair(resolvent, resolvent, grad, 1.0, grad, 1.0, np.eye(3))
    X = np.arange(15.0).reshape(5, 3)
    assert np.array_equal(B.apply_rows(X), 2.0 * X)
    assert np.array_equal(A.resolvent_rows(1.0, X), X / 2.0)
    assert np.array_equal(A.member_rows(X, X + [[0.0], [0.0], [1.0], [0.0], [0.5]],
                                        np.full(5, 0.5)),
                          [True, True, False, True, True])
    assert np.array_equal(A._gen_resolvent_rows(SpdMap.identity(3), 1.0, X), X / 2.0)
    assert np.array_equal(pair.prox_G(1.0, X), X / 2.0)
    assert np.array_equal(pair.grad_Q(X), X)
    assert calls == ["B"] * 5 + ["J"] * 5 + ["G"] * 5 + ["R"] * 5 + ["J"] * 5 + ["g"] * 5
    # a one-row call is one call; an empty block makes none
    calls.clear()
    assert np.array_equal(B(X[1]), 2.0 * X[1])
    assert np.array_equal(A.resolvent(1.0, X[1]), X[1] / 2.0)
    assert A.graph_member(X[1], X[1], 0.0)
    assert calls == ["B", "J", "G"]
    empty = np.empty((0, 3))
    assert B.apply_rows(empty).shape == (0, 3)
    assert A.resolvent_rows(1.0, empty).shape == (0, 3)
    assert A.member_rows(empty, empty, np.empty(0)).shape == (0,)
    assert pair.grad_Pstar(empty).shape == (0, 3)
    assert calls == ["B", "J", "G"]
