"""The merged screen: the solver loops evaluate B on their own rows, which
they do not screen again, and leave B's rows to the argument screen of the
resolvent they feed (operators.forward_backward_map).

A B that returns +inf, -inf or NaN, or a finite row whose lam B(x)
overflows, in row 0 (x_n) or row 1 (the point z_n the step starts from) of
the two-row call, ends each run as the reference loop of _reference_solvers
ends it: the same exception class and message, from the call at the same
state n, with the resolvent not called on what B returned. A warm start
whose z_0 overflows raises as the reference loop does, and the public
one-row entry points refuse a NaN argument before B is called."""

import numpy as np
import pytest

import _reference_solvers as reference
from monosplit import baselines, crifba, gcrifba, problems
from monosplit.crifba import KMState
from monosplit.metriclin import SpdMap
from monosplit.operators import CocoerciveMap, MonotoneOp, box_op
from test_reference_baselines import TWO_OPERATOR
from test_reference_solvers import same_failure, start

# B(x) = 0.1 (x - C) is 10-cocoercive, so every default step below is 9:
# lam B(x) overflows for a finite B(x) = 1e308
C = np.array([1.0, -0.5])
BETA = 10.0
POISONS = {"inf": np.inf, "-inf": -np.inf, "nan": np.nan, "overflow": 1e308}
STEPS = 20


def logged_B(log, hit=None, value=None):
    """B on (k, 2) blocks, logging ("B", block, poisoned) per call: row r
    of the i-th call's block X (from 0) returns value where hit(i, r, X[r])
    holds."""
    def rows(X):
        out = 0.1 * (X - C)
        i = len(B_calls(log))
        bad = np.array([hit is not None and hit(i, r, x) for r, x in enumerate(X)],
                       dtype=bool)
        out[bad] = value
        log.append(("B", X.copy(), bool(bad.any())))
        return out

    return CocoerciveMap(rows, SpdMap(np.eye(2) / BETA), label="slow_pull", rows=True)


def logged_A(log, op):
    """op's resolvent row form, logging ("A", block) per call."""
    def rows(lam, X):
        log.append(("A", X.copy()))
        return op._resolvent_rows(lam, X)

    return MonotoneOp(rows, label=op.label, rows=True)


def logged_affine(log):
    """A(x) = Q x + b through its generalized resolvent, (M + lam Q)^{-1}
    (r - lam b) row by row, logging ("A", block) per call."""
    Q, b = np.diag([0.5, 1.0]), np.array([0.2, -0.1])

    def rows(M, lam, R):
        log.append(("A", R.copy()))
        return np.linalg.solve(M.matrix + lam * Q, (R - lam * b)[:, :, None])[:, :, 0]

    return MonotoneOp(None, label="affine", gen_resolvent=rows, rows=True)


def solve(case, log, hit=None, value=None, ref=False):
    """A run of case on the slow pull, its operators logging into log;
    crifba_metric is crifba in a metric other than the identity."""
    B = logged_B(log, hit, value)
    A = logged_A(log, box_op(0.0, np.inf))
    x0 = np.array([3.0, 2.0])
    kw = dict(max_iter=STEPS, tol=0.0)
    if case.startswith("crifba"):
        M = SpdMap([[2.0, 0.3], [0.3, 1.5]]) if case == "crifba_metric" else None
        A = logged_affine(log) if M is not None else A
        params = crifba.default_params(B.certificate_L, M=M)
        return (reference.run if ref else crifba.run)(A, B, params, x0, **kw)
    if case == "gcrifba":
        A_list = [logged_A(log, box_op(-np.inf, 2.0)), A]
        params = gcrifba.default_gcrifba_params(BETA)
        return (reference.run_gcrifba if ref else gcrifba.run_gcrifba)(
            A_list, B, params, x0, **kw)
    prob = problems.ProblemSpec(name="slow_pull", d=2, start=x0, A=A, B=B, beta=BETA)
    return (reference.run_baseline if ref else baselines.run_baseline)(
        case, prob, x0, **kw)


def B_calls(log):
    return [entry for entry in log if entry[0] == "B"]


def poisoned_call(log):
    """The index among B's calls of the first call that met its poison;
    asserts that nothing called the resolvent between it and B's next
    call."""
    events = [entry[0] for entry in log]
    hits = [i for i, entry in enumerate(log) if entry[0] == "B" and entry[2]]
    assert hits, "B never met the poisoned row"
    assert events[hits[0] + 1:hits[0] + 2] != ["A"]
    return events[:hits[0]].count("B")


# the metric path screens B(x), not lam B(x): an overflow there reaches the
# loop's dot, as at the parent (test_crifba_overflowing_iterate)
BAD_ROWS = [(case, value) for case in ["crifba", "crifba_metric", "gcrifba",
                                       "lorenz_pock", "fbf"]
            for value in POISONS if (case, value) != ("crifba_metric", "overflow")]


# from state 1 on: the cold start's z_0 is x_0
@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("row", [0, 1])
@pytest.mark.parametrize("case,value", BAD_ROWS)
def test_a_bad_B_row_fails_as_the_screen_of_B_did(case, value, row, k):
    # the two-row call of state k holds x_k (row 0) and z_k (row 1); fbf
    # takes B at x_k and at the resolvent output Y_k, one row each. The
    # reference loops call B one row at a time: at x_k for the residual,
    # then where the step takes it (fbf at x_k again and at Y_k)
    i = 2 * k + row if case == "fbf" else k
    j = 3 * k + 2 * row if case == "fbf" else 2 * k + row
    if case == "crifba_metric":
        # the reference loop's iterates differ from the package's in the
        # last bits here: B is poisoned by call and row
        hit_new = lambda c, r, x: (c, r) == (k, row)
        hit_ref = lambda c, r, x: c == j
    else:
        clean = []
        solve(case, clean)
        bad = B_calls(clean)[i][1][0 if case == "fbf" else row]
        hit_new = hit_ref = lambda c, r, x: np.array_equal(x, bad)
    new, ref = [], []
    err = same_failure(lambda: solve(case, new, hit_new, POISONS[value]),
                       lambda: solve(case, ref, hit_ref, POISONS[value], ref=True))
    assert poisoned_call(new) == i
    assert poisoned_call(ref) == j
    if case == "fbf" and row == 1 and value == "overflow":
        # Y_k - lam (B(Y_k) - B(x_k)) is infinite: the loop's dot names n
        assert type(err) is ArithmeticError
        assert str(err) == "non-finite iterate at n=%d" % k
    else:
        assert type(err) is ValueError
        assert str(err) == "vector has non-finite entries"


@pytest.mark.parametrize("name", TWO_OPERATOR)
def test_a_warm_start_whose_z0_overflows_raises_as_before(name):
    # z_0 = x_0 + theta_0 (x_0 - x_{-1}) + gamma_0 (z_{-1} - x_0): both
    # terms are finite and their sum overflows; B now takes the infinite
    # row, and the resolvent's screen of its argument raises the ValueError
    # that the screen of B's input raised
    prob = problems.get(name)
    params = crifba.default_params(prob.L_map(), nu0=100.0)
    x0 = start(prob, 24)
    kw = dict(max_iter=10, tol=0.0, x_prev=np.full(prob.d, -1.7e308),
              z_prev=np.full(prob.d, 1.7e308))
    with np.errstate(over="ignore"):
        assert not np.isfinite(crifba.extrapolate(
            params, KMState(0, kw["x_prev"], x0, kw["z_prev"]))).all()
    err = same_failure(lambda: crifba.run(prob.A, prob.B, params, x0, **kw),
                       lambda: reference.run(prob.A, prob.B, params, x0, **kw))
    assert type(err) is ValueError and str(err) == "vector has non-finite entries"


def entry_points(B, A):
    """The public one-row entry points that take B, as thunks on a NaN
    argument."""
    nan = np.array([np.nan, 1.0])
    block = SpdMap([[2.0, 0.3], [0.3, 1.5]])
    x = np.array([1.0, 2.0])
    return {
        "forward_backward": lambda: crifba.forward_backward(A, B, None, 0.5, nan),
        "forward_backward_metric": lambda: crifba.forward_backward(A, B, block, 0.5, nan),
        "residual_G": lambda: crifba.residual_G(A, B, None, 0.5, nan),
        "crifba_step": lambda: crifba.crifba_step(
            KMState(3, x, nan, x), crifba.default_params(B.certificate_L), A, B),
    }


@pytest.mark.parametrize("entry", list(entry_points(None, None)))
def test_public_entry_points_refuse_nan_before_B(entry):
    log = []
    A = logged_A(log, MonotoneOp(lambda lam, X: X, label="identity_map", rows=True,
                                 affine=(None, None)))
    with pytest.raises(ValueError) as err:
        entry_points(logged_B(log), A)[entry]()
    assert type(err.value) is ValueError
    assert str(err.value) == "vector has non-finite entries"
    assert log == []
