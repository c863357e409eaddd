import copy
from functools import lru_cache

import numpy as np
import pytest

import _reference_checks as reference
from monosplit import cripda, problems
from monosplit.checks import BLOCK_ROWS, check_g_cocoercivity, standard_suite
from monosplit.crifba import CrifbaParams, default_params, run
from monosplit.metriclin import SpdMap
from monosplit.operators import CocoerciveMap, MonotoneOp, affine_op


@pytest.fixture(scope="module")
def clamp_run():
    prob = problems.get("p1_clamp")
    res = run(prob.A, prob.B, default_params(prob.L_map()), prob.start,
              max_iter=500, tol=0.0)
    return prob, res


@pytest.fixture(scope="module")
def lasso_run():
    prob = problems.get("p2_lasso")
    res = run(prob.A, prob.B, default_params(prob.L_map()), prob.start,
              max_iter=500, tol=0.0)
    return prob, res


def by_name(res, A, B, q=None):
    """The standard_suite reports of a run, by oracle name."""
    return {r.name: r for r in standard_suite(res, A, B, q=q)}


def test_step_identities_pass(clamp_run):
    prob, res = clamp_run
    rep = by_name(res, prob.A, prob.B)["step_identities"]
    assert rep.passed
    assert rep.n_checked == 2 * res.n_iters
    assert rep.worst_violation <= 1e-12


def test_step_identities_catch_corruption(clamp_run):
    prob, res = clamp_run
    import copy
    bad = copy.deepcopy(res)
    bad.X[100] += 0.05
    rep = by_name(bad, prob.A, prob.B)["step_identities"]
    assert not rep.passed


def test_energy_decrease_pass(lasso_run):
    prob, res = lasso_run
    rep = by_name(res, prob.A, prob.B, prob.certified_solution)["energy_decrease"]
    assert rep.passed
    assert rep.details["E_last"] <= rep.details["E_first"]


def test_residual_ratio_pass(lasso_run):
    prob, res = lasso_run
    assert by_name(res, prob.A, prob.B)["residual_ratio"].passed


def test_rilo_pass(lasso_run):
    prob, res = lasso_run
    rep = by_name(res, prob.A, prob.B, prob.certified_solution)["rilo"]
    assert rep.passed
    assert rep.details["selector"] == 1


def test_ystar_bound_pass(lasso_run):
    prob, res = lasso_run
    rep = by_name(res, prob.A, prob.B)["ystar_bound"]
    assert rep.passed
    assert rep.details["const"] > 0


def test_graph_inclusion_pass(clamp_run):
    prob, res = clamp_run
    rep = by_name(res, prob.A, prob.B)["graph_inclusion"]
    assert rep.passed
    assert rep.n_checked == res.n_iters


def test_graph_inclusion_skips_without_membership(clamp_run):
    prob, res = clamp_run
    import copy
    bare = copy.copy(prob.A)
    bare.graph_member = None
    rep = by_name(res, bare, prob.B)["graph_inclusion"]
    assert rep.status.startswith("skipped")
    assert rep.passed


def test_estimg2_pass(lasso_run):
    prob, res = lasso_run
    rep = by_name(res, prob.A, prob.B)["drift_telescoping"]
    assert rep.passed
    assert "drift_trend" in rep.details


def test_g_cocoercivity_identity_metric(lasso_run):
    prob, _ = lasso_run
    rng = np.random.default_rng(11)
    pairs = [(rng.standard_normal(5), rng.standard_normal(5))
             for _ in range(200)]
    lam = 0.9 * 4 * 0.25 * prob.beta
    rep = check_g_cocoercivity(prob.A, prob.B, SpdMap.identity(5), lam, pairs)
    assert rep.passed
    assert set(rep.details) >= {"base", "shift_identity", "shift_metric"}


@pytest.mark.parametrize("M", [SpdMap.identity(5),
                               SpdMap(np.diag([1.0, 1.5, 2.0, 2.5, 3.0]))],
                         ids=["identity", "diagonal"])
def test_g_cocoercivity_without_pairs_checks_nothing(M):
    # an empty sample is reported as an empty replay is: nothing checked,
    # nothing violated
    prob = problems.get("p2_lasso")
    rep = check_g_cocoercivity(prob.A, prob.B, M, 0.5, [])
    assert (rep.n_checked, rep.worst_violation, rep.passed) == (0, 0.0, True)
    variants = ("base", "shift_identity", "shift_metric")
    assert [rep.details[k] for k in variants] == [0.0, 0.0, 0.0]


def test_standard_suite_all_pass(lasso_run):
    prob, res = lasso_run
    reports = standard_suite(res, prob.A, prob.B, q=prob.certified_solution)
    assert len(reports) == 7
    executed = [r for r in reports if not r.status.startswith("skipped")]
    assert executed and all(r.passed for r in executed)


def test_report_serialization(clamp_run):
    prob, res = clamp_run
    rep = by_name(res, prob.A, prob.B)["step_identities"]
    d = rep.to_dict()
    assert d["name"] == "step_identities"
    assert isinstance(d["worst_violation"], float)
    assert d["passed"] is True


@pytest.mark.parametrize("row", [3, 200, BLOCK_ROWS + 3])
def test_rilo_tests_B_on_a_default_parameter_run(row):
    # default_params leaves delta unset; at its floor lam ||L|| / 4 the B
    # terms of rilo weigh alpha = 0, so the oracle is blind to B. It takes
    # the midpoint of the admissible delta instead, and a B that is off at
    # one replayed z row fails it
    prob = problems.get("p2_lasso")
    q = prob.certified_solution
    params = default_params(prob.L_map())
    assert params.delta is None
    res = run(prob.A, prob.B, params, prob.start, max_iter=BLOCK_ROWS + 10, tol=0.0)
    z = res.Z[row]

    def bent(X):
        X = np.asarray(X, dtype=float)
        return prob.B._apply_rows(X) + 10.0 * np.all(X == z, axis=-1)[..., None]

    B = CocoerciveMap(bent, prob.B.certificate_L, rows=True)
    clean = by_name(res, prob.A, prob.B, q)["rilo"]
    assert clean.passed
    lam, ww, Lnorm = params.lam, params.w * (1.0 - params.w), params.L.norm()
    assert clean.details["delta"] == 0.5 * (lam * Lnorm / 4.0 + ww)
    assert clean.details["alpha"] == pytest.approx(1.0 - 0.9 / 0.95, rel=1e-12)
    for rep in (reference.check_rilo(res, B, q), by_name(res, prob.A, B, q)["rilo"]):
        assert not rep.passed
        assert rep.details["delta"] == clean.details["delta"]


# --- the blocked replay against the per-row reference loops -------------

LONG = 3 * BLOCK_ROWS + 7          # crosses three block seams
EPS = np.finfo(float).eps


@lru_cache(maxsize=None)
def recorded(name, steps):
    """(A, B, q, run) for a catalog problem; p5_saddle is the stacked
    inclusion in its block metric."""
    prob = problems.get(name)
    if name == "p5_saddle":
        A, B = cripda.stacked_operators(prob.saddle)
        M = cripda.build_metric(prob.saddle, 0.2, 0.2)
        params = CrifbaParams(lam=1.0, w=0.5, M=M, L=B.certificate_L)
        q = np.concatenate(prob.certified_solution)
        x0 = np.concatenate((prob.start, np.full(prob.saddle.d_dual, 0.5)))
    else:
        A, B, q = prob.A, prob.B, prob.certified_solution
        # delta above its floor lam ||L|| / 4 (0.225 here) gives the B terms
        # of rilo the weight alpha = 1/16; at the floor alpha is 0
        params = default_params(prob.L_map(), delta=0.24)
        x0 = prob.start
    return A, B, q, run(A, B, params, x0, max_iter=steps, tol=0.0)


def assert_matches_reference(reports, expected, d, rel=False):
    """Equal verdicts and counts; worst violations within 64 d eps
    (relative to the worst violation when rel is set)."""
    bound = 64 * d * EPS
    assert [r.name for r in reports] == [r.name for r in expected]
    for got, want in zip(reports, expected):
        assert (got.n_checked, got.passed, got.status) == \
            (want.n_checked, want.passed, want.status), got.name
        assert set(got.details) == set(want.details), got.name
        if got.name == "graph_inclusion":
            assert got.worst_violation == want.worst_violation
        else:
            scale = max(1.0, abs(want.worst_violation)) if rel else 1.0
            assert abs(got.worst_violation - want.worst_violation) <= bound * scale, \
                (got.name, got.worst_violation, want.worst_violation)
        for key in ("alpha", "delta", "selector", "rho", "const"):
            if key in want.details:
                assert got.details[key] == want.details[key], (got.name, key)
        for key in ("E_first", "E_last"):
            if key in want.details:
                assert got.details[key] == pytest.approx(want.details[key],
                                                         rel=bound, abs=0.0)
        if "drift_trend" in want.details:
            for key, value in want.details["drift_trend"].items():
                assert got.details["drift_trend"][key] == pytest.approx(
                    value, rel=bound, abs=0.0), key


@pytest.mark.parametrize("steps", [0, 1, 2, LONG])
@pytest.mark.parametrize("name", ["p1_clamp", "p2_lasso", "p3_spectrum",
                                  "flat_interval", "p5_saddle"])
def test_standard_suite_matches_per_row_reference(name, steps):
    A, B, q, res = recorded(name, steps)
    assert_matches_reference(standard_suite(res, A, B, q=q),
                             reference.standard_suite(res, A, B, q=q),
                             res.X.shape[1])


@pytest.mark.parametrize("row", [BLOCK_ROWS, BLOCK_ROWS + 1])
def test_corruption_on_a_block_seam_is_caught(row):
    A, B, q, res = recorded("p2_lasso", LONG)
    bad = copy.deepcopy(res)
    bad.X[row] += 0.05
    bad.V[row] -= 0.05
    reports = standard_suite(bad, A, B, q=q)
    assert_matches_reference(reports, reference.standard_suite(bad, A, B, q=q),
                             res.X.shape[1], rel=True)
    failed = {r.name for r in reports if not r.passed}
    assert failed >= {"step_identities", "energy_decrease", "rilo"}


@pytest.mark.parametrize("field", ["X", "Z", "V"])
def test_non_finite_history_is_rejected(field):
    A, B, q, res = recorded("p2_lasso", LONG)
    bad = copy.deepcopy(res)
    getattr(bad, field)[2 * BLOCK_ROWS + 3, 1] = np.nan
    with pytest.raises(ValueError):
        standard_suite(bad, A, B, q=q)


@pytest.mark.parametrize("field, name", [("res2", "residual_ratio"),
                                         ("x_prev_init", "step_identities")])
def test_nan_outside_the_screen_fails_the_oracle(field, name):
    A, B, q, res = recorded("p2_lasso", LONG)
    bad = copy.deepcopy(res)
    # in the first block, so the NaN must survive the later blocks
    getattr(bad, field)[1] = np.nan
    rep = {r.name: r for r in standard_suite(bad, A, B, q=q)}[name]
    assert not rep.passed
    assert np.isnan(rep.worst_violation)


# --- one perturbed quantity of a default-parameter run fails each oracle ---
# (step_identities, energy_decrease and rilo: see
# test_corruption_on_a_block_seam_is_caught and
# test_rilo_tests_B_on_a_default_parameter_run)

def perturbed(recorded_run, field, delta, row=200):
    """The standard_suite reports, by name, of the run with delta added to
    row `row` of its recorded field."""
    prob, res = recorded_run
    bad = copy.deepcopy(res)
    getattr(bad, field)[row] += delta
    reports = standard_suite(bad, prob.A, prob.B, q=prob.certified_solution)
    return {r.name: r for r in reports}


def assert_caught(rep):
    # a finite violation above the tolerance, unlike a NaN's
    assert not rep.passed and rep.worst_violation > rep.tol


def test_drift_telescoping_catches_a_perturbed_correction(lasso_run):
    # v_{n+1} enters the drift v_{n+1} + xdot_{n+1} at one row only
    assert_caught(perturbed(lasso_run, "V", 0.01)["drift_telescoping"])


def test_residual_ratio_catches_a_finite_perturbed_residual(lasso_run):
    assert_caught(perturbed(lasso_run, "res2", 1.0)["residual_ratio"])


def test_ystar_bound_catches_a_perturbed_extrapolated_point(lasso_run):
    # B(z_n) enters y*_{n+1}, and v_{n+1} stays as recorded
    assert_caught(perturbed(lasso_run, "Z", 0.01)["ystar_bound"])


def test_graph_inclusion_catches_a_perturbed_correction(clamp_run):
    # y_{n+1} and y*_{n+1} both move with v_{n+1}, off the normal cone's graph
    assert_caught(perturbed(clamp_run, "V", 0.01)["graph_inclusion"])


# --- row forms against per-vector forms -------------------------------------

def counted(fn, calls, key):
    def wrapper(*args):
        calls[key] = calls.get(key, 0) + 1
        return fn(*args)
    return wrapper


def with_counts(A, B, calls, row_forms):
    """A and B, counted: with row_forms their row forms, otherwise their
    one-row calls given as per-vector forms, which the operators call once
    per row."""
    if row_forms:
        return (MonotoneOp(counted(A._resolvent_rows, calls, "resolvent"),
                           counted(A._member_rows, calls, "member"),
                           label=A.label, rows=True),
                CocoerciveMap(counted(B._apply_rows, calls, "B"), B.certificate_L,
                              label=B.label, rows=True))
    return (MonotoneOp(counted(A.resolvent, calls, "resolvent"),
                       graph_member=counted(A.graph_member, calls, "member"),
                       label=A.label),
            CocoerciveMap(counted(B, calls, "B"), B.certificate_L, label=B.label))


@pytest.mark.parametrize("name", ["p1_clamp", "p2_lasso", "p3_spectrum",
                                  "flat_interval"])
def test_user_operators_without_row_forms_report_the_same(name):
    A, B, q, res = recorded(name, LONG)
    rows_calls, scalar_calls = {}, {}
    with_rows = standard_suite(res, *with_counts(A, B, rows_calls, True), q=q)
    fallback = standard_suite(res, *with_counts(A, B, scalar_calls, False), q=q)
    # one row call of each map per block, B twice (at the z and the y
    # rows), and B(q) of rilo as a call on one row
    blocks = -(-LONG // BLOCK_ROWS)
    assert rows_calls == {"B": 2 * blocks + 1, "resolvent": blocks, "member": blocks}
    assert scalar_calls == {"B": 2 * LONG + 1, "resolvent": LONG, "member": LONG}
    if name == "p2_lasso":      # a matrix form: within 64 d eps
        assert_matches_reference(with_rows, fallback, res.X.shape[1])
    else:                       # elementwise forms: the same bits
        assert [r.to_dict() for r in with_rows] == [r.to_dict() for r in fallback]
        assert [r.worst_violation.hex() for r in with_rows] == \
            [r.worst_violation.hex() for r in fallback]


def g_cocoercivity_cases():
    rng = np.random.default_rng(0x5EED)
    lasso = problems.get("p2_lasso")
    pairs5 = [(rng.standard_normal(5), rng.standard_normal(5)) for _ in range(300)]
    # pairs on the l1 kinks and with a shared point
    pairs5 += [(np.zeros(5), np.full(5, 0.5)), (np.ones(5), np.ones(5))]
    lam = 0.9 * 4 * 0.25 * lasso.beta
    yield "lasso_identity", (lasso.A, lasso.B, SpdMap.identity(5), lam, pairs5), 5
    raw = rng.standard_normal((3, 3))
    A = affine_op(raw @ raw.T, rng.standard_normal(3))
    U = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    S = U @ np.diag(rng.uniform(0.05, 1.0, 3)) @ U.T
    B = CocoerciveMap(lambda x: S @ x, SpdMap(np.eye(3)))
    pairs3 = [(2 * rng.standard_normal(3), 2 * rng.standard_normal(3))
              for _ in range(300)]
    for delta in (None, 0.05):
        yield ("affine_metric_delta=%s" % delta,
               (A, B, SpdMap(np.diag([1.0, 1.5, 2.0])), 0.2, pairs3, delta), 3)


@pytest.mark.parametrize("case, args, d", list(g_cocoercivity_cases()),
                         ids=[c[0] for c in g_cocoercivity_cases()])
def test_g_cocoercivity_matches_per_pair_reference(case, args, d):
    got = check_g_cocoercivity(*args)
    want = reference.check_g_cocoercivity(*args)
    bound = 64 * d * EPS
    assert (got.name, got.n_checked, got.passed, got.status) == \
        (want.name, want.n_checked, want.passed, want.status)
    assert abs(got.worst_violation - want.worst_violation) <= bound
    assert set(got.details) == set(want.details)
    assert got.details["delta"] == want.details["delta"]
    for key in ("base", "shift_identity", "shift_metric"):
        assert abs(got.details[key] - want.details[key]) <= bound, key
