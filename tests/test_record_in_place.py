"""The run record, held once: crifba.iterate writes X, Z and res2 in place
into arrays of crifba.RECORD_ROWS rows that double, up to max_iter rows,
as a run goes, and crifba.RunResult forms V on its first read.

The loops are compared with the reference loops of _reference_solvers on
both sides of the growth seams at 1024 and 2048 rows, for fixed-N runs,
tolerance stops, divergence stops and non-finite iterates; V with its
eager formula; what a run holds with tracemalloc. The configuration
checks and the trace CSV writer, which now writes its rows a block at a
time, are here too, the writer against the one-shot writer it replaced,
kept below."""

import copy
import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

import _reference_solvers as reference
from monosplit import checks, cli, crifba, cripda, harness, problems
from monosplit.metriclin import operator_norm
from monosplit.operators import SaddleFunctionPair
from test_deferred_residual import CASES, norms, same
from test_lean_km_step import CASES as RELAXED, relax_at
from test_reference_solvers import assert_close, outcome, same_failure, start
from test_step_operands import watch_steps

ROWS = crifba.RECORD_ROWS
# the steps next to the seams where X, Z and res2 grow from 1024 to 2048
# rows and from 2048 to 4096
SEAMS = [16 * ROWS - 1, 16 * ROWS, 16 * ROWS + 1, 32 * ROWS - 1, 32 * ROWS, 32 * ROWS + 1]
LOOPS = ["crifba:p2_lasso", "gcrifba:p4_three", "cripda:p5_lasso_pd"]
# far above every run below: the records double without meeting the cap
UNCAPPED = 10**6


@pytest.mark.parametrize("steps", SEAMS)
@pytest.mark.parametrize("case", LOOPS)
def test_step_cap_across_a_growth_seam(case, steps):
    # the last doubling is cut to max_iter rows
    new, ref = CASES[case]()
    res = same(case)(new(max_iter=steps, tol=0.0), ref(max_iter=steps, tol=0.0))
    assert res.stopped == "max_iter" and res.n_iters == steps


@pytest.mark.parametrize("n", SEAMS)
@pytest.mark.parametrize("case", LOOPS)
def test_tolerance_stop_across_a_growth_seam(case, n):
    # as test_deferred_residual's stop next to a record block: tol lies
    # strictly between the residual at state n and every one before it
    new, ref = CASES[case]()
    r = norms(ref(max_iter=n + 1, tol=0.0))[:n + 1]
    assert r[n] < r[:n].min()
    tol = 0.5 * (r[n] + r[:n].min())
    res = same(case)(new(max_iter=UNCAPPED, tol=tol), ref(max_iter=UNCAPPED, tol=tol))
    assert res.stopped == "tol" and res.n_iters == n


@pytest.mark.parametrize("steps", SEAMS)
@pytest.mark.parametrize("case", list(RELAXED))
def test_divergence_across_a_growth_seam(monkeypatch, case, steps):
    # the step to x_steps is taken with w = 1e200: x_steps is finite, and
    # its squared norm overflows
    new, ref = RELAXED[case][0]()
    relax_at(monkeypatch, case, steps - 1, 1e200)
    got = outcome(lambda: new(max_iter=UNCAPPED, tol=0.0))
    if case == "gcrifba":
        # the reference product-space loop has no divergence stop
        want = outcome(lambda: ref(max_iter=steps, tol=0.0))
        want.stopped = "diverged"
    else:
        want = outcome(lambda: ref(max_iter=UNCAPPED, tol=0.0))
    RELAXED[case][3](got, want)
    assert got.stopped == "diverged" and got.n_iters == steps


@pytest.mark.parametrize("steps", SEAMS)
@pytest.mark.parametrize("case", list(RELAXED))
def test_non_finite_iterate_across_a_growth_seam(monkeypatch, case, steps):
    new, ref = RELAXED[case][0]()
    relax_at(monkeypatch, case, steps - 1, np.inf)
    err = same_failure(lambda: new(max_iter=UNCAPPED, tol=0.0),
                       lambda: ref(max_iter=UNCAPPED, tol=0.0))
    assert str(err) == "non-finite iterate at n=%d" % (steps - 1)


def test_records_are_trimmed_to_their_rows():
    new, _ = CASES["crifba:p2_lasso"]()
    res = new(max_iter=UNCAPPED, tol=1e-6)
    N = res.n_iters
    assert 16 * ROWS < N < UNCAPPED
    for a, rows in ((res.X, N + 1), (res.Z, N), (res.res2, N + 1)):
        assert a.shape[0] == rows and a.flags.owndata and a.flags.c_contiguous
    assert res.res2.dtype == np.float64


def inside_its_buffer(a):
    """Whether the view a lies inside the buffer its base holds now: a view
    taken before its base was resized elsewhere lies in the freed one."""
    base = a.base
    if base is None:
        return True
    lo, p = base.__array_interface__["data"][0], a.__array_interface__["data"][0]
    return lo <= p and p + a.nbytes <= lo + base.nbytes


# a run of each step hook: crifba's in the identity and in the block metric
VIEW_RUNS = ["crifba:p3_spectrum", "crifba:p5_saddle_stack", "cripda:p5_lasso_pd",
             "gcrifba:p4_three"]


@pytest.mark.parametrize("steps", [ROWS + 1, 2 * ROWS + 1, 16 * ROWS + 1])
@pytest.mark.parametrize("case", VIEW_RUNS)
def test_no_stale_record_view_reaches_a_step(monkeypatch, case, steps):
    # the records move when they grow at 64, 128, ... and 1024 rows; every
    # step is handed x_n, x_{n-1} and its out row as views of the records
    # as they are now
    seen = []

    def check(state, args):
        for a in (state.x, state.x_prev, args[-1]):
            assert inside_its_buffer(a), state.n
        seen.append(state.n)

    watch_steps(monkeypatch, check)
    res = CASES[case]()[0](max_iter=steps, tol=-1.0)
    assert res.n_iters == steps and seen == list(range(steps))


@pytest.mark.parametrize("steps", [ROWS + 1, 2 * ROWS + 1, 16 * ROWS + 1])
@pytest.mark.parametrize("case", VIEW_RUNS)
def test_z_prev_holds_z_n_minus_1_at_every_step(monkeypatch, case, steps):
    # step n forms z_n in the window of n's parity; z_{n-1}, the last row
    # of the other window, keeps the bits step n - 1 was handed until the
    # hook of step n has it, at both parities and across the seams of the
    # coefficient table and of the records
    handed = []

    def check(state, args):
        z = args[-2][0]
        if state.n:
            assert state.z_prev.tobytes() == handed[-1], state.n
            assert not np.shares_memory(state.z_prev, z), state.n
        handed.append(z.tobytes())

    watch_steps(monkeypatch, check)
    res = CASES[case]()[0](max_iter=steps, tol=-1.0)
    assert res.n_iters == steps and len(handed) == steps


# --- V on first read ----------------------------------------------------------

def eager_V(res, v0):
    """V as the run formed it before it was formed on first read."""
    V = np.empty_like(res.X)
    V[0] = v0
    np.subtract(res.Z, res.X[1:], out=V[1:])
    return V


def test_v_on_first_read_is_the_eager_formula():
    prob = problems.get("p3_spectrum")
    params = crifba.default_params(prob.L_map())
    x0, xp, zp = start(prob, 31), start(prob, 32), start(prob, 33)
    res = crifba.run(prob.A, prob.B, params, x0, max_iter=3 * ROWS + 5, tol=0.0,
                     x_prev=xp, z_prev=zp)
    assert vars(res)["V"] is None
    V = res.V
    want = eager_V(res, zp - x0)
    assert V.dtype == want.dtype and V.tobytes() == want.tobytes()
    assert res.V is V and vars(res)["V"] is V
    ref = reference.run(prob.A, prob.B, params, x0, max_iter=3 * ROWS + 5, tol=0.0,
                        x_prev=xp, z_prev=zp)
    assert V.tobytes() == ref.V.tobytes()


def test_v_of_the_primal_dual_core_on_first_read_is_the_eager_formula():
    prob = problems.get("p5_lasso_pd")
    x0 = start(prob, 34)
    y0 = 0.1 * np.random.default_rng(34).standard_normal(prob.saddle.d_dual)
    step = 0.7 / operator_norm(prob.saddle.K)
    res = cripda.run_cripda(prob.saddle, cripda.CripdaParams(tau=step, sigma=step),
                            x0, y0, max_iter=2 * ROWS + 3, tol=0.0).core
    assert vars(res)["V"] is None
    assert res.V.tobytes() == eager_V(res, np.zeros(len(res.X[0]))).tobytes()


def p2_run(steps):
    prob = problems.get("p2_lasso")
    params = crifba.default_params(prob.L_map())
    return prob, crifba.run(prob.A, prob.B, params, start(prob, 35), max_iter=steps,
                            tol=0.0)


def test_a_stored_v_is_kept_and_a_perturbed_one_fails_drift_telescoping():
    prob, res = p2_run(500)
    stored = res.V.copy()
    stored[200] += 0.01
    bad = crifba.RunResult(res.X, res.Z, stored, res.res2, res.x_prev_init,
                           res.n_iters, res.stopped, res.params)
    assert bad.V is stored
    reports = {r.name: r for r in checks.standard_suite(bad, prob.A, prob.B)}
    assert reports["step_identities"].passed is False
    assert reports["drift_telescoping"].passed is False
    assert all(r.passed for r in checks.standard_suite(res, prob.A, prob.B))


HISTORY_CFG = {"problem": "p2_lasso", "stop": {"max_iter": 500, "tol": 0.0},
               "output": "h"}


def stored_history(tmp_path):
    """The path and arrays of the history a 500-step p2_lasso run writes."""
    _, paths = harness.run_config(HISTORY_CFG, outdir=str(tmp_path))
    with np.load(paths["history"]) as data:
        history = dict(data)
    assert harness.check_history(paths["history"], HISTORY_CFG)["all_passed"]
    return paths["history"], history


def failed_checks(path):
    report = harness.check_history(path, HISTORY_CFG)
    return {r["name"] for r in report["reports"] if not r["passed"]}


def with_v(history):
    """The arrays of a history as runs wrote them before v0: V in its
    place, v_0 and then z_{n-1} - x_n."""
    history = dict(history)
    v0 = history.pop("v0")
    history["V"] = np.concatenate([v0[None], history["Z"] - history["X"][1:]])
    return history


def test_a_perturbed_stored_history_fails_drift_telescoping(tmp_path):
    # monosplit check replays the V of a history file that holds one, as
    # runs wrote them before v0, not one formed from its X and Z
    path, history = stored_history(tmp_path)
    legacy = with_v(history)
    np.savez(path, **legacy)
    assert failed_checks(path) == set()
    legacy["V"][200] += 0.01
    np.savez(path, **legacy)
    assert "drift_telescoping" in failed_checks(path)


def test_a_perturbed_history_without_v_fails_drift_telescoping(tmp_path):
    # a history holds X, Z and v0, and V is formed from them: a perturbed
    # z_200 moves v_201 with it
    path, history = stored_history(tmp_path)
    assert "V" not in history and history["v0"].shape == history["X"][0].shape
    history["Z"][200] += 0.01
    np.savez(path, **history)
    assert "drift_telescoping" in failed_checks(path)


@pytest.mark.parametrize("problem", ["p2_lasso", "p5_saddle"])
def test_check_reports_alike_on_a_history_with_and_without_v(tmp_path, problem):
    # the same run stored both ways, by crifba and by cripda: every report
    # is the same, n_checked and worst_violation included
    cfg = dict(HISTORY_CFG, problem=problem)
    if problem == "p5_saddle":
        cfg["solver"] = {"kind": "cripda", "tau": 0.2, "sigma": 0.2}
    _, paths = harness.run_config(cfg, outdir=str(tmp_path))
    new = harness.check_history(paths["history"], cfg)
    assert new["all_passed"]
    assert any(r["n_checked"] > 0 for r in new["reports"])
    with np.load(paths["history"]) as data:
        np.savez(paths["history"], **with_v(data))
    old = harness.check_history(paths["history"], cfg)
    assert json.dumps(old, default=float) == json.dumps(new, default=float)


def test_a_copy_holds_its_own_v():
    # a copy carries V formed, so a perturbed X of the copy leaves it alone
    _, res = p2_run(50)
    bad = copy.deepcopy(res)
    bad.X[7] += 0.05
    assert bad.V.tobytes() == res.V.tobytes()
    assert bad.V is not res.V


# --- what a run holds ---------------------------------------------------------

def traced_peak(run):
    """run() and the peak of the memory traced while it ran, over what was
    traced when it started."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = run()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def record_bytes(res, rows=None):
    """The bytes of X, Z and res2, or of records of rows states."""
    per_state = res.X[0].nbytes + res.Z[0].nbytes + res.res2.itemsize
    return per_state * (len(res.X) if rows is None else rows)


def test_a_long_core_run_holds_its_record_once():
    prob = problems.get("p3_spectrum")
    params = crifba.default_params(prob.L_map())
    res, peak = traced_peak(lambda: crifba.run(prob.A, prob.B, params, prob.start,
                                               max_iter=20000, tol=0.0))
    assert res.n_iters == 20000
    assert peak <= 1.2 * record_bytes(res)


def lasso_pd_run(**kw):
    prob = problems.get("p5_lasso_pd")
    step = 0.7 / operator_norm(prob.saddle.K)
    return cripda.run_cripda(prob.saddle, cripda.CripdaParams(tau=step, sigma=step),
                             prob.start, np.zeros(prob.saddle.d_dual), **kw)


def test_a_long_primal_dual_run_holds_its_record_once():
    # the result holds the core run's record, 168 bytes a state, and no
    # column of its own: hist is the record's X
    res, peak = traced_peak(lambda: lasso_pd_run(max_iter=10000, tol=0.0))
    assert res.n_iters == 10000
    assert peak <= 1.2 * record_bytes(res.core)


def test_a_run_to_tolerance_holds_at_most_its_doubled_record():
    # while it runs, a record holds the 64 * 2^k rows that the states so
    # far fit in, and once it stops, its own rows
    res, peak = traced_peak(lambda: lasso_pd_run(max_iter=UNCAPPED, tol=1e-6))
    N = res.n_iters
    assert res.stopped == "tol" and 64 * ROWS < N < 128 * ROWS
    assert len(res.core.X) == N + 1
    assert peak <= 1.2 * record_bytes(res.core, 128 * ROWS + 1)


# --- the identity block metric ------------------------------------------------

def identity_metric_pair(rows):
    """A 1x1 pair with K = 0 and both gradients 0 (Lipschitz constant 0):
    at tau = sigma = 1 its block metric is the identity."""
    soft = lambda t, u: np.sign(u) * np.maximum(np.abs(u) - t, 0.0)
    clip = lambda s, u: np.clip(u, -1.0, 1.0)
    return SaddleFunctionPair(
        prox_G=soft, prox_Fstar=clip, grad_Q=np.zeros_like, lip_Q=0.0,
        grad_Pstar=np.zeros_like, lip_Pstar=0.0, K=[[0.0]], label="identity_metric",
        rows=rows)


@pytest.mark.parametrize("rows", [True, False], ids=["rows", "scalar"])
@pytest.mark.parametrize("steps,tol", [(3 * ROWS, 0.0), (UNCAPPED, 1e-6)])
def test_primal_dual_run_in_an_identity_block_metric(rows, steps, tol):
    pair = identity_metric_pair(rows)
    params = cripda.CripdaParams(tau=1.0, sigma=1.0)
    assert crifba.validate(cripda.stacked_problem(pair, params)[2]).selector == 1
    assert cripda.build_metric(pair, 1.0, 1.0).is_identity
    res = assert_close(
        cripda.run_cripda(pair, params, [2.0], [3.0], max_iter=steps, tol=tol),
        reference.run_cripda(pair, params, [2.0], [3.0], max_iter=steps, tol=tol),
        pair=pair)
    assert res.stopped == ("tol" if tol else "max_iter")
    A, B, _ = cripda.stacked_problem(pair, params)
    assert all(r.passed for r in checks.standard_suite(res.core, A, B)
               if not r.status.startswith("skipped"))


# --- configurations of the wrong type -----------------------------------------

WRONG_TYPE = {
    "fba_lam": {"problem": "p2_lasso", "solver": {"kind": "fba", "lam": "abc"}},
    "crifba_lam": {"problem": "p1_clamp", "solver": {"kind": "crifba", "lam": "abc"}},
    "gcrifba_w": {"problem": "p4_three", "solver": {"kind": "gcrifba", "w": "x"}},
    "solver_string": {"problem": "p1_clamp", "solver": "fba"},
}


def cli_json(capsys, *argv):
    """(exit code, printed JSON) of monosplit argv."""
    code = cli.main(list(argv))
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("name", sorted(WRONG_TYPE))
def test_a_field_of_the_wrong_type_is_refused_with_a_report(tmp_path, capsys, name):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(WRONG_TYPE[name], stop={"max_iter": 5, "tol": 0.0},
                                    output="w")))
    for sub in ("validate", "run"):
        code, report = cli_json(capsys, sub, str(path), *(("--outdir", str(tmp_path))
                                                         if sub == "run" else ()))
        assert code == 1 and report["error"]
    code, table = cli_json(capsys, "compare", str(path), "--outdir", str(tmp_path))
    assert code == 1 and table[0]["status"] == "invalid" and table[0]["report"]["error"]
    assert not (tmp_path / "w.csv").exists()
    if name == "solver_string":
        assert report["error"] == "solver must be an object, got 'fba'"
        code, report = cli_json(capsys, "check", str(tmp_path / "none.npz"), str(path))
        assert code == 1 and report == {"status": "error",
                                        "error": "solver must be an object, got 'fba'"}


# --- the trace CSV --------------------------------------------------------------

def one_shot_trace_csv(path, columns):
    """harness.write_trace_csv as it was: every cell formatted, then written."""
    names = list(columns)
    cells = [columns[names[0]].tolist()]
    cells += [["" if v != v else "%.17g" % v for v in columns[name].tolist()]
              for name in names[1:]]
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(names)
        wr.writerows(zip(*cells))


@pytest.mark.parametrize("rows", [0, 1, harness.CSV_ROWS, 2 * harness.CSV_ROWS + 3])
def test_trace_csv_written_by_block_is_the_one_shot_file(tmp_path, rows):
    rng = np.random.default_rng(rows)
    columns = {"n": np.arange(rows)}
    for name in crifba.TRACE_COLUMNS[1:]:
        col = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        col[rng.random(rows) < 0.2] = np.nan
        columns[name] = col
    if rows:
        columns["vel2"][-1] = np.nan
        columns["energy"][:] = np.nan
        columns["res2"][-1] = -0.0
    if rows > harness.CSV_ROWS:
        # the last row of the first block and the first of the second
        columns["ystar_norm"][harness.CSV_ROWS - 1:harness.CSV_ROWS + 1] = [math.inf, np.nan]
    harness.write_trace_csv(tmp_path / "new.csv", columns)
    one_shot_trace_csv(tmp_path / "old.csv", columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("stride", [1, 2, 5])
@pytest.mark.parametrize("kind", ["crifba", "gcrifba", "fbf"])
def test_strided_traces_written_by_block_are_the_one_shot_files(
        monkeypatch, tmp_path, kind, stride):
    # blocks of 7 rows: every trace of these runs spans several
    problem = {"crifba": "p2_lasso", "gcrifba": "p4_three", "fbf": "p1_clamp"}[kind]
    monkeypatch.setattr(harness, "CSV_ROWS", 7)
    written = []
    write = harness.write_trace_csv
    monkeypatch.setattr(harness, "write_trace_csv",
                        lambda path, columns: written.append(columns) or write(path, columns))
    cfg = {"problem": problem, "solver": {"kind": kind}, "stride": stride,
           "stop": {"max_iter": 100, "tol": 0.0}, "output": "t"}
    harness.run_config(cfg, outdir=str(tmp_path))
    (columns,) = written
    assert len(columns["n"]) > 2 * 7
    one_shot_trace_csv(tmp_path / "old.csv", columns)
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
