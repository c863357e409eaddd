"""The three benchmark workloads: seeded inputs and one measured pass each.

Inputs are generated here from the workload seed and handed to the worker
as plain JSON, so the program under test only ever sees generated inputs.
A pass is one closed-loop repetition of the workload in one process: runs
are issued one after another, each is checked, and a run that raises or
fails its check is recorded with a reason instead of ending the pass.

Workloads and why they were chosen:

long_core
    Fixed-N core runs (tol = 0) on p2_lasso (d = 5, identity metric),
    p3_spectrum (d = 21) and the stacked p5_saddle inclusion in its block
    metric, each replayed through ``checks.standard_suite``. This is the
    path of the long acceptance fixtures: the core loop and the oracle
    replay take nearly all the time. The block-metric run bypasses the
    identity-metric mechanism, so an identity fast path must leave it
    unchanged.
solve_to_tol
    Every solver family run to its certificate from seeded starts:
    crifba on p2_lasso, gcrifba on p4_three, cripda on p5_lasso_pd and the
    fba, fbf and chambolle_dossal baselines on p2_lasso. It is the only
    workload that runs gcrifba, cripda and the baselines to tolerance, and
    it does no replay and no file I/O.
harness_sweep
    Many short JSON configs through ``cli.main`` in-process: validate,
    run with a temporary --outdir, then check on every core-solver history.
    Per-run set-up, problem lookup, validation, diagnostics, CSV/NPZ writes
    and the history read-back dominate; the inner loop is a small share.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
import time

import numpy as np

WORKLOADS = ("long_core", "solve_to_tol", "harness_sweep")

# "full" is what the benchmark measures; "tiny" only exercises every code
# path quickly for the smoke test. core_steps is the length of the p2 and p3
# runs, the low end of the 10^4-10^6 steps of real runs, so that their
# history is a visible share of peak memory; the block-metric run only has
# to show that an identity-metric change leaves it alone, and its history
# is small (d = 4), so it is shorter to keep a pass near 20 s.
SIZES = {
    "full": {"core_steps": 10000, "block_steps": 2000, "sweep_core_iters": 200,
             "sweep_baseline_iters": 500, "near_solution": False},
    "tiny": {"core_steps": 12, "block_steps": 12, "sweep_core_iters": 12,
             "sweep_baseline_iters": 20, "near_solution": True},
}

# One tolerance for every family: the loosest decade at which every
# family's result passes problems.certify from the seeded starts.
SOLVE_TOL = 1e-8
SOLVE_MAX_ITER = 10**6
# solve_to_tol draws its starts from this many recorded start sets; seed n
# uses set n mod START_SETS, whose step counts are in expected_steps.json.
START_SETS = 32
START_SCALE = 0.01
BASELINES_TO_TOL = ("fba", "fbf", "chambolle_dossal")

EXPECTED_STEPS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "expected_steps.json")


class RunFailed(Exception):
    """A run finished but its outcome is wrong; the message is the reason."""


# --- steps performed, counted from outside the solver ---------------------

def steps_performed(solver, result, max_iter):
    """Step-map evaluations a finished run performed.

    Counted from the recorded trace, never from ``n_iters``: crifba keeps
    one z row per step, cripda one history row per step after the start,
    gcrifba one row per step plus a final row when it stops on tolerance,
    and a baseline evaluates its step on every loop pass, including the one
    whose residual met the tolerance.
    """
    if solver == "crifba":
        return int(result.Z.shape[0])
    if solver == "gcrifba":
        return int(len(result.ns) - (result.stopped == "tol"))
    if solver == "cripda":
        return int(result.hist.shape[0] - 1)
    if result.stopped == "max_iter":
        return int(max_iter)
    return int(result.ns[-1]) + 1 if len(result.ns) else 0


def history_digest(result):
    """SHA-256 over X, Z, V and res2 of a core run, for bit-identity."""
    h = hashlib.sha256()
    for arr in (result.X, result.Z, result.V, result.res2):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


# --- input generation -----------------------------------------------------

def make_inputs(workload, seed, size="full"):
    """Everything a pass needs, derived from the seed alone."""
    if workload == "long_core":
        return _long_core_inputs(seed, SIZES[size])
    if workload == "solve_to_tol":
        return _solve_inputs(seed, SIZES[size])
    if workload == "harness_sweep":
        return _sweep_inputs(seed, SIZES[size])
    raise ValueError("unknown workload %r" % workload)


def _long_core_inputs(seed, size):
    rng = np.random.default_rng([seed, 1])
    n = size["core_steps"]
    return {"runs": [
        {"problem": "p2_lasso", "steps": n,
         "start": (0.5 * rng.standard_normal(5)).tolist()},
        {"problem": "p3_spectrum", "steps": n,
         "start": (1.0 + 0.1 * rng.standard_normal(21)).tolist()},
        {"problem": "p5_saddle", "steps": size["block_steps"], "stacked": True,
         "tau": 0.2, "sigma": 0.2, "start": (0.5 * rng.standard_normal(4)).tolist()},
    ]}


def solve_starts(start_set, near_solution=False):
    """Seeded starts of every solve: a small perturbation of the catalog
    start (or, for the smoke test, of the certified solution)."""
    from monosplit import problems
    rng = np.random.default_rng([start_set, 2])
    p2 = problems.get("p2_lasso")
    p4 = problems.get("p4_three")
    p5 = problems.get("p5_lasso_pd")
    if near_solution:
        base2, base4 = p2.certified_solution, p4.certified_solution
        base5x, base5y = p5.certified_solution
        scale = 1e-7
    else:
        base2, base4 = p2.start, p4.start
        base5x, base5y = p5.start, np.zeros(p5.saddle.d_dual)
        scale = START_SCALE
    return {"p2": (base2 + scale * rng.standard_normal(5)).tolist(),
            "p4": (base4 + scale * rng.standard_normal(1)).tolist(),
            "p5x": (base5x + scale * rng.standard_normal(5)).tolist(),
            "p5y": (base5y + scale * rng.standard_normal(5)).tolist()}


def _solve_inputs(seed, size):
    start_set = seed % START_SETS
    return {"start_set": start_set, "tol": SOLVE_TOL,
            "starts": solve_starts(start_set, size["near_solution"])}


def _schedule(rng):
    """Feasible (e, s0, s1): 2 s1 < s0 < e."""
    s1 = rng.uniform(0.5, 1.0)
    s0 = 2.0 * s1 + rng.uniform(0.1, 1.0)
    e = s0 + rng.uniform(0.1, 1.0)
    return {"e": e, "s0": s0, "s1": s1}


def _sweep_inputs(seed, size):
    """One config per catalog problem and applicable solver kind, with
    seeded feasible w, lam and schedule."""
    from monosplit import problems
    from monosplit.metriclin import operator_norm
    rng = np.random.default_rng([seed, 3])
    cat = {p.name: p for p in problems.catalog()}
    core_stop = {"max_iter": size["sweep_core_iters"], "tol": 0.0}
    base_stop = {"max_iter": size["sweep_baseline_iters"], "tol": 0.0}
    configs = []

    def add(problem, solver, stop):
        configs.append({"problem": problem, "solver": solver, "stop": stop,
                        "output": "c%02d_%s_%s" % (len(configs), problem,
                                                   solver["kind"])})

    for name in ("p1_clamp", "p2_lasso", "p3_spectrum", "flat_interval"):
        w = rng.uniform(0.3, 0.7)
        lam = rng.uniform(0.5, 0.95) * 4.0 * w * (1.0 - w) * cat[name].beta
        add(name, dict(kind="crifba", w=w, lam=lam, **_schedule(rng)), core_stop)
    for name in ("p4_three", "p6_res_sum"):
        w = rng.uniform(0.3, 0.7)
        lam = rng.uniform(0.5, 0.95) * 4.0 * w * (1.0 - w) * cat[name].beta
        add(name, dict(kind="gcrifba", w=w, lam=lam, **_schedule(rng)), core_stop)
    # p5_saddle: lip_Q = 1 caps tau below w(1-w); sigma then keeps
    # (1/tau - 1/(w(1-w))) / sigma above ||K||^2
    saddle = cat["p5_saddle"].saddle
    w = rng.uniform(0.4, 0.6)
    ww = w * (1.0 - w)
    tau = rng.uniform(0.3, 0.6) * ww
    sigma = rng.uniform(0.3, 0.8) * (1.0 / tau - 1.0 / ww) / operator_norm(saddle.K) ** 2
    add("p5_saddle", dict(kind="cripda", w=w, tau=tau, sigma=sigma,
                          **_schedule(rng)), core_stop)
    # p5_lasso_pd has no smooth part: tau sigma ||K||^2 < 1 suffices
    step = rng.uniform(0.5, 0.9) / operator_norm(cat["p5_lasso_pd"].saddle.K)
    add("p5_lasso_pd", dict(kind="cripda", w=rng.uniform(0.3, 0.7), tau=step,
                            sigma=step, **_schedule(rng)), core_stop)
    for name in ("p1_clamp", "p2_lasso", "p3_spectrum", "flat_interval"):
        prob = cat[name]
        beta = prob.beta
        kinds = {"fba": 2.0 * beta, "fbf": beta, "moudafi_oliny": beta,
                 "lorenz_pock": beta, "attouch_cabot": beta}
        if "f_grad" in prob.extras:
            kinds["chambolle_dossal"] = beta
        if "sum_op" in prob.extras:
            kinds["ppa"] = 2.0
        if prob.B_resolvent is not None:
            kinds["dr"] = 2.0
        for kind, cap in sorted(kinds.items()):
            add(name, {"kind": kind, "lam": rng.uniform(0.3, 0.9) * cap}, base_stop)
    # strides cycle through 1, 2, 5 over the fixed config order rather than
    # being drawn, so every seed writes and replays the same number of rows
    for i, cfg in enumerate(configs):
        cfg["stride"] = (1, 2, 5)[i % 3]
    return {"configs": configs}


# --- passes ---------------------------------------------------------------

class Pass:
    """Records of one pass: one entry per run, in the order run, with the
    run's start and end (time.monotonic()) in ``t0`` and ``t1``."""

    def __init__(self):
        self.runs = []
        self.digests = []

    def attempt(self, label, fn):
        rec = {"run": label, "ok": True, "reason": None, "t0": time.monotonic()}
        try:
            fn(rec)
        except RunFailed as exc:
            rec["ok"], rec["reason"] = False, str(exc)
        except Exception as exc:     # one bad run must not end the pass
            rec["ok"], rec["reason"] = False, "%s: %s" % (type(exc).__name__, exc)
        rec["t1"] = time.monotonic()
        self.runs.append(rec)

    def replay(self, result, A, B, q):
        """Oracle replay of a core run; every executed report must pass."""
        from monosplit import checks
        reports = checks.standard_suite(result, A, B, q=q)
        bad = [r.name for r in reports if not r.passed]
        if bad:
            raise RunFailed("oracle:" + ",".join(bad))


def run_pass(workload, inputs, scratch_dir):
    """Run one pass of a workload; returns its Pass record."""
    rec = Pass()
    if workload == "long_core":
        _long_core_pass(inputs, rec)
    elif workload == "solve_to_tol":
        _solve_pass(inputs, rec)
    elif workload == "harness_sweep":
        _sweep_pass(inputs, rec, scratch_dir)
    else:
        raise ValueError("unknown workload %r" % workload)
    return rec


def _long_core_pass(inputs, rec):
    from monosplit import crifba, cripda, problems
    jobs = []
    for spec in inputs["runs"]:
        prob = problems.get(spec["problem"])
        if spec.get("stacked"):
            pair = prob.saddle
            A, B = cripda.stacked_operators(pair)
            M = cripda.build_metric(pair, spec["tau"], spec["sigma"])
            params = crifba.CrifbaParams(lam=1.0, w=0.5, M=M, L=B.certificate_L)
            q = np.concatenate(prob.certified_solution)
        else:
            A, B = prob.A, prob.B
            params = crifba.default_params(prob.L_map())
            q = prob.certified_solution
        jobs.append((spec, A, B, params, q))

    for spec, A, B, params, q in jobs:
        def one(r, spec=spec, A=A, B=B, params=params, q=q):
            n = spec["steps"]
            res = crifba.run(A, B, params, np.array(spec["start"]),
                             max_iter=n, tol=0.0)
            r["steps"] = steps_performed("crifba", res, n)
            if res.stopped != "max_iter":
                raise RunFailed(res.stopped)
            rec.digests.append({"run": spec["problem"], "steps": r["steps"],
                                "sha256": history_digest(res)})
            rec.replay(res, A, B, q)
        rec.attempt(spec["problem"], one)


def load_expected_steps():
    """Recorded step counts: {size: {start set: {solve: steps}}}."""
    with open(EXPECTED_STEPS) as fh:
        return json.load(fh)


def _solve_pass(inputs, rec):
    from monosplit import baselines, crifba, cripda, gcrifba, problems
    from monosplit.metriclin import operator_norm
    tol = inputs["tol"]
    st = inputs["starts"]
    p2 = problems.get("p2_lasso")
    p4 = problems.get("p4_three")
    p5 = problems.get("p5_lasso_pd")
    core_params = crifba.default_params(p2.L_map())
    g_params = gcrifba.default_gcrifba_params(p4.beta)
    step = 0.7 / operator_norm(p5.saddle.K)
    pd_params = cripda.CripdaParams(tau=step, sigma=step)
    expected = inputs.get("expected_steps")
    rec.steps_by_solve = {}

    def finish(r, label, prob, solver, res, candidate):
        r["steps"] = steps_performed(solver, res, SOLVE_MAX_ITER)
        rec.steps_by_solve[label] = r["steps"]
        if res.stopped != "tol":
            raise RunFailed(res.stopped)
        ok, _ = problems.certify(prob, candidate)
        if not ok:
            raise RunFailed("certify")
        if expected is not None and expected.get(label) != r["steps"]:
            raise RunFailed("steps %d, recorded %s" % (r["steps"], expected.get(label)))

    def core(r):
        res = crifba.run(p2.A, p2.B, core_params, np.array(st["p2"]),
                         max_iter=SOLVE_MAX_ITER, tol=tol)
        finish(r, "crifba", p2, "crifba", res, res.x)

    def product(r):
        res = gcrifba.run_gcrifba(p4.A_list, p4.B, g_params, np.array(st["p4"]),
                                  max_iter=SOLVE_MAX_ITER, tol=tol)
        finish(r, "gcrifba", p4, "gcrifba", res, res.x)

    def primal_dual(r):
        res = cripda.run_cripda(p5.saddle, pd_params, np.array(st["p5x"]),
                                np.array(st["p5y"]), max_iter=SOLVE_MAX_ITER,
                                tol=tol)
        finish(r, "cripda", p5, "cripda", res, (res.x, res.y))

    rec.attempt("crifba:p2_lasso", core)
    rec.attempt("gcrifba:p4_three", product)
    rec.attempt("cripda:p5_lasso_pd", primal_dual)
    for kind in BASELINES_TO_TOL:
        def base(r, kind=kind):
            res = baselines.run_baseline(kind, p2, np.array(st["p2"]),
                                         max_iter=SOLVE_MAX_ITER, tol=tol)
            finish(r, kind, p2, kind, res, res.x)
        rec.attempt("%s:p2_lasso" % kind, base)


def _quiet_cli(argv):
    """cli.main with its stdout captured; returns (exit code, output)."""
    from monosplit import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _sweep_pass(inputs, rec, scratch_dir):
    outdir = tempfile.mkdtemp(prefix="sweep-", dir=scratch_dir)
    try:
        paths = []
        for i, cfg in enumerate(inputs["configs"]):
            paths.append(os.path.join(outdir, "cfg%02d.json" % i))
            with open(paths[-1], "w") as fh:
                json.dump(cfg, fh)
        for cfg, path in zip(inputs["configs"], paths):
            def one(r, cfg=cfg, path=path):
                code, _ = _quiet_cli(["validate", path])
                if code != 0:
                    raise RunFailed("validate")
                code, out = _quiet_cli(["run", path, "--outdir", outdir])
                if code != 0:
                    raise RunFailed("run")
                summary = json.loads(out)
                if cfg["solver"]["kind"] == "crifba":
                    code, out = _quiet_cli(["check", summary["artifacts"]["history"],
                                            path])
                    report = json.loads(out)
                    if code != 0 or report.get("status") != "ok" \
                            or not report["all_passed"]:
                        bad = [x["name"] for x in report.get("reports", [])
                               if not x["passed"]]
                        raise RunFailed("check:" + ",".join(bad))
            rec.attempt(cfg["output"], one)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
