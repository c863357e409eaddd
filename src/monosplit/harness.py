"""Batch front end: JSON run configs, CSV traces, slope fits, summaries."""

import csv
import hashlib
import json
import math
import os

import numpy as np

from . import baselines, checks, cripda, crifba, gcrifba, problems

BASELINE_KINDS = set(baselines._KINDS)


def load_config(path):
    with open(path) as fh:
        return json.load(fh)


def config_hash(cfg):
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def output_dir():
    return os.environ.get("MONOSPLIT_OUT", ".")


def _crifba_params(problem, solver_cfg):
    keys = ("e", "s0", "s1", "nu0", "w", "delta", "lam")
    overrides = {k: solver_cfg[k] for k in keys if k in solver_cfg}
    return crifba.default_params(problem.L_map(), **overrides)


def validate_config(cfg):
    """Run every applicable validator; returns (ok, report)."""
    solver = cfg.get("solver", {})
    kind = solver.get("kind", "crifba")
    report = {"problem": cfg.get("problem"), "kind": kind}
    try:
        trace_stride(cfg)
        problem = problems.get(cfg["problem"])
        if kind == "crifba":
            params = _crifba_params(problem, solver)
            ok, reasons = crifba.validate_core(params)
            report["core_violations"] = reasons
            metric = crifba.validate_metric(params, d=problem.d)
            report["selector"] = metric.selector
            report["margins"] = metric.margins
            # the message crifba.validate raises, as the other kinds report it
            if not ok:
                report["error"] = "invalid parameters: " + "; ".join(reasons)
            elif not metric.ok:
                report["error"] = ("step/metric conditions failed, margins: %r"
                                   % metric.margins)
            return (ok and metric.ok), report
        if kind == "gcrifba":
            params = _gcrifba_params(problem, solver)
            gcrifba.validate_gcrifba(params)
            report["lam_bound"] = 4.0 * params.w * (1.0 - params.w) * params.beta
            return True, report
        if kind == "cripda":
            params = _cripda_params(solver)
            selector, margins = cripda.validate_cripda(params, problem.saddle)
            report["selector"] = selector
            report["margins"] = margins
            return True, report
        if kind in BASELINE_KINDS:
            lam = solver.get("lam", baselines.default_step(kind, problem))
            report["lam"] = lam
            # re-use the runner's own feasibility guards without iterating
            baselines.run_baseline(kind, problem, problem.start, lam=lam, max_iter=0)
            return True, report
        report["error"] = "unknown solver kind %r" % kind
        return False, report
    except (ValueError, KeyError) as exc:
        report["error"] = str(exc)
        return False, report


def _core_problem(problem, solver_cfg):
    """(A, B, crifba parameters) of a crifba run, or of the stacked
    inclusion that a cripda run iterates on."""
    if solver_cfg.get("kind", "crifba") == "cripda":
        return cripda.stacked_problem(problem.saddle, _cripda_params(solver_cfg))
    return problem.A, problem.B, _crifba_params(problem, solver_cfg)


def _core_solution(problem):
    """The certified solution as one vector, the (x, y) of a saddle problem
    stacked, or None when the problem certifies no single point."""
    q = problem.certified_solution
    if isinstance(q, tuple):
        return np.concatenate(q)
    return q if isinstance(q, np.ndarray) else None


def _gcrifba_params(problem, solver_cfg):
    keys = ("e", "s0", "s1", "nu0", "w", "lam")
    overrides = {k: solver_cfg[k] for k in keys if k in solver_cfg}
    return gcrifba.default_gcrifba_params(problem.beta, **overrides)


def _cripda_params(solver_cfg):
    keys = ("tau", "sigma", "e", "s0", "s1", "nu0", "w", "delta")
    return cripda.CripdaParams(**{k: solver_cfg[k] for k in keys if k in solver_cfg})


def fit_slope(ns, values, window=None):
    """Least-squares slope of log(value) against log(n).

    The window defaults to the final decade [N/10, N]. NaN values, the
    undefined cells of a trace, are left out; nonpositive values are
    dropped (and counted); fewer than ten remaining points means no fit.
    """
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(ns) == 0:
        return {"status": "empty", "slope": None, "r2": None}
    if window is None:
        window = (ns.max() / 10.0, ns.max())
    lo, hi = window
    mask = (ns >= lo) & (ns <= hi) & (ns > 0) & ~np.isnan(values)
    dropped = int(np.sum(mask & ~(values > 0)))
    mask &= values > 0
    if mask.sum() < 10:
        return {"status": "too_few_points", "slope": None, "r2": None,
                "window": [float(lo), float(hi)], "n_points": int(mask.sum()),
                "dropped_nonpositive": dropped}
    lx = np.log(ns[mask])
    ly = np.log(values[mask])
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    return {"status": "ok", "slope": float(slope),
            "r2": 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0,
            "window": [float(lo), float(hi)], "n_points": int(mask.sum()),
            "dropped_nonpositive": dropped}


def trace_stride(cfg):
    """The config's stride, an integer >= 1 (default 1); ValueError
    otherwise."""
    stride = cfg.get("stride", 1)
    if type(stride) is not int or stride < 1:
        raise ValueError("stride must be an integer >= 1, got %r" % (stride,))
    return stride


def write_trace_csv(path, columns):
    """Write the trace columns (name: 1-D array, in CSV order, the integer
    n first); floats as %.17g, NaN (an undefined cell) as an empty cell."""
    names = list(columns)
    cells = [columns[names[0]].tolist()]
    cells += [["" if v != v else "%.17g" % v for v in columns[name].tolist()]
              for name in names[1:]]
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(names)
        wr.writerows(zip(*cells))


def run_config(cfg, outdir=None):
    """Execute one run; returns (summary dict, artifact paths). Each kind
    gives its strided trace columns; the tail writes the columns of
    crifba.TRACE_COLUMNS, NaN where a kind gives none, and fits vel2, vn2
    and res2."""
    outdir = outdir or output_dir()
    os.makedirs(outdir, exist_ok=True)
    problem = problems.get(cfg["problem"])
    solver = cfg.get("solver", {})
    kind = solver.get("kind", "crifba")
    stop = cfg.get("stop", {})
    max_iter = int(stop.get("max_iter", 10**6))
    tol = float(stop.get("tol", 1e-9))
    stride = trace_stride(cfg)
    base = os.path.join(outdir, cfg.get("output", "run_%s" % config_hash(cfg)))
    paths = {"csv": base + ".csv", "summary": base + ".summary.json"}

    if kind in ("crifba", "cripda"):
        A, B, params = _core_problem(problem, solver)
        if kind == "crifba":
            result = crifba.run(A, B, params, problem.start, max_iter=max_iter,
                                tol=tol)
            candidate = result.x
        else:
            pd = cripda.run_cripda(problem.saddle, _cripda_params(solver),
                                   problem.start, np.zeros(problem.saddle.d_dual),
                                   max_iter=max_iter, tol=tol)
            result, candidate = pd.core, (pd.x, pd.y)
        trace = crifba.diagnostics(result, A, B, q=_core_solution(problem),
                                   stride=stride)
        cols = {name: trace[name] for name in crifba.TRACE_COLUMNS}
        final_res2 = result.res2[-1]
        paths["history"] = base + ".history.npz"
        np.savez_compressed(paths["history"], X=result.X, Z=result.Z,
                            V=result.V, res2=result.res2,
                            x_prev_init=result.x_prev_init)
    elif kind == "gcrifba":
        params = _gcrifba_params(problem, solver)
        result = gcrifba.run_gcrifba(problem.A_list, problem.B, params,
                                     problem.start, max_iter=max_iter, tol=tol)
        n = np.arange(0, result.n_iters + 1, stride)
        cols = {"n": n, "vel2": result.vel2[n], "vn2": result.vn2[n],
                "res2": result.res2[n]}
        final_res2 = result.res2[len(result.ns) - 1]
        candidate = result.x
    elif kind in BASELINE_KINDS:
        extra = {k: solver[k] for k in ("lam", "alpha", "inertia", "ac_alpha",
                                        "ac_rho") if k in solver}
        result = baselines.run_baseline(kind, problem, problem.start,
                                        max_iter=max_iter, tol=tol,
                                        stride=stride, **extra)
        cols = {"n": result.ns, "vel2": result.vel2, "res2": result.res2}
        final_res2 = result.res2[-1] if len(result.res2) else math.nan
        candidate = result.x
        if kind == "dr":
            candidate = baselines.dr_shadow(
                problem, solver.get("lam", baselines.default_step(kind, problem)),
                result.x)
    else:
        raise ValueError("unknown solver kind %r" % kind)

    undefined = np.full(len(cols["n"]), np.nan)
    cols = {name: cols.get(name, undefined) for name in crifba.TRACE_COLUMNS}
    write_trace_csv(paths["csv"], cols)
    ok, residual = problems.certify(problem, candidate, tol=cfg.get("certify_tol", 1e-6))
    slopes = {name: fit_slope(cols["n"], cols[name]) for name in ("vel2", "vn2", "res2")}
    summary = {
        "config_hash": config_hash(cfg),
        "iterations": int(result.n_iters),
        # strict JSON has no NaN or inf: null, as for an untested state
        "final_res2": float(final_res2) if math.isfinite(final_res2) else None,
        "certify": {"ok": ok, "residual": residual},
        "slopes": slopes,
        "checks": [],
    }
    with open(paths["summary"], "w") as fh:
        json.dump(summary, fh, indent=2, default=float)
    return summary, paths


def check_history(history_path, cfg):
    """Replay every checker over a stored run history."""
    try:
        problem = problems.get(cfg["problem"])
    except KeyError as exc:
        return {"status": "error", "error": str(exc)}
    solver = cfg.get("solver", {})
    if solver.get("kind", "crifba") not in ("crifba", "cripda"):
        return {"status": "skipped",
                "reason": "history replay covers the core and primal-dual solvers"}
    A, B, params = _core_problem(problem, solver)
    with np.load(history_path) as data:
        result = crifba.RunResult(
            X=data["X"], Z=data["Z"], V=data["V"], res2=data["res2"],
            x_prev_init=data["x_prev_init"], n_iters=data["X"].shape[0] - 1,
            stopped="replay", params=params)
    reports = checks.standard_suite(result, A, B, q=_core_solution(problem))
    executed = [r for r in reports if not r.status.startswith("skipped")]
    return {
        "status": "ok",
        "all_passed": all(r.passed for r in executed),
        "reports": [r.to_dict() for r in reports],
    }
