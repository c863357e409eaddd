"""Batch front end: JSON run configs, CSV traces, slope fits, summaries."""

import csv
import hashlib
import json
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


def output_dir(cfg=None):
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


def _gcrifba_params(problem, solver_cfg):
    keys = ("e", "s0", "s1", "nu0", "w", "lam")
    overrides = {k: solver_cfg[k] for k in keys if k in solver_cfg}
    return gcrifba.default_gcrifba_params(problem.beta, **overrides)


def _cripda_params(solver_cfg):
    keys = ("tau", "sigma", "e", "s0", "s1", "nu0", "w", "delta")
    return cripda.CripdaParams(**{k: solver_cfg[k] for k in keys if k in solver_cfg})


def fit_slope(ns, values, window=None):
    """Least-squares slope of log(value) against log(n).

    The window defaults to the final decade [N/10, N]. Nonpositive values
    are dropped (and counted); fewer than ten remaining points means no
    fit.
    """
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(ns) == 0:
        return {"status": "empty", "slope": None, "r2": None}
    if window is None:
        window = (ns.max() / 10.0, ns.max())
    lo, hi = window
    mask = (ns >= lo) & (ns <= hi) & (ns > 0)
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


def _fmt(v):
    return "" if v is None else "%.17g" % v


def write_trace_csv(path, rows, header):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([row[0]] + [_fmt(v) for v in row[1:]])


def run_config(cfg, outdir=None):
    """Execute one run; returns (summary dict, artifact paths)."""
    outdir = outdir or output_dir(cfg)
    os.makedirs(outdir, exist_ok=True)
    problem = problems.get(cfg["problem"])
    solver = cfg.get("solver", {})
    kind = solver.get("kind", "crifba")
    stop = cfg.get("stop", {})
    max_iter = int(stop.get("max_iter", 10**6))
    tol = float(stop.get("tol", 1e-9))
    stride = int(cfg.get("stride", 1))
    base = os.path.join(outdir, cfg.get("output", "run_%s" % config_hash(cfg)))
    paths = {"csv": base + ".csv", "summary": base + ".summary.json"}
    header = ["n", "vel2", "vn2", "res2", "energy", "ystar_norm"]
    q = problem.certified_solution

    if kind == "crifba":
        params = _crifba_params(problem, solver)
        result = crifba.run(problem.A, problem.B, params, problem.start,
                            max_iter=max_iter, tol=tol)
        recs = crifba.diagnostics(result, problem.A, problem.B,
                                  q=q if isinstance(q, np.ndarray) else None,
                                  stride=stride)
        rows = [(r.n, r.vel2, r.vn2, r.res2, r.energy, r.ystar_norm) for r in recs]
        ns = np.array([r.n for r in recs])
        cols = {"vel2": np.array([r.vel2 if r.vel2 is not None else np.nan for r in recs]),
                "vn2": np.array([r.vn2 for r in recs]),
                "res2": np.array([r.res2 for r in recs])}
        final_res2 = float(result.res2[-1])
        iters = result.n_iters
        candidate = result.x
        paths["history"] = base + ".history.npz"
        np.savez_compressed(paths["history"], X=result.X, Z=result.Z,
                            V=result.V, res2=result.res2,
                            x_prev_init=result.x_prev_init)
    elif kind == "gcrifba":
        params = _gcrifba_params(problem, solver)
        result = gcrifba.run_gcrifba(problem.A_list, problem.B, params,
                                     problem.start, max_iter=max_iter, tol=tol)
        header = ["n", "zeta_vel2", "corr2", "fpr2"]
        rows = list(zip(result.ns.tolist(), result.zeta_vel2, result.corr2,
                        result.fpr2))[::stride]
        ns = result.ns[::stride]
        cols = {"vel2": result.zeta_vel2[::stride], "res2": result.fpr2[::stride]}
        final_res2 = float(result.fpr2[-1])
        iters = result.n_iters
        candidate = result.x
    elif kind == "cripda":
        params = _cripda_params(solver)
        result = cripda.run_cripda(problem.saddle, params, problem.start,
                                   np.zeros(problem.saddle.d_dual),
                                   max_iter=max_iter, tol=tol)
        header = ["n", "vel2_M", "fpr2_M"]
        rows = list(zip(result.ns.tolist(), result.vel2, result.fpr2))[::stride]
        ns = result.ns[::stride]
        cols = {"vel2": result.vel2[::stride], "res2": result.fpr2[::stride]}
        final_res2 = float(result.fpr2[-1])
        iters = result.n_iters
        candidate = (result.x, result.y)
    elif kind in BASELINE_KINDS:
        extra = {k: solver[k] for k in ("lam", "alpha", "inertia", "ac_alpha",
                                        "ac_rho") if k in solver}
        result = baselines.run_baseline(kind, problem, problem.start,
                                        max_iter=max_iter, tol=tol,
                                        stride=stride, **extra)
        rows = [(int(n), v, None, r, None, None)
                for n, v, r in zip(result.ns, result.vel2, result.res2)]
        ns = result.ns
        cols = {"vel2": result.vel2, "res2": result.res2}
        final_res2 = float(result.res2[-1])
        iters = result.n_iters
        candidate = result.x
        if kind == "dr":
            candidate = baselines.dr_shadow(
                problem, solver.get("lam", baselines.default_step(kind, problem)),
                result.x)
    else:
        raise ValueError("unknown solver kind %r" % kind)

    write_trace_csv(paths["csv"], rows, header)
    ok, residual = problems.certify(problem, candidate, tol=cfg.get("certify_tol", 1e-6))
    slopes = {name: fit_slope(ns, col) for name, col in cols.items()}
    summary = {
        "config_hash": config_hash(cfg),
        "iterations": int(iters),
        "final_res2": final_res2,
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
    if solver.get("kind", "crifba") != "crifba":
        return {"status": "skipped", "reason": "history replay only covers the core solver"}
    params = _crifba_params(problem, solver)
    with np.load(history_path) as data:
        result = crifba.RunResult(
            X=data["X"], Z=data["Z"], V=data["V"], res2=data["res2"],
            x_prev_init=data["x_prev_init"], n_iters=data["X"].shape[0] - 1,
            stopped="replay", params=params)
    q = problem.certified_solution
    reports = checks.standard_suite(result, problem.A, problem.B,
                                    q=q if isinstance(q, np.ndarray) else None)
    executed = [r for r in reports if not r.status.startswith("skipped")]
    return {
        "status": "ok",
        "all_passed": all(r.passed for r in executed),
        "reports": [r.to_dict() for r in reports],
    }
