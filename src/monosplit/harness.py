"""Batch front end: JSON run configs, CSV traces, slope fits, summaries."""

import csv
import hashlib
import json
import math
import os

import numpy as np

from . import baselines, checks, cripda, crifba, gcrifba, problems

# the field of a catalog problem that each solver kind runs on
_FORMS = {"crifba": "A", "gcrifba": "A_list", "cripda": "saddle",
          **dict.fromkeys(baselines._KINDS, "A")}
CSV_ROWS = 4096     # the trace rows write_trace_csv formats at a time


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


def _problem(cfg, kind):
    """The config's catalog problem, which the solver kind must run on."""
    if kind not in _FORMS:
        raise ValueError("unknown solver kind %r" % kind)
    problem = problems.get(cfg["problem"])
    if getattr(problem, _FORMS[kind]) is None:
        raise ValueError("solver kind %r does not run on problem %r"
                         % (kind, problem.name))
    return problem


def validate_config(cfg):
    """Make the checks a run of cfg makes, with its parameters, and no step;
    returns (ok, report), with the run's error message when it would fail."""
    report = {"problem": cfg.get("problem"), "kind": None}
    try:
        solver, kind = solver_config(cfg)
        report["kind"] = kind
        trace_stride(cfg)
        stop_limits(cfg)
        problem = _problem(cfg, kind)
        if kind == "crifba":
            params = _crifba_params(problem, solver)
            ok, report["core_violations"] = crifba.validate_core(params)
            metric = crifba.validate_metric(params, d=problem.d)
            report["selector"], report["margins"] = metric.selector, metric.margins
            if not (ok and metric.ok):
                crifba.validate(params, d=problem.d)    # raises the run's error
        elif kind == "gcrifba":
            report["lam_bound"] = gcrifba.validate_gcrifba(
                _gcrifba_params(problem, solver))
        elif kind == "cripda":
            report["selector"], report["margins"] = cripda.validate_cripda(
                _cripda_params(solver), problem.saddle)
        else:
            params = _baseline_params(kind, problem, solver)
            report["lam"] = params["lam"]
            baselines.baseline_step(kind, problem, **params)
        return True, report
    except (ValueError, KeyError, TypeError) as exc:
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


def _baseline_params(kind, problem, solver_cfg):
    """A baseline run's keyword arguments, lam default_step when unset."""
    keys = ("lam", "alpha", "inertia", "ac_alpha", "ac_rho")
    params = {k: solver_cfg[k] for k in keys if k in solver_cfg}
    if params.get("lam") is None:
        params["lam"] = baselines.default_step(kind, problem)
    return params


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


def solver_config(cfg):
    """The config's solver object and kind (default crifba), or ValueError."""
    solver = cfg.get("solver", {})
    if type(solver) is not dict:
        raise ValueError("solver must be an object, got %r" % (solver,))
    return solver, solver.get("kind", "crifba")


def trace_stride(cfg):
    """The config's stride, an integer >= 1 (default 1); ValueError
    otherwise."""
    stride = cfg.get("stride", 1)
    if type(stride) is not int or stride < 1:
        raise ValueError("stride must be an integer >= 1, got %r" % (stride,))
    return stride


def stop_limits(cfg):
    """The config's max_iter, an integer >= 0 (default 10**6; 1e6 reads as
    one), and tol, a number >= 0 (default 1e-9); ValueError otherwise."""
    stop = cfg.get("stop", {})
    if type(stop) is not dict:
        raise ValueError("stop must be an object, got %r" % (stop,))
    max_iter = stop.get("max_iter", 10**6)
    if type(max_iter) not in (int, float) or not max_iter >= 0 \
            or max_iter % 1 != 0:
        raise ValueError("max_iter must be an integer >= 0, got %r" % (max_iter,))
    tol = stop.get("tol", 1e-9)
    if type(tol) not in (int, float) or not tol >= 0:
        raise ValueError("tol must be a number >= 0, got %r" % (tol,))
    return int(max_iter), float(tol)


def write_trace_csv(path, columns):
    """Write the trace columns (name: 1-D array, in CSV order, the integer
    n first); floats as %.17g, NaN (an undefined cell) as an empty cell.
    The rows are formatted and written CSV_ROWS at a time."""
    names = list(columns)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(names)
        for a in range(0, len(columns[names[0]]), CSV_ROWS):
            cells = [columns[name][a:a + CSV_ROWS].tolist() for name in names]
            cells[1:] = [["" if v != v else "%.17g" % v for v in c] for c in cells[1:]]
            wr.writerows(zip(*cells))


def run_config(cfg, outdir=None):
    """Execute one run; returns (summary dict, artifact paths). Each kind
    gives its strided trace columns; the tail writes the columns of
    crifba.TRACE_COLUMNS, NaN where a kind gives none, and fits vel2, vn2
    and res2."""
    stride = trace_stride(cfg)
    max_iter, tol = stop_limits(cfg)
    solver, kind = solver_config(cfg)
    problem = _problem(cfg, kind)
    outdir = outdir or output_dir()
    os.makedirs(outdir, exist_ok=True)
    base = os.path.join(outdir, cfg.get("output", "run_%s" % config_hash(cfg)))
    paths = {"csv": base + ".csv", "summary": base + ".summary.json"}

    if kind in ("crifba", "cripda"):
        if kind == "crifba":
            A, B = problem.A, problem.B
            result = crifba.run(A, B, _crifba_params(problem, solver), problem.start,
                                max_iter=max_iter, tol=tol)
            candidate = result.x
        else:
            pd = cripda.run_cripda(problem.saddle, _cripda_params(solver),
                                   problem.start, np.zeros(problem.saddle.d_dual),
                                   max_iter=max_iter, tol=tol)
            result, candidate = pd.core, (pd.x, pd.y)
            A, B = cripda.stacked_operators(problem.saddle)
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
    else:
        params = _baseline_params(kind, problem, solver)
        result = baselines.run_baseline(kind, problem, problem.start,
                                        max_iter=max_iter, tol=tol,
                                        stride=stride, **params)
        cols = {"n": result.ns, "vel2": result.vel2, "res2": result.res2}
        final_res2 = result.res2[-1] if len(result.res2) else math.nan
        candidate = result.x
        if kind == "dr":
            candidate = baselines.dr_shadow(problem, params["lam"], result.x)

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
        solver, kind = solver_config(cfg)
    except (KeyError, ValueError) as exc:
        return {"status": "error", "error": str(exc)}
    if kind not in ("crifba", "cripda"):
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
