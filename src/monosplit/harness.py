"""Batch front end: JSON run configs, CSV traces, slope fits, summaries."""

import collections
import csv
import dataclasses
import hashlib
import json
import math
import os
import zipfile

import numpy as np

from . import baselines, checks, cripda, crifba, gcrifba, problems

# each solver kind: the field of a catalog problem it runs on, the solver
# keys it reads and those of them that may be null, for the solver's default
_SCHEDULE = ("e", "s0", "s1", "nu0", "w")
SOLVER_KEYS = {
    "crifba": ("A", _SCHEDULE + ("lam", "delta"), ("delta",)),
    "gcrifba": ("A_list", _SCHEDULE + ("lam",), ()),
    "cripda": ("saddle", _SCHEDULE + ("tau", "sigma", "delta"), ("delta",)),
    **dict.fromkeys(baselines._KINDS, ("A", ("lam", "alpha", "inertia", "ac_alpha",
                                             "ac_rho"), ("lam", "ac_rho")))}
RunConfig = collections.namedtuple(
    "RunConfig", "problem kind params max_iter tol stride output certify_tol")
CSV_ROWS = 4096     # the trace rows write_trace_csv formats at a time


def load_config(path):
    with open(path) as fh:
        return json.load(fh)


def config_hash(cfg):
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def output_dir():
    return os.environ.get("MONOSPLIT_OUT", ".")


def _object(value, where, keys=None):
    """value, a dict with no key outside keys (when given), or ValueError."""
    if type(value) is not dict:
        raise ValueError("%s must be an object, got %r" % (where, value))
    for key in value:
        if keys is not None and key not in keys:
            raise ValueError("unknown key %r in %s" % (key, where))
    return value


def _limit(block, key, default):
    """block[key] (default when unset), a number >= 0, as a float."""
    value = block.get(key, default)
    if type(value) not in (int, float) or not value >= 0:
        raise ValueError("%s must be a number >= 0, got %r" % (key, value))
    return float(value)


def read_config(cfg):
    """The run a config describes, read once through SOLVER_KEYS, as a
    RunConfig. params is the solver's parameter record, or a baseline's
    keyword arguments with lam default_step when unset or null. A solver
    field must be a number, null only where the solver's default is None;
    the solvers' validators check its range. ValueError on a key the kind
    does not read, a key it needs that is missing (cripda's tau and sigma),
    a field of the wrong type or a problem the kind does not run on;
    KeyError on an unknown or missing problem. Defaults: kind crifba,
    stride 1, max_iter 10**6 (1e6 reads as an integer), tol 1e-9, output
    run_<config hash>, certify_tol 1e-6."""
    _object(cfg, "config", ("problem", "solver", "stop", "stride", "output",
                            "certify_tol"))
    solver = _object(cfg.get("solver", {}), "solver")
    kind = solver.get("kind", "crifba")
    if type(kind) is not str or kind not in SOLVER_KEYS:
        raise ValueError("unknown solver kind %r" % (kind,))
    form, keys, nullable = SOLVER_KEYS[kind]
    _object(solver, "solver", ("kind",) + keys)
    given = {k: v for k, v in solver.items() if k != "kind"}
    for key, value in given.items():
        baselines.require_number(key, value, nullable=key in nullable)
    stride = cfg.get("stride", 1)
    if type(stride) is not int or stride < 1:
        raise ValueError("stride must be an integer >= 1, got %r" % (stride,))
    stop = _object(cfg.get("stop", {}), "stop", ("max_iter", "tol"))
    max_iter = stop.get("max_iter", 10**6)
    if type(max_iter) not in (int, float) or not max_iter >= 0 or max_iter % 1:
        raise ValueError("max_iter must be an integer >= 0, got %r" % (max_iter,))
    tol = _limit(stop, "tol", 1e-9)
    output = cfg.get("output", "run_%s" % config_hash(cfg))
    if type(output) is not str:
        raise ValueError("output must be a string, got %r" % (output,))
    certify_tol = _limit(cfg, "certify_tol", 1e-6)
    problem = problems.get(cfg["problem"])
    if getattr(problem, form) is None:
        raise ValueError("solver kind %r does not run on problem %r"
                         % (kind, problem.name))
    if kind == "crifba":
        params = crifba.default_params(problem.L_map(), **given)
    elif kind == "gcrifba":
        params = gcrifba.default_gcrifba_params(problem.beta, **given)
    elif kind == "cripda":
        missing = [f.name for f in dataclasses.fields(cripda.CripdaParams)
                   if f.default is dataclasses.MISSING and f.name not in given]
        if missing:
            raise ValueError("solver kind 'cripda' needs the key%s %s" % (
                "s" * (len(missing) > 1), " and ".join(map(repr, missing))))
        params = cripda.CripdaParams(**given)
    else:
        params = given
        if given.get("lam") is None:
            given["lam"] = baselines.default_step(kind, problem)
    return RunConfig(problem, kind, params, int(max_iter), tol, stride, output,
                     certify_tol)


def validate_config(cfg):
    """Make the checks a run of cfg makes, with its parameters, and no step;
    returns (ok, report), with the run's error message when it would fail.
    A KM kind reports core_violations (crifba.validate_core), and selector
    and margins (crifba.validate_metric) once those are empty; a baseline
    its step lam."""
    report = {"problem": cfg.get("problem") if type(cfg) is dict else None, "kind": None}
    try:
        rc = read_config(cfg)
        report["kind"] = rc.kind
        if rc.kind in ("crifba", "gcrifba", "cripda"):
            # the crifba parameters the run validates, on the stack for cripda
            params, d = rc.params, rc.problem.d if rc.kind == "crifba" else None
            if rc.kind == "cripda":
                params = cripda.stacked_problem(rc.problem.saddle, params)[2]
            ok, report["core_violations"] = crifba.validate_core(params)
            if ok:
                metric = crifba.validate_metric(params, d=d)
                report["selector"], report["margins"] = metric.selector, metric.margins
            if not (ok and metric.ok):
                crifba.validate(params, d=d)    # raises the run's error
        else:
            report["lam"] = rc.params["lam"]
            baselines.baseline_step(rc.kind, rc.problem, **rc.params)
        return True, report
    except (ValueError, KeyError, TypeError) as exc:
        report["error"] = str(exc)
        return False, report


def _core_solution(problem):
    """The certified solution as one vector, the (x, y) of a saddle problem
    stacked, or None when the problem certifies no single point."""
    q = problem.certified_solution
    if isinstance(q, tuple):
        return np.concatenate(q)
    return q if isinstance(q, np.ndarray) else None


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


def write_trace_csv(path, columns):
    """Write the trace columns (name: 1-D array, in CSV order, the integer
    n first); floats as %.17g, NaN (an undefined cell) as an empty cell.
    The rows are formatted and written CSV_ROWS at a time, the bytes of
    csv.writer's excel dialect: a row is formatted with one %, and the
    "nan" that %.17g gives a NaN, the only output of %d or %.17g that holds
    those letters, is then cut from the block."""
    names = list(columns)
    line = "%d" + ",%.17g" * (len(names) - 1) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(names)
        for a in range(0, len(columns[names[0]]), CSV_ROWS):
            cells = [columns[name][a:a + CSV_ROWS].tolist() for name in names]
            fh.write("".join([line % row for row in zip(*cells)]).replace("nan", ""))


def run_config(cfg, outdir=None):
    """Execute one run; returns (summary dict, artifact paths). Each kind
    gives its strided trace columns; the tail writes the columns of
    crifba.TRACE_COLUMNS, NaN where a kind gives none, and fits vel2, vn2
    and res2."""
    rc = read_config(cfg)
    problem, kind, params, stride = rc.problem, rc.kind, rc.params, rc.stride
    outdir = outdir or output_dir()
    os.makedirs(outdir, exist_ok=True)
    base = os.path.join(outdir, rc.output)
    paths = {"csv": base + ".csv", "summary": base + ".summary.json"}

    if kind in ("crifba", "cripda"):
        if kind == "crifba":
            A, B = problem.A, problem.B
            result = crifba.run(A, B, params, problem.start,
                                max_iter=rc.max_iter, tol=rc.tol)
            candidate = result.x
        else:
            pd = cripda.run_cripda(problem.saddle, params,
                                   problem.start, np.zeros(problem.saddle.d_dual),
                                   max_iter=rc.max_iter, tol=rc.tol)
            result, candidate = pd.core, (pd.x, pd.y)
            A, B = cripda.stacked_operators(problem.saddle)
        trace = crifba.diagnostics(result, A, B, q=_core_solution(problem),
                                   stride=stride)
        cols = {name: trace[name] for name in crifba.TRACE_COLUMNS}
        final_res2 = result.res2[-1]
        paths["history"] = base + ".history.npz"
        # uncompressed and without V, which check_history forms from X, Z
        # and v0: compression takes as long as the run and saves little
        np.savez(paths["history"], X=result.X, Z=result.Z, res2=result.res2,
                 x_prev_init=result.x_prev_init, v0=result._v0)
    elif kind == "gcrifba":
        result = gcrifba.run_gcrifba(problem.A_list, problem.B, params, problem.start,
                                     max_iter=rc.max_iter, tol=rc.tol)
        n = np.arange(0, result.n_iters + 1, stride)
        cols = {"n": n, "vel2": result.vel2[n], "vn2": result.vn2[n],
                "res2": result.res2[n]}
        final_res2 = result.res2[len(result.ns) - 1]
        candidate = result.x
    else:
        result = baselines.run_baseline(kind, problem, problem.start,
                                        max_iter=rc.max_iter, tol=rc.tol,
                                        stride=stride, **params)
        cols = {"n": result.ns, "vel2": result.vel2, "res2": result.res2}
        final_res2 = result.res2[-1] if len(result.res2) else math.nan
        candidate = result.x
        if kind == "dr":
            candidate = baselines.dr_shadow(problem, params["lam"], result.x)

    undefined = np.full(len(cols["n"]), np.nan)
    cols = {name: cols.get(name, undefined) for name in crifba.TRACE_COLUMNS}
    write_trace_csv(paths["csv"], cols)
    ok, residual = problems.certify(problem, candidate, tol=rc.certify_tol)
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
    """Replay every checker over a stored run history, an .npz archive of
    X, Z, res2, x_prev_init and v0, or of V in place of v0 as older runs
    wrote it; an error status when the config or the history cannot be
    read, or an array is not finite or not of the shape a run records."""
    try:
        rc = read_config(cfg)
        if rc.kind not in ("crifba", "cripda"):
            return {"status": "skipped",
                    "reason": "history replay covers the core and primal-dual solvers"}
        if rc.kind == "crifba":
            A, B, params = rc.problem.A, rc.problem.B, rc.params
        else:
            A, B, params = cripda.stacked_problem(rc.problem.saddle, rc.params)
        data = np.load(history_path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("history %s is not an .npz archive" % history_path)
        with data:
            # an archive written before v0 holds V, which is read as stored
            names = ("X", "Z", "res2", "x_prev_init", "V" if "V" in data.files else "v0")
            rec = {name: data[name] for name in names}
        n, d = len(np.atleast_1d(rec["X"])), rc.problem.d
        shapes = ((n, d), (n - 1, d), (n,), (d,), (n, d) if "V" in rec else (d,))
        for name, shape in zip(names, shapes):
            if rec[name].shape != shape:
                raise ValueError("history %s has shape %s, not %s"
                                 % (name, rec[name].shape, shape))
        result = crifba.RunResult(
            X=rec["X"], Z=rec["Z"], V=rec.get("V"), res2=rec["res2"],
            x_prev_init=rec["x_prev_init"], n_iters=n - 1, stopped="replay",
            params=params, _v0=rec.get("v0"))
    except (OSError, ValueError, KeyError, TypeError, zipfile.BadZipFile) as exc:
        return {"status": "error", "error": str(exc)}
    try:
        reports = checks.standard_suite(result, A, B, q=_core_solution(rc.problem))
    except ValueError as exc:       # a record with non-finite entries
        return {"status": "error", "error": str(exc)}
    executed = [r for r in reports if not r.status.startswith("skipped")]
    return {
        "status": "ok",
        "all_passed": all(r.passed for r in executed),
        "reports": [r.to_dict() for r in reports],
    }
