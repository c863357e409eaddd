"""The monosplit benchmark: one command, one workload, one seed.

    python3 perfbench/run.py --workload long_core --seed 0 --seconds 30 --trace 0

Run it from anywhere; it finds the package in ``src/`` next to this
directory and never uses an installed copy. Load is a closed loop: one
caller, no threads, runs issued one after another. Every repetition of a
workload (a "pass") runs in a fresh process, so set-up time and peak memory
belong to that repetition. A run of this command does:

1. one set-up-only process as a warm-up (discarded), then ten more whose
   set-up times are kept;
2. ``--trace 0``: whole passes until ``--seconds`` is spent (at least one);
   ``--trace 1``: two untraced passes, then traced passes until the time is
   spent (at least one). The traced passes write their spans to
   ``.perfbench_out/spans/<workload>.npz``.

It prints a table of every metric by name and unit, the SHA-256 digest of
every fixed-N run, every failed run with its reason, and, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The JSON holds the end-to-end metrics that every workload defines
(``--trace 0``) or the per-layer metrics (``--trace 1``). Timings are
medians over passes. End-to-end times are in reference seconds, seconds
scaled by the machine's speed at the time (speed.py), so that a shared
machine speeding up or slowing down does not read as a change of the
program; the table prints the plain seconds beside them. The exit code is
0 whenever the result was printed; a missing package or a crashed worker
exits 2 and prints no result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_PROCESSES = 10
# untraced passes of a --trace 1 run, whose median wall_s the overhead
# of tracing is measured against
UNTRACED_IN_TRACE = 2
# every run must end within 180 s; no pass starts that would end after this
DEADLINE_S = 170.0

# name -> (unit, workloads that define it); the JSON line carries the
# metrics every workload defines, the table prints all of them
E2E = {
    "setup_s": ("s", None),
    "wall_s": ("s", None),
    "steps_per_s": ("1/s", None),
    "peak_rss_mb": ("MB", None),
    "time_to_tol_s": ("s", ("solve_to_tol",)),
    "replay_rows_per_s": ("1/s", ("long_core", "harness_sweep")),
    "runs_per_s": ("1/s", ("harness_sweep",)),
    "run_latency_p50_s": ("s", ("harness_sweep",)),
    "run_latency_p90_s": ("s", ("harness_sweep",)),
    "failed_frac": ("1", None),
}
JSON_E2E = ("setup_s", "wall_s", "steps_per_s", "peak_rss_mb")


class WorkerError(Exception):
    pass


class Runner:
    """Starts worker processes one at a time and waits for each."""

    def __init__(self, workload, inputs_path, scratch, t0):
        self.workload = workload
        self.inputs_path = inputs_path
        self.scratch = scratch
        self.t0 = t0

    def spawn(self, mode, trace=0, spans=None):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        s = speed.measure(speed.SETUP_READINGS)
        t_spawn = time.monotonic()
        cmd = [sys.executable, WORKER, "--workload", self.workload,
               "--inputs", self.inputs_path, "--t-spawn", repr(t_spawn),
               "--speed", repr(s), "--mode", mode, "--trace", str(trace),
               "--scratch", self.scratch]
        if spans:
            cmd += ["--spans", spans]
        timeout = max(1.0, self.t0 + DEADLINE_S - t_spawn)
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=timeout, env=env, cwd=ROOT)
        except subprocess.TimeoutExpired:
            raise WorkerError("worker exceeded %.0f s" % timeout)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise WorkerError("worker exited %d: %s" % (proc.returncode,
                                                      proc.stderr.strip()[-2000:]))
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def passes(self, trace, seconds, spans=None):
        """Whole passes until the time is spent; never past the deadline."""
        out, took = [], []
        while True:
            elapsed = time.monotonic() - self.t0
            est = statistics.median(took) if took else 0.0
            if out and elapsed + est > min(seconds, DEADLINE_S):
                return out
            ts = time.monotonic()
            out.append(self.spawn("pass", trace, spans))
            took.append(time.monotonic() - ts)


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def end_to_end(workload, passes, setups, ref="_ref"):
    """Every end-to-end metric the workload defines, as medians over passes:
    in reference seconds, or with ``ref=""`` in seconds."""
    runs = [r for p in passes for r in p["runs"]]
    setup, wall, solver, replay, latency = (k + ref for k in (
        "setup_s", "wall_s", "solver_s", "replay_s", "latency_s"))
    m = {
        "setup_s": _median([x[setup] for x in setups + passes]),
        "wall_s": _median([p[wall] for p in passes]),
        "steps_per_s": _median([p["steps"] / p[solver]
                                for p in passes if p[solver] > 0]),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in passes]),
        "failed_frac": sum(not r["ok"] for r in runs) / max(len(runs), 1),
    }
    if workload == "solve_to_tol":
        m["time_to_tol_s"] = _median([p[solver] for p in passes])
    if workload in E2E["replay_rows_per_s"][1]:
        m["replay_rows_per_s"] = _median([p["replay_rows"] / p[replay]
                                          for p in passes if p[replay] > 0])
    if workload == "harness_sweep":
        m["runs_per_s"] = _median([len(p["runs"]) / sum(r[latency] for r in p["runs"])
                                   for p in passes])
        lat = sorted(r[latency] for r in runs)
        m["run_latency_p50_s"] = statistics.median(lat)
        m["run_latency_p90_s"] = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    return m


def check_outputs(passes):
    """Failed runs with reasons, plus digests that differ between passes."""
    problems = []
    for p in passes:
        for r in p["runs"]:
            if not r["ok"]:
                problems.append("failed run %s: %s" % (r["run"], r["reason"]))
    first = [(d["run"], d["sha256"]) for d in passes[0]["digests"]]
    for p in passes[1:]:
        if [(d["run"], d["sha256"]) for d in p["digests"]] != first:
            problems.append("fixed-N digests differ between passes of one seed")
            break
    return problems


def print_table(title, metrics, units, raw=None):
    """One row per metric: name, value, unit, and with ``raw`` the value
    in plain seconds after a '#'."""
    print(title)
    for name, value in metrics.items():
        line = "  %-40s %-16.6g %s" % (name, value, units[name])
        if raw is not None and raw[name] != value:
            line = "%-66s # %.6g in seconds" % (line, raw[name])
        print(line)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs every path quickly, for the smoke test")
    args = ap.parse_args(argv)
    t0 = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "monosplit", "__init__.py")):
        print("no monosplit package under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print("unknown workload %r" % args.workload, file=sys.stderr)
        return 2

    speed.kernel()      # warm-up of the parent's speed readings
    inputs = workloads.make_inputs(args.workload, args.seed, args.size)
    if args.workload == "solve_to_tol":
        recorded = workloads.load_expected_steps().get(args.size, {})
        inputs["expected_steps"] = recorded.get(str(inputs["start_set"]))
        if inputs["expected_steps"] is None:
            print("no recorded step counts for start set %d" % inputs["start_set"],
                  file=sys.stderr)
            return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        inputs_path = os.path.join(workdir, "inputs.json")
        with open(inputs_path, "w") as fh:
            json.dump(inputs, fh)
        runner = Runner(args.workload, inputs_path, workdir, t0)
        try:
            runner.spawn("setup")
            setups = [runner.spawn("setup") for _ in range(SETUP_PROCESSES)]
            if args.trace:
                plain = [runner.spawn("pass") for _ in range(UNTRACED_IN_TRACE)]
                os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
                spans = os.path.join(OUT, "spans", args.workload + ".npz")
                traced = runner.passes(1, args.seconds, spans)
            else:
                plain = runner.passes(0, args.seconds)
                traced = []
        except WorkerError as exc:
            print("benchmark aborted: %s" % exc, file=sys.stderr)
            return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = plain + traced
    e2e = end_to_end(args.workload, plain, setups)
    units = {k: v[0] for k, v in E2E.items()}
    print_table("%s seed %d (%s): %d untraced passes, %d set-ups; times in "
                "reference seconds" % (args.workload, args.seed, args.size, len(plain),
                                       len(setups) + len(plain)),
                e2e, units, end_to_end(args.workload, plain, setups, ref=""))
    if args.workload == "harness_sweep":
        print("  run latency samples: %d" % sum(len(p["runs"]) for p in plain))
    for d in plain[0]["digests"]:
        print("digest %-12s steps=%d sha256=%s" % (d["run"], d["steps"], d["sha256"]))

    if traced:
        import tracing
        layer_units = dict(tracing.UNITS, **{"trace.overhead_s": "s"})
        per_layer = {name: _median([p["per_layer"][name] for p in traced])
                     for name in tracing.UNITS}
        per_layer["trace.overhead_s"] = (_median([p["wall_s_ref"] for p in traced])
                                         - e2e["wall_s"])
        print_table("per-layer, %d traced passes (spans: %s)" % (len(traced), spans),
                    per_layer, layer_units)
        metrics = {k: {"value": v, "unit": layer_units[k]} for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": units[k]} for k in JSON_E2E}

    problems = check_outputs(everything)
    for line in problems:
        print(line)
    attempted = sum(len(p["runs"]) for p in everything)
    failed = sum(not r["ok"] for p in everything for r in p["runs"])
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
