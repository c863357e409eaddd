"""One repetition of one workload in a fresh process.

Started by run.py, never by hand. With ``--mode setup`` the process stops
at its first solver call, so it measures set-up alone; with ``--mode pass``
it runs the whole pass. It prints one JSON object as its last stdout line.

Untraced, the only shims are timers around the solver entry points and
``checks.standard_suite`` (one wrapper per call, not per step), so that
set-up ends at the first solver call and steps per second count time
inside solver calls only. An interval timer ticks the speed log
(speed.py) throughout, so every interval is also reported in reference
seconds. ``--trace 1`` also installs the span tracer.
"""

import argparse
import inspect
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class SetupDone(BaseException):
    """Raised at the first solver call of a set-up-only process; derives
    from BaseException so the per-run failure handlers let it through."""


class SolverClock:
    """Times solver calls and oracle replays from outside the solver."""

    def __init__(self, setup_only, speed):
        self.setup_only = setup_only
        self.speed = speed
        self.first_call = None
        self.solver = []        # (start, end) of every timed solver call
        self.steps = 0
        self.replay = []
        self.replay_rows = 0

    def install(self):
        from monosplit import baselines, checks, crifba, cripda, gcrifba
        from workloads import steps_performed
        for mod, attr, solver in ((crifba, "run", "crifba"),
                                  (gcrifba, "run_gcrifba", "gcrifba"),
                                  (cripda, "run_cripda", "cripda"),
                                  (baselines, "run_baseline", None)):
            setattr(mod, attr, self._solver(getattr(mod, attr), solver, steps_performed))
        checks.standard_suite = self._replay(checks.standard_suite)

    def _solver(self, fn, solver, steps_performed):
        sig = inspect.signature(getattr(fn, "__wrapped__", fn))

        def timed(*args, **kwargs):
            a = sig.bind(*args, **kwargs)
            a.apply_defaults()
            max_iter = a.arguments["max_iter"]
            if max_iter == 0:
                return fn(*args, **kwargs)      # harness feasibility probe
            if self.first_call is None:
                self.first_call = time.monotonic()
                self.speed.tick()
                if self.setup_only:
                    raise SetupDone()
            t0 = time.monotonic()
            out = fn(*args, **kwargs)
            self.solver.append((t0, time.monotonic()))
            self.steps += steps_performed(solver or a.arguments["kind"], out, max_iter)
            return out

        return timed

    def _replay(self, fn):
        def timed(result, *args, **kwargs):
            t0 = time.monotonic()
            out = fn(result, *args, **kwargs)
            self.replay.append((t0, time.monotonic()))
            self.replay_rows += int(result.Z.shape[0])
            return out

        return timed


def peak_rss_mb():
    """High-water mark of this process's own resident memory (VmHWM; unlike
    ru_maxrss it does not carry over the parent's memory at exec)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--t-spawn", type=float, required=True,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--speed", type=float, required=True,
                    help="speed of the parent just before the spawn")
    ap.add_argument("--mode", choices=("setup", "pass"), required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", default=None, help="where a traced pass writes spans")
    ap.add_argument("--scratch", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import monosplit
    src = os.path.join(ROOT, "src", "monosplit")
    if os.path.dirname(os.path.abspath(monosplit.__file__)) != src:
        raise SystemExit("monosplit imported from %s, not %s" % (monosplit.__file__, src))
    import speed
    import workloads

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    log = speed.SpeedLog(args.t_spawn, args.speed)
    log.start()
    clock = SolverClock(args.mode == "setup", log)
    clock.install()
    with open(args.inputs) as fh:
        inputs = json.load(fh)

    def both(name, intervals):
        """name (seconds) and name_ref (reference seconds), summed."""
        return {name: sum(log.raw(a, b) for a, b in intervals),
                name + "_ref": sum(log.scaled(a, b) for a, b in intervals)}

    try:
        rec = workloads.run_pass(args.workload, inputs, args.scratch)
    except SetupDone:
        log.stop()
        print(json.dumps(both("setup_s", [(args.t_spawn, clock.first_call)])))
        return 0
    t_end = time.monotonic()
    log.stop()
    log.tick()
    peak = peak_rss_mb()
    first_call = clock.first_call if clock.first_call is not None else t_end
    for r in rec.runs:
        r.update(both("latency_s", [(r.pop("t0"), r.pop("t1"))]))
    out = dict(both("setup_s", [(args.t_spawn, first_call)]),
               **both("wall_s", [(args.t_spawn, t_end)]),
               **both("solver_s", clock.solver), **both("replay_s", clock.replay),
               steps=clock.steps, replay_rows=clock.replay_rows, peak_rss_mb=peak,
               runs=rec.runs, digests=rec.digests)
    if tracer is not None:
        out["per_layer"] = tracer.analyse(runs=len(rec.runs))
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
