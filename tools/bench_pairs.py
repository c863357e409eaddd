#!/usr/bin/env python3
"""A/B pairs of the benchmark between two checkouts of the repository.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workloads harness_sweep long_core solve_to_tol --pairs 10 \\
        --seeds 21 22 23 --seconds 10 --out BENCH_prNN.json

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in each checkout, one after the other, with the environment RUN_ENV,
which "settings" records: OPENBLAS_NUM_THREADS=1, and
PYTHONDONTWRITEBYTECODE=1, so that no run leaves a bytecode cache and every
run in a fresh checkout compiles the package from source (a warm cache
lowers setup_s and peak_rss_mb). The side that runs first alternates from
pair to pair (the parent first in even pairs), and the seeds are used in
turn. Every run is the JSON object on the last stdout line of run.py, kept
whole under "runs". "summary" holds, per workload and end-to-end metric,
each side's quartiles and median over the pairs, the pairs in which the
change is better (by the metric's direction in BENCHMARK.json, ties
counting for neither side), the change of the medians in percent, and
"gain": true when the change is better in at least nine tenths of the
pairs, its median is better than the parent's by more than the parent's
interquartile range and its runs fail no more operations than the parent's
("failed", summed per side). A row flags a regression two ways: "worse":
true when the change is worse in at least nine tenths of the pairs and its
median is worse than the parent's by more than the parent's interquartile
range, and "beyond_bound": true when its median moved against the metric by
more than the metric's BENCHMARK.json "bound", a fraction of the parent's
median. Each summary row is also printed to stdout as one line, which names
the gain and both flags when they hold. "machine" records the CPU, the CPU
count, the OS and the Python and numpy that run this script, and
"parent"/"change" the commits (read with git, or given with
--parent-commit/--change-commit).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
# the environment every benchmark run gets on top of this script's
RUN_ENV = {"OPENBLAS_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}


def commit_of(path, given):
    if given:
        return given
    proc = subprocess.run(["git", "-C", path, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine():
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"cpu": cpu_model(), "cpus": os.cpu_count(), "os": platform.platform(),
            "python": platform.python_version(), "numpy": numpy_version}


def run_once(checkout, workload, seed, seconds):
    """The JSON result of one benchmark run in checkout."""
    env = dict(os.environ, **RUN_ENV)
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s failed (exit %d): %s" % (" ".join(cmd), proc.returncode,
                                                        proc.stderr[-2000:]))
    return json.loads(lines[-1])


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs, directions, bounds=None):
    """Per workload and metric: quartiles of each side, wins and losses of
    the change, failed operations of each side, the gain and the two
    regression flags; bounds maps a metric to its bound, and a metric
    without one is never beyond it."""
    out = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        pairs = sorted({r["pair"] for r in mine})
        side = {(r["pair"], r["side"]): r["result"]["metrics"] for r in mine}
        names = [m for m in directions if all(m in side[p, s] for p in pairs for s in SIDES)]
        for name in names:
            values = {s: [side[p, s][name]["value"] for p in pairs] for s in SIDES}
            higher = directions[name] == "higher"
            wins = sum((c > p) if higher else (c < p)
                       for p, c in zip(values["parent"], values["change"]))
            losses = sum((c < p) if higher else (c > p)
                         for p, c in zip(values["parent"], values["change"]))
            stats = {s: quartiles(values[s]) for s in SIDES}
            iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
            ahead = stats["change"]["median"] - stats["parent"]["median"]
            ahead = ahead if higher else -ahead
            bound = (bounds or {}).get(name)
            failed = {s: sum(r["result"]["failed"] for r in mine if r["side"] == s)
                      for s in SIDES}
            out.append({
                "workload": workload, "metric": name, "pairs": len(pairs),
                "seeds": sorted({r["seed"] for r in mine}),
                "parent": stats["parent"], "change": stats["change"],
                "parent_iqr": iqr,
                "change_better_pairs": wins,
                "change_worse_pairs": losses,
                "median_change_pct": 100.0 * (stats["change"]["median"]
                                              / stats["parent"]["median"] - 1.0),
                "failed": failed,
                "gain": (wins >= 0.9 * len(pairs) and ahead > iqr
                         and failed["change"] <= failed["parent"]),
                "worse": losses >= 0.9 * len(pairs) and -ahead > iqr,
                "bound": bound,
                "beyond_bound": (bound is not None
                                 and -ahead > bound * abs(stats["parent"]["median"])),
                "all_correct": all(r["result"]["correct"] and r["result"]["failed"] == 0
                                   for r in mine),
            })
    return out


def verdict(row):
    """One line of a summary row: each side's median and interquartile
    range, the change of the medians, the pairs the change won, and the
    gain and the regression flags that hold."""
    sides = ["%s %.6g (IQR %.3g)" % (s, row[s]["median"], row[s]["q3"] - row[s]["q1"])
             for s in SIDES]
    flags = [text for key, text in (
        ("gain", "gain"),
        ("worse", "worse in %d/%d pairs" % (row["change_worse_pairs"], row["pairs"])),
        ("beyond_bound", "beyond the %g %% bound" % (100 * (row["bound"] or 0)))) if row[key]]
    return "%s %s: %s; %+.1f %%, change better in %d/%d pairs%s" % (
        row["workload"], row["metric"], ", ".join(sides), row["median_change_pct"],
        row["change_better_pairs"], row["pairs"], "".join(", " + f for f in flags))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", default=".", help="checkout of the change")
    ap.add_argument("--workloads", nargs="+",
                    default=["harness_sweep", "long_core", "solve_to_tol"])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--parent-commit")
    ap.add_argument("--change-commit")
    ap.add_argument("--what", default="")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]
    directions = {m["name"]: m["better"] for m in end_to_end}
    bounds = {m["name"]: m["bound"] for m in end_to_end if "bound" in m}
    runs = []
    for workload in args.workloads:
        for pair in range(args.pairs):
            seed = args.seeds[pair % len(args.seeds)]
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run_once(checkouts[side], workload, seed, args.seconds)
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "pair": pair, "first": order[0], "result": result})
                print("%s pair %d seed %d %s: steps_per_s %.0f" % (
                    workload, pair, seed, side,
                    result["metrics"]["steps_per_s"]["value"]), file=sys.stderr)
    report = {
        "what": args.what or (
            "A/B of perfbench/run.py between two checkouts, alternating which "
            "side runs first; each run is the last stdout line of one "
            "`python3 perfbench/run.py --workload W --seed S --seconds %g "
            "--trace 0` with %s." % (args.seconds, " and ".join(
                "%s=%s" % kv for kv in RUN_ENV.items()))),
        "settings": {"workloads": args.workloads, "pairs": args.pairs,
                     "seeds": args.seeds, "seconds": args.seconds, "env": RUN_ENV},
        "machine": machine(),
        "parent": {"commit": commit_of(checkouts["parent"], args.parent_commit)},
        "change": {"commit": commit_of(checkouts["change"], args.change_commit)},
        "summary": summarize(runs, directions, bounds),
        "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for row in report["summary"]:
        print(verdict(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
