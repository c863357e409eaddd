"""Record the step counts of every solve_to_tol start set.

    python3 perfbench/record_steps.py --size full

Runs each start set's solves once, untimed, and writes their step counts
into expected_steps.json, which the benchmark compares every solve
against. Re-record only for a change that is meant to alter iteration
counts, and say so in that change.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    args = ap.parse_args(argv)
    path = workloads.EXPECTED_STEPS
    table = workloads.load_expected_steps() if os.path.exists(path) else {}
    recorded = table.setdefault(args.size, {})
    for start_set in range(workloads.START_SETS):
        inputs = workloads.make_inputs("solve_to_tol", start_set, args.size)
        rec = workloads.run_pass("solve_to_tol", inputs, HERE)
        bad = [r for r in rec.runs if not r["ok"]]
        if bad:
            raise SystemExit("start set %d: %r" % (start_set, bad))
        recorded[str(start_set)] = rec.steps_by_solve
        print(start_set, rec.steps_by_solve, flush=True)
    with open(path, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
