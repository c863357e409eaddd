"""Command line front end.

Subcommands: validate, run, check, compare. Exit codes: 0 pass,
1 violation/failed check, 2 usage or parse error.
"""

import argparse
import json
import sys
from functools import lru_cache

from . import harness


def _load(path):
    try:
        return harness.load_config(path)
    except (OSError, json.JSONDecodeError) as exc:
        print("config error in %s: %s" % (path, exc), file=sys.stderr)
        raise SystemExit(2)


def cmd_validate(args):
    cfg = _load(args.config)
    ok, report = harness.validate_config(cfg)
    print(json.dumps(report, indent=2, default=float))
    return 0 if ok else 1


def cmd_run(args):
    cfg = _load(args.config)
    ok, report = harness.validate_config(cfg)
    if not ok:
        print(json.dumps(report, indent=2, default=float))
        return 1
    summary, paths = harness.run_config(cfg, outdir=args.outdir)
    summary["artifacts"] = paths
    print(json.dumps(summary, indent=2, default=float))
    return 0


def cmd_check(args):
    cfg = _load(args.config)
    report = harness.check_history(args.history, cfg)
    print(json.dumps(report, indent=2, default=float))
    if report["status"] == "error":
        return 1
    if report["status"] != "ok":
        return 0
    return 0 if report["all_passed"] else 1


def cmd_compare(args):
    table = []
    for path in args.configs:
        cfg = _load(path)
        ok, vreport = harness.validate_config(cfg)
        if not ok:
            table.append({"config": path, "status": "invalid", "report": vreport})
            continue
        summary, _ = harness.run_config(cfg, outdir=args.outdir)
        table.append({"config": path, "status": "ok",
                      "iterations": summary["iterations"],
                      "final_res2": summary["final_res2"],
                      "certify": summary["certify"],
                      "res2_slope": summary["slopes"]["res2"].get("slope")})
    print(json.dumps(table, indent=2, default=float))
    return 0 if all(t["status"] == "ok" for t in table) else 1


@lru_cache(maxsize=None)
def _parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged."""
    ap = argparse.ArgumentParser(prog="monosplit",
                                 description="splitting solver benchmark harness")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="check a run config without iterating")
    p.add_argument("config")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("run", help="execute a run config, emit CSV + summary")
    p.add_argument("config")
    p.add_argument("--outdir", default=None)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("check", help="replay trace checkers over a stored history")
    p.add_argument("history")
    p.add_argument("config")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("compare", help="run several configs and tabulate")
    p.add_argument("configs", nargs="+")
    p.add_argument("--outdir", default=None)
    p.set_defaults(fn=cmd_compare)
    return ap


def main(argv=None):
    args = _parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
