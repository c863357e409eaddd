"""Smoke test of the benchmark at its tiny size.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload untraced and traced, and checks that every metric is
printed by name with its unit, that the correctness gate runs, that the
span file parses with non-negative self times, and that the command fails
without a result when the package is missing.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run([sys.executable, script, *args], capture_output=True,
                          text=True, cwd=cwd, timeout=170)
    return proc


def tiny(workload, trace, seed=3):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def printed(lines):
    """name -> unit of every table row."""
    rows = {}
    for line in lines:
        m = re.match(r"^  (\S+)\s+(\S+)\s+(\S+)(\s+# \S+ in seconds)?$", line)
        if m:
            float(m.group(2))
            rows[m.group(1)] = m.group(3)
    return rows


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_prints_every_metric(workload):
    table, result = tiny(workload, 0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.JSON_E2E)
    rows = printed(table)
    for name, (unit, only) in run.E2E.items():
        if only is None or workload in only:
            assert rows[name] == unit
    for name in run.JSON_E2E:
        assert result["metrics"][name]["unit"] == run.E2E[name][0]
        assert result["metrics"][name]["value"] > 0
    if workload == "long_core":
        digests = [line for line in table if line.startswith("digest ")]
        assert len(digests) == 3


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_writes_spans(workload):
    table, result = tiny(workload, 1, seed=4)
    assert result["correct"] is True
    rows = printed(table)
    for name, unit in tracing.UNITS.items():
        assert rows[name] == unit
        assert result["metrics"][name]["unit"] == unit
    assert "trace.overhead_s" in result["metrics"]
    spans = tracing.Spans.load(os.path.join(run.OUT, "spans", workload + ".npz"))
    assert len(spans.name_id) > 0
    assert (spans.dur >= 0).all() and (spans.self_ns >= 0).all()
    assert (spans.parent < np.arange(len(spans.parent))).all()
    # steps counted from outside match the step calls the trace saw
    step_spans = spans.count("crifba.crifba_step") + spans.count("gcrifba.gcrifba_step") \
        + spans.count("cripda.cripda_step")
    if workload == "long_core":
        size = workloads.SIZES["tiny"]
        assert step_spans == 2 * size["core_steps"] + size["block_steps"]
    if workload == "solve_to_tol":
        start_set = 4 % workloads.START_SETS
        counts = workloads.load_expected_steps()["tiny"][str(start_set)]
        assert step_spans == counts["crifba"] + counts["gcrifba"] + counts["cripda"]


def test_gate_catches_wrong_step_counts():
    inputs = workloads.make_inputs("solve_to_tol", 0, "tiny")
    recorded = workloads.load_expected_steps()["tiny"]["0"]
    inputs["expected_steps"] = dict(recorded, crifba=recorded["crifba"] + 1)
    rec = workloads.run_pass("solve_to_tol", inputs, HERE)
    failed = {r["run"]: r["reason"] for r in rec.runs if not r["ok"]}
    assert list(failed) == ["crifba:p2_lasso"]
    assert failed["crifba:p2_lasso"].startswith("steps ")


def test_failures_are_counted_with_their_class():
    rec = workloads.Pass()

    def bad(r):
        raise ValueError("vector has non-finite entries")

    def wrong(r):
        raise workloads.RunFailed("diverged")

    rec.attempt("a", bad)
    rec.attempt("b", wrong)
    rec.attempt("c", lambda r: None)
    assert [(r["ok"], r["reason"]) for r in rec.runs] == [
        (False, "ValueError: vector has non-finite entries"), (False, "diverged"),
        (True, None)]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: run.E2E[k][0] for k in run.JSON_E2E}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        dict(tracing.UNITS, **{"trace.overhead_s": "s"})


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "long_core", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path,
                 script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
