"""tools/bench_pairs.py's summary of A/B pairs: quartiles, pair wins and
the gain rule, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DIRECTIONS = {"steps_per_s": "higher", "wall_s": "lower"}


def synthetic_runs(parent, change, metric="steps_per_s", workload="long_core",
                   failed=None):
    """Runs of one workload, pair i reading parent[i] and change[i];
    failed maps (pair, side) to the failed operations of that run."""
    runs = []
    for pair, values in enumerate(zip(parent, change)):
        for side, value in zip(bench_pairs.SIDES, values):
            runs.append({"workload": workload, "seed": 7, "side": side, "pair": pair,
                         "result": {"correct": True,
                                    "failed": (failed or {}).get((pair, side), 0),
                                    "metrics": {metric: {"value": value}}}})
    return runs


def only_row(runs):
    rows = bench_pairs.summarize(runs, DIRECTIONS)
    assert len(rows) == 1
    return rows[0]


def test_a_clear_win_is_a_gain():
    parent = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]
    row = only_row(synthetic_runs(parent, [v + 10.0 for v in parent]))
    assert row["pairs"] == 10 and row["change_better_pairs"] == 10
    assert row["parent"]["median"] == 104.5 and row["change"]["median"] == 114.5
    assert row["parent_iqr"] == pytest.approx(4.5)
    assert row["median_change_pct"] == pytest.approx(100.0 * (114.5 / 104.5 - 1.0))
    assert row["gain"] is True and row["all_correct"] is True
    line = bench_pairs.verdict(row)
    assert line.startswith("long_core steps_per_s: parent 104.5 (IQR 4.5), change 114.5")
    assert line.endswith("+9.6 %, change better in 10/10 pairs, gain")


def test_a_gain_needs_nine_tenths_of_the_pairs():
    # 8 wins and 2 ties: ties count for neither side
    parent = [float(v) for v in range(100, 110)]
    change = [v + 10.0 for v in parent[:8]] + parent[8:]
    row = only_row(synthetic_runs(parent, change))
    assert row["change_better_pairs"] == 8 and row["gain"] is False
    assert not bench_pairs.verdict(row).endswith("gain")


def test_a_gain_needs_the_medians_apart_by_more_than_the_parent_iqr():
    # the change wins every pair by 1, but the parent's quartiles are 4.5 apart
    parent = [float(v) for v in range(100, 110)]
    row = only_row(synthetic_runs(parent, [v + 1.0 for v in parent]))
    assert row["change_better_pairs"] == 10 and row["gain"] is False


def test_lower_is_better_where_the_benchmark_says_so():
    parent = [2.0, 2.1, 2.0, 2.2, 2.1, 2.0, 2.1, 2.2, 2.0, 2.1]
    faster = only_row(synthetic_runs(parent, [v - 0.5 for v in parent], metric="wall_s"))
    assert faster["change_better_pairs"] == 10 and faster["gain"] is True
    slower = only_row(synthetic_runs(parent, [v + 0.5 for v in parent], metric="wall_s"))
    assert slower["change_better_pairs"] == 0 and slower["gain"] is False


def test_a_gain_does_not_count_when_the_change_fails_more_operations():
    parent = [float(v) for v in range(100, 110)]
    change = [v + 10.0 for v in parent]
    worse = only_row(synthetic_runs(parent, change, failed={(3, "change"): 1}))
    assert worse["change_better_pairs"] == 10
    assert worse["failed"] == {"parent": 0, "change": 1}
    assert worse["gain"] is False and worse["all_correct"] is False
    assert not bench_pairs.verdict(worse).endswith("gain")
    # as many failures on each side leave the gain standing
    even = only_row(synthetic_runs(parent, change,
                                   failed={(3, "change"): 1, (5, "parent"): 1}))
    assert even["failed"] == {"parent": 1, "change": 1} and even["gain"] is True


def test_a_clear_loss_is_flagged_worse():
    parent = [float(v) for v in range(100, 110)]
    row = only_row(synthetic_runs(parent, [v - 10.0 for v in parent]))
    assert row["change_worse_pairs"] == 10 and row["change_better_pairs"] == 0
    assert row["worse"] is True and row["gain"] is False
    # down 9.6 %, inside a 25 % bound
    assert row["beyond_bound"] is False and row["bound"] is None
    assert bench_pairs.verdict(row).endswith(
        "-9.6 %, change better in 0/10 pairs, worse in 10/10 pairs")
    # lower is better for wall_s: a slower change is worse there
    slower = only_row(synthetic_runs([2.0 + 0.01 * i for i in range(10)],
                                     [2.5 + 0.01 * i for i in range(10)], metric="wall_s"))
    assert slower["worse"] is True and slower["change_worse_pairs"] == 10


def test_worse_needs_nine_tenths_of_the_pairs_and_the_parent_iqr():
    parent = [float(v) for v in range(100, 110)]
    # 8 losses and 2 ties
    eight = only_row(synthetic_runs(parent, [v - 10.0 for v in parent[:8]] + parent[8:]))
    assert eight["change_worse_pairs"] == 8 and eight["worse"] is False
    # every pair lost by 1, inside the parent's quartiles 4.5 apart
    close = only_row(synthetic_runs(parent, [v - 1.0 for v in parent]))
    assert close["change_worse_pairs"] == 10 and close["worse"] is False


def test_beyond_bound_reads_the_bound_as_a_fraction_of_the_parent_median():
    parent = [float(v) for v in range(100, 110)]
    bounds = {"steps_per_s": 0.25, "wall_s": 0.25}

    def row(change, metric="steps_per_s", base=parent):
        rows = bench_pairs.summarize(synthetic_runs(base, change, metric=metric),
                                     DIRECTIONS, bounds)
        assert len(rows) == 1
        return rows[0]

    # the parent median is 104.5: a fall of 30 % is past the bound, 20 % is not
    far = row([0.7 * v for v in parent])
    assert far["beyond_bound"] is True and far["worse"] is True and far["bound"] == 0.25
    assert bench_pairs.verdict(far).endswith(
        "worse in 10/10 pairs, beyond the 25 % bound")
    assert row([0.8 * v for v in parent])["beyond_bound"] is False
    # a rise moves with the metric, however large
    assert row([2.0 * v for v in parent])["beyond_bound"] is False
    # one pair's outlier does not move the medians past the bound
    assert row(parent[:9] + [10.0])["beyond_bound"] is False
    # for wall_s a rise is against the metric
    slow = row([1.3 * v for v in parent], metric="wall_s")
    assert slow["beyond_bound"] is True and slow["change_better_pairs"] == 0
    assert row([0.5 * v for v in parent], metric="wall_s")["beyond_bound"] is False


class Finished:
    """What the stubbed subprocess.run returns."""

    def __init__(self, stdout):
        self.returncode, self.stdout, self.stderr = 0, stdout, ""


def stub_subprocess(monkeypatch, calls):
    """subprocess.run logging (cmd, env) into calls: a git call reads a
    commit, a benchmark run prints one result line."""
    def run(cmd, **kw):
        calls.append((cmd, kw.get("env")))
        if cmd[0] == "git":
            return Finished("abc123\n")
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"steps_per_s": {"value": 100.0, "unit": "1/s"}}}
        return Finished("table\n" + bench_pairs.json.dumps(result) + "\n")
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)


def test_a_run_compiles_without_bytecode_caches_on_one_blas_thread(monkeypatch):
    # as the measuring machine runs it: a warm cache lowers setup_s and
    # peak_rss_mb, so neither side may write or read one
    calls = []
    stub_subprocess(monkeypatch, calls)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    monkeypatch.setenv("BENCH_PAIRS_TEST_MARK", "kept")
    result = bench_pairs.run_once("/checkout", "long_core", 3, 2.0)
    assert result["metrics"]["steps_per_s"]["value"] == 100.0
    (cmd, env), = calls
    assert cmd[1:] == ["/checkout/perfbench/run.py", "--workload", "long_core",
                       "--seed", "3", "--seconds", "2.0", "--trace", "0"]
    assert env["OPENBLAS_NUM_THREADS"] == "1" and env["PYTHONDONTWRITEBYTECODE"] == "1"
    assert env["BENCH_PAIRS_TEST_MARK"] == "kept"


def test_the_ab_file_records_the_run_environment(monkeypatch, tmp_path):
    calls = []
    stub_subprocess(monkeypatch, calls)
    monkeypatch.setattr(bench_pairs, "machine", dict)
    (tmp_path / "BENCHMARK.json").write_text(bench_pairs.json.dumps(
        {"end_to_end": [{"name": "steps_per_s", "better": "higher", "bound": 0.25}]}))
    out = tmp_path / "ab.json"
    assert bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                             "--workloads", "long_core", "--pairs", "2",
                             "--seconds", "1", "--out", str(out)]) == 0
    report = bench_pairs.json.loads(out.read_text())
    assert report["settings"]["env"] == {"OPENBLAS_NUM_THREADS": "1",
                                         "PYTHONDONTWRITEBYTECODE": "1"}
    assert "PYTHONDONTWRITEBYTECODE=1" in report["what"]
    runs = [env for cmd, env in calls if cmd[0] != "git"]
    assert len(runs) == 4
    assert all(env["PYTHONDONTWRITEBYTECODE"] == "1" for env in runs)
