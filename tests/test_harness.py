import json
import os

import numpy as np
import pytest

from monosplit import cli, crifba, harness, problems
from monosplit.metriclin import operator_norm


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


CLAMP_CFG = {"problem": "p1_clamp", "solver": {"kind": "crifba"},
             "stop": {"max_iter": 300, "tol": 0.0}, "output": "clamp"}


def test_fit_slope_power_law():
    ns = np.arange(10, 1001)
    fit = harness.fit_slope(ns, ns.astype(float) ** -2.0)
    assert fit["status"] == "ok"
    assert fit["slope"] == pytest.approx(-2.0, abs=1e-9)
    assert fit["r2"] == pytest.approx(1.0)


def test_fit_slope_constant():
    ns = np.arange(1, 200)
    fit = harness.fit_slope(ns, np.full(199, 3.0))
    assert fit["slope"] == pytest.approx(0.0, abs=1e-12)


def test_fit_slope_window_default_final_decade():
    ns = np.arange(1, 101)
    fit = harness.fit_slope(ns, 1.0 / ns)
    assert fit["window"] == [10.0, 100.0]
    assert fit["n_points"] == 91


def test_fit_slope_too_few_points():
    fit = harness.fit_slope(np.arange(1, 9), np.ones(8))
    assert fit["status"] == "too_few_points"
    assert fit["slope"] is None


def test_fit_slope_drops_nonpositive():
    ns = np.arange(1, 101)
    vals = 1.0 / ns
    vals[50:60] = 0.0
    fit = harness.fit_slope(ns, vals, window=(1, 100))
    assert fit["dropped_nonpositive"] == 10
    assert fit["status"] == "ok"


def test_fit_slope_leaves_nan_out_uncounted():
    ns = np.arange(1, 101)
    vals = 1.0 / ns
    vals[-1] = np.nan           # an undefined cell, as on a trace's last row
    vals[50] = 0.0
    fit = harness.fit_slope(ns, vals, window=(1, 100))
    assert fit["dropped_nonpositive"] == 1
    assert fit["n_points"] == 98
    assert fit["slope"] == pytest.approx(-1.0, abs=1e-12)


def test_fit_slope_empty():
    assert harness.fit_slope([], [])["status"] == "empty"


def test_config_hash_stable_and_order_free():
    h1 = harness.config_hash({"a": 1, "b": 2})
    h2 = harness.config_hash({"b": 2, "a": 1})
    assert h1 == h2 and len(h1) == 16
    assert harness.config_hash({"a": 1}) != h1


def test_validate_config_crifba_ok():
    ok, report = harness.validate_config(CLAMP_CFG)
    assert ok
    assert report["selector"] == 1


def test_validate_config_rejects_infeasible_step():
    cfg = {"problem": "p1_clamp", "solver": {"kind": "crifba", "lam": 2.0}}
    ok, report = harness.validate_config(cfg)
    assert not ok
    assert report["selector"] is None
    assert report["error"].startswith("step/metric conditions failed, margins: ")


def test_validate_config_unknown_kind():
    ok, report = harness.validate_config({"problem": "p1_clamp",
                                          "solver": {"kind": "mystery"}})
    assert not ok and "error" in report


def test_validate_config_other_kinds():
    ok, _ = harness.validate_config({"problem": "p4_three",
                                     "solver": {"kind": "gcrifba"}})
    assert ok
    ok, report = harness.validate_config(
        {"problem": "p5_saddle",
         "solver": {"kind": "cripda", "tau": 0.2, "sigma": 0.2}})
    assert ok and report["selector"] == 1
    ok, _ = harness.validate_config({"problem": "p1_clamp",
                                     "solver": {"kind": "fba"}})
    assert ok
    ok, report = harness.validate_config(
        {"problem": "p1_clamp", "solver": {"kind": "fba", "lam": 5.0}})
    assert not ok and "error" in report


def test_run_config_crifba_artifacts(tmp_path):
    summary, paths = harness.run_config(CLAMP_CFG, outdir=str(tmp_path))
    assert os.path.exists(paths["csv"])
    assert os.path.exists(paths["summary"])
    assert os.path.exists(paths["history"])
    assert summary["iterations"] == 300
    assert np.isfinite(summary["certify"]["residual"])
    with open(paths["csv"]) as fh:
        header = fh.readline().strip().split(",")
        assert header == ["n", "vel2", "vn2", "res2", "energy", "ystar_norm"]
        rows = fh.readlines()
    assert len(rows) == 301
    # first row: n = 0 has no graph element, so the last cell is empty
    assert rows[0].rstrip("\n").endswith(",")
    stored = json.load(open(paths["summary"]))
    assert stored["config_hash"] == summary["config_hash"]


def test_run_config_certifies_converged_run(tmp_path):
    cfg = {"problem": "p1_clamp", "solver": {"kind": "crifba"},
           "stop": {"max_iter": 10**5, "tol": 1e-8}, "output": "conv"}
    summary, _ = harness.run_config(cfg, outdir=str(tmp_path))
    assert summary["certify"]["ok"] is True
    assert summary["certify"]["residual"] <= 1e-6


def test_run_config_deterministic_csv(tmp_path):
    _, p1 = harness.run_config(CLAMP_CFG, outdir=str(tmp_path / "a"))
    _, p2 = harness.run_config(CLAMP_CFG, outdir=str(tmp_path / "b"))
    with open(p1["csv"], "rb") as f1, open(p2["csv"], "rb") as f2:
        assert f1.read() == f2.read()


def test_run_config_stride(tmp_path):
    cfg = dict(CLAMP_CFG, stride=50, output="strided")
    _, paths = harness.run_config(cfg, outdir=str(tmp_path))
    with open(paths["csv"]) as fh:
        rows = fh.readlines()[1:]
    assert [int(r.split(",")[0]) for r in rows] == [0, 50, 100, 150, 200, 250, 300]


def test_crifba_slopes_drop_no_undefined_cell(tmp_path):
    cfg = {"problem": "p2_lasso", "solver": {"kind": "crifba"},
           "stop": {"max_iter": 400, "tol": 0.0}, "output": "p2"}
    summary, paths = harness.run_config(cfg, outdir=str(tmp_path))
    with open(paths["csv"]) as fh:
        last = fh.readlines()[-1].split(",")
    assert last[0] == "400" and last[1] == ""      # vel2 is undefined at n = N
    for key in ("vel2", "vn2", "res2"):
        fit = summary["slopes"][key]
        assert fit["status"] == "ok"
        assert fit["dropped_nonpositive"] == 0, key
    assert summary["slopes"]["vel2"]["n_points"] == 360
    assert summary["slopes"]["res2"]["n_points"] == 361


STRIDE_CFGS = {
    "crifba": {"problem": "p1_clamp", "solver": {"kind": "crifba"}},
    "gcrifba": {"problem": "p4_three", "solver": {"kind": "gcrifba"}},
    "cripda": {"problem": "p5_saddle",
               "solver": {"kind": "cripda", "tau": 0.2, "sigma": 0.2}},
    "fba": {"problem": "p1_clamp", "solver": {"kind": "fba"}},
}


@pytest.mark.parametrize("stride", [0, -2, 1.5, 2.0, "2", True])
@pytest.mark.parametrize("kind", sorted(STRIDE_CFGS))
def test_a_stride_that_is_not_a_positive_integer_is_refused(tmp_path, capsys,
                                                            kind, stride):
    cfg = dict(STRIDE_CFGS[kind], stop={"max_iter": 10, "tol": 0.0},
               stride=stride, output="s")
    ok, report = harness.validate_config(cfg)
    assert not ok
    assert report["error"] == "stride must be an integer >= 1, got %r" % (stride,)
    with pytest.raises(ValueError, match="^stride must be an integer >= 1"):
        harness.run_config(cfg, outdir=str(tmp_path))
    path = write_cfg(tmp_path, "cfg.json", cfg)
    capsys.readouterr()
    for argv in (["validate", path], ["run", path, "--outdir", str(tmp_path)]):
        assert cli.main(argv) == 1
        assert "stride" in json.loads(capsys.readouterr().out)["error"]
    assert cli.main(["compare", path, "--outdir", str(tmp_path)]) == 1
    entry = json.loads(capsys.readouterr().out)[0]
    assert entry["status"] == "invalid" and "stride" in entry["report"]["error"]
    assert not os.path.exists(tmp_path / "s.csv")


# short runs of each kind; tests/golden holds the CSV each wrote before the
# trace columns were formed a block at a time, but for cripda_p5_saddle,
# recorded when cripda runs took the core step and the core columns, and
# gcrifba_p4_three, recorded when gcrifba runs wrote the core columns
GOLDEN = {
    "crifba_p2_lasso": {"problem": "p2_lasso", "solver": {"kind": "crifba"},
                        "stop": {"max_iter": 42, "tol": 0.0}, "stride": 3},
    "gcrifba_p4_three": {"problem": "p4_three", "solver": {"kind": "gcrifba"},
                         "stop": {"max_iter": 30, "tol": 0.0}, "stride": 2},
    "cripda_p5_saddle": {"problem": "p5_saddle",
                         "solver": {"kind": "cripda", "tau": 0.2, "sigma": 0.2},
                         "stop": {"max_iter": 30, "tol": 0.0}, "stride": 2},
    "fbf_p2_lasso": {"problem": "p2_lasso", "solver": {"kind": "fbf"},
                     "stop": {"max_iter": 50, "tol": 0.0}, "stride": 5},
}
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_csv_matches_golden(tmp_path, name):
    """Byte for byte, but for the energy cells of a crifba run at d > 1,
    which agree within 64 d eps relative."""
    cfg = dict(GOLDEN[name], output=name)
    _, paths = harness.run_config(cfg, outdir=str(tmp_path))
    with open(paths["csv"], "rb") as fh:
        got = fh.read()
    with open(os.path.join(GOLDEN_DIR, name + ".csv"), "rb") as fh:
        want = fh.read()
    d = problems.get(cfg["problem"]).d
    if cfg["solver"]["kind"] != "crifba" or d == 1:
        assert got == want
        return
    got_rows = [r.split(b",") for r in got.split(b"\r\n")]
    want_rows = [r.split(b",") for r in want.split(b"\r\n")]
    assert len(got_rows) == len(want_rows)
    energy = want_rows[0].index(b"energy")
    for g, w in zip(got_rows, want_rows):
        if len(w) <= energy or w[energy] in (b"energy", b""):   # the header, the end
            assert g == w
        else:
            assert g[:energy] + g[energy + 1:] == w[:energy] + w[energy + 1:]
            e = float(w[energy])
            assert abs(float(g[energy]) - e) <= 64 * d * np.finfo(float).eps * abs(e)


def test_run_config_gcrifba_and_cripda_and_baseline(tmp_path):
    cfg = {"problem": "p4_three", "solver": {"kind": "gcrifba"},
           "stop": {"max_iter": 2000, "tol": 1e-10}, "output": "g"}
    summary, paths = harness.run_config(cfg, outdir=str(tmp_path))
    assert summary["certify"]["ok"] is True
    with open(paths["csv"]) as fh:
        assert fh.readline().strip() == ",".join(crifba.TRACE_COLUMNS)

    cfg = {"problem": "p5_saddle",
           "solver": {"kind": "cripda", "tau": 0.2, "sigma": 0.2},
           "stop": {"max_iter": 5000, "tol": 1e-10}, "output": "pd"}
    summary, paths = harness.run_config(cfg, outdir=str(tmp_path))
    assert summary["certify"]["ok"] is True
    with open(paths["csv"]) as fh:
        assert fh.readline().strip() == "n,vel2,vn2,res2,energy,ystar_norm"
    assert os.path.exists(paths["history"])

    cfg = {"problem": "p1_clamp", "solver": {"kind": "dr"},
           "stop": {"max_iter": 5000, "tol": 1e-10}, "output": "base"}
    summary, _ = harness.run_config(cfg, outdir=str(tmp_path))
    # certification happens on the shadow point, not the governing sequence
    assert summary["certify"]["ok"] is True


@pytest.mark.parametrize("kind", sorted(STRIDE_CFGS))
def test_every_kind_writes_one_trace_schema(tmp_path, kind):
    # one header and one set of slope fits for the core, product-space,
    # primal-dual and baseline runs
    cfg = dict(STRIDE_CFGS[kind], stop={"max_iter": 50, "tol": 0.0}, output="s")
    summary, paths = harness.run_config(cfg, outdir=str(tmp_path))
    with open(paths["csv"]) as fh:
        assert fh.readline().strip() == ",".join(crifba.TRACE_COLUMNS)
    assert sorted(summary["slopes"]) == ["res2", "vel2", "vn2"]


def strict_json(text):
    """json.loads that refuses NaN and the infinities, which JSON lacks."""
    def refuse(name):
        raise ValueError("not JSON: %s" % name)
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("kind", sorted(STRIDE_CFGS))
def test_a_run_of_no_steps_writes_strict_json(tmp_path, capsys, kind):
    # a gcrifba run of no steps tests no state and a baseline run records no
    # row, so their final_res2 is undefined: null in the summary file and in
    # what `monosplit run` prints, not NaN
    cfg = dict(STRIDE_CFGS[kind], stop={"max_iter": 0, "tol": 0.0}, output="s")
    summary, paths = harness.run_config(cfg, outdir=str(tmp_path))
    with open(paths["summary"]) as fh:
        written = strict_json(fh.read())
    path = write_cfg(tmp_path, "cfg.json", cfg)
    capsys.readouterr()
    assert cli.main(["run", path, "--outdir", str(tmp_path)]) == 0
    printed = strict_json(capsys.readouterr().out)
    undefined = kind in ("gcrifba", "fba")
    for final in (summary["final_res2"], written["final_res2"], printed["final_res2"]):
        assert (final is None) == undefined


def test_check_history_roundtrip(tmp_path):
    _, paths = harness.run_config(CLAMP_CFG, outdir=str(tmp_path))
    report = harness.check_history(paths["history"], CLAMP_CFG)
    assert report["status"] == "ok"
    assert report["all_passed"] is True
    names = {r["name"] for r in report["reports"]}
    assert "step_identities" in names and "energy_decrease" in names


@pytest.mark.parametrize("w", [0.5, 0.3])
@pytest.mark.parametrize("name", ["p5_saddle", "p5_lasso_pd"])
def test_cripda_history_passes_monosplit_check(tmp_path, capsys, name, w):
    # a primal-dual run writes the core trace and history, and the whole
    # oracle suite replays it on the stack rebuilt from the config
    step = 0.2 if name == "p5_saddle" else 0.7 / operator_norm(problems.get(name).saddle.K)
    cfg = {"problem": name, "solver": {"kind": "cripda", "tau": step, "sigma": step, "w": w},
           "stop": {"max_iter": 300, "tol": 0.0}, "stride": 3, "output": "pd"}
    path = write_cfg(tmp_path, "cfg.json", cfg)
    capsys.readouterr()
    assert cli.main(["run", path, "--outdir", str(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["iterations"] == 300
    with open(summary["artifacts"]["csv"]) as fh:
        assert fh.readline().strip() == ",".join(crifba.TRACE_COLUMNS)
        assert len(fh.readlines()) == 101
    assert cli.main(["check", summary["artifacts"]["history"], path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "ok" and report["all_passed"] is True
    executed = {r["name"] for r in report["reports"] if r["status"] == "ok"}
    assert {"step_identities", "energy_decrease", "rilo"} <= executed


def test_check_history_flags_corruption(tmp_path):
    _, paths = harness.run_config(CLAMP_CFG, outdir=str(tmp_path))
    with np.load(paths["history"]) as data:
        arrays = {k: data[k].copy() for k in data.files}
    arrays["X"][50] += 0.1
    np.savez_compressed(paths["history"], **arrays)
    report = harness.check_history(paths["history"], CLAMP_CFG)
    assert report["all_passed"] is False


def test_cli_validate_and_run(tmp_path):
    cfg_path = write_cfg(tmp_path, "cfg.json", CLAMP_CFG)
    assert cli.main(["validate", cfg_path]) == 0
    bad = write_cfg(tmp_path, "bad.json",
                    dict(CLAMP_CFG, solver={"kind": "crifba", "lam": 2.0}))
    assert cli.main(["validate", bad]) == 1
    assert cli.main(["run", cfg_path, "--outdir", str(tmp_path)]) == 0
    assert cli.main(["run", bad, "--outdir", str(tmp_path)]) == 1


def test_cli_parse_error_exits_2(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(SystemExit) as err:
        cli.main(["validate", str(broken)])
    assert err.value.code == 2


def test_cli_parser_is_built_once_and_keeps_its_usage_errors(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, "cfg.json", CLAMP_CFG)
    assert cli._parser() is cli._parser()
    for argv in ([], ["frobnicate"], ["run"], ["validate", cfg_path, "--bogus"]):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert "usage: monosplit" in capsys.readouterr().err
    # parsing leaves no state behind in the shared parser
    assert cli._parser().parse_args(["run", cfg_path, "--outdir", "x"]).outdir == "x"
    assert cli._parser().parse_args(["run", cfg_path]).outdir is None
    assert cli.main(["validate", cfg_path]) == 0
    with pytest.raises(SystemExit) as err:
        cli.main(["--help"])
    assert err.value.code == 0


def test_cli_check(tmp_path):
    cfg_path = write_cfg(tmp_path, "cfg.json", CLAMP_CFG)
    cli.main(["run", cfg_path, "--outdir", str(tmp_path)])
    hist = str(tmp_path / "clamp.history.npz")
    assert cli.main(["check", hist, cfg_path]) == 0
    with np.load(hist) as data:
        arrays = {k: data[k].copy() for k in data.files}
    arrays["X"][50] += 0.1
    np.savez_compressed(hist, **arrays)
    assert cli.main(["check", hist, cfg_path]) == 1


def test_cli_compare(tmp_path):
    c1 = write_cfg(tmp_path, "c1.json", dict(CLAMP_CFG, output="c1"))
    c2 = write_cfg(tmp_path, "c2.json",
                   {"problem": "p1_clamp", "solver": {"kind": "fba"},
                    "stop": {"max_iter": 2000, "tol": 1e-10}, "output": "c2"})
    assert cli.main(["compare", c1, c2, "--outdir", str(tmp_path)]) == 0


def test_unknown_problem_is_reported_not_raised(tmp_path, capsys):
    _, paths = harness.run_config(CLAMP_CFG, outdir=str(tmp_path))
    bad = write_cfg(tmp_path, "bad.json", {"problem": "p9_nope"})
    assert cli.main(["validate", bad]) == 1
    assert "p9_nope" in json.loads(capsys.readouterr().out)["error"]
    assert cli.main(["run", bad, "--outdir", str(tmp_path)]) == 1
    assert "p9_nope" in json.loads(capsys.readouterr().out)["error"]
    assert cli.main(["check", paths["history"], bad]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "error"
    assert cli.main(["compare", bad, "--outdir", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().out)[0]["status"] == "invalid"
    ok, report = harness.validate_config({})
    assert not ok and "error" in report
