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


BAD_STOPS = [({"max_iter": "x"}, "max_iter must be an integer >= 0, got 'x'"),
             ({"max_iter": -1}, "max_iter must be an integer >= 0, got -1"),
             ({"max_iter": 1.5}, "max_iter must be an integer >= 0, got 1.5"),
             ({"max_iter": True}, "max_iter must be an integer >= 0, got True"),
             ({"max_iter": float("inf")},
              "max_iter must be an integer >= 0, got inf"),
             ({"tol": "abc"}, "tol must be a number >= 0, got 'abc'"),
             ({"tol": -1e-9}, "tol must be a number >= 0, got -1e-09"),
             ({"tol": float("nan")}, "tol must be a number >= 0, got nan"),
             ({"tol": False}, "tol must be a number >= 0, got False"),
             ([], "stop must be an object, got []")]


@pytest.mark.parametrize("stop,message", BAD_STOPS)
@pytest.mark.parametrize("kind", sorted(STRIDE_CFGS))
def test_a_malformed_stop_block_is_refused(tmp_path, capsys, kind, stop,
                                           message):
    cfg = dict(STRIDE_CFGS[kind], stop=stop, output="s")
    ok, report = harness.validate_config(cfg)
    assert not ok and report["error"] == message
    with pytest.raises(ValueError) as err:
        harness.run_config(cfg, outdir=str(tmp_path))
    assert str(err.value) == message
    path = write_cfg(tmp_path, "cfg.json", cfg)
    capsys.readouterr()
    for argv in (["validate", path], ["run", path, "--outdir", str(tmp_path)]):
        assert cli.main(argv) == 1
        assert json.loads(capsys.readouterr().out)["error"] == message
    assert cli.main(["compare", path, "--outdir", str(tmp_path)]) == 1
    entry = json.loads(capsys.readouterr().out)[0]
    assert entry["status"] == "invalid" and entry["report"]["error"] == message
    assert not os.path.exists(tmp_path / "s.csv")


def test_a_stop_block_reads_integral_floats_and_integer_tolerances(tmp_path):
    # JSON writes 1e6 as a float; int() has always read it as 10**6
    assert harness.stop_limits({"stop": {"max_iter": 1e6, "tol": 0}}) == (10**6, 0.0)
    assert harness.stop_limits({}) == (10**6, 1e-9)
    cfg = dict(STRIDE_CFGS["fba"], stop={"max_iter": 20.0, "tol": 0}, output="s")
    assert harness.validate_config(cfg)[0]
    assert harness.run_config(cfg, outdir=str(tmp_path))[0]["iterations"] == 20


def _solver(problem, kind, **solver):
    return {"problem": problem, "solver": dict(solver, kind=kind)}


# configs that a run refuses, each for one reason but the last, which has
# two; monosplit validate must refuse them with the message the run raises
REFUSED = {
    "crifba_lam": _solver("p1_clamp", "crifba", lam=2.0),
    "crifba_schedule": _solver("p1_clamp", "crifba", s0=5.0),
    "gcrifba_schedule": _solver("p4_three", "gcrifba", s1=2.0),
    "gcrifba_lam": _solver("p4_three", "gcrifba", lam=1.5),
    "cripda_tau": _solver("p5_saddle", "cripda", tau=5.0, sigma=0.2),
    "cripda_schedule": _solver("p5_saddle", "cripda", tau=0.2, sigma=0.2,
                               e=2.0),
    "fba_lam": _solver("p1_clamp", "fba", lam=5.0),
    "fbf_lam": _solver("p1_clamp", "fbf", lam=1.5),
    "lorenz_pock_lam": _solver("p1_clamp", "lorenz_pock", lam=-0.5),
    "chambolle_dossal_alpha": _solver("p1_clamp", "chambolle_dossal", alpha=2.0),
    "moudafi_oliny_inertia": _solver("p1_clamp", "moudafi_oliny", inertia="x"),
    "attouch_cabot_ac_rho": _solver("p2_lasso", "attouch_cabot", ac_rho="x"),
    "ppa_no_sum_resolvent": _solver("p2_lasso", "ppa"),
    "dr_no_B_resolvent": _solver("p2_lasso", "dr"),
    "crifba_on_three_operators": _solver("p4_three", "crifba"),
    "crifba_on_saddle": _solver("p5_saddle", "crifba"),
    "gcrifba_on_two_operators": _solver("p1_clamp", "gcrifba"),
    "cripda_on_two_operators": _solver("p2_lasso", "cripda", tau=0.2, sigma=0.2),
    "fba_on_three_operators": _solver("p6_res_sum", "fba"),
    "fbf_on_saddle": _solver("p5_lasso_pd", "fbf"),
    "unknown_kind": _solver("p1_clamp", "mystery"),
    "unknown_kind_and_problem": _solver("p9_nope", "mystery"),
    "unknown_problem": _solver("p9_nope", "fba"),
    "no_problem": {"solver": {"kind": "fba"}},
    "stride": dict(_solver("p1_clamp", "fbf"), stride=0),
    "stop_max_iter": dict(_solver("p1_clamp", "attouch_cabot"),
                          stop={"max_iter": -1}),
    "stop_tol": dict(_solver("p5_saddle", "cripda", tau=0.2, sigma=0.2),
                     stop={"tol": "abc"}),
    "certify_tol": dict(_solver("p1_clamp", "fba"), certify_tol="x"),
    "output": dict(_solver("p1_clamp", "fba"), output=7),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_validate_refuses_what_run_refuses_with_its_message(tmp_path, name):
    cfg = dict({"output": "r"}, **REFUSED[name])
    cfg.setdefault("stop", {"max_iter": 20, "tol": 0.0})
    ok, report = harness.validate_config(cfg)
    assert not ok
    with pytest.raises((ValueError, KeyError)) as err:
        harness.run_config(cfg, outdir=str(tmp_path))
    assert str(err.value) == report["error"]
    assert not os.path.exists(tmp_path / "r.csv")


# one feasible config per kind, non-default parameters where a kind has them
FEASIBLE = [
    _solver("p1_clamp", "crifba", w=0.3),
    _solver("p4_three", "gcrifba", lam=0.5),
    _solver("p5_saddle", "cripda", tau=0.2, sigma=0.2),
    _solver("p1_clamp", "ppa", lam=0.5),
    _solver("p2_lasso", "fba"),
    _solver("p1_clamp", "fbf", lam=0.5),
    _solver("p1_clamp", "dr", lam=2.0),
    _solver("p2_lasso", "moudafi_oliny", inertia=0.2),
    _solver("p3_spectrum", "lorenz_pock", inertia=0.1),
    _solver("p2_lasso", "attouch_cabot", ac_alpha=4.0, ac_rho=1.0),
    _solver("p2_lasso", "chambolle_dossal", alpha=3.5),
]


@pytest.mark.parametrize("cfg", FEASIBLE, ids=lambda c: c["solver"]["kind"])
def test_validate_accepts_what_run_runs(tmp_path, cfg):
    cfg = dict(cfg, stop={"max_iter": 20, "tol": 0.0}, output="f")
    ok, report = harness.validate_config(cfg)
    assert ok and "error" not in report
    summary, paths = harness.run_config(cfg, outdir=str(tmp_path))
    assert summary["iterations"] == 20 and os.path.exists(paths["csv"])


@pytest.mark.parametrize("problem", ["p3_spectrum", "flat_interval"])
def test_chambolle_dossal_runs_on_problems_without_a_prox_split(tmp_path, problem):
    # the momentum step reads B and A, as the other forward-backward kinds do
    cfg = dict(_solver(problem, "chambolle_dossal"), stop={"max_iter": 20, "tol": 0.0},
               output="cd")
    ok, report = harness.validate_config(cfg)
    assert ok and "error" not in report
    summary, paths = harness.run_config(cfg, outdir=str(tmp_path))
    # flat_interval's residual is exactly 0 once the iterate enters [-1, 1]
    assert 0 < summary["iterations"] <= 20 and os.path.exists(paths["csv"])


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
