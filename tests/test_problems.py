import numpy as np
import pytest

from monosplit import problems
from monosplit.problems import (catalog, certify, get, lasso_cert,
                                lasso_oracle, p3_spectrum_modes)


EXPECTED_NAMES = ["p1_clamp", "p2_lasso", "p3_spectrum", "flat_interval",
                  "p4_three", "p5_saddle", "p5_lasso_pd", "p6_res_sum"]


def test_catalog_names_and_order():
    assert [p.name for p in catalog()] == EXPECTED_NAMES
    for name in EXPECTED_NAMES:
        assert get(name).name == name
        assert get(name) is not get(name)              # a fresh spec per call


def test_get_unknown_raises():
    with pytest.raises(KeyError):
        get("nonexistent")
    with pytest.raises(KeyError):
        get(["p1_clamp"])


def test_data_reproducibility():
    # seeded generation must give byte-identical data on every call
    a = get("p2_lasso")
    b = get("p2_lasso")
    assert np.array_equal(a.extras["K"], b.extras["K"])
    assert np.array_equal(a.extras["b"], b.extras["b"])
    assert a.extras["mu"] == b.extras["mu"]
    assert np.array_equal(a.certified_solution, b.certified_solution)
    s1 = get("p5_saddle")
    s2 = get("p5_saddle")
    assert np.array_equal(s1.extras["K"], s2.extras["K"])


def test_lasso_specs_do_not_share_data():
    # the lasso instance is computed once per process, but every spec gets
    # its own copies: mutating one reaches neither a later spec nor the
    # other lasso problem, and the specs still match a fresh computation
    first = get("p2_lasso")
    pd = get("p5_lasso_pd")
    K, b, mu = first.extras["K"].copy(), first.extras["b"].copy(), first.extras["mu"]
    q = lasso_oracle(K, b, mu)
    for arr in (first.extras["K"], first.extras["b"], first.certified_solution,
                pd.extras["K"], pd.extras["b"], pd.certified_solution[0]):
        arr[...] = 7.0
    for spec in (get("p2_lasso"), get("p5_lasso_pd")):
        assert np.array_equal(spec.extras["K"], K)
        assert np.array_equal(spec.extras["b"], b)
        assert spec.extras["mu"] == mu
    again = get("p2_lasso")
    assert again is not first
    assert np.array_equal(again.certified_solution, q)
    assert np.array_equal(get("p5_lasso_pd").certified_solution[0], q)
    assert np.array_equal(get("p5_lasso_pd").certified_solution[1], K @ q - b)
    ok, r = certify(again, q)
    assert ok, r


def test_clamp_certificate():
    p = get("p1_clamp")
    ok, r = certify(p, [1.0])
    assert ok and r <= 1e-12
    ok, r = certify(p, [1.1])
    assert not ok and r > 1e-3


def test_lasso_oracle_certifies_itself():
    p = get("p2_lasso")
    r = lasso_cert(p.extras["K"], p.extras["b"], p.extras["mu"],
                   p.certified_solution)
    assert r <= 1e-10


def test_lasso_oracle_small_closed_forms():
    # d = 1, K = I: the solution is soft thresholding of b
    K = np.eye(1)
    for b, mu, expect in [(2.0, 0.5, 1.5), (0.3, 0.5, 0.0), (-2.0, 1.0, -1.0)]:
        x = lasso_oracle(K, np.array([b]), mu)
        assert x[0] == pytest.approx(expect)


def test_lasso_oracle_beats_perturbations():
    # the oracle value is a global minimum: every perturbation is worse
    p = get("p2_lasso")
    obj = p.extras["objective"]
    q = p.certified_solution
    rng = np.random.default_rng(21)
    base = obj(q)
    for _ in range(200):
        assert obj(q + rng.standard_normal(5) * 0.1) >= base - 1e-12


def test_spectrum_modes():
    mus = p3_spectrum_modes()
    assert len(mus) == 21
    assert mus[0] == pytest.approx(1.0)
    assert mus[19] == pytest.approx(4e-5)
    assert mus[20] == pytest.approx(3.5e-7)
    assert np.all(np.diff(mus) < 0)
    p = get("p3_spectrum")
    assert p.d == 21
    ok, r = certify(p, np.zeros(21))
    assert ok and r == 0.0


def test_flat_interval_certificate():
    p = get("flat_interval")
    for x, ok_expected in [(-1.0, True), (0.3, True), (1.0, True), (1.5, False)]:
        ok, _ = certify(p, [x])
        assert ok == ok_expected


def test_three_operator_problem():
    p = get("p4_three")
    assert len(p.A_list) == 2
    ok, _ = certify(p, [1.5])
    assert ok
    # the solution satisfies both constraints strictly
    assert p.A_list[0].graph_member([1.5], [0.0])
    assert p.A_list[1].graph_member([1.5], [0.0])


def test_saddle_solution_satisfies_stationarity():
    p = get("p5_saddle")
    xbar, ybar = p.certified_solution
    K = p.extras["K"]
    a = p.extras["a"]
    assert np.linalg.norm((xbar - a) + K.T @ ybar) <= 1e-10
    assert np.linalg.norm(ybar - K @ xbar) <= 1e-10
    ok, r = certify(p, (xbar, ybar))
    assert ok and r <= 1e-10


def test_lasso_pd_shares_data_with_lasso():
    p2 = get("p2_lasso")
    pd = get("p5_lasso_pd")
    assert np.array_equal(p2.extras["K"], pd.extras["K"])
    ok, _ = certify(pd, (p2.certified_solution, None))
    assert ok


def test_res_sum_solution():
    # 0 in (x - 3) + 2 * sign(x) has the closed form x = 1
    p = get("p6_res_sum")
    ok, r = certify(p, [1.0])
    assert ok and r <= 1e-12


def test_certify_without_certificate_returns_none():
    p = get("p1_clamp")
    p.certify_fn = None
    ok, r = certify(p, [1.0])
    assert ok is None and np.isnan(r)


def test_cocoercivity_of_shipped_smooth_parts():
    from monosplit.operators import cocoercivity_check
    rng = np.random.default_rng(33)
    for name in ("p1_clamp", "p2_lasso", "p3_spectrum", "flat_interval",
                 "p4_three", "p6_res_sum"):
        p = get(name)
        B = p.B
        # shipped certificate_L must dominate: re-wrap with (1/beta) I
        pairs = [(rng.standard_normal(p.d) * 3, rng.standard_normal(p.d) * 3)
                 for _ in range(200)]
        out = cocoercivity_check(B, pairs)
        assert out["passed"], name
