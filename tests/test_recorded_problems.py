"""The catalog's recorded draws and the batched lasso oracle.

The random instances are recorded draws of numpy's default generator: they
must equal the generator's output bit for bit. lasso_oracle solves the sign
patterns one support at a time; it must return what the one-pattern-at-a-
time enumeration below returns, bit for bit, including when a support is
singular. Building the catalog must import nothing: no numpy.random.
"""

import os
import subprocess
import sys
from itertools import product

import numpy as np
import pytest

import monosplit
from monosplit import operator_norm
from monosplit.operators import prox_l1
from monosplit.problems import SEED, _lasso_beta, get, lasso_oracle


def reference_lasso_oracle(K, b, mu):
    """lasso_oracle as one solve per sign pattern, in enumeration order."""
    d = K.shape[1]
    best = None
    best_obj = np.inf
    for signs in product((-1, 0, 1), repeat=d):
        s = np.array(signs, dtype=float)
        free = s != 0
        x = np.zeros(d)
        if free.any():
            KF = K[:, free]
            try:
                xf = np.linalg.solve(KF.T @ KF, KF.T @ b - mu * s[free])
            except np.linalg.LinAlgError:
                continue
            if np.any(np.sign(xf) != s[free]):
                continue
            x[free] = xf
        g = K.T @ (K @ x - b)
        if np.any(np.abs(g[~free]) > mu * (1 + 1e-12) + 1e-12):
            continue
        obj = 0.5 * np.sum((K @ x - b) ** 2) + mu * np.sum(np.abs(x))
        if obj < best_obj:
            best_obj = obj
            best = x
    if best is None:
        raise RuntimeError("no sign pattern satisfied the optimality system")
    return best


def _outcome(oracle, K, b, mu):
    """The solution's bytes, or the error the oracle raised."""
    try:
        return oracle(K, b, mu).tobytes()
    except RuntimeError as exc:
        return type(exc)


def _singular_supports(K):
    """The number of supports whose Gram matrix np.linalg.solve refuses."""
    n = 0
    for free in product((False, True), repeat=K.shape[1]):
        if any(free):
            KF = K[:, np.array(free)]
            try:
                np.linalg.solve(KF.T @ KF, np.ones(KF.shape[1]))
            except np.linalg.LinAlgError:
                n += 1
    return n


def test_recorded_draws_equal_the_seeded_generator():
    rng = np.random.default_rng(SEED)
    K = rng.standard_normal((5, 5))
    b = rng.standard_normal(5)
    for name in ("p2_lasso", "p5_lasso_pd"):
        spec = get(name)
        assert spec.extras["K"].tobytes() == K.tobytes()
        assert spec.extras["b"].tobytes() == b.tobytes()
    rng = np.random.default_rng(SEED + 1)
    K = rng.standard_normal((2, 2))
    a = rng.standard_normal(2)
    spec = get("p5_saddle")
    assert spec.extras["K"].tobytes() == K.tobytes()
    assert spec.extras["a"].tobytes() == a.tobytes()
    assert spec.saddle.K.tobytes() == K.tobytes()


def test_batched_oracle_matches_reference_on_seeded_instance():
    p = get("p2_lasso")
    K, b, mu = p.extras["K"], p.extras["b"], p.extras["mu"]
    q = reference_lasso_oracle(K, b, mu)
    assert lasso_oracle(K, b, mu).tobytes() == q.tobytes()
    assert p.certified_solution.tobytes() == q.tobytes()
    assert get("p5_lasso_pd").certified_solution[0].tobytes() == q.tobytes()


def test_batched_oracle_matches_reference_on_random_instances():
    rng = np.random.default_rng(1401)
    for _ in range(240):
        m, d = rng.integers(1, 7), rng.integers(1, 6)
        K = rng.standard_normal((m, d))
        b = rng.standard_normal(m)
        mu = rng.uniform(0.01, 1.3) * np.abs(K.T @ b).max()
        assert (_outcome(lasso_oracle, K, b, mu)
                == _outcome(reference_lasso_oracle, K, b, mu))


@pytest.mark.parametrize("case", ["zero_column", "dependent_columns",
                                  "equal_columns"])
def test_batched_oracle_matches_reference_on_singular_supports(case):
    rng = np.random.default_rng(1402)
    if case == "zero_column":
        K = rng.standard_normal((4, 4))
        K[:, 2] = 0.0
    elif case == "dependent_columns":
        # column 1 is twice column 0 in small integers, so the Gram matrix
        # of any support holding both is singular to the last bit
        K = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 1.0], [0.0, 0.0, 3.0]])
    else:
        # columns 0 and 1 are equal: a pattern and its swap of the two
        # reach the same objective, a tie the enumeration order breaks
        K = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0], [0.0, 0.0, 3.0]])
    assert _singular_supports(K) > 0
    for _ in range(20):
        b = rng.standard_normal(len(K))
        mu = rng.uniform(0.01, 1.3) * np.abs(K.T @ b).max()
        assert (_outcome(lasso_oracle, K, b, mu)
                == _outcome(reference_lasso_oracle, K, b, mu))


def test_batched_solve_matches_one_solve_per_right_hand_side():
    # the oracle's batched call: one Gram matrix broadcast over (n, k, k)
    # and right-hand sides of shape (n, k, 1) solve as n separate solves
    rng = np.random.default_rng(1403)
    for k in range(1, 6):
        KF = rng.standard_normal((5, k))
        G = KF.T @ KF
        R = rng.standard_normal((2 ** k, k))
        X = np.linalg.solve(np.broadcast_to(G, (len(R), k, k)), R[:, :, None])
        assert X.shape == (len(R), k, 1)
        for x, r in zip(X[:, :, 0], R):
            assert x.tobytes() == np.linalg.solve(G, r).tobytes()


def test_building_the_catalog_imports_no_module():
    src = os.path.dirname(os.path.dirname(os.path.abspath(monosplit.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, monosplit\n"
            "before = set(sys.modules)\n"
            "monosplit.catalog()\n"
            "print(sorted(set(sys.modules) - before))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_lasso_beta_is_the_power_iteration_modulus():
    K = get("p2_lasso").extras["K"]
    assert _lasso_beta() == 1.0 / operator_norm(K) ** 2
    assert get("p2_lasso").beta == _lasso_beta()


def test_lasso_pd_prox_rows_match_prox_l1_row_by_row():
    pair = get("p5_lasso_pd").saddle
    mu = get("p5_lasso_pd").extras["mu"]
    U = np.random.default_rng(1404).standard_normal((3, 5))
    out = pair.prox_G(0.7, U)
    for row, u in zip(out, U):
        assert row.tobytes() == prox_l1(0.7 * mu, u).tobytes()

