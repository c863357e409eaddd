import warnings

import numpy as np
import pytest

from monosplit.metriclin import SpdMap, as_vector, min_eigenvalue_sym, operator_norm


def random_spd(rng, d, shift=None):
    raw = rng.standard_normal((d, d))
    return SpdMap(raw @ raw.T + (shift if shift is not None else d) * np.eye(d))


def test_apply_identity():
    m = SpdMap.identity(2)
    assert np.allclose(m.apply([3.0, -1.0]), [3.0, -1.0])


def test_apply_diagonal():
    m = SpdMap(np.diag([2.0, 1.0]))
    assert np.allclose(m.apply([1.0, 1.0]), [2.0, 1.0])


def test_apply_matches_naive_product():
    rng = np.random.default_rng(3)
    m = random_spd(rng, 3)
    x = rng.standard_normal(3)
    naive = np.array([sum(m.matrix[i, j] * x[j] for j in range(3)) for i in range(3)])
    assert np.abs(m.apply(x) - naive).max() <= 1e-14


def test_solve_examples():
    assert np.allclose(SpdMap.identity(1).solve([5.0]), [5.0])
    assert np.allclose(SpdMap(np.diag([2.0, 4.0])).solve([2.0, 4.0]), [1.0, 1.0])


@pytest.mark.parametrize("d", [2, 10, 50])
def test_solve_apply_roundtrip(d):
    rng = np.random.default_rng(d)
    m = random_spd(rng, d)
    b = rng.standard_normal(d)
    assert np.linalg.norm(m.apply(m.solve(b)) - b) <= 1e-10 * np.linalg.norm(b)


def test_inner_examples():
    assert SpdMap.identity(2).inner([1, 2], [1, 2]) == pytest.approx(5.0)
    assert SpdMap(np.diag([2.0, 1.0])).inner([1, 0], [0, 1]) == 0.0


def test_inner_symmetry():
    rng = np.random.default_rng(7)
    m = random_spd(rng, 4)
    x = rng.standard_normal(4)
    y = rng.standard_normal(4)
    assert abs(m.inner(x, y) - m.inner(y, x)) <= 1e-12


def test_inner_positivity():
    rng = np.random.default_rng(11)
    m = random_spd(rng, 5)
    for _ in range(20):
        x = rng.standard_normal(5)
        assert m.inner(x, x) > 0


def test_sqrt_examples():
    m = SpdMap(np.diag([4.0, 9.0]))
    assert np.allclose(m.sqrt_apply([1.0, 1.0]), [2.0, 3.0])
    assert np.allclose(SpdMap.identity(3).sqrt_apply([1, 2, 3]), [1, 2, 3])


def test_sqrt_composition():
    rng = np.random.default_rng(13)
    m = random_spd(rng, 6)
    x = rng.standard_normal(6)
    assert np.linalg.norm(m.sqrt_apply(m.sqrt_apply(x)) - m.apply(x)) <= 1e-10


def test_min_eigenvalue_examples():
    assert SpdMap(np.diag([3.0, 1.0, 2.0])).min_eigenvalue() == pytest.approx(1.0)
    assert SpdMap.identity(5).min_eigenvalue() == pytest.approx(1.0)
    # characteristic polynomial of [[2,1],[1,2]] has roots 1 and 3
    assert SpdMap([[2.0, 1.0], [1.0, 2.0]]).min_eigenvalue() == pytest.approx(1.0)


def test_operator_norm_examples():
    assert operator_norm([[2.0, 0.0], [0.0, 1.0]]) == pytest.approx(2.0)
    assert operator_norm(np.zeros((3, 3))) == 0.0


def test_operator_norm_vs_svd():
    rng = np.random.default_rng(17)
    K = rng.standard_normal((3, 2))
    ref = np.linalg.svd(K, compute_uv=False)[0]
    assert operator_norm(K) == pytest.approx(ref, rel=1e-8)


def test_operator_norm_kernel_start():
    # all-ones start lies in the kernel; the fallback must still find 2
    K = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert operator_norm(K) == pytest.approx(2.0, rel=1e-8)


def test_sqrt_norm_identity():
    rng = np.random.default_rng(19)
    m = random_spd(rng, 4)
    root_norm = operator_norm(np.linalg.cholesky(m.matrix) @ np.eye(4))
    assert operator_norm(m.matrix) == pytest.approx(m.norm(), rel=1e-8)
    assert root_norm ** 2 == pytest.approx(m.norm(), rel=1e-8)


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        SpdMap([[1.0, 2.0], [0.0, 1.0]])          # not symmetric
    with pytest.raises(ValueError):
        SpdMap([[1.0, 0.0], [0.0, -1.0]])         # not positive definite
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        min_eigenvalue_sym([[0.0, 1.0], [2.0, 0.0]])


def test_as_vector_accepts_large_finite_entries_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = as_vector([1e200, -1e200])
    assert v.tolist() == [1e200, -1e200]


# an infinite entry also sets numpy's invalid-value flag in the screen
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("form", ["list", "float32", "2d"])
def test_as_vector_rejects_non_finite(bad, form):
    entries = [1.0, bad, 2.0, 3.0]
    x = {"list": entries,
         "float32": np.array(entries, dtype=np.float32),
         "2d": np.array(entries).reshape(2, 2)}[form]
    with pytest.raises(ValueError):
        as_vector(x)


def test_as_vector_returns_float64_vector_as_is():
    x = np.arange(3.0)
    assert as_vector(x) is x
    assert as_vector(np.arange(3)).dtype == np.float64
    assert as_vector(np.ones((2, 2))).shape == (4,)
    assert as_vector(2.5).shape == (1,)


def test_identity_is_shared_and_read_only():
    m = SpdMap.identity(4)
    assert SpdMap.identity(4) is m
    assert m.is_identity
    with pytest.raises(ValueError):
        m.matrix[0, 0] = 2.0
    assert not SpdMap(2.0 * np.eye(4)).is_identity


@pytest.mark.parametrize("d", [1, 5, 21])
def test_identity_products_bit_equal_to_eye(d):
    rng = np.random.default_rng(100 + d)
    m = SpdMap.identity(d)
    eye = np.eye(d)
    for _ in range(20):
        x = rng.standard_normal(d)
        y = rng.standard_normal(d)
        assert m.inner(x, y) == float(x @ eye @ y)
        assert m.norm2(x) == float(x @ eye @ x)
        assert np.array_equal(m.apply(x), eye @ x)
