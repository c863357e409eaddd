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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_norm2_screens_only_a_non_finite_form(monkeypatch):
    # a finite form is returned unscreened; an entry that is not finite
    # makes the form non-finite for SPD M, and the screen then raises
    # as_vector's ValueError as it did when it ran first
    from monosplit import metriclin
    calls = []

    def counting(x):
        calls.append(1)
        return as_vector(x)

    monkeypatch.setattr(metriclin, "as_vector", counting)
    rng = np.random.default_rng(3)
    for m in (SpdMap.identity(4), random_spd(rng, 4)):
        x = rng.standard_normal(4)
        calls.clear()
        assert m.norm2(x) == m.inner(x, x)
        assert len(calls) == 2      # none in norm2, twice in inner
        assert m.norm2(list(x)) == m.norm2(x.reshape(-1, 1)) == m.norm2(x)
        for bad in (np.nan, np.inf, -np.inf):
            y = x.copy()
            y[1] = bad
            with pytest.raises(ValueError, match="non-finite entries"):
                m.norm2(y)
        calls.clear()
        assert m.norm2(np.full(4, 1e200)) == np.inf     # finite entries
        assert len(calls) == 1
    with pytest.raises(ValueError):
        SpdMap.identity(2).norm2([1.0, np.nan])


@pytest.mark.parametrize("identity", [True, False])
def test_row_forms_match_per_row_products(identity):
    rng = np.random.default_rng(5)
    d = 6
    m = SpdMap.identity(d) if identity else random_spd(rng, d)
    X = rng.standard_normal((9, d))
    Y = rng.standard_normal((9, d))
    bound = 64 * d * np.finfo(float).eps
    inner = m.inner_rows(X, Y)
    norm2 = m.norm2_rows(X)
    applied = m.apply_rows(X)
    solved = m.solve_rows(Y)
    for i in range(9):
        assert inner[i] == pytest.approx(m.inner(X[i], Y[i]), rel=bound)
        assert norm2[i] == pytest.approx(m.norm2(X[i]), rel=bound)
        assert np.allclose(applied[i], m.apply(X[i]), rtol=bound, atol=0.0)
        assert np.allclose(solved[i], m.solve(Y[i]), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("k", [0, 1, 64])
@pytest.mark.parametrize("d", [1, 10, 21])
@pytest.mark.parametrize("identity", [True, False])
def test_norm2_each_is_norm2_of_each_row_bit_for_bit(identity, d, k):
    # the saddle solver forms its velocity column with norm2_each, a block
    # of rows at a time, where it took norm2 of one row at a time
    rng = np.random.default_rng(d + k)
    m = SpdMap.identity(d) if identity else random_spd(rng, d)
    X = rng.standard_normal((k, d)) * np.exp(rng.uniform(-20, 20, (k, 1)))
    got = m.norm2_each(X)
    assert got.shape == (k,) and got.dtype == np.float64
    assert [float(v) for v in got] == [m.norm2(x) for x in X]
    bad = np.ones((3, d))
    bad[2, -1] = np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="^vector has non-finite entries$"):
            m.norm2_each(bad)


@pytest.mark.parametrize("d", range(1, 31))
def test_norm2_is_the_matmul_form_bit_for_bit(d):
    # norm2 takes ndarray.dot, where it took v @ v and v @ M @ v, at the
    # scales where the squares near underflow and overflow too
    rng = np.random.default_rng(400 + d)
    identity, m = SpdMap.identity(d), random_spd(rng, d)
    for scale in (1e-150, 1e-20, 1.0, 1e20, 1e150):
        for _ in range(40):
            v = rng.standard_normal(d) * scale
            got = np.array([identity.norm2(v), m.norm2(v)])
            want = np.array([float(v @ v), float(v @ m.matrix @ v)])
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", range(1, 31))
def test_matvec_is_the_per_row_product_bit_for_bit(d):
    # the step path's stacked products (SpdMap.apply_each, p2_lasso's
    # gradient, the saddle stack's K) are np.matvec calls: each row must be
    # M @ x of that row, for square C- and F-ordered and rectangular M, on
    # contiguous and column-sliced rows, near underflow and overflow too
    rng = np.random.default_rng(500 + d)
    square = rng.standard_normal((d, d))
    for M in (square, np.asfortranarray(square), rng.standard_normal((d + 3, d))):
        for k in (1, 2, 3, 17, 64):
            for scale in (1e-150, 1e-20, 1.0, 1e20, 1e150):
                W = rng.standard_normal((k, d + 2)) * scale
                for X in (W[:, :d].copy(), W[:, 1:d + 1]):
                    got = np.matvec(M, X)
                    want = np.array([M @ x for x in X])
                    assert got.shape == (k, M.shape[0])
                    assert got.tobytes() == want.tobytes()


def test_solve_rows_checks_every_row(monkeypatch):
    m = SpdMap(np.diag([2.0, 4.0]))
    B = np.array([[2.0, 4.0], [4.0, 8.0], [6.0, 12.0]])
    assert np.array_equal(m.solve_rows(B), [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(ValueError):
        m.solve_rows(np.array([[1.0, np.nan]]))
    # the identity hands the screened rows back unchanged, without a solve
    eye = SpdMap.identity(2)
    assert eye.solve_rows(B).tobytes() == B.tobytes()
    with pytest.raises(ValueError):
        eye.solve_rows(np.array([[1.0, np.nan]]))
    solve = np.linalg.solve

    def off_in_one_row(a, b):
        x = solve(a, b)
        x[0, -1] += 1e-6
        return x

    monkeypatch.setattr(np.linalg, "solve", off_in_one_row)
    with pytest.raises(ArithmeticError):
        m.solve_rows(B)


def test_block_screens_hand_blas_short_dots(monkeypatch):
    # a threaded BLAS splits a long dot over its threads at a cost far above
    # the dot's own: no finiteness screen may hand it more than SCREEN_CHUNK
    # entries, however long the vector or block it screens
    from monosplit import checks, crifba, metriclin, problems
    lengths = []
    zeros = metriclin._zeros

    def recorded(n):
        lengths.append(n)
        return zeros(n)

    monkeypatch.setattr(metriclin, "_zeros", recorded)
    chunk = metriclin.SCREEN_CHUNK
    prob = problems.get("p3_spectrum")
    res = crifba.run(prob.A, prob.B, crifba.default_params(prob.L_map()),
                     prob.start, max_iter=600, tol=0.0)
    checks.standard_suite(res, prob.A, prob.B, q=prob.certified_solution)
    rng = np.random.default_rng(3)
    big = rng.standard_normal((1000, 21))
    SpdMap(np.diag(rng.uniform(1.0, 2.0, 21))).solve_rows(big)
    prob.B.apply_rows(big)
    prob.A.resolvent_rows(0.5, big)
    metriclin.as_vector(big.reshape(-1))
    assert max(lengths) == chunk
    assert sum(n == chunk for n in lengths) >= 5
    # the screen still rejects a non-finite entry in any chunk, and only
    # such an entry
    for where in (0, chunk - 1, chunk, big.size - 1):
        bad = big.reshape(-1).copy()
        bad[where] = np.nan
        assert not metriclin.all_finite(bad)
        with pytest.raises(ValueError, match="^vector has non-finite entries$"):
            metriclin.as_vector(bad)
    assert metriclin.all_finite(big.reshape(-1))
    assert max(lengths) == chunk
