"""Dense vectors and symmetric positive definite maps.

Everything here is small and dense on purpose: problem dimensions stay in
the tens, so eigendecompositions are cheap and exactly reproducible.
"""

import math
from functools import lru_cache

import numpy as np

_FLOAT64 = np.dtype(np.float64)

# Longest dot a finiteness screen hands to BLAS. A threaded BLAS splits
# longer dots over its threads, which costs far more than the dot itself
# (about 2 us single-threaded against 150 us to 8 ms threaded at 10 752
# entries), so longer vectors are screened a chunk at a time.
SCREEN_CHUNK = 4096


@lru_cache(maxsize=16)
def _zeros(n):
    z = np.zeros(n)
    z.flags.writeable = False
    return z


def as_vector(x):
    """Coerce to a 1-D float array and reject non-finite entries.

    A 1-D float64 ndarray is returned as is. Finiteness is screened as
    all_finite screens it; its one-dot path is written out here because
    the solvers call as_vector several times per step.
    """
    if type(x) is np.ndarray and x.ndim == 1 and x.dtype is _FLOAT64:
        v = x
    else:
        v = np.asarray(x, dtype=float).reshape(-1)
    n = len(v)
    if v.dot(_zeros(n)) != 0.0 if n <= SCREEN_CHUNK else not all_finite(v):
        raise ValueError("vector has non-finite entries")
    return v


def as_rows(rows):
    """rows as a (k, d) float array, its entries screened as one vector by
    as_vector (same ValueError). A float64 ndarray is returned as is; the
    screen is written out as in as_vector, since the solvers call as_rows
    several times per step."""
    if type(rows) is not np.ndarray or rows.dtype is not _FLOAT64:
        rows = np.asarray(rows, dtype=float)
    v = rows.ravel()
    n = len(v)
    if v.dot(_zeros(n)) != 0.0 if n <= SCREEN_CHUNK else not all_finite(v):
        raise ValueError("vector has non-finite entries")
    return rows


def all_finite(v):
    """True when every entry of the 1-D float array v is finite.

    The screen is a dot against zeros: 0*x is exactly 0 for finite x and
    NaN for an infinite or NaN entry, so the dot is 0 exactly when every
    entry is finite, and it can neither overflow nor underflow. (An
    infinite entry also sets numpy's invalid-value flag.) A vector longer
    than SCREEN_CHUNK is screened by one dot per chunk of that length.
    """
    n = len(v)
    if n <= SCREEN_CHUNK:
        return v.dot(_zeros(n)) == 0.0
    return all(v[a:a + SCREEN_CHUNK].dot(_zeros(min(SCREEN_CHUNK, n - a))) == 0.0
               for a in range(0, n, SCREEN_CHUNK))


def operator_norm(K, tol=1e-10, max_iter=200000):
    """Largest singular value of a rectangular matrix.

    Power iteration on K^T K with a deterministic all-ones start so that
    repeated runs give the same digits. Falls back to a ramp start if the
    ones vector happens to be in the kernel.
    """
    K = np.asarray(K, dtype=float)
    if not np.all(np.isfinite(K)):
        raise ValueError("matrix has non-finite entries")
    if K.size == 0 or not K.any():
        return 0.0
    n = K.shape[1]
    x = np.ones(n) / np.sqrt(n)
    sigma = 0.0
    for _ in range(max_iter):
        y = K @ x
        x = K.T @ y
        nv = np.linalg.norm(x)
        if nv == 0.0:
            # start vector was orthogonal to every right singular vector
            # with nonzero singular value; restart deterministically
            x = np.linspace(1.0, 2.0, n)
            x /= np.linalg.norm(x)
            continue
        x /= nv
        new = np.sqrt(nv)
        if abs(new - sigma) <= tol * max(new, 1.0):
            return new
        sigma = new
    return sigma


class SpdMap:
    """A symmetric positive definite matrix with cached spectral data.

    Instances are immutable after construction (the matrix is read-only);
    the eigendecomposition is computed lazily and reused for solves, roots
    and eigenvalue queries. The identity of each dimension is one shared
    instance, and products with it are skipped: for finite input they equal
    the argument exactly, up to the sign of zero entries.
    """

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("SpdMap needs a square matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix has non-finite entries")
        scale = np.abs(m).max()
        if scale > 0 and np.abs(m - m.T).max() > 1e-10 * scale:
            raise ValueError("matrix is not symmetric")
        self.matrix = 0.5 * (m + m.T)
        self.matrix.flags.writeable = False
        self.d = m.shape[0]
        self.is_identity = np.array_equal(self.matrix, np.eye(self.d))
        self._eig = None
        if self.min_eigenvalue() <= 0.0:
            raise ValueError("matrix is not positive definite")

    @classmethod
    @lru_cache(maxsize=None)
    def identity(cls, d):
        """The identity map of dimension d, one shared instance per d."""
        return cls(np.eye(d))

    def _decomp(self):
        if self._eig is None:
            w, V = np.linalg.eigh(self.matrix)
            self._eig = (w, V)
        return self._eig

    def apply(self, x):
        if self.is_identity:
            return as_vector(x).copy()
        return self.matrix @ as_vector(x)

    def solve(self, b):
        b = as_vector(b)
        x = np.linalg.solve(self.matrix, b)
        if np.linalg.norm(self.matrix @ x - b) > 1e-10 * max(np.linalg.norm(b), 1e-300):
            raise ArithmeticError("solve failed to reach tolerance; map may not be SPD")
        return x

    def solve_rows(self, rows):
        """Solve M x_i = b_i for every row b_i of a (k, d) block in one
        multi-right-hand-side solve; each row gets the residual check of
        solve."""
        b = np.asarray(rows, dtype=float)
        as_vector(b.reshape(-1))
        x = np.linalg.solve(self.matrix, b.T).T
        res = np.linalg.norm(x @ self.matrix - b, axis=1)
        if np.any(res > 1e-10 * np.maximum(np.linalg.norm(b, axis=1), 1e-300)):
            raise ArithmeticError("solve failed to reach tolerance; map may not be SPD")
        return x

    def inner(self, x, y):
        """Weighted inner product <Mx, y>."""
        if self.is_identity:
            return float(as_vector(x) @ as_vector(y))
        return float(as_vector(x) @ self.matrix @ as_vector(y))

    def norm2(self, x):
        """Squared weighted norm <Mx, x>.

        x is coerced as as_vector coerces it, but screened only when the
        form is not finite: M is SPD, so a non-finite entry always makes the
        form non-finite, and the screen raises as_vector's ValueError on
        exactly the inputs it did when it ran first.
        """
        if type(x) is np.ndarray and x.ndim == 1 and x.dtype is _FLOAT64:
            v = x
        else:
            v = np.asarray(x, dtype=float).reshape(-1)
        r2 = float(v @ v) if self.is_identity else float(v @ self.matrix @ v)
        if not math.isfinite(r2):
            as_vector(v)
        return r2

    # Row-block forms for (k, d) arrays whose rows the caller has already
    # screened; M is symmetric, so the rows of X @ M are the M x_i.

    def apply_rows(self, X):
        """M x_i for every row; X itself for the identity."""
        return X if self.is_identity else X @ self.matrix

    def inner_rows(self, X, Y):
        """Row-wise weighted inner products <M x_i, y_i>."""
        return np.einsum("ij,ij->i", self.apply_rows(X), Y)

    def norm2_rows(self, X):
        """Row-wise squared weighted norms <M x_i, x_i>."""
        return self.inner_rows(X, X)

    def apply_each(self, X):
        """apply of every row of a (k, d) block of rows that the caller has
        screened. Unlike apply_rows, each row equals apply of it bit for
        bit: the stacked matrix-vector products take the path of M @ x,
        where X @ M may sum in another order."""
        if self.is_identity:
            return X.copy()
        return (self.matrix @ X[:, :, None])[:, :, 0]

    def norm2_each(self, X):
        """norm2 of every row of a (k, d) block, screened as norm2 screens
        its vector. Unlike norm2_rows, each equals norm2 of its row bit for
        bit: the stacked products below take the paths of the 1-D products
        in norm2, where an einsum may sum in another order."""
        X = as_rows(X)
        R = X[:, None, :] if self.is_identity else X[:, None, :] @ self.matrix
        return (R @ X[:, :, None])[:, 0, 0]

    def norm_of(self, x):
        return np.sqrt(max(self.norm2(x), 0.0))

    def min_eigenvalue(self):
        w, _ = self._decomp()
        return float(w[0])

    def norm(self):
        """Operator norm (largest eigenvalue, since the map is SPD)."""
        w, _ = self._decomp()
        return float(w[-1])

    def shifted(self, c):
        """Plain matrix M - c*I, returned as an array (may be indefinite)."""
        return self.matrix - c * np.eye(self.d)


def min_eigenvalue_sym(m):
    """Smallest eigenvalue of a symmetric matrix given as a plain array."""
    m = np.asarray(m, dtype=float)
    scale = np.abs(m).max()
    if scale > 0 and np.abs(m - m.T).max() > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    return float(np.linalg.eigvalsh(0.5 * (m + m.T))[0])
