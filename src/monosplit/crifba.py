"""Core solver: relaxed inertial forward-backward iteration with a
correction term, plus its schedule, feasibility validators, residual
operator and per-iteration diagnostics.

The update at step n reads

    v_n = z_{n-1} - x_n
    z_n = x_n + theta_n (x_n - x_{n-1}) + gamma_n v_n
    x_{n+1} = (1-w) z_n + w (M + lam A)^{-1} (M z_n - lam B(z_n))

with theta_n, gamma_n derived from the affine index nu_n = s1 n + nu0.

The product-space (gcrifba) and primal-dual (cripda) solvers take the same
corrected Krasnosel'skii-Mann step on another space, so the state, the
schedule and its inequalities, the extrapolation and the loop are written
once here: KMState, schedule, extrapolate and iterate. So are the
parameter checks: the other two solvers run validate on the crifba
parameters of their own loop (cripda.stacked_problem,
gcrifba.default_gcrifba_params).
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .metriclin import SpdMap, all_finite, as_rows, as_vector, min_eigenvalue_sym
from .operators import _one_row, forward_backward_map


@dataclass
class CrifbaParams:
    e: float = 3.0
    s0: float = 2.5
    s1: float = 1.0
    nu0: float = 0.0
    lam: float = 0.5
    w: float = 0.5
    M: Optional[SpdMap] = None
    L: Optional[SpdMap] = None
    delta: Optional[float] = None

    def metric(self, d):
        return self.M if self.M is not None else SpdMap.identity(d)


def feasible_step_bound(M, L, w):
    """Largest lam for which the shifted-identity metric condition can hold.

    Condition 1 with a free delta is satisfiable exactly when
    lam ||L|| < 4 w (1-w) min_eig(M).
    """
    return 4.0 * w * (1.0 - w) * M.min_eigenvalue() / L.norm()


def default_params(L, M=None, **overrides):
    """Defaults with lam, unless given, 0.9 times feasible_step_bound."""
    p = CrifbaParams(L=L, M=M, **overrides)
    Mm = M if M is not None else SpdMap.identity(L.d)
    if "lam" not in overrides:
        p.lam = 0.9 * feasible_step_bound(Mm, L, p.w)
    return p


def schedule(params, n):
    """Return (nu_n, theta_n, gamma_n, tau_n) with tau_n = e + nu_{n+1}."""
    nu_n = params.s1 * n + params.nu0
    tau = params.e + params.s1 * (n + 1) + params.nu0
    theta = 1.0 - (params.e + params.s1) / tau
    gamma = 1.0 - params.s0 / tau
    return nu_n, theta, gamma, tau


def validate_core(params):
    """The violated inequalities of the schedule, the relaxation and the
    step, s1 >= 0, nu0 >= 0, 2 s1 < s0 < e, 0 < w < 1 and lam > 0;
    returns (ok, list of violations)."""
    reasons = []
    if not params.s1 >= 0:
        reasons.append("s1 must be nonnegative")
    if not params.nu0 >= 0:
        reasons.append("nu0 must be nonnegative")
    if not 2.0 * params.s1 < params.s0:
        reasons.append("2*s1 < s0 violated (got 2*%g >= %g)" % (params.s1, params.s0))
    if not params.s0 < params.e:
        reasons.append("s0 < e violated (got %g >= %g)" % (params.s0, params.e))
    if not 0.0 < params.w < 1.0:
        reasons.append("w in (0,1) violated (got %g)" % params.w)
    if not params.lam > 0:
        reasons.append("lam must be positive")
    return (not reasons), reasons


@dataclass
class MetricReport:
    selector: Optional[int]
    delta_used: Optional[float]
    margins: dict = field(default_factory=dict)

    @property
    def ok(self):
        return self.selector is not None


def validate_metric(params, d=None):
    """Check the step/metric compatibility conditions.

    Condition 1: lam ||L|| <= 4 delta and M - delta/(w(1-w)) I positive
    definite. When no delta is supplied the smallest admissible value
    delta = lam ||L|| / 4 is tried, which makes the condition equivalent to
    lam ||L|| < 4 w (1-w) min_eig(M). Condition 2: M - lam/(w(1-w)) L
    positive definite. Returns a MetricReport with both margins.
    """
    if params.L is None:
        raise ValueError("validate_metric needs the co-coercivity certificate L")
    L = params.L
    M = params.M if params.M is not None else SpdMap.identity(d if d is not None else L.d)
    ww = params.w * (1.0 - params.w)
    Lnorm = L.norm()
    delta = params.delta if params.delta is not None else params.lam * Lnorm / 4.0
    margins = {}
    if delta > 0:
        margins["cond1_step_slack"] = 4.0 * delta - params.lam * Lnorm
        margins["cond1_min_eig"] = min_eigenvalue_sym(M.shifted(delta / ww))
    else:
        margins["cond1_step_slack"] = float("-inf")
        margins["cond1_min_eig"] = float("-inf")
    margins["cond2_min_eig"] = min_eigenvalue_sym(M.matrix - (params.lam / ww) * L.matrix)
    if margins["cond1_step_slack"] >= 0.0 and margins["cond1_min_eig"] > 0.0:
        return MetricReport(1, delta, margins)
    if margins["cond2_min_eig"] > 0.0:
        return MetricReport(2, None, margins)
    return MetricReport(None, None, margins)


def validate(params, d=None):
    """Run both validators; raise with every violation on failure."""
    ok, reasons = validate_core(params)
    if not ok:
        raise ValueError("invalid parameters: " + "; ".join(reasons))
    report = validate_metric(params, d=d)
    if not report.ok:
        raise ValueError("step/metric conditions failed, margins: %r" % report.margins)
    return report


def forward_backward(A, B, M, lam, x):
    """One forward-backward image (M + lam A)^{-1}(M x - lam B(x)), as a
    one-row call of the loop's row map; M None is the identity.

    x is screened before B is called; B(x) is checked as the loop checks
    it (operators.forward_backward_map).
    """
    X = as_rows(_one_row(x))
    M = SpdMap.identity(X.shape[1]) if M is None else M
    return forward_backward_map(A, M, lam, B)(X)[0]


def residual_G(A, B, M, lam, x):
    """Fixed-point residual; vanishes exactly on the solution set.

    x is screened before B is called (see forward_backward).
    """
    return (x - forward_backward(A, B, M, lam, x)) / lam


@dataclass(slots=True)
class KMState:
    """x_{n-1}, x_n and z_{n-1} at step n of any of the three solvers.

    x is a vector for crifba, the stacked (x, y) for cripda and the (p, d)
    block array for gcrifba; x_prev and z_prev have its shape.
    """
    n: int
    x_prev: np.ndarray
    x: np.ndarray
    z_prev: np.ndarray


def extrapolate(params, state, out=None):
    """z_n = x_n + theta_n (x_n - x_{n-1}) + gamma_n (z_{n-1} - x_n), in out."""
    _, theta, gamma, _ = schedule(params, state.n)
    x = state.x
    return np.add(x + theta * (x - state.x_prev), gamma * (state.z_prev - x), out=out)


# rows iterate allocates first; columns formed after a run go this many at a time
RECORD_ROWS = 64


def root(r2):
    """np.sqrt of one squared norm, without numpy's call cost: NaN for a
    negative or NaN r2."""
    return math.sqrt(r2) if r2 >= 0.0 else math.nan


def iterate(x, x_prev, z_prev, params, evaluate, step, args, max_iter, tol):
    """The corrected Krasnosel'skii-Mann loop of all three solvers, from
    x_0 = x with x_{-1} = x_prev and z_{-1} = z_prev, for x of any shape.

    The loop owns the state's rows: x_n and x_{n-1} are views of the record
    X and z_{n-1} the last row of the other parity's window [x_{n-1}; x_n;
    z_n]. Step n copies the three into its parity's window and forms z_n
    over the last row with extrapolate's operations in their order, on
    operands of the rows' shape: D = [x_n - x_{n-1}; z_{n-1} - x_n] times
    C[k] (theta_n and gamma_n tiled, from a table one schedule call fills
    per RECORD_ROWS steps), z_n = (x_n + D[0]) + D[1]. evaluate(rows, n),
    the kind's one row call on [x_n; z_n], returns (r2, ahead): the squared
    residual at row 0 and the values the step takes. The loop stops on
    root(r2) <= tol, else calls step(state, *args, ahead, X[n + 1]), which
    writes x_{n+1} into that record row and returns the new state, and
    tests the row with one dot: past Euclidean norm 1e12 the loop stops as
    "diverged", or raises ArithmeticError("non-finite iterate at n=%d")
    when it is not finite, so the step need not screen it. X, Z
    (z_0..z_{N-1}, copied from the windows) and res2 (NaN at x_N unless the
    run stopped on tol) start at RECORD_ROWS rows and double in place, up
    to max_iter rows, before the step that would write past them;
    ndarray.resize may move them, so the state's views are taken again
    there. Returns (N, stopped, X, Z, res2): the steps taken, the stop
    reason ("tol", "max_iter" or "diverged") and the trimmed records.

    The rows evaluate is handed, tested here or formed from tested rows,
    are not screened again: B is evaluated on them unscreened, and its
    rows are checked by the argument screen of the resolvent they feed,
    or on the way out in a metric whose path screens no argument
    (operators.forward_backward_map). The step's row is evaluated before
    the stop test, and the state's again alone after a failed call, so
    the operators must be pure; the step still runs only when the state
    does not stop. When the two-row call raises, the state's row is tested
    alone: its own error stands, a stop on tol stands, else the first
    error is raised again.
    """
    shape, flat = x.shape, x.ndim == 1
    cap = min(max(max_iter, 0), RECORD_ROWS)
    X, Z = np.empty((cap + 1,) + shape), np.empty((cap,) + shape)
    res2 = np.empty(cap + 1)
    X[0] = x
    windows = np.empty((2, 3) + shape)
    parity = [(*win, win[1:], win[:2]) for win in windows]
    dx, dz = D = np.empty((2,) + shape)
    C = np.empty((RECORD_ROWS, 2) + shape)
    coef = list(C)     # its row views, taken once rather than at every step
    state = KMState(0, x_prev, X[0], z_prev)
    stopped = "max_iter"
    for n in range(max_iter):
        k = n % RECORD_ROWS
        if not k:
            _, theta, gamma, _ = schedule(params, np.arange(n, n + RECORD_ROWS))
            C.T[...] = theta, gamma     # C[k, 0] = theta_{n+k}, C[k, 1] = gamma_{n+k}
        xp, xn, zn, rows, back = parity[n & 1]
        xp[...], xn[...], zn[...] = state.x_prev, state.x, state.z_prev
        np.multiply(np.subtract(rows, back, D), coef[k], D)
        np.add(np.add(xn, dx, zn), dz, zn)
        try:
            r2, ahead = evaluate(rows, n)
            done = r2 >= 0.0 and math.sqrt(r2) <= tol
        except Exception:
            r2, _ = evaluate(rows[:1], n)
            if not (done := root(r2) <= tol):
                raise
        res2[n] = r2
        if done:
            stopped = "tol"
            break
        if n == cap:
            # resize may move the records: the state's views of X are taken
            # again below, and x and out are not read before they are reset
            cap = min(2 * n, max_iter)
            for a, m in ((X, cap + 1), (Z, cap), (res2, cap + 1)):
                a.resize((m,) + a.shape[1:], refcheck=False)
            state = KMState(n, X[n - 1], X[n], state.z_prev)
        out = X[n + 1]
        state = step(state, *args, ahead, out)
        Z[n] = zn
        x = out if flat else out.ravel()
        if not math.sqrt(x.dot(x)) <= 1e12:
            if not all_finite(x):
                raise ArithmeticError("non-finite iterate at n=%d" % n)
            stopped = "diverged"
            break
    N = state.n
    if stopped != "tol":
        res2[N] = np.nan
    for a, k in ((X, N + 1), (Z, N), (res2, N + 1)):
        a.resize((k,) + a.shape[1:], refcheck=False)
    return N, stopped, X, Z, res2


def crifba_step(state, params, A, B, ahead=None, out=None):
    """Advance one iteration; returns the new state, with x_{n+1} written
    into out when out is given, by the same ufuncs either way.

    ahead, when given, is what crifba._run's residual hands the step: z_n
    and its forward-backward image, the run's w with w and 1 - w as 0-d
    float64 operands (a step given another params.w takes floats, with
    the same bits) and a work row; x_{n+1} is screened by iterate. Without
    it, z_n is screened before B is called, the resolvent output by
    forward_backward and x_{n+1} here. The metric is params.M as given:
    None is the identity to forward_backward.
    """
    if ahead is None:
        z = extrapolate(params, state)
        fb = forward_backward(A, B, params.M, params.lam, z)
        w, omw, work = params.w, 1.0 - params.w, None
    else:
        z, fb, w_run, w, omw, work = ahead
        if params.w != w_run:
            w, omw = params.w, 1.0 - params.w
    x_next = np.add(np.multiply(omw, z, work), np.multiply(w, fb, out), out)
    if ahead is None and not all_finite(x_next):
        raise ArithmeticError("non-finite iterate at n=%d" % state.n)
    return KMState(state.n + 1, state.x, x_next, z)


@dataclass
class RunResult:
    """A run's record. V given as None, as run gives it, is formed from X, Z
    and _v0 = z_{-1} - x_0 on first read and kept; a V given is kept."""
    X: np.ndarray          # (N+1, d), iterates x_0..x_N
    Z: np.ndarray          # (N, d), extrapolated points z_0..z_{N-1}
    V: Optional[np.ndarray]  # (N+1, d), correction residuals v_0..v_N
    res2: np.ndarray       # (N+1,), squared M-norm of the residual at x_n
    x_prev_init: np.ndarray
    n_iters: int
    stopped: str           # "tol" | "max_iter" | "diverged"
    params: CrifbaParams
    _v0: Optional[np.ndarray] = None

    def __getattribute__(self, name):
        value = object.__getattribute__(self, name)
        if name == "V" and value is None:
            value = self.V = np.empty_like(self.X)
            value[0] = self._v0
            np.subtract(self.Z, self.X[1:], out=value[1:])
        return value

    def v_rows(self, n):
        """V[n] for an ascending index array n: rows of a V held, else formed
        as V is formed, by the same subtraction, without the other rows."""
        V = object.__getattribute__(self, "V")
        if V is not None:
            return V[n]
        first = int(len(n) > 0 and n[0] == 0)
        out = np.empty((len(n),) + self.X.shape[1:])
        out[:first] = self._v0
        np.subtract(self.Z[n[first:] - 1], self.X[n[first:]], out=out[first:])
        return out

    def __getstate__(self):
        # a copy holds V formed, apart from the X and Z it was formed from
        return {**vars(self), "V": self.V}

    @property
    def x(self):
        return self.X[-1]


def run(A, B, params, x0, max_iter=10**6, tol=1e-9, x_prev=None, z_prev=None):
    """Iterate until the residual M-norm drops below tol or the cap is hit.

    The cold-start default sets x_{-1} = z_{-1} = x_0, so v_0 = 0 and the
    initial velocity is zero. The residual at x_n and the step from it
    share one row call of B and of the resolvent on x_n and z_n (see
    iterate); the residual at the last x_n is evaluated once more, alone,
    when the run does not stop on it. The result holds X, Z and res2 as iterate
    writes them, and the correction residuals v_{n+1} = z_n - x_{n+1} are
    formed from Z and X when V is first read.
    """
    validate(params, d=len(as_vector(x0)))
    return _run(A, B, params, x0, max_iter, tol, x_prev, z_prev)


def _run(A, B, params, x0, max_iter, tol, x_prev=None, z_prev=None, B_value=None):
    """The loop of run on parameters validated already; B_value is the
    value of a constant B, which is then not called, or None."""
    x = as_vector(x0)
    xp = x.copy() if x_prev is None else as_vector(x_prev).copy()
    zp = x if z_prev is None else as_vector(z_prev)
    M = params.metric(len(x))
    lam, w = params.lam, params.w
    fb = (forward_backward_map(A, M, lam, B) if B_value is None
          else forward_backward_map(A, M, lam, lamB=lam * B_value))
    Mm = None if M.is_identity else M.matrix
    lam_0d, w_0d, omw_0d = (np.array(c, dtype=float) for c in (lam, w, 1.0 - w))
    work = np.empty_like(x)

    def evaluate(X, n):
        FB = fb(X)
        # M.norm2 of the residual at x_n, with its dots and its screen when
        # not finite, formed in the work row, which the step may then take
        g = np.divide(np.subtract(X[0], FB[0], work), lam_0d, work)
        r2 = float(g.dot(g)) if Mm is None else float(g.dot(Mm).dot(g))
        if not math.isfinite(r2):
            as_vector(g)
        # on the one row of iterate's fallback no step is taken
        return r2, (X[-1], FB[-1], w, w_0d, omw_0d, work)

    N, stopped, X, Z, res2 = iterate(x, xp, zp, params, evaluate, crifba_step,
                                     (params, A, B), max_iter, tol)
    if stopped != "tol":
        res2[-1] = evaluate(X[-1:], N)[0]
    return RunResult(X, Z, None, res2, xp, N, stopped, params, _v0=zp - x)


def energy(params, x, x_prev, v, n, s, q):
    """Anchored quadratic energy at iteration n.

    E_n(s,q) = 1/2 ||s(q - x) - nu_n (x - x_prev)||^2_M
             + 1/2 s(e-s) ||x - q||^2_M + s(e + nu_n) <v, x - q>_M

    x, x_prev and v may also be (k, d) blocks of rows that the caller has
    screened, with n the array of their k indices; the result is then the
    array of the k energies.
    """
    if not 0.0 < s <= params.e:
        raise ValueError("s must lie in (0, e]")
    q = as_vector(q)
    if np.ndim(x) == 2:
        M = params.metric(x.shape[1])
        inner, norm2 = M.inner_rows, M.norm2_rows
    else:
        x, x_prev = as_vector(x), as_vector(x_prev)
        M = params.metric(len(x))
        inner, norm2 = M.inner, M.norm2
    nu_n = params.s1 * n + params.nu0
    xdot = x - x_prev
    # expand_dims makes an array of nu_n a column that scales each row
    t1 = 0.5 * norm2(s * (q - x) - np.expand_dims(nu_n, -1) * xdot)
    t2 = 0.5 * s * (params.e - s) * norm2(x - q)
    t3 = s * (params.e + nu_n) * inner(v, x - q)
    return t1 + t2 + t3


def graph_sequence(x, v, z_prev, params, B):
    """Points paired with near-members of the operator-sum graph.

    y = x + (1 - 1/w) v and y* = (lam w)^{-1} M v + B(y) - B(z_prev); at a
    solution both v and y* vanish.
    """
    x = as_vector(x)
    v = as_vector(v)
    M = params.metric(len(x))
    y = graph_point(x, v, params)
    return y, graph_element(M.apply(v), B(y), B(as_vector(z_prev)), params)


def graph_point(x, v, params):
    """y = x + (1 - 1/w) v, for one point or row-wise for (k, d) blocks."""
    return x + (1.0 - 1.0 / params.w) * v


def graph_element(Mv, By, Bz_prev, params):
    """y* = (lam w)^{-1} M v + B(y) - B(z_prev) from the evaluated terms,
    for one point or row-wise for (k, d) blocks."""
    return Mv / (params.lam * params.w) + By - Bz_prev


# the fields of crifba.diagnostics, in the column order of the harness CSV
TRACE_COLUMNS = ("n", "vel2", "vn2", "res2", "energy", "ystar_norm")
_TRACE_ROW = np.dtype([("n", np.int64)] + [(c, float) for c in TRACE_COLUMNS[1:]])


def diagnostics(result, A, B, q=None, stride=1):
    """The trace of a finished run at n = 0, stride, 2 stride, ... <= N: a
    structured array, one entry per row, with the fields of TRACE_COLUMNS.

    vel2 is the squared M-norm of x_{n+1} - x_n, vn2 that of v_n, energy
    the anchored energy with s = s0 about q and ystar_norm the M-norm of
    y*_n (graph_sequence). NaN marks an undefined cell: vel2 on the final
    row, energy without q and ystar_norm at n = 0. Rows are formed
    RECORD_ROWS at a time and screened as the scalar forms screen them;
    every cell but energy at d > 1 equals its scalar form bit for bit. Only
    the rows of V that the trace reads are formed (RunResult.v_rows).
    """
    if stride < 1:
        raise ValueError("stride must be at least 1")
    params = result.params
    X, Z = result.X, result.Z
    M = params.metric(X.shape[1])
    N = result.n_iters
    rows = np.arange(0, N + 1, stride)
    out = np.empty(len(rows), dtype=_TRACE_ROW)
    out[:] = (0,) + (np.nan,) * 5
    out["n"] = rows
    out["res2"] = result.res2[rows]
    for a in range(0, len(out), RECORD_ROWS):
        blk = out[a:a + RECORD_ROWS]
        n = blk["n"]
        Xn, Vn = as_rows(X[n]), result.v_rows(n)
        blk["vn2"] = M.norm2_each(Vn)       # screens Vn
        m = n[n < N]
        blk["vel2"][:len(m)] = M.norm2_each(X[m + 1] - X[m])
        first = int(n[0] == 0)      # n = 0 has no x_{n-1} in X and no y*_n
        if q is not None:
            Xp = X[n - 1]
            Xp[:first] = result.x_prev_init
            blk["energy"] = energy(params, Xn, as_rows(Xp), Vn, n, params.s0, q)
        if len(n) > first:
            Xg, Vg = Xn[first:], Vn[first:]
            Ystar = graph_element(M.apply_each(Vg),
                                  B.apply_rows(graph_point(Xg, Vg, params)),
                                  B.apply_rows(Z[n[first:] - 1]), params)
            blk["ystar_norm"][first:] = np.sqrt(np.maximum(M.norm2_each(Ystar), 0.0))
    return out


def partial_sum_report(ns, terms, split=None):
    """Total of a series plus the share contributed by the final decade."""
    ns = np.asarray(ns)
    terms = np.asarray(terms, dtype=float)
    if len(ns) == 0:
        return {"total": 0.0, "final_decade_increment": 0.0, "ratio": 0.0}
    cut = (ns.max() // 10) if split is None else split
    total = float(terms.sum())
    tail = float(terms[ns >= cut].sum())
    return {"total": total, "final_decade_increment": tail,
            "ratio": tail / total if total > 0 else 0.0}


def summability_monitors(result, q=None):
    """The five bounded partial sums behind the convergence rates.

    Keys: inertia-weighted correction velocity (nu^2 |vdot|^2), weighted
    velocity (nu |xdot|^2), anchored correction inner products, squared
    acceleration (n^2 |xddot|^2), and the combined drift (n |xdot + v|^2).
    """
    params = result.params
    M = params.metric(result.X.shape[1])
    N = result.n_iters
    xdot = result.X[1:] - result.X[:-1]                     # xdot_{n+1}, n=0..N-1
    vdot = result.V[1:] - result.V[:-1]                     # vdot_{n+1}, n=0..N-1
    nu = params.s1 * np.arange(1, N + 1) + params.nu0       # nu_{n+1}
    m2 = lambda rows: np.einsum("ij,jk,ik->i", rows, M.matrix, rows)
    mon = {}
    mon["vdot_weighted"] = partial_sum_report(np.arange(0, N), nu**2 * m2(vdot))
    mon["xdot_weighted"] = partial_sum_report(np.arange(0, N), nu * m2(xdot))
    if q is not None:
        diffs = result.X[1:N + 1] - as_vector(q)
        terms = np.einsum("ij,jk,ik->i", result.V[1:N + 1], M.matrix, diffs)
        mon["anchor_products"] = partial_sum_report(np.arange(1, N + 1), terms)
    if N >= 2:
        xddot = xdot[1:] - xdot[:-1]                        # n = 1..N-1
        ns = np.arange(1, N)
        mon["acceleration"] = partial_sum_report(ns, ns**2 * m2(xddot))
    drift = xdot + result.V[1:N + 1]                        # xdot_{n+1}+v_{n+1}
    ns = np.arange(1, N + 1)
    mon["drift"] = partial_sum_report(ns, ns * m2(drift))
    return mon


def decade_trend(ns, values):
    """Compare the series maxima over the first and last decade of n."""
    ns = np.asarray(ns)
    values = np.asarray(values, dtype=float)
    lo = values[(ns >= 1) & (ns <= 10)]
    hi = values[ns >= ns.max() // 10]
    return decade_ratio(float(lo.max()) if len(lo) else 0.0,
                        float(hi.max()) if len(hi) else 0.0)


def decade_ratio(first, last):
    """The decade_trend record of a series' first- and final-decade maxima."""
    return {"first_decade_max": first, "final_decade_max": last,
            "ratio": last / first if first > 0 else 0.0}
