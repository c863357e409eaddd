"""Executable oracles for the per-iteration identities and inequalities
the solver is supposed to satisfy.

Each checker replays a recorded run (or synthetic data) and reports the
worst scaled violation; none of them re-runs a solver. Violations are
scaled by 1 + (magnitude of the participating terms) so that a single
tolerance works across iterate scales.

A replay is one pass over the recorded history in blocks of BLOCK_ROWS
rows. X, Z and V are screened for finiteness once, up front. The user
operators are called once per block through their row forms (see
``operators``): B at the z_n block, the resolvent at z_n fed with those
B(z_n) (in a metric other than the identity, the metric resolvent of
M z_n - lam B(z_n)), B at the y_n block and the graph membership test;
an operator given per vector calls its map once per row. Everything else
is array arithmetic over the block, and each oracle is an accumulator fed
block by block, carrying at most one row across a block seam, so the
memory on top of the history is O(BLOCK_ROWS * d). ``standard_suite``
runs the pass once for all its oracles; each public ``check_*`` replay
runs it with its one oracle. Row-wise sums, and the row form of an
operator that takes matrix products, are not bound to the summation order
of a per-row loop, so a worst violation may differ from one computed row
by row by at most 64 * d * eps (float64 machine epsilon), and
E_first/E_last by that relative amount.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .crifba import (decade_ratio, energy, graph_element, graph_point,
                     schedule, validate_metric)
from .metriclin import as_rows, as_vector
from .operators import _backward_rows


DEFAULT_TOL = 1e-10
GRAPH_TOL = 1e-8
BLOCK_ROWS = 512


@dataclass
class CheckReport:
    name: str
    n_checked: int
    worst_violation: float
    passed: bool
    tol: float = DEFAULT_TOL
    status: str = "ok"
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return {"name": self.name, "n_checked": self.n_checked,
                "worst_violation": self.worst_violation, "passed": self.passed,
                "tol": self.tol, "status": self.status,
                "details": {k: v for k, v in self.details.items()
                            if np.isscalar(v) or isinstance(v, (dict, str))}}


def _skipped(name, reason):
    return CheckReport(name, 0, 0.0, True, status="skipped: " + reason)


class _Worst:
    """Count and running maximum of violations. A NaN anywhere makes the
    maximum NaN, as np.max over all of them would."""

    def __init__(self):
        self.n = 0
        self.worst = -np.inf

    def add(self, violations):
        if len(violations):
            self.n += len(violations)
            self.worst = np.maximum(self.worst, violations.max())

    def value(self):
        return float(self.worst) if self.n else 0.0

    def report(self, name, tol, details=None):
        worst = self.value()
        return CheckReport(name, self.n, worst, bool(worst <= tol), tol=tol,
                           details=details or {})


def _report(name, violations, tol=DEFAULT_TOL, details=None):
    acc = _Worst()
    acc.add(np.asarray(violations, dtype=float))
    return acc.report(name, tol, details)


def _scaled(deficit, *terms):
    """Violation of lhs >= rhs given deficit = rhs - lhs, scaled by term size."""
    scale = 1.0 + sum(abs(t) for t in terms)
    return deficit / scale


def check_step_identities(result, A, B, tol=DEFAULT_TOL):
    """Replay the two per-step identities on a recorded run.

    First: the correction residual equals lam*w times the fixed-point
    residual at the extrapolated point. Second: the velocity-plus-correction
    recursion driven by the schedule coefficients.
    """
    run = _Run(result, A, B)
    return run.replay(_StepIdentities(run, tol))[0]


def check_energy_decrease(result, q, tol=DEFAULT_TOL):
    """Anchored energy must be non-increasing from n = 1 on."""
    run = _Run(result)
    return run.replay(_EnergyDecrease(run, q, tol))[0]


def check_g_cocoercivity(A, B, M, lam, pairs, delta=None, tol=DEFAULT_TOL):
    """Co-coercivity of the fixed-point residual on sample pairs.

    Checks the base inequality and its two shifted variants: one trading
    accuracy for an identity shift delta (valid for any delta > 0), one
    with the metric shifted by lam*L. The first and the second points of
    the pairs are evaluated as two row blocks.
    """
    L = B.certificate_L
    Lnorm = L.norm()
    if delta is None:
        delta = lam * Lnorm / 2.0 if Lnorm > 0 else 1.0
    alpha1 = 1.0 - lam * Lnorm / (4.0 * delta)
    H1 = M.matrix - delta * np.eye(M.d)
    H2 = M.matrix - lam * L.matrix
    P = np.asarray(pairs, dtype=float).reshape(-1, 2, M.d)
    X1, X2 = P[:, 0], P[:, 1]
    B1, B2 = B.apply_rows(X1), B.apply_rows(X2)
    dG = ((X1 - _backward_rows(A, M, lam, X1, lam * B1)) / lam
          - (X2 - _backward_rows(A, M, lam, X2, lam * B2)) / lam)
    dB = B1 - B2
    lhs = M.inner_rows(dG, X1 - X2)
    dB_linv = _dots(dB, L.solve_rows(dB))
    dG_M = lam * M.norm2_rows(dG)
    dG_dB = lam * _dots(dG, dB)
    rhs0 = dB_linv + dG_M - dG_dB
    rhs1 = alpha1 * dB_linv + lam * _dots(dG @ H1, dG)
    rhs2 = 0.75 * dB_linv + lam * _dots(dG @ H2, dG)
    violations = {"base": _scaled(rhs0 - lhs, lhs, dB_linv, dG_M, dG_dB),
                  "shift_identity": _scaled(rhs1 - lhs, lhs, rhs1),
                  "shift_metric": _scaled(rhs2 - lhs, lhs, rhs2)}
    allv = np.concatenate(list(violations.values()))
    details = {k: _report(k, v).worst_violation for k, v in violations.items()}
    details["delta"] = delta
    return _report("g_cocoercivity", allv, tol=tol, details=details)


def check_rilo(result, B, q, tol=DEFAULT_TOL):
    """Lower bounds on the anchored and differenced correction products.

    Needs the recorded extrapolation history and the selector from the
    metric validation; the co-coercivity weight alpha depends on it. Under
    condition 1, alpha = 1 - lam ||L|| / (4 delta) with params.delta, or,
    when that is unset, the midpoint of the admissible delta; details
    report both.
    """
    run = _Run(result, B=B)
    return run.replay(_Rilo(run, q, tol))[0]


def check_estimg2(result, tol=DEFAULT_TOL):
    """Telescoping bound on the drift sequence v_n + xdot_n, plus the
    decay trend of n times its norm."""
    run = _Run(result)
    return run.replay(_Drift(run, tol))[0]


def check_ystar_bound(result, B, rho=None, tol=DEFAULT_TOL):
    """Norm bound tying the graph elements to the correction residual."""
    run = _Run(result, B=B)
    return run.replay(_YstarBound(run, rho, tol))[0]


def check_graph_inclusion(result, A, B, tol=GRAPH_TOL):
    """Every graph element pair must lie in the operator-sum graph.

    Uses the operator's membership test; the residual part coming from B is
    subtracted so only the multivalued part is tested.
    """
    run = _Run(result, A, B)
    return run.replay(_GraphInclusion(run, tol))[0]


def check_residual_ratio(result, tol=DEFAULT_TOL):
    """Residual at the new iterate against the residual at the
    extrapolated point: the ratio is bounded by 2(w+1)."""
    run = _Run(result)
    return run.replay(_ResidualRatio(run, tol))[0]


def standard_suite(result, A, B, q=None):
    """Run every checker that applies to a finished run, in one replay."""
    run = _Run(result, A, B)
    oracles = [_StepIdentities(run), _Drift(run), _ResidualRatio(run),
               _YstarBound(run), _GraphInclusion(run)]
    if q is not None:
        oracles += [_EnergyDecrease(run, q), _Rilo(run, q)]
    return run.replay(*oracles)


# --- the blocked replay ---------------------------------------------------

def _screened(name, rows):
    """rows as a float array, screened for finiteness."""
    try:
        return as_rows(rows)
    except ValueError:
        raise ValueError("recorded %s has non-finite entries" % name) from None


def _dots(X, Y):
    """Row-wise dot products <x_i, y_i>."""
    return np.einsum("ij,ij->i", X, Y)


def _norms(rows):
    """Euclidean norm of every row."""
    return np.sqrt(_dots(rows, rows))


def _mnorms(M, rows):
    """M.norm_of of every row."""
    return np.sqrt(np.maximum(M.norm2_rows(rows), 0.0))


class _Run:
    """A recorded run and the operators it is replayed against."""

    def __init__(self, result, A=None, B=None):
        self.p = result.params
        self.N = result.n_iters
        self.X = _screened("X", result.X)
        self.Z = _screened("Z", result.Z)
        self.V = _screened("V", result.V)
        self.res2 = np.asarray(result.res2, dtype=float)
        self.x_prev_init = np.asarray(result.x_prev_init, dtype=float)
        self.d = self.X.shape[1]
        self.M = self.p.metric(self.d)
        self.A, self.B = A, B

    def replay(self, *oracles):
        """Feed every applicable oracle each block in turn; one report per
        oracle, in order."""
        live = [o for o in oracles if o.skip is None]
        for a in range(0, self.N, BLOCK_ROWS):
            blk = _Block(self, a, min(a + BLOCK_ROWS, self.N))
            for oracle in live:
                oracle.feed(blk)
        return [o.report() for o in oracles]


class _Block:
    """Steps k = a..b-1 of a run; step k maps x_k through z_k to x_{k+1}.

    Operator values are evaluated on first use, once per row, and shared by
    every oracle fed the block.
    """

    def __init__(self, run, a, b):
        self.run = run
        self.k = np.arange(a, b)
        self.Z = run.Z[a:b]
        self.X0, self.X1 = run.X[a:b], run.X[a + 1:b + 1]
        self.V0, self.V1 = run.V[a:b], run.V[a + 1:b + 1]
        self.res2 = run.res2[a + 1:b + 1]

    @cached_property
    def Xm(self):
        """x_{k-1}, with the recorded x_{-1} before x_0."""
        a, last = self.k[0], self.k[-1]
        if a:
            return self.run.X[a - 1:last]
        return np.vstack((self.run.x_prev_init, self.run.X[:last]))

    @cached_property
    def Bz(self):
        """B(z_k)."""
        return self.run.B.apply_rows(self.Z)

    @cached_property
    def FB(self):
        """Forward-backward image of z_k, fed with B(z_k)."""
        r = self.run
        return _backward_rows(r.A, r.M, r.p.lam, self.Z, r.p.lam * self.Bz)

    @cached_property
    def Y(self):
        """Graph points y_{k+1}."""
        return graph_point(self.X1, self.V1, self.run.p)

    @cached_property
    def By(self):
        """B(y_{k+1})."""
        return self.run.B.apply_rows(self.Y)

    @cached_property
    def Ystar(self):
        """Graph elements y*_{k+1}."""
        r = self.run
        return graph_element(r.M.apply_rows(self.V1), self.By, self.Bz, r.p)


class _Oracle:
    """One oracle as an accumulator fed block by block. A constructor that
    finds the oracle does not apply sets skip to the reason; it is then
    never fed."""

    skip = None

    def __init__(self, name, tol):
        self.name = name
        self.tol = tol
        self.details = {}
        self.acc = _Worst()

    def report(self):
        if self.skip is not None:
            return _skipped(self.name, self.skip)
        return self.acc.report(self.name, self.tol, self.details)


class _StepIdentities(_Oracle):
    def __init__(self, run, tol=DEFAULT_TOL):
        super().__init__("step_identities", tol)
        self.p = run.p

    def feed(self, blk):
        p = self.p
        g = (blk.Z - blk.FB) / p.lam            # residual_G at z_k
        scale = 1.0 + _norms(blk.X1)
        self.acc.add(_norms(blk.V1 - p.lam * p.w * g) / scale)
        _, theta, gamma, _ = schedule(p, blk.k)
        xdot_n = blk.X0 - blk.Xm
        xdot_np1 = blk.X1 - blk.X0
        self.acc.add(_norms(xdot_np1 + blk.V1 - theta[:, None] * xdot_n
                            - gamma[:, None] * blk.V0) / scale)


class _EnergyDecrease(_Oracle):
    def __init__(self, run, q, tol=DEFAULT_TOL):
        super().__init__("energy_decrease", tol)
        if run.N < 2:
            self.skip = "run too short"
        self.p = run.p
        self.q = q
        self.prev = np.empty(0)                 # E of the row before the block

    def feed(self, blk):
        p = self.p
        E = energy(p, blk.X1, blk.X0, blk.V1, blk.k + 1, p.s0, self.q)
        self.details.setdefault("E_first", float(E[0]))
        self.details["E_last"] = float(E[-1])
        E2 = np.concatenate((self.prev, E))
        viol = (E2[1:] - E2[:-1]) / (1.0 + np.abs(E2[:-1]))
        self.acc.add(np.maximum(viol, 0.0))
        self.prev = E[-1:]


class _Rilo(_Oracle):
    def __init__(self, run, q, tol=DEFAULT_TOL):
        super().__init__("rilo", tol)
        p = run.p
        if run.Z.shape[0] == 0:
            self.skip = "no extrapolation history recorded"
            return
        report = validate_metric(p, d=run.d)
        if not report.ok:
            self.skip = "metric conditions not satisfied"
            return
        if report.selector == 1:
            delta = report.delta_used
            if p.delta is None:
                # validate_metric tries the floor lam ||L|| / 4, where alpha
                # is 0 and the B terms drop out; the inequality holds for
                # every admissible delta, so take the midpoint of
                # [lam ||L|| / 4, w (1-w) min_eig(M)) and test B
                delta = 0.5 * (delta + p.w * (1.0 - p.w) * run.M.min_eigenvalue())
            alpha = 1.0 - p.lam * p.L.norm() / (4.0 * delta)
        else:
            delta, alpha = None, 0.75
        if alpha < 0:
            self.skip = "negative co-coercivity weight alpha=%g" % alpha
            return
        self.M, self.L = run.M, p.L
        self.q = as_vector(q)
        self.Bq = run.B(self.q)
        self.weight = p.lam * p.w * alpha
        self.coef = (1.0 - p.w) ** 2 / p.w
        self.prev = np.empty((0, run.d))        # B(z) of the row before the block
        self.details = {"alpha": alpha, "delta": delta,
                        "selector": report.selector}

    def feed(self, blk):
        M = self.M
        anchored = blk.Bz - self.Bq             # B(z_{n-1}) - B(q), n = k+1
        Bz2 = np.concatenate((self.prev, blk.Bz))
        differenced = Bz2[1:] - Bz2[:-1]        # B(z_n) - B(z_{n-1}), n = k >= 1
        dB = np.concatenate((anchored, differenced))
        quad = _dots(dB, self.L.solve_rows(dB))
        lhs = M.inner_rows(blk.V1, blk.X1 - self.q)
        rhs = self.weight * quad[:len(anchored)] + self.coef * M.norm2_rows(blk.V1)
        self.acc.add(_scaled(rhs - lhs, lhs, rhs))
        m = len(anchored) - len(differenced)    # 1 on the first block, else 0
        vdot = (blk.V1 - blk.V0)[m:]
        xdot = (blk.X1 - blk.X0)[m:]
        lhs = M.inner_rows(vdot, xdot)
        rhs = self.weight * quad[len(anchored):] + self.coef * M.norm2_rows(vdot)
        self.acc.add(_scaled(rhs - lhs, lhs, rhs))
        self.prev = blk.Bz[-1:]


class _Drift(_Oracle):
    def __init__(self, run, tol=DEFAULT_TOL):
        super().__init__("drift_telescoping", tol)
        if run.N < 3:
            self.skip = "run too short"
        self.p, self.M, self.N = run.p, run.M, run.N
        # drift2 and xdot2 of the row before the block
        self.prev = (np.empty(0), np.empty(0))
        # first- and final-decade maxima of n |v_n + xdot_n|
        self.first, self.last = _Worst(), _Worst()

    def feed(self, blk):
        p = self.p
        xdot = blk.X1 - blk.X0
        drift2_k = self.M.norm2_rows(blk.V1 + xdot)   # v_{k+1} + xdot_{k+1}
        xdot2_k = self.M.norm2_rows(xdot)
        drift2 = np.concatenate((self.prev[0], drift2_k))
        xdot2 = np.concatenate((self.prev[1], xdot2_k))
        n = blk.k[len(blk.k) + 1 - len(drift2):]
        tau_n = schedule(p, n)[3]
        tau_nm1 = schedule(p, n - 1)[3]
        lhs = (tau_n ** 2 * drift2[1:] - tau_nm1 ** 2 * drift2[:-1]
               + (p.s0 - 2.0 * p.s1) * tau_n * drift2[:-1])
        rhs = (p.e - p.s0 + p.s1) ** 2 / p.s0 * tau_n * xdot2[:-1]
        self.acc.add(_scaled(lhs - rhs, lhs, rhs))
        self.prev = (drift2_k[-1:], xdot2_k[-1:])
        ns = blk.k + 1
        trend = ns * np.sqrt(np.maximum(drift2_k, 0.0))
        self.first.add(trend[ns <= 10])
        self.last.add(trend[ns >= self.N // 10])

    def report(self):
        self.details["drift_trend"] = decade_ratio(self.first.value(),
                                                   self.last.value())
        return super().report()


class _YstarBound(_Oracle):
    def __init__(self, run, rho=None, tol=DEFAULT_TOL):
        super().__init__("ystar_bound", tol)
        p = run.p
        self.M = M = run.M
        if run.Z.shape[0] == 0:
            self.skip = "no extrapolation history recorded"
            return
        if rho is None:
            rho = 0.9 * M.min_eigenvalue()   # keeps M - rho I positive definite
        if rho <= 0:
            self.skip = "no valid rho found"
            return
        Mn = M.norm()
        Ln = p.L.norm()
        self.const = (Mn / p.lam + rho ** -0.5 * np.sqrt(Mn * Ln)
                      * (1.0 + np.sqrt(Ln))) / p.w
        self.details = {"rho": rho, "const": self.const}

    def feed(self, blk):
        lhs = _mnorms(self.M, blk.Ystar)
        rhs = self.const * _mnorms(self.M, blk.V1)
        self.acc.add(_scaled(lhs - rhs, lhs, rhs))


class _GraphInclusion(_Oracle):
    def __init__(self, run, tol=GRAPH_TOL):
        super().__init__("graph_inclusion", tol)
        self.A = run.A
        if self.A.graph_member is None:
            self.skip = "operator has no membership test"
        self.N = run.N
        self.bad = 0

    def feed(self, blk):
        ystar = blk.Ystar
        tol = self.tol * (1.0 + _norms(ystar))
        ok = self.A.member_rows(blk.Y, ystar - blk.By, tol)
        self.bad += len(ok) - int(np.count_nonzero(ok))

    def report(self):
        if self.skip is not None:
            return super().report()
        return CheckReport(self.name, self.N, float(self.bad), self.bad == 0,
                           tol=self.tol)


class _ResidualRatio(_Oracle):
    def __init__(self, run, tol=DEFAULT_TOL):
        super().__init__("residual_ratio", tol)
        self.p, self.M = run.p, run.M

    def feed(self, blk):
        p = self.p
        gz2 = self.M.norm2_rows(blk.V1) / (p.lam * p.w) ** 2
        lhs = blk.res2
        rhs = 2.0 * (p.w + 1.0) * gz2
        self.acc.add(_scaled(lhs - rhs, lhs, rhs))
