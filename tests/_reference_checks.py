"""The oracle replays and the trace diagnostics as per-row loops, kept as
the reference that the blocked replay in ``monosplit.checks`` and the
blocked ``monosplit.crifba.diagnostics`` are compared against.

Every function is the per-row loop the package used before the blocked
form; each row re-evaluates the operators it needs.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from monosplit.checks import DEFAULT_TOL, CheckReport
from monosplit.crifba import (decade_trend, energy, graph_sequence, residual_G,
                              schedule, validate_metric)
from monosplit.metriclin import as_vector


def _skipped(name, reason):
    return CheckReport(name, 0, 0.0, True, status="skipped: " + reason)


def _report(name, violations, tol=DEFAULT_TOL, details=None):
    violations = np.asarray(violations, dtype=float)
    worst = float(violations.max()) if violations.size else 0.0
    return CheckReport(name, int(violations.size), worst, bool(worst <= tol),
                       tol=tol, details=details or {})


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
    p = result.params
    M = p.metric(result.X.shape[1])
    N = result.n_iters
    violations = []
    for n in range(N):
        g = residual_G(A, B, M, p.lam, result.Z[n])
        r1 = np.linalg.norm(result.V[n + 1] - p.lam * p.w * g)
        scale1 = 1.0 + np.linalg.norm(result.X[n + 1])
        violations.append(r1 / scale1)
        _, theta, gamma, _ = schedule(p, n)
        xdot_n = result.X[n] - (result.X[n - 1] if n >= 1 else result.x_prev_init)
        xdot_np1 = result.X[n + 1] - result.X[n]
        r2 = np.linalg.norm(xdot_np1 + result.V[n + 1]
                            - theta * xdot_n - gamma * result.V[n])
        violations.append(r2 / scale1)
    return _report("step_identities", violations, tol=tol)


def check_energy_decrease(result, q, tol=DEFAULT_TOL):
    """Anchored energy must be non-increasing from n = 1 on."""
    p = result.params
    N = result.n_iters
    if N < 2:
        return _skipped("energy_decrease", "run too short")
    E = []
    for n in range(1, N + 1):
        xp = result.X[n - 1]
        E.append(energy(p, result.X[n], xp, result.V[n], n, p.s0, q))
    E = np.array(E)
    viol = (E[1:] - E[:-1]) / (1.0 + np.abs(E[:-1]))
    return _report("energy_decrease", np.maximum(viol, 0.0), tol=tol,
                   details={"E_first": float(E[0]), "E_last": float(E[-1])})


def check_g_cocoercivity(A, B, M, lam, pairs, delta=None, tol=DEFAULT_TOL):
    """Co-coercivity of the fixed-point residual on sample pairs.

    Checks the base inequality and its two shifted variants: one trading
    accuracy for an identity shift delta (valid for any delta > 0), one
    with the metric shifted by lam*L.
    """
    L = B.certificate_L
    Lnorm = L.norm()
    if delta is None:
        delta = lam * Lnorm / 2.0 if Lnorm > 0 else 1.0
    alpha1 = 1.0 - lam * Lnorm / (4.0 * delta)
    H1 = M.matrix - delta * np.eye(M.d)
    H2 = M.matrix - lam * L.matrix
    violations = {"base": [], "shift_identity": [], "shift_metric": []}
    for x1, x2 in pairs:
        x1 = as_vector(x1)
        x2 = as_vector(x2)
        dG = residual_G(A, B, M, lam, x1) - residual_G(A, B, M, lam, x2)
        dB = B(x1) - B(x2)
        lhs = M.inner(dG, x1 - x2)
        dB_linv = float(dB @ L.solve(dB))
        rhs0 = dB_linv + lam * M.norm2(dG) - lam * float(dG @ dB)
        violations["base"].append(_scaled(rhs0 - lhs, lhs, dB_linv,
                                          lam * M.norm2(dG), lam * float(dG @ dB)))
        rhs1 = alpha1 * dB_linv + lam * float(dG @ (H1 @ dG))
        violations["shift_identity"].append(_scaled(rhs1 - lhs, lhs, rhs1))
        rhs2 = 0.75 * dB_linv + lam * float(dG @ (H2 @ dG))
        violations["shift_metric"].append(_scaled(rhs2 - lhs, lhs, rhs2))
    allv = np.concatenate([np.asarray(v) for v in violations.values()])
    details = {k: float(np.max(v)) for k, v in violations.items()}
    details["delta"] = delta
    return _report("g_cocoercivity", allv, tol=tol, details=details)


def check_rilo(result, B, q, tol=DEFAULT_TOL):
    """Lower bounds on the anchored and differenced correction products.

    Needs the recorded extrapolation history and the selector from the
    metric validation; the co-coercivity weight alpha depends on it.
    """
    p = result.params
    if result.Z.shape[0] == 0:
        return _skipped("rilo", "no extrapolation history recorded")
    report = validate_metric(p, d=result.X.shape[1])
    if not report.ok:
        return _skipped("rilo", "metric conditions not satisfied")
    M = p.metric(result.X.shape[1])
    L = p.L
    delta = report.delta_used
    if report.selector == 1 and p.delta is None:
        # the midpoint of [lam ||L|| / 4, w (1-w) min_eig(M)), not its floor
        delta = 0.5 * (delta + p.w * (1.0 - p.w) * M.min_eigenvalue())
    if report.selector == 1:
        alpha = 1.0 - p.lam * L.norm() / (4.0 * delta)
    else:
        alpha = 0.75
    if alpha < 0:
        return _skipped("rilo", "negative co-coercivity weight alpha=%g" % alpha)
    q = as_vector(q)
    Bq = B(q)
    coef = (1.0 - p.w) ** 2 / p.w
    N = result.n_iters
    violations = []
    Bz = [B(result.Z[n]) for n in range(N)]
    for n in range(1, N + 1):
        dB = Bz[n - 1] - Bq
        lhs = M.inner(result.V[n], result.X[n] - q)
        rhs = (p.lam * p.w * alpha * float(dB @ L.solve(dB))
               + coef * M.norm2(result.V[n]))
        violations.append(_scaled(rhs - lhs, lhs, rhs))
    for n in range(1, N):
        dB = Bz[n] - Bz[n - 1]
        vdot = result.V[n + 1] - result.V[n]
        xdot = result.X[n + 1] - result.X[n]
        lhs = M.inner(vdot, xdot)
        rhs = (p.lam * p.w * alpha * float(dB @ L.solve(dB))
               + coef * M.norm2(vdot))
        violations.append(_scaled(rhs - lhs, lhs, rhs))
    return _report("rilo", violations, tol=tol,
                   details={"alpha": alpha, "delta": delta,
                            "selector": report.selector})


def check_estimg2(result, tol=DEFAULT_TOL):
    """Telescoping bound on the drift sequence v_n + xdot_n, plus the
    decay trend of n times its norm."""
    p = result.params
    M = p.metric(result.X.shape[1])
    N = result.n_iters
    if N < 3:
        return _skipped("drift_telescoping", "run too short")
    xdot = result.X[1:] - result.X[:-1]
    drift = result.V[1:N + 1] + xdot            # v_{n+1} + xdot_{n+1}, n=0..N-1
    drift2 = np.einsum("ij,jk,ik->i", drift, M.matrix, drift)
    xdot2 = np.einsum("ij,jk,ik->i", xdot, M.matrix, xdot)
    violations = []
    for n in range(1, N):
        tau_n = p.e + p.s1 * (n + 1) + p.nu0
        tau_nm1 = p.e + p.s1 * n + p.nu0
        lhs = (tau_n ** 2 * drift2[n] - tau_nm1 ** 2 * drift2[n - 1]
               + (p.s0 - 2.0 * p.s1) * tau_n * drift2[n - 1])
        rhs = (p.e - p.s0 + p.s1) ** 2 / p.s0 * tau_n * xdot2[n - 1]
        violations.append(_scaled(lhs - rhs, lhs, rhs))
    ns = np.arange(1, N + 1)
    trend = decade_trend(ns, ns * np.sqrt(np.maximum(drift2[:N], 0.0)))
    return _report("drift_telescoping", violations, tol=tol,
                   details={"drift_trend": trend})


def check_ystar_bound(result, B, rho=None, tol=DEFAULT_TOL):
    """Norm bound tying the graph elements to the correction residual."""
    p = result.params
    M = p.metric(result.X.shape[1])
    L = p.L
    if result.Z.shape[0] == 0:
        return _skipped("ystar_bound", "no extrapolation history recorded")
    if rho is None:
        rho = 0.9 * M.min_eigenvalue()   # keeps M - rho I positive definite
    if rho <= 0:
        return _skipped("ystar_bound", "no valid rho found")
    Mn = M.norm()
    Ln = L.norm()
    const = (Mn / p.lam + rho ** -0.5 * np.sqrt(Mn * Ln) * (1.0 + np.sqrt(Ln))) / p.w
    N = result.n_iters
    violations = []
    for n in range(1, N + 1):
        _, ystar = graph_sequence(result.X[n], result.V[n], result.Z[n - 1], p, B)
        lhs = M.norm_of(ystar)
        rhs = const * M.norm_of(result.V[n])
        violations.append(_scaled(lhs - rhs, lhs, rhs))
    return _report("ystar_bound", violations, tol=tol, details={"rho": rho,
                                                                "const": const})


def check_graph_inclusion(result, A, B, tol=1e-8):
    """Every graph element pair must lie in the operator-sum graph.

    Uses the operator's membership test; the residual part coming from B is
    subtracted so only the multivalued part is tested.
    """
    if A.graph_member is None:
        return _skipped("graph_inclusion", "operator has no membership test")
    p = result.params
    N = result.n_iters
    bad = 0
    for n in range(1, N + 1):
        y, ystar = graph_sequence(result.X[n], result.V[n], result.Z[n - 1], p, B)
        scale = 1.0 + np.linalg.norm(ystar)
        if not A.graph_member(y, ystar - B(y), tol * scale):
            bad += 1
    return CheckReport("graph_inclusion", N, float(bad), bad == 0, tol=tol)


def check_residual_ratio(result, tol=DEFAULT_TOL):
    """Residual at the new iterate against the residual at the
    extrapolated point: the ratio is bounded by 2(w+1)."""
    p = result.params
    M = p.metric(result.X.shape[1])
    N = result.n_iters
    violations = []
    for n in range(N):
        gz2 = M.norm2(result.V[n + 1]) / (p.lam * p.w) ** 2
        lhs = float(result.res2[n + 1])
        rhs = 2.0 * (p.w + 1.0) * gz2
        violations.append(_scaled(lhs - rhs, lhs, rhs))
    return _report("residual_ratio", violations, tol=tol)


def standard_suite(result, A, B, q=None):
    """Run every checker that applies to a finished run."""
    reports = [
        check_step_identities(result, A, B),
        check_estimg2(result),
        check_residual_ratio(result),
        check_ystar_bound(result, B),
        check_graph_inclusion(result, A, B),
    ]
    if q is not None:
        reports.append(check_energy_decrease(result, q))
        reports.append(check_rilo(result, B, q))
    return reports


@dataclass
class DiagnosticsRecord:
    n: int
    vel2: Optional[float]
    vn2: float
    res2: float
    energy: Optional[float] = None
    ystar_norm: Optional[float] = None


def diagnostics(result, A, B, q=None, stride=1):
    """Build per-iteration records from a finished run.

    vel2 at row n is the squared M-norm of x_{n+1} - x_n (absent on the
    final row); energy needs a reference solution q; the graph-element norm
    starts at n = 1.
    """
    params = result.params
    M = params.metric(result.X.shape[1])
    N = result.n_iters
    out = []
    for n in range(0, N + 1, max(1, stride)):
        vel2 = M.norm2(result.X[n + 1] - result.X[n]) if n < N else None
        rec = DiagnosticsRecord(n=n, vel2=vel2,
                                vn2=M.norm2(result.V[n]),
                                res2=float(result.res2[n]))
        if q is not None:
            xp = result.X[n - 1] if n >= 1 else result.x_prev_init
            rec.energy = energy(params, result.X[n], xp, result.V[n], n,
                                params.s0, q)
        if n >= 1:
            _, ystar = graph_sequence(result.X[n], result.V[n],
                                      result.Z[n - 1], params, B)
            rec.ystar_norm = M.norm_of(ystar)
        out.append(rec)
    return out
