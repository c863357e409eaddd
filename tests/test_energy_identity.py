"""The discrete energy identity behind the energy oracles, evaluated on
seeded synthetic sequences: an algebraic identity, so arbitrary data must
satisfy it to rounding."""

import numpy as np

from monosplit.checks import DEFAULT_TOL, _report
from monosplit.metriclin import SpdMap


def check_gfru0_identity(n_instances=100, d=5, seed=0x5EED, tol=DEFAULT_TOL):
    """Two-sided evaluation of the discrete energy identity.

    Sequences are synthetic: arbitrary d_n with the velocity recursion
    xdot_{n+1} = theta_n xdot_n - d_n and the schedule identity
    (e+nu_{n+1}) theta_n = nu_n. The relation is an identity, so arbitrary
    data must satisfy it to rounding.
    """
    rng = np.random.default_rng(seed)
    violations = []
    for _ in range(n_instances):
        e = rng.uniform(1.0, 5.0)
        s1 = rng.uniform(0.0, 2.0)
        nu0 = rng.uniform(0.0, 3.0)
        s = rng.uniform(1e-3, e)
        n = int(rng.integers(0, 50))
        raw = rng.standard_normal((d, d))
        M = SpdMap(raw @ raw.T + d * np.eye(d))
        q = rng.standard_normal(d)
        x_prev = rng.standard_normal(d)
        x_n = rng.standard_normal(d)
        d_n = rng.standard_normal(d)
        nu_n = s1 * n + nu0
        nu_np1 = s1 * (n + 1) + nu0
        tau = e + nu_np1
        theta = nu_n / tau
        xdot_n = x_n - x_prev
        xdot_np1 = theta * xdot_n - d_n
        x_np1 = x_n + xdot_np1

        def F(x, xdot, nu):
            return (0.5 * M.norm2(s * (q - x) - nu * xdot)
                    + 0.5 * s * (e - s) * M.norm2(x - q))

        terms = [
            F(x_np1, xdot_np1, nu_np1) - F(x_n, xdot_n, nu_n),
            0.5 * tau ** 2 * M.norm2(xdot_np1 - theta * xdot_n),
            s * tau * M.inner(d_n, x_np1 - q),
            tau * (e - s + nu_np1) * M.inner(d_n, xdot_np1),
            0.5 * (e - s) * (e + 2.0 * nu_np1) * M.norm2(xdot_np1),
        ]
        resid = abs(sum(terms))
        violations.append(resid / (1.0 + sum(abs(t) for t in terms)))
    return _report("energy_identity", violations, tol=tol)


def test_energy_identity_on_synthetic_sequences():
    rep = check_gfru0_identity(n_instances=100, d=5)
    assert rep.passed
    assert rep.n_checked == 100
    assert rep.worst_violation <= 1e-10
