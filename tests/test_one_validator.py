"""One validator for the three KM solvers.

cripda and gcrifba are checked by crifba.validate on the parameters their
loop runs with. On seeded draws, its verdict must be the block conditions
of the primal-dual step sizes, written out below through the Schur
complement of the block metric, and the product-space step bound
lam < 4w(1-w)beta. Against the closed-form check that the saddle solver
had before (old_saddle_check), it must accept every config that one
accepted: the same ones where both Lipschitz constants are 0, a superset
elsewhere, since condition 1 is now tried at the least admissible delta.
"""

import numpy as np
import pytest

from monosplit import crifba, problems
from monosplit.cripda import CripdaParams, stacked_problem
from monosplit.gcrifba import default_gcrifba_params
from monosplit.metriclin import operator_norm
from test_cripda import plain_pair

DRAWS = 2000
# the certificate of the stacked gradients floors each Lipschitz constant
LIP_FLOOR = 1e-12


def accepts(check):
    try:
        check()
    except ValueError:
        return False
    return True


def block_conditions(pair, tau, sigma, w, delta):
    """Conditions 1 and 2 in the block metric with lam = 1: M - c I
    positive definite, c = delta/(w(1-w)), is 1/tau > c, 1/sigma > c and
    (1/tau - c)(1/sigma - c) > ||K||^2; delta defaults to its floor
    ||L||/4 and may not be below it. Condition 2 is the same with the
    shift lip_Q/(w(1-w)) on the primal and lip_Pstar/(w(1-w)) on the dual
    block."""
    ww = w * (1.0 - w)
    K2 = operator_norm(pair.K) ** 2
    lq, lp = max(pair.lip_Q, LIP_FLOOR), max(pair.lip_Pstar, LIP_FLOOR)
    floor = max(lq, lp) / 4.0
    d = floor if delta is None else delta

    def definite(cx, cy):
        return 1 / tau > cx and 1 / sigma > cy and (1 / tau - cx) * (1 / sigma - cy) > K2

    return d >= floor and definite(d / ww, d / ww) or definite(lq / ww, lp / ww)


def old_saddle_check(pair, tau, sigma, w, delta):
    """The closed-form check of the saddle step sizes before it was folded
    into crifba.validate, with its default delta = max(lip)/4 + 1e-3."""
    ww = w * (1.0 - w)
    K2 = operator_norm(pair.K) ** 2
    lq, lp = pair.lip_Q, pair.lip_Pstar
    d = max(lq, lp) / 4.0 + 1e-3 if delta is None else delta
    cap = ww / d
    cond1 = (d > max(lq, lp) / 4.0 and tau < cap and sigma < cap
             and (1 / tau - d / ww) * (1 / sigma - d / ww) > K2)
    tau_cap = ww / lq if lq > 0 else np.inf
    sigma_cap = ww / lp if lp > 0 else np.inf
    cond2 = (tau < tau_cap and sigma < sigma_cap
             and (1 / tau - lq / ww) * (1 / sigma - lp / ww) > K2)
    return cond1 or cond2


PAIRS = {
    "p5_saddle": lambda: problems.get("p5_saddle").saddle,
    "p5_lasso_pd": lambda: problems.get("p5_lasso_pd").saddle,
    "plain_lip": lambda: plain_pair(np.array([[1.0, 0.5, 0.0], [-0.2, 1.0, 0.3]]),
                                    lip_Q=2.0, lip_Pstar=0.5),
}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_the_saddle_check_is_the_block_conditions(name):
    pair = PAIRS[name]()
    rng = np.random.default_rng(2211)
    knorm = operator_norm(pair.K)
    floor = max(pair.lip_Q, pair.lip_Pstar, LIP_FLOOR) / 4.0
    new = old = both = 0
    for _ in range(DRAWS):
        tau, sigma = np.exp(rng.uniform(np.log(0.05), np.log(5.0), 2)) / knorm
        w = rng.uniform(0.02, 0.98)
        delta = None if rng.random() < 0.5 else floor * rng.uniform(0.5, 4.0)
        tau, sigma, w = float(tau), float(sigma), float(w)
        params = CripdaParams(tau=tau, sigma=sigma, w=w, delta=delta)
        verdict = accepts(lambda: crifba.validate(stacked_problem(pair, params)[2]))
        assert verdict == block_conditions(pair, tau, sigma, w, delta), params
        before = old_saddle_check(pair, tau, sigma, w, delta)
        assert verdict or not before, params
        new, old, both = new + verdict, old + before, both + (verdict and before)
    # both verdicts occur, and the check loses no config it accepted
    assert 0 < old == both <= new < DRAWS
    if pair.lip_Q == pair.lip_Pstar == 0.0:
        assert new == old


@pytest.mark.parametrize("beta", [problems.get("p4_three").beta, 0.37, 5.0])
def test_the_product_space_check_is_the_step_bound(beta):
    rng = np.random.default_rng(2212)
    accepted = 0
    for _ in range(DRAWS):
        w = float(rng.uniform(0.02, 0.98))
        lam = float(rng.uniform(0.0, 2.0) * 4.0 * w * (1.0 - w) * beta)
        params = default_gcrifba_params(beta, lam=lam, w=w)
        verdict = accepts(lambda: crifba.validate(params))
        assert verdict == (0.0 < lam < 4.0 * w * (1.0 - w) * beta), (lam, w)
        accepted += verdict
    assert 0 < accepted < DRAWS
