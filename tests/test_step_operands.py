"""The step path's coefficients and constants, pinned bit for bit.

A run takes theta_n and gamma_n from a table that schedule fills for
crifba.RECORD_ROWS indices at a time, and its constants (lam, inertia,
tau and sigma, the 0 of soft thresholding) as 0-d float64 arrays. Both
must give the bits of the one-step forms: the table those of
schedule(params, n), and an array operand those of the Python float.
"""

import numpy as np
import pytest

from monosplit import crifba
from monosplit.crifba import RECORD_ROWS, CrifbaParams, KMState, schedule


def bits(c):
    return np.float64(c).tobytes()


def random_schedule(seed):
    """A feasible schedule, 2 s1 < s0 < e and nu0 >= 0, drawn from seed."""
    rng = np.random.default_rng(seed)
    s1 = float(rng.choice([0.0, rng.uniform(0.0, 2.0)]))
    s0 = 2.0 * s1 + float(rng.uniform(1e-3, 3.0))
    e = s0 + float(rng.uniform(1e-3, 3.0))
    nu0 = float(rng.choice([0.0, rng.uniform(0.0, 50.0)]))
    return CrifbaParams(e=e, s0=s0, s1=s1, nu0=nu0)


SCHEDULES = {"defaults": CrifbaParams(), "s1_zero": CrifbaParams(s1=0.0),
             "nu0_positive": CrifbaParams(nu0=7.25)}
SCHEDULES.update({"random_%d" % seed: random_schedule(seed) for seed in range(12)})

# a run from n = 0 crosses the table's seams at 63 | 64 and 127 | 128; a
# walk near 10^6 fills its first table there
WALKS = {"from_0": range(0, 2 * RECORD_ROWS + 3),
         "near_1e6": range(10**6 - RECORD_ROWS - 1, 10**6 + RECORD_ROWS + 2)}


@pytest.mark.parametrize("walk", list(WALKS))
@pytest.mark.parametrize("name", list(SCHEDULES))
def test_the_table_gives_the_bits_of_schedule(name, walk):
    # the table of a run is schedule on RECORD_ROWS indices at a time
    params, ns = SCHEDULES[name], WALKS[walk]
    for a in range(ns[0], ns[-1] + 1, RECORD_ROWS):
        _, theta, gamma, _ = schedule(params, np.arange(a, a + RECORD_ROWS))
        assert theta.dtype == gamma.dtype == float
        for k in range(RECORD_ROWS):
            _, want_theta, want_gamma, _ = schedule(params, a + k)
            assert bits(theta[k, ...]) == bits(want_theta), a + k
            assert bits(gamma[k, ...]) == bits(want_gamma), a + k


@pytest.mark.parametrize("shape", [(3,), (2, 4)], ids=["vector", "blocks"])
@pytest.mark.parametrize("walk", list(WALKS))
@pytest.mark.parametrize("name", ["defaults", "s1_zero", "random_7"])
def test_the_run_blocks_hold_x_n_and_extrapolate_s_z_n(name, walk, shape):
    # the steps of a run in turn across the seams, then a jump back and one
    # ahead, which refill the table from their n
    params = SCHEDULES[name]
    rng = np.random.default_rng(4)
    blocks = crifba._ahead_blocks(params, shape)
    for n in list(WALKS[walk]) + [3, 10**6 + 5 * RECORD_ROWS]:
        state = KMState(n, *rng.standard_normal((3,) + shape))
        X = blocks(state)
        assert X.shape == (2,) + shape
        assert X[0].tobytes() == state.x.tobytes()
        assert X[1].tobytes() == crifba.extrapolate(params, state).tobytes(), n


def rows(rng, scale):
    """A contiguous (5, 4) block and a column-sliced one, entries of
    magnitude about scale, with zeros of both signs among them."""
    W = rng.standard_normal((5, 6)) * scale
    W[0, :2] = 0.0, -0.0
    return {"contiguous": W[:, :4].copy(), "column_sliced": W[:, 1:5]}


SCALES = [10.0 ** k for k in range(-300, 301, 25)]


@pytest.mark.parametrize("scale", SCALES)
def test_a_0d_operand_gives_the_bits_of_the_python_float(scale):
    rng = np.random.default_rng(int(np.log10(scale)) + 300)
    with np.errstate(all="ignore"):
        for c in (0.37 * scale, -1.9 * scale, scale):
            c0 = np.array(c)
            for layout, X in rows(rng, scale).items():
                Y = rows(rng, 1.0 / scale)[layout]
                for got, want in ((c0 * X, c * X), (X / c0, X / c),
                                  (X - c0 * Y, X - c * Y)):
                    assert got.tobytes() == want.tobytes(), (c, layout)


def test_soft_thresholding_with_the_0d_zero_gives_the_bits_of_0_0():
    from monosplit.operators import _ZERO, _soft
    X = np.array([[0.0, -0.0, 1e-300, -2.5], [np.nan, np.inf, -np.inf, 3.0]])
    with np.errstate(invalid="ignore"):
        for D in (X, X[:, 1:]):
            assert np.maximum(D, _ZERO).tobytes() == np.maximum(D, 0.0).tobytes()
            want = np.sign(D) * np.maximum(np.abs(D) - 0.5, 0.0)
            assert _soft(0.5, D).tobytes() == want.tobytes()
    assert not _ZERO.flags.writeable
