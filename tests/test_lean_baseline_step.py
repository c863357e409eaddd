"""The baseline loop's iterate test: run_baseline tests each x_{n+1} with
the one dot of its divergence test, as crifba.iterate tests its iterates
(test_lean_km_step), and calls all_finite only when that test fails.

Each test replaces x_{k+1}, the iterate of the step from state k, in a run
on p1_clamp, on which every kind runs: with one that holds an entry that
is not finite, or with a finite one whose squared norm overflows. Every
other step is the kind's own, and the run is compared with the plain run
of the same config."""

import numpy as np
import pytest

from monosplit import baselines, problems
from test_reference_solvers import outcome, start

KINDS = baselines._KINDS
# the first step, the first inertial step and one further on
EDGES = [0, 1, 7]


def plain_run(kind, **kw):
    prob = problems.get("p1_clamp")
    return baselines.run_baseline(kind, prob, start(prob, 41), **kw)


def replace_at(monkeypatch, k, replace):
    """Runs take x_{k+1} = replace(x_{k+1}); every other step is their own."""
    make = baselines.baseline_step

    def patched(*args, **kw):
        step = make(*args, **kw)

        def replaced(n, x, x_prev):
            x_next, r = step(n, x, x_prev)
            return (replace(x_next) if n == k else x_next), r
        return replaced
    monkeypatch.setattr(baselines, "baseline_step", patched)


def entry(value):
    """x with its last entry set to value."""
    def replace(x):
        x = x.copy()
        x[-1] = value
        return x
    return replace


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("k", EDGES)
@pytest.mark.parametrize("kind", KINDS)
def test_a_non_finite_iterate_raises_at_its_step(monkeypatch, kind, k, bad):
    replace_at(monkeypatch, k, entry(bad))
    err = outcome(lambda: plain_run(kind, max_iter=50, tol=0.0))
    assert type(err) is ArithmeticError
    assert str(err) == "non-finite iterate at n=%d" % k


@pytest.mark.parametrize("k", EDGES)
@pytest.mark.parametrize("kind", KINDS)
def test_an_iterate_whose_square_overflows_diverges(monkeypatch, kind, k):
    # x_{k+1} is finite, but its dot with itself overflows to inf: the run
    # stops as "diverged" at state k, its row stored, as at any divergence
    plain = plain_run(kind, max_iter=k + 1, tol=0.0)
    x_k = plain_run(kind, max_iter=k, tol=0.0).x
    replace_at(monkeypatch, k, lambda x: np.full_like(x, 1e200))
    got = outcome(lambda: plain_run(kind, max_iter=50, tol=0.0))
    assert (got.n_iters, got.stopped) == (k, "diverged")
    assert list(got.ns) == list(plain.ns) == list(range(k + 1))
    assert np.array_equal(got.res2, plain.res2)
    assert np.array_equal(got.vel2[:-1], plain.vel2[:-1])
    assert got.vel2[-1] == np.inf
    assert np.array_equal(got.x, x_k)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("kind", KINDS)
def test_a_tolerance_stop_stands_ahead_of_a_non_finite_iterate(monkeypatch, kind, bad):
    # the residual at state k meets tol: the run stops there on tol, and
    # the iterate it would have stepped to is never tested
    plain = plain_run(kind, max_iter=3000, tol=1e-9)
    k = plain.n_iters
    assert plain.stopped == "tol" and k > 1
    replace_at(monkeypatch, k, entry(bad))
    got = outcome(lambda: plain_run(kind, max_iter=3000, tol=1e-9))
    assert (got.n_iters, got.stopped) == (k, "tol")
    assert np.array_equal(got.ns, plain.ns)
    assert np.array_equal(got.res2, plain.res2)
    assert np.array_equal(got.vel2[:-1], plain.vel2[:-1])
    assert not np.isfinite(got.vel2[-1])
    assert np.array_equal(got.x, plain.x)
