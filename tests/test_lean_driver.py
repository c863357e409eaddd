"""The lean driver: each run builds its forward-backward map once and
reuses its small work arrays from step to step (in crifba.iterate two
alternating three-row windows [x_{n-1}; x_n; z_n], the difference rows
of z_n and the coefficient table, a work row in crifba's residual and
step and two in gcrifba's residual, one momentum block in the inertial
baselines). None of them may reach a
result: two runs back to back on the same operators leave the first
result's arrays byte for byte as they were and share no memory with the
second's nor with the windows and work rows the step hooks are handed,
and a warm start's caller-owned x_prev and z_prev are left as they were. The runs cross the
record's growth seams at 64 and 128 rows, and stop on tol at an odd and
at an even n, one on each of the two alternating windows."""

import itertools

import numpy as np
import pytest

from monosplit import baselines, crifba, cripda, gcrifba, problems
from monosplit.metriclin import operator_norm
from test_reference_solvers import start
from test_step_operands import watch_steps

# below, at and past the growth seams of crifba.RECORD_ROWS and twice it
CAPS = [63, 64, 65, 127, 128, 129, 300]


def core_case(name):
    """run(max_iter, tol, **warm) of crifba on the catalog problem, or on the
    stacked p5_saddle inclusion in its block metric, and its residuals."""
    if name == "p5_saddle":
        pair = problems.get(name).saddle
        A, B = cripda.stacked_operators(pair)
        M = cripda.build_metric(pair, 0.2, 0.2)
        params = crifba.CrifbaParams(lam=1.0, w=0.5, M=M, L=B.certificate_L)
        x0 = 0.5 * np.random.default_rng(3).standard_normal(4)
    else:
        prob = problems.get(name)
        A, B, x0 = prob.A, prob.B, start(prob, 3)
        params = crifba.default_params(prob.L_map())
    return (lambda n, tol, **warm: crifba.run(A, B, params, x0, max_iter=n, tol=tol,
                                              **warm),
            lambda res: res.res2)


def cripda_case():
    prob = problems.get("p5_lasso_pd")
    step = 0.7 / operator_norm(prob.saddle.K)
    params = cripda.CripdaParams(tau=step, sigma=step)
    y0 = 0.1 * np.random.default_rng(5).standard_normal(prob.saddle.d_dual)
    x0 = start(prob, 5)
    return (lambda n, tol: cripda.run_cripda(prob.saddle, params, x0, y0,
                                             max_iter=n, tol=tol),
            lambda res: res.core.res2)


def gcrifba_case():
    prob = problems.get("p4_three")
    params = gcrifba.default_gcrifba_params(prob.beta)
    x0 = start(prob, 2)
    return (lambda n, tol: gcrifba.run_gcrifba(prob.A_list, prob.B, params, x0,
                                               max_iter=n, tol=tol),
            lambda res: res.res2)


def baseline_case(kind):
    # a capped run takes tol = -1: p2's forward-backward kinds can reach
    # their fixed point exactly, where a residual of 0 meets tol = 0
    prob = problems.get("p2_lasso")
    x0 = start(prob, 3)
    return (lambda n, tol: baselines.run_baseline(kind, prob, x0, max_iter=n,
                                                  tol=tol if tol else -1.0),
            lambda res: res.res2)


CASES = {"crifba_p2_lasso": lambda: core_case("p2_lasso"),
         "crifba_p3_spectrum": lambda: core_case("p3_spectrum"),
         "p5_saddle_stack": lambda: core_case("p5_saddle"),
         "cripda_p5_lasso_pd": cripda_case,
         "gcrifba_p4_three": gcrifba_case,
         "fba_p2_lasso": lambda: baseline_case("fba"),
         "lorenz_pock_p2_lasso": lambda: baseline_case("lorenz_pock")}


def arrays(res, prefix=""):
    """Every array a result holds, by name, the core run of a cripda
    result's too; RunResult.V is left unformed."""
    out = {}
    for name, value in vars(res).items():
        if isinstance(value, np.ndarray):
            out[prefix + name] = value
        elif name == "core" and value is not None:
            out.update(arrays(value, "core."))
    return out


@pytest.fixture
def work_rows(monkeypatch):
    """The arrays that hold the loop's work rows, by id, as the step hooks
    are handed them: the parity windows, in which z_n and z_{n-1} are rows
    (z_{-1} is the caller's z_prev), and crifba's work row."""
    held = {}

    def collect(state, args):
        ahead = args[-2]
        for a in [ahead[0], state.z_prev] + ([ahead[-1]] if len(ahead) == 6 else []):
            a = a if a.base is None else a.base
            held[id(a)] = a

    watch_steps(monkeypatch, collect)
    return held


def back_to_back(work_rows, run, *args, **kw):
    """Two runs of the same call, the first result's bytes checked after the
    second, and no array of one result sharing memory with the other's or
    with a work row of either run."""
    first = run(*args, **kw)
    held = {name: a.tobytes() for name, a in arrays(first).items()}
    second = run(*args, **kw)
    assert {name: a.tobytes() for name, a in arrays(first).items()} == held
    for (n1, a1), (n2, a2) in itertools.product(arrays(first).items(),
                                                arrays(second).items()):
        assert not np.shares_memory(a1, a2), (n1, n2)
    for (name, a), w in itertools.product({**arrays(first), **arrays(second)}.items(),
                                          work_rows.values()):
        assert not np.shares_memory(a, w), name
    # the reused blocks carry nothing from one run into the next
    assert {name: a.tobytes() for name, a in arrays(second).items()} == held
    return first


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_capped_runs_back_to_back_keep_their_records(work_rows, case, cap):
    run, _ = CASES[case]()
    res = back_to_back(work_rows, run, cap, 0.0)
    assert res.n_iters == cap and res.stopped == "max_iter"


def record_low(res2, parity, after):
    """The first n >= after of the given parity whose residual is below
    every residual before it, so that a run with tol = sqrt(res2[n]) stops
    on tol at n exactly; None when there is none."""
    for n in range(max(after, 1), len(res2)):
        if n % 2 == parity and res2[n] < res2[:n].min():
            return n
    return None


@pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_tol_stops_on_either_block_keep_their_records(work_rows, case, parity):
    run, res2 = CASES[case]()
    probe = res2(run(400, 0.0))
    n = record_low(probe, parity, after=130) or record_low(probe, parity, after=1)
    assert n is not None
    res = back_to_back(work_rows, run, 400, float(np.sqrt(probe[n])))
    assert res.stopped == "tol" and res.n_iters == n


@pytest.mark.parametrize("cap", [64, 129])
@pytest.mark.parametrize("case", ["crifba_p2_lasso", "crifba_p3_spectrum",
                                  "p5_saddle_stack"])
def test_a_warm_start_leaves_the_callers_arrays_alone(work_rows, case, cap):
    run, _ = CASES[case]()
    x = run(3, 0.0).X
    x_prev, z_prev = x[0].copy(), x[1] + 0.01
    held = x_prev.tobytes(), z_prev.tobytes()
    res = back_to_back(work_rows, run, cap, 0.0, x_prev=x_prev, z_prev=z_prev)
    assert (x_prev.tobytes(), z_prev.tobytes()) == held
    for a in arrays(res).values():
        assert not np.shares_memory(a, x_prev) and not np.shares_memory(a, z_prev)
    assert res.x_prev_init.tobytes() == held[0]
