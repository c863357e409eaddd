"""The step path's coefficients and constants, pinned bit for bit.

A run takes theta_n and gamma_n from a table that schedule fills for
crifba.RECORD_ROWS indices at a time, and its constants (lam, w and
1 - w, inertia, tau and sigma, the 0 and the thresholds of soft
thresholding) as 0-d float64 arrays, and the per-run rows that meet a
block (p2's b, p3's modes, p5_saddle's a, a constant lam B and sigma b)
as tiles of the block's shape. All must give the bits of the one-step
forms: the table those of schedule(params, n), the z_n a run writes those
of extrapolate, an array operand those of the Python float, a tile those
of the broadcast row, and a step that writes x_{n+1} into its out row
those of the step that returns a new array. So must the forms the row call
writes out: gcrifba's flat np.add.reduce those of ndarray.sum, _soft_rows
those of _soft, and _dual_prox's constants, keyed on the sigma object,
those of the float forms.
"""

import numpy as np
import pytest

from monosplit import crifba, cripda, gcrifba, metriclin, operators, problems
from monosplit.crifba import RECORD_ROWS, CrifbaParams, KMState, schedule
from monosplit.metriclin import SpdMap, operator_norm
from monosplit.operators import _soft, forward_backward_map, l1_op, zero_op


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


def watch_steps(monkeypatch, watch):
    """crifba_step and gcrifba_step, patched to call watch(state, args) with
    the arguments after the state, (..., ahead, out), before each step."""
    for module, name in ((crifba, "crifba_step"), (gcrifba, "gcrifba_step")):
        def watched(state, *args, step=getattr(module, name)):
            watch(state, args)
            return step(state, *args)
        monkeypatch.setattr(module, name, watched)


def scheduled_run(kind, params):
    """A capped run of kind with the schedule of params; its Z, or None for
    gcrifba, whose result keeps no Z."""
    sched = {f: getattr(params, f) for f in ("e", "s0", "s1", "nu0")}
    steps = dict(max_iter=2 * RECORD_ROWS + 3, tol=-1.0)
    if kind == "crifba_vector":
        prob = problems.get("p3_spectrum")
        p = crifba.default_params(prob.L_map(), **sched)
        return crifba.run(prob.A, prob.B, p, prob.start + 0.5, **steps).Z
    if kind == "p5_saddle_stack":
        pair = problems.get("p5_saddle").saddle
        A, B = cripda.stacked_operators(pair)
        p = CrifbaParams(lam=1.0, w=0.3, M=cripda.build_metric(pair, 0.2, 0.2),
                         L=B.certificate_L, **sched)
        return crifba.run(A, B, p, np.array([0.5, -1.0, 0.25, 2.0]), **steps).Z
    prob = problems.get("p6_res_sum")
    p = gcrifba.default_gcrifba_params(prob.beta, **sched)
    gcrifba.run_gcrifba(prob.A_list, prob.B, p, prob.start + 0.5, **steps)
    return None


# the schedules of the runs below: nu0 = 10^6 gives coefficients near those
# of n = 10^6
RUN_SCHEDULES = dict(SCHEDULES, nu0_1e6=CrifbaParams(nu0=1e6))


@pytest.mark.parametrize("kind", ["crifba_vector", "p5_saddle_stack", "gcrifba_blocks"])
@pytest.mark.parametrize("name", ["defaults", "s1_zero", "random_7", "nu0_1e6"])
def test_the_run_writes_extrapolate_s_z_n(monkeypatch, name, kind):
    # each step of a run from n = 0 across the table's and the records'
    # seams at 63 | 64 and 127 | 128: the z_n the loop writes into its
    # block, hands the step and records is extrapolate's z_n of the state
    # the step is handed, bit for bit
    params, log = RUN_SCHEDULES[name], []
    # (n, x_{n-1}, x_n, z_{n-1}, z_n) of each step, copied
    watch_steps(monkeypatch, lambda state, args: log.append(
        (state.n, state.x_prev.copy(), state.x.copy(), state.z_prev.copy(),
         args[-2][0].copy())))
    Z = scheduled_run(kind, params)
    assert [entry[0] for entry in log] == list(range(2 * RECORD_ROWS + 3))
    for n, xp, x, zp, z in log:
        assert z.shape == x.shape
        want = crifba.extrapolate(params, KMState(n, xp, x, zp))
        assert z.tobytes() == want.tobytes(), n
        if Z is not None:
            assert Z[n].tobytes() == want.tobytes(), n
        if n:
            # z_{n-1} is the z_n of the step before
            assert zp.tobytes() == log[n - 1][4].tobytes(), n


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
    from monosplit.operators import _ZERO
    X = np.array([[0.0, -0.0, 1e-300, -2.5], [np.nan, np.inf, -np.inf, 3.0]])
    with np.errstate(invalid="ignore"):
        for D in (X, X[:, 1:]):
            assert np.maximum(D, _ZERO).tobytes() == np.maximum(D, 0.0).tobytes()
            want = np.sign(D) * np.maximum(np.abs(D) - 0.5, 0.0)
            assert _soft(0.5, D).tobytes() == want.tobytes()
    assert not _ZERO.flags.writeable


def threshold(soft):
    """The threshold a soft-thresholding row map holds in its closure."""
    cells = zip(soft.__code__.co_freevars, soft.__closure__)
    return {name: c.cell_contents for name, c in cells}["thresh"]


def test_soft_thresholds_are_0d_operands_formed_once_per_step():
    # l1_op's resolvent rows and p5_lasso_pd's prox_G form lam * weight
    # and tau * mu once per lam or tau they are handed, as a read-only 0-d
    # float64, with the bits of _soft on the float threshold, on ordinary
    # and special values (_soft_rows writes _soft's operations out)
    rng = np.random.default_rng(9)
    X = rng.standard_normal((4, 5))
    X[0, :2] = 0.0, -0.0
    S = special_rows(rng, 8, 5)
    prob = problems.get("p5_lasso_pd")
    mu = prob.extras["mu"]
    cases = [(l1_op(0.3)._resolvent_rows, 0.3, (0.5, 1.7, 1e-300, 0.5)),
             (prob.saddle.prox_G, mu, (np.array(0.37), np.array(1.9)))]
    for soft, scale, steps in cases:
        for t in steps:
            for D in (X, X[:, 1:], S):
                with np.errstate(invalid="ignore"):
                    assert soft(t, D).tobytes() == _soft(t * scale, D).tobytes(), t
            thresh = threshold(soft)
            assert type(thresh) is np.ndarray and thresh.shape == ()
            assert thresh.dtype == float and not thresh.flags.writeable
            assert bits(thresh) == bits(t * scale)
            # handed the same step again, the map keeps its threshold
            soft(t, X)
            assert threshold(soft) is thresh


# --- per-run rows tiled to the block ------------------------------------------

# the row counts of the checks below, in the order one map is handed them:
# a step's one and two rows, a replay's blocks, then a switch back and forth
TILE_KS = [1, 2, 3, 64, 512, 2, 512, 2]


def special_rows(rng, k, d, finite=False):
    """k rows of d entries drawn from +-0, subnormals, +-1e300, ordinary
    magnitudes and, unless finite, NaN and +-inf, with every one of these
    values present when k d allows."""
    pool = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 0.75, -1.5, 3e5]
    pool = np.array(pool + ([] if finite else [np.nan, np.inf, -np.inf]))
    X = rng.choice(pool, size=(k, d)) * rng.choice([1.0, 1.0, 0.5], size=(k, d))
    X.flat[:min(X.size, len(pool))] = pool[:X.size]
    return X


def tile_recorder(monkeypatch):
    """Patch the _row_constant every map reads to record each tile it
    serves with the shape it was asked for; returns the record."""
    served = []

    def recording(row):
        tile = metriclin._row_constant(row)

        def rows(shape):
            served.append((shape, tile(shape)))
            return served[-1][1]
        return rows

    for module in (operators, problems):
        monkeypatch.setattr(module, "_row_constant", recording)
    return served


def tile_forms():
    """name -> (tiled map, broadcast form, d, finite): each map that meets
    a per-run row, next to its form with the row broadcast; the maps of
    the catalog are those of fresh specs. The constant-lamB map is taken
    in each of its three branches, on finite rows (its screens refuse
    others), and the proxes of F* at 0-d sigmas and a float sigma."""
    p2, p3 = problems.get("p2_lasso"), problems.get("p3_spectrum")
    saddle, lasso_pd = problems.get("p5_saddle"), problems.get("p5_lasso_pd")
    K, b, mus, a = p2.extras["K"], p2.extras["b"], p3.extras["modes"], saddle.extras["a"]
    forms = {
        "p2_gradient": (p2.B._apply_rows,
                        lambda X: np.matvec(K.T, np.matvec(K, X) - b), 5, False),
        "p3_B": (p3.B._apply_rows, lambda X: mus * X, 21, False),
        "p5_saddle_grad_Q": (saddle.saddle.grad_Q, lambda X: X - a, 2, False),
    }
    rng = np.random.default_rng(41)
    step = 0.7 / operator_norm(lasso_pd.saddle.K)
    stacked, _ = cripda.stacked_operators(lasso_pd.saddle)
    for name, A, M in (("plain", l1_op(0.3), SpdMap.identity(4)),
                       ("metric", stacked, cripda.build_metric(lasso_pd.saddle, step, step)),
                       ("affine", zero_op(), SpdMap(np.diag([2.0, 0.5, 1.0, 3.0])))):
        row = special_rows(rng, 1, M.d, finite=True)[0]
        forms["lamB_" + name] = (
            forward_backward_map(A, M, 0.7, lamB=row),
            lambda X, A=A, M=M, row=row: forward_backward_map(
                A, M, 0.7, lamB=np.broadcast_to(row, X.shape))(X), M.d, True)
    for spec, bb in ((saddle, None), (lasso_pd, lasso_pd.extras["b"])):
        prox = spec.saddle.prox_Fstar
        for sigma in (np.array(0.37), np.array(1.9), 0.37):
            want = ((lambda U, s=sigma: U / (1.0 + s)) if bb is None else
                    (lambda U, s=sigma, bb=bb: (U - s * bb) / (1.0 + s)))
            forms["%s_prox_Fstar_%r" % (spec.name, sigma)] = (
                lambda U, s=sigma, prox=prox: prox(s, U), want, spec.saddle.d_dual, False)
    return forms


def same_bits(got, want):
    """Both calls raise the same error, or return arrays of the same shape
    and bytes."""
    with np.errstate(all="ignore"):
        results = []
        for call in (got, want):
            try:
                results.append(call())
            except Exception as err:
                results.append(err)
    g, w = results
    if isinstance(w, Exception):
        assert type(g) is type(w) and str(g) == str(w)
    else:
        assert not isinstance(g, Exception), g
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_tiles_give_the_broadcast_bits(monkeypatch):
    # each map on blocks of 1, 2, 3, 64 and 512 rows, then 2 -> 512 -> 2,
    # of special values, against its form with the row broadcast; then the
    # proxes of F* once more with the sigma switched from call to call.
    # Every tile served is read-only and has the shape of the block it
    # meets: a tile of another row count can broadcast to the same values
    served = tile_recorder(monkeypatch)
    rng = np.random.default_rng(43)
    forms = tile_forms()
    for name, (tiled, broadcast, d, finite) in forms.items():
        for k in TILE_KS:
            # a map that screens its rows refuses a non-finite block alike
            blocks = [special_rows(rng, k, d, finite), special_rows(rng, k, d)]
            for X in blocks[:1 + finite]:
                same_bits(lambda: tiled(X), lambda: broadcast(X))
    for k in TILE_KS:
        for name, (tiled, broadcast, d, finite) in forms.items():
            if "prox_Fstar" in name:
                U = special_rows(rng, k, d)
                same_bits(lambda: tiled(U), lambda: broadcast(U))
    assert {shape[0] for shape, _ in served} == set(TILE_KS)
    for shape, tile in served:
        assert tile.shape == shape and not tile.flags.writeable


def test_two_specs_share_no_tile(monkeypatch):
    # the tiles of one spec's maps are its own: the maps of a second
    # problems.get call serve tiles that share no memory with the first's
    served = tile_recorder(monkeypatch)
    rng = np.random.default_rng(47)
    held = []
    for _ in range(2):
        del served[:]
        for name, (tiled, _, d, _) in tile_forms().items():
            if not name.startswith("lamB"):
                with np.errstate(all="ignore"):
                    tiled(special_rows(rng, 3, d))
        held.append([tile for _, tile in served])
    assert len(held[0]) == len(held[1]) > 0
    for t1 in held[0]:
        for t2 in held[1]:
            assert not np.shares_memory(t1, t2)


def test_a_row_constant_tiles_to_the_shape_it_is_asked_for():
    rng = np.random.default_rng(53)
    row = special_rows(rng, 1, 6)[0]
    rows = metriclin._row_constant(row)
    for k in TILE_KS:
        tile = rows((k, 6))
        assert tile.shape == (k, 6) and not tile.flags.writeable
        assert tile.tobytes() == np.tile(row, (k, 1)).tobytes()
        assert rows((k, 6)) is tile     # kept for the last shape
    # the closure keeps one tile: a change of shape forms a fresh one, and
    # so does a change back
    first = rows((3, 6))
    assert rows((3, 6)) is first and rows((4, 6)) is not first
    again = rows((3, 6))
    assert again is not first and again.tobytes() == first.tobytes()
    assert not again.flags.writeable
    assert rows((6,)).tobytes() == row.tobytes()


# --- the step's out form ------------------------------------------------------

OUT_WS = [0.5, 0.3, 0.7]


def core_ahead(rng, w, shape=(5,)):
    """A state and the values the loop hands crifba_step: ahead with the
    run's w as 0-d operands and a work row full of NaN, which the step
    must not read."""
    state = KMState(7, *rng.standard_normal((3,) + shape) * 1e3)
    z, fb = rng.standard_normal((2,) + shape) * [[1e-3], [1e5]]
    work = np.full(shape, np.nan)
    return state, (z, fb, w, np.array(w), np.array(1.0 - w), work)


@pytest.mark.parametrize("run_w", OUT_WS)
@pytest.mark.parametrize("step_w", OUT_WS)
def test_crifba_step_fills_the_out_row_with_the_plain_form(run_w, step_w):
    # a step whose params.w is the run's takes the run's 0-d w and 1 - w;
    # one given another w (as relax_at gives it) forms both as floats. The
    # out row of either holds the bits of the plain form and of
    # (1 - w) z + w fb, and is the new state's x
    rng = np.random.default_rng(int(10 * run_w + 100 * step_w))
    params = CrifbaParams(w=step_w)
    for _ in range(5):
        state, ahead = core_ahead(rng, run_w)
        z, fb = ahead[:2]
        want = ((1.0 - step_w) * z + step_w * fb).tobytes()
        plain = crifba.crifba_step(state, params, None, None, ahead)
        assert plain.x.tobytes() == want
        X = np.full((3, 5), np.nan)
        new = crifba.crifba_step(state, params, None, None, ahead, X[1])
        assert new.x.__array_interface__ == X[1].__array_interface__
        assert X[1].tobytes() == want
        assert np.isnan(X[[0, 2]]).all()
        assert new.n == 8 and new.x_prev is state.x and new.z_prev is z


@pytest.mark.parametrize("run_w", OUT_WS)
@pytest.mark.parametrize("step_w", OUT_WS)
def test_gcrifba_step_fills_the_out_row_with_the_plain_form(run_w, step_w):
    # the residual hands the step row 1 of r - u, formed by one subtraction
    # over the (2, p, d) stack with u broadcast to the blocks: the new blocks
    # hold the bits of z + w (r - u) with the row's own r and u
    rng = np.random.default_rng(int(10 * run_w + 100 * step_w) + 1)
    params = CrifbaParams(w=step_w)
    for _ in range(5):
        state = KMState(7, *rng.standard_normal((3, 3, 4)))
        z = rng.standard_normal((3, 4)) * 1e-3
        R, U = rng.standard_normal((2, 3, 4)) * 1e5, rng.standard_normal((2, 4))
        ru = np.subtract(R, U[:, None])[1]
        ahead = (z, ru, run_w, np.array(run_w))
        want = (z + step_w * (R[1] - U[1])).tobytes()
        assert gcrifba.gcrifba_step(state, params, ahead).x.tobytes() == want
        X = np.full((3, 3, 4), np.nan)
        new = gcrifba.gcrifba_step(state, params, ahead, X[1])
        assert new.x.__array_interface__ == X[1].__array_interface__
        assert X[1].tobytes() == want
        assert np.isnan(X[[0, 2]]).all()
        assert new.n == 8 and new.x_prev is state.x and new.z_prev is z


# --- the row call's rewritten forms ---------------------------------------------

def test_the_flat_add_reduce_gives_the_bits_of_sum():
    # gcrifba's residual sums its (p, d) products by np.add.reduce over
    # their flat view: on p <= 5 blocks of d <= 21 special values, finite
    # and not, the bits of ndarray.sum
    rng = np.random.default_rng(59)
    with np.errstate(all="ignore"):
        for p in range(1, 6):
            for d in range(1, 22):
                for finite in (True, False):
                    for _ in range(4):
                        a = special_rows(rng, p, d, finite) * rng.standard_normal((p, d))
                        assert bits(np.add.reduce(a.ravel())) == bits(a.sum()), (p, d)


def dual_constants(prox):
    """The (key, scale, shift) a _dual_prox map holds in its closure."""
    cells = dict(zip(prox.__code__.co_freevars, prox.__closure__))
    return tuple(cells[name].cell_contents for name in ("key", "scale", "shift"))


@pytest.mark.parametrize("with_b", [False, True])
def test_dual_prox_constants_are_the_float_forms_keyed_on_sigma(with_b):
    # 1 + sigma and sigma b are formed from float(sigma) once per sigma
    # object handed to the map: a 0-d array, a numpy scalar and a Python
    # float give the bits of the float forms, the same object keeps its
    # constants, and another object of the same value forms them again
    rng = np.random.default_rng(67)
    b = special_rows(rng, 1, 5, finite=True)[0] if with_b else None
    prox = problems._dual_prox(b)
    U = special_rows(rng, 2, 5)
    for sigma in (np.array(0.37), np.float64(1.9), 0.37, np.array(1e-300)):
        s = float(sigma)
        with np.errstate(all="ignore"):
            got = prox(sigma, U)
            want = (U if b is None else U - s * b) / (1.0 + s)
        assert got.tobytes() == want.tobytes(), sigma
        key, scale, shift = dual_constants(prox)
        assert key is sigma and bits(scale) == bits(1.0 + s)
        if b is None:
            assert shift is None
        else:
            assert shift(U.shape).tobytes() == np.tile(s * b, (2, 1)).tobytes()
        prox(sigma, U)
        assert dual_constants(prox)[1] is scale
        prox(np.array(s), U)
        assert dual_constants(prox)[1] is not scale
