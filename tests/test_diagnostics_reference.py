"""crifba.diagnostics, formed RECORD_ROWS trace rows at a time, against the
per-row loop in _reference_checks: every column bit for bit but energy,
whose block form may round otherwise at d > 1 and must agree within
64 d eps relative; undefined cells (NaN in the block form, None in the
loop) in the same places."""

import numpy as np
import pytest

import _reference_checks as reference
from monosplit import crifba, problems
from monosplit.crifba import RECORD_ROWS, diagnostics
from test_checks import recorded

EPS = np.finfo(float).eps
SEAM = 2 * 5 * RECORD_ROWS + 3     # crosses a block seam at strides 1, 2 and 5


def cells(recs, name):
    return np.array([np.nan if getattr(r, name) is None else getattr(r, name)
                     for r in recs], dtype=float)


def same_bits(got, want):
    undefined = np.isnan(want)
    assert (np.isnan(got) == undefined).all()
    assert got[~undefined].tobytes() == want[~undefined].tobytes()


@pytest.mark.parametrize("with_q", [True, False])
@pytest.mark.parametrize("stride", [1, 2, 5])
@pytest.mark.parametrize("steps", [0, 1, 2, SEAM])
@pytest.mark.parametrize("name", ["p1_clamp", "p2_lasso", "p3_spectrum",
                                  "flat_interval", "p5_saddle"])
def test_diagnostics_match_per_row_reference(name, steps, stride, with_q):
    A, B, q, res = recorded(name, steps)
    assert_matches_reference(res, A, B, q if with_q else None, stride)


@pytest.mark.parametrize("stride", [1, 2])
def test_diagnostics_match_per_row_reference_after_a_warm_start(stride):
    # nu0 > 0 and x_{-1} != x_0, so energy at n = 0 reads x_{-1}
    prob = problems.get("p2_lasso")
    params = crifba.default_params(prob.L_map(), nu0=1.5)
    res = crifba.run(prob.A, prob.B, params, prob.start, max_iter=70, tol=0.0,
                     x_prev=prob.start + 0.1, z_prev=prob.start - 0.2)
    assert_matches_reference(res, prob.A, prob.B, prob.certified_solution, stride)


def assert_matches_reference(res, A, B, q, stride):
    got = diagnostics(res, A, B, q=q, stride=stride)
    want = reference.diagnostics(res, A, B, q=q, stride=stride)
    assert got.dtype.names == crifba.TRACE_COLUMNS
    assert got["n"].tolist() == [r.n for r in want]
    for name in ("vel2", "vn2", "res2", "ystar_norm"):
        same_bits(got[name], cells(want, name))
    energy = cells(want, "energy")
    assert np.isnan(energy).all() == (q is None)
    d = res.X.shape[1]
    if d == 1:
        same_bits(got["energy"], energy)
    else:
        assert (np.isnan(got["energy"]) == np.isnan(energy)).all()
        assert (np.abs(got["energy"] - energy)
                <= 64 * d * EPS * np.abs(energy))[~np.isnan(energy)].all()


def test_diagnostics_screen_the_stored_rows():
    A, B, q, res = recorded("p2_lasso", 20)
    for field, row in (("X", 7), ("V", 7), ("Z", 6)):
        bad = crifba.RunResult(**{**res.__dict__, field: getattr(res, field).copy()})
        getattr(bad, field)[row, 1] = np.nan
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="^vector has non-finite entries$"):
                diagnostics(bad, A, B, q=q)
            with pytest.raises(ValueError, match="^vector has non-finite entries$"):
                reference.diagnostics(bad, A, B, q=q)


@pytest.mark.parametrize("stride", [0, -2])
def test_diagnostics_reject_a_stride_below_one(stride):
    A, B, q, res = recorded("p1_clamp", 2)
    with pytest.raises(ValueError, match="stride"):
        diagnostics(res, A, B, stride=stride)
