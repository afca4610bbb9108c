"""The windowed, bracket-certified chain against the plain chain and the
closed form, its certificate, its fallback and its order check, and what
``run_ex01`` reports about the certificates."""

import math

import numpy as np
import pytest

from leftprim import solver as SV
from leftprim import systems as SY
from leftprim.intervals import Interval
from leftprim.runs import run_ex01
from leftprim.solver import GridFn, iterate_chain, windowed_chain

H = lambda ts: np.asarray(ts, dtype=float) ** 2


def _ex01(T, per_unit):
    S = SY.ex01_system(H, T=T, per_unit=per_unit)
    x, pair, trace = windowed_chain(S, S.constant_start([-1.0]), 30_000)
    return S, x, pair, trace


def _fallbacks(trace):
    return sum(map(math.isinf, trace.bracket_widths))


def _closed_error(S, x):
    return float(np.max(np.abs(x[0].values - SY.ex01_closed_form(H, 2.0, S.grid))))


@pytest.mark.parametrize("T,per_unit", [(1, 256), (2.5, 64), (5, 16), (5, 256),
                                        (5, 512)])
def test_closed_form_error_is_no_worse_than_the_plain_chain(T, per_unit):
    S, x, _, trace = _ex01(T, per_unit)
    ref, _ = iterate_chain(S, S.constant_start([-1.0]), "up", tol=1e-13,
                           max_steps=30_000, record_every=0)
    assert _closed_error(S, x) <= _closed_error(S, ref)
    windows = math.ceil(T)
    assert _fallbacks(trace) == 0 and len(trace.bracket_widths) == windows
    assert trace.stabilized and trace.stabilization_index == 2 * windows


def test_an_irregular_closure_gap_falls_back_to_the_plain_chain():
    # 1 is inserted into this grid off its spacing (make_grid keeps the
    # spacing regular, so the grid is built here), and the left-continuity
    # repair of the extrapolate lands below the chain's clamped value there;
    # the near-side check refuses that bracket
    grid = np.unique(np.concatenate([np.linspace(0, 1.5, 383), [1.0]]))
    op = SY.ex01_operator(H, grid)
    S = SV.CauchySystem(1, [lambda x: op(x[0])], [0.0], Interval(0, 1.5 + 1e-9),
                        grid, closure_points=(1,), name="ex01")
    x, _, trace = windowed_chain(S, S.constant_start([-1.0]), 30_000)
    ref, _ = iterate_chain(S, S.constant_start([-1.0]), "up", tol=1e-13,
                           max_steps=30_000, record_every=0)
    assert trace.bracket_widths[0] == math.inf and _fallbacks(trace) == 1
    assert _closed_error(S, x) <= _closed_error(S, ref) + 1e-12  # 5.0e-6 each


def test_long_horizon_stays_on_the_closed_form():
    S, x, _, trace = _ex01(50, 256)
    assert _closed_error(S, x) <= 1e-9
    assert _fallbacks(trace) == 0 and len(trace.bracket_widths) == 50


def test_prefix_is_bit_identical_to_the_shorter_run():
    S3, x3, pair3, _ = _ex01(3, 256)
    S5, x5, pair5, _ = _ex01(5, 256)
    n = len(S3.grid)
    assert np.array_equal(S5.grid[:n], S3.grid)
    assert np.array_equal(x5[0].values[:n], x3[0].values)
    assert np.array_equal(pair5.lower[0].values[:n], pair3.lower[0].values)
    assert np.array_equal(pair5.upper[0].values[:n], pair3.upper[0].values)


@pytest.mark.parametrize("T,per_unit", [(2.5, 64), (5, 256)])
def test_pair_is_a_sub_supersolution_with_its_own_anchors(T, per_unit):
    S, x, pair, trace = _ex01(T, per_unit)
    off = np.ones(len(S.grid), dtype=bool)
    off[SV.closure_indices(S.grid, S.closure_points)] = False
    lo, hi, mid = pair.lower[0].values, pair.upper[0].values, x[0].values
    f_lo = SV.apply_operator(S, pair.lower)[0].values
    f_hi = SV.apply_operator(S, pair.upper)[0].values
    assert np.all(f_hi[off] <= hi[off]) and np.all(f_lo[off] >= lo[off])
    assert np.all(lo <= mid) and np.all(mid <= hi)
    assert max(trace.bracket_widths) == float(np.max(hi - lo)) <= 1e-12


def test_the_step_budget_is_shared_by_the_windows():
    # window 1 brackets after its two steps, window 2 gets the one step left
    # and window 3 none: both stay unbracketed and the chain unstabilized
    S = SY.ex01_system(H, T=3, per_unit=64)
    x, pair, trace = windowed_chain(S, S.constant_start([-1.0]), 3)
    assert not trace.stabilized and trace.stabilization_index is None
    assert trace.bracket_widths[0] <= 1e-12
    assert trace.bracket_widths[1:] == [math.inf, math.inf]
    third = (S.grid > 2) & (S.grid < 3)
    assert np.all(x[0].values[third] == -1.0)
    assert np.array_equal(pair.lower[0].values[third], x[0].values[third])


def test_a_mildly_nonlinear_window_brackets_through_the_corrections():
    # Aitken is exact on ex01's pointwise-geometric chain; here the chain is
    # not geometric, and fewer than two residual corrections fall back
    grid = SV.make_grid(0, 1, 64)

    def phi(x):
        v = x[0].values
        return GridFn(grid, 0.5 * grid * (v + 1e-6 * v * v) + grid ** 2)

    S = SV.CauchySystem(1, [phi], [0.0], Interval(0, 1 + 1e-9), grid)
    x, pair, trace = windowed_chain(S, S.constant_start([0.0]), 200)
    assert _fallbacks(trace) == 0 and trace.stabilization_index == 2
    assert trace.bracket_widths[0] <= 1e-13
    f_lo, f_hi = (SV.apply_operator(S, p)[0].values for p in (pair.lower, pair.upper))
    assert np.all(f_hi <= pair.upper[0].values) and np.all(f_lo >= pair.lower[0].values)
    assert SV.residual(S, x) <= 1e-13


def test_a_random_system_falls_back_and_converges():
    S = SY.random_monotone_system(np.random.default_rng(11), m=2)
    pair = SV.bounds_to_subsuper(S, *SY.order_bounds_for_random(S))
    x, got, trace = windowed_chain(S, pair.lower, 300)
    ref, ref_trace = iterate_chain(S, pair.lower, "up", tol=1e-12,
                                   max_steps=300)
    assert trace.bracket_widths == [math.inf]
    assert trace.stabilized
    assert trace.stabilization_index == ref_trace.stabilization_index
    for a, b, lo, hi in zip(x, ref, got.lower, got.upper):
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(lo.values, a.values) and np.array_equal(hi.values, a.values)
    assert SV.residual(S, x) <= 1e-9


def test_an_order_violation_raises():
    grid = SV.make_grid(0, 1, 16)
    down = lambda x: GridFn(grid, x[0].values - 1.0)
    S = SV.CauchySystem(1, [down], [0.0], Interval(0, 1 + 1e-9), grid)
    with pytest.raises(SV.MonotonicityError, match="step 1 of window 1"):
        windowed_chain(S, S.constant_start([0.0]), 200)


def test_a_system_not_declared_monotone_is_refused():
    S = SY.ex01_system(H, T=2, per_unit=16)
    S.monotone = False
    with pytest.raises(SV.SolverDataError):
        windowed_chain(S, S.constant_start([-1.0]), 200)


# -- what run_ex01 says the certificates cover ------------------------------------------


@pytest.mark.parametrize("T,per_unit,covered", [(5.0, 256, 5.0), (2.0, 256, 2.0),
                                                (5.0, 300, 5.0)])  # non-dyadic
def test_ex01_reports_the_uniqueness_interval(T, per_unit, covered):
    rep = run_ex01(T=T, per_unit=per_unit)
    out = rep.outputs
    assert out["uniqueness_certified"] is True
    assert out["uniqueness_interval"] == [0, covered]
    assert out["bracket_width"] <= 1e-12
    assert out["closed_form_sup_error"] <= 2.79e-11
    assert f"only where uniqueness is certified, on [0, {covered}]" in \
        out["truncation_note"]
    assert set(rep.stabilization) == {"steps", "omega_stages", "uniqueness_steps"}
    assert rep.stabilization["steps"] == 2 * math.ceil(T)  # no window fell back


@pytest.mark.parametrize("T", [2.5, 7.5])
@pytest.mark.parametrize("per_unit", [255, 300])
def test_closure_points_off_the_uniform_grid_keep_a_regular_spacing(T, per_unit):
    # make_grid spaces each piece between closure points on its own, so the
    # quadratic closure reads evenly spaced points and every window brackets
    S = SY.ex01_system(H, T=T, per_unit=per_unit)
    idx = SV.closure_indices(S.grid, S.closure_points)
    assert [float(S.grid[j]) for j in idx] == [float(p) for p in S.closure_points]
    for j in idx:
        gaps = np.diff(S.grid[j - 3:j + 1])
        assert np.allclose(gaps, gaps[0], rtol=1e-9, atol=0)
    out = run_ex01(T=T, per_unit=per_unit).outputs
    assert out["closed_form_sup_error"] <= 1e-9
    assert math.isfinite(out["bracket_width"])
    assert out["uniqueness_interval"] == [0, T]


def test_a_grid_through_points_on_the_uniform_grid_is_the_uniform_grid():
    assert np.array_equal(SV.make_grid(0, 5, 256, include=range(1, 6)),
                          np.linspace(0, 5, 1281))
    assert np.array_equal(SV.make_grid(0, 1, 4096), np.linspace(0, 1, 4097))


# -- windows too short for the closure rule ------------------------------------------------


@pytest.mark.parametrize("per_unit", [2, 3])
def test_a_window_too_short_for_the_closure_rule_raises(per_unit):
    # the closure reads the three grid points before its point; at 2 per unit
    # t = 1 has two, at 3 per unit t = 2 has only 1 + 2/3 and 1 + 1/3 in its
    # window, and reading back across t = 1 crosses ex01's jump there
    with pytest.raises(SV.SolverDataError, match="closure rule needs 3"):
        run_ex01(T=5, per_unit=per_unit)


def test_four_points_per_unit_are_enough_for_the_closure_rule():
    out = run_ex01(T=5, per_unit=4).outputs
    assert out["closed_form_sup_error"] <= 1e-9
    assert out["uniqueness_certified"] is True


def test_closure_indices_reads_only_its_own_window():
    grid = np.linspace(0, 2, 9)  # 1 at index 4, 2 at index 8
    assert SV.closure_indices(grid, (2, 1)) == [4, 8]
    assert SV.closure_indices(grid, (1, 2.5)) == [4]  # 2.5 is off the grid
    assert SV.closure_indices(grid, (0.75, 1.75)) == [3, 7]  # 4, 5, 6 inside
    with pytest.raises(SV.SolverDataError, match="1.25 has 1 grid points"):
        SV.closure_indices(grid, (0.75, 1.25))
    with pytest.raises(SV.SolverDataError, match="0.25 has 1 grid points"):
        SV.closure_indices(grid, (0.25,))


def test_a_closure_point_on_no_grid_point_raises():
    # 1.1 lies inside the grid's span, between its points 1 and 1.25
    grid = np.linspace(0, 2, 9)
    op = SY.ex01_operator(H, grid)
    S = SV.CauchySystem(1, [lambda x: op(x[0])], [0.0], Interval(0, 2 + 1e-9),
                        grid, closure_points=(1, 1.1), name="ex01")
    with pytest.raises(SV.SolverDataError, match="1.1 lies on no grid point"):
        iterate_chain(S, S.constant_start([-1.0]), "up")
    assert SV.closure_indices(grid, (-1, 1, 2.5)) == [4]  # beyond: ignored


def test_closure_indices_tolerance_holds_on_both_sides():
    grid = np.linspace(0, 2, 9)
    assert SV.closure_indices(grid, (1 - 1e-13,)) == [4]
    assert SV.closure_indices(grid, (1 + 1e-13,)) == [4]
    assert SV.closure_indices(grid, (2 + 5e-13,)) == [8]
    assert SV.closure_indices(grid, (2 + 2e-12,)) == []  # beyond: ignored
    with pytest.raises(SV.SolverDataError, match="lies on no grid point"):
        SV.closure_indices(grid, (1 + 2e-12,))
