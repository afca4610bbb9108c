"""The vectorised ex01 operators against naive per-segment references, the
public closure repair against a naive reference, and call-count guards on the
per-step work of the monotone chains."""

import math

import numpy as np
import pytest

from leftprim import solver as SV
from leftprim import systems as SY
from leftprim.cli import main
from leftprim.runs import run_ex01
from leftprim.solver import (GridFn, closure_indices, closure_repair,
                             iterate_chain, uniqueness_chain, windowed_envelope)

H = lambda ts: np.asarray(ts, dtype=float) ** 2
CASES = [(T, per_unit) for T in (1, 2.5, 3, 5) for per_unit in (8, 256)]


# -- naive references: one boolean mask per integer segment -------------------------


def naive_operator(H, grid):
    Hv = H(grid)
    H1 = float(H(np.array([1.0]))[0])
    T = float(grid[-1])
    idx_int = {i: int(np.searchsorted(grid, float(i)))
               for i in range(1, int(math.floor(T)) + 1)}

    def op(v):
        out = np.empty_like(v)
        m0 = grid <= 1.0 + 1e-15
        out[m0] = Hv[m0] + grid[m0] * (v[m0] - H1)
        for i in range(1, int(math.floor(T)) + 1):
            mi = (grid > i) & (grid <= i + 1 + 1e-15)
            if not np.any(mi):
                continue
            xi = v[idx_int[i]]
            out[mi] = xi + i + (grid[mi] - i) * (v[mi] - xi - i)
        return out

    return op


def naive_majorant(T, grid, uv):
    idx_int = {i: int(np.searchsorted(grid, float(i)))
               for i in range(1, int(T) + 1)}

    def G(v):
        out = np.empty_like(v)
        m0 = grid <= 1.0 + 1e-15
        out[m0] = grid[m0] * v[m0]
        for i in range(1, int(T) + 1):
            mi = (grid > i) & (grid <= i + 1 + 1e-15)
            if not np.any(mi):
                continue
            wi = v[idx_int[i]]
            out[mi] = (i + 1 - grid[mi]) * wi + (grid[mi] - i) * v[mi]
        return out

    w0 = np.empty_like(grid)
    m0 = grid <= 1.0 + 1e-15
    w0[m0] = uv[m0]
    for i in range(1, int(T) + 1):
        mi = (grid > i) & (grid <= i + 1 + 1e-15)
        w0[mi] = np.maximum(uv[mi], uv[idx_int[i]])
    return G, w0


def naive_closure_repair(grid, closure_points, values, previous=None, sign=None):
    out = values.copy()
    for p in closure_points:
        j = int(np.searchsorted(grid, float(p)))
        if j < len(grid) and abs(grid[j] - float(p)) <= 1e-12 and j >= 3:
            extrap = 3 * out[j - 1] - 3 * out[j - 2] + out[j - 3]
            if previous is not None and sign is not None:
                extrap = (max(extrap, previous[j]) if sign > 0
                          else min(extrap, previous[j]))
            out[j] = extrap
    return out


def _vectors(rng, n):
    """Random vectors, an increasing one and one that is flat on segments."""
    yield rng.normal(size=n)
    yield rng.uniform(-5, 5, size=n)
    yield np.sort(rng.normal(size=n))
    yield np.repeat(rng.normal(size=(n + 7) // 8), 8)[:n]


# -- differential tests ---------------------------------------------------------------


@pytest.mark.parametrize("T,per_unit", CASES)
def test_operator_matches_naive(T, per_unit):
    S = SY.ex01_system(H, T=T, per_unit=per_unit)
    ref = naive_operator(H, S.grid)
    op = SY.ex01_operator(H, S.grid)
    rng = np.random.default_rng([int(2 * T), per_unit, 1])
    for v in _vectors(rng, len(S.grid)):
        want = ref(v)
        assert np.array_equal(op(GridFn(S.grid, v)).values, want)
        assert np.array_equal(S.component_maps[0]([GridFn(S.grid, v)]).values, want)


@pytest.mark.parametrize("T,per_unit", CASES)
def test_majorant_matches_naive(T, per_unit):
    M = SY.ex01_majorant(T=T, per_unit=per_unit)
    ref_G, ref_w0 = naive_majorant(T, M.grid, 1.0 + M.grid)
    assert np.array_equal(M.w0.values, ref_w0)
    rng = np.random.default_rng([int(2 * T), per_unit, 2])
    for w in _vectors(rng, len(M.grid)):
        assert np.array_equal(M.G(GridFn(M.grid, w)).values, ref_G(w))


@pytest.mark.parametrize("T,per_unit", [(3, 8), (5, 256)])
def test_closure_repair_matches_naive(T, per_unit):
    S = SY.ex01_system(H, T=T, per_unit=per_unit)
    rng = np.random.default_rng([T, per_unit, 3])
    points = S.closure_points + (T + 1,)  # beyond the grid: ignored
    idx = closure_indices(S.grid, points)
    for v in _vectors(rng, len(S.grid)):
        prev = v + rng.normal(size=len(v))
        for sign in (1.0, -1.0, None):
            got = closure_repair(idx, v, previous=prev, sign=sign)
            want = naive_closure_repair(S.grid, points, v, previous=prev, sign=sign)
            assert np.array_equal(got, want)
        assert np.array_equal(closure_repair(idx, v),
                              naive_closure_repair(S.grid, points, v))
    with pytest.raises(SV.SolverDataError, match="on no grid point"):
        closure_indices(S.grid, points + (0.5 / per_unit,))


# -- per-step work stays per chain ------------------------------------------------------


def _count_closure_indices(monkeypatch):
    calls = []
    real = SV.closure_indices

    def counted(grid, closure_points):
        calls.append(1)
        return real(grid, closure_points)

    monkeypatch.setattr(SV, "closure_indices", counted)
    return calls


def test_chain_computes_closure_indices_once(monkeypatch):
    calls = _count_closure_indices(monkeypatch)
    S = SY.ex01_system(H, T=3, per_unit=16)
    _, trace = iterate_chain(S, S.constant_start([-1.0]), "up", tol=1e-13,
                             max_steps=30, max_omega_stages=2)
    steps = sum(lbl.startswith("step") for lbl in trace.labels)
    assert steps == 90 and trace.omega_stages == 3
    assert len(calls) == 1


def test_uniqueness_chain_computes_closure_indices_once(monkeypatch):
    calls = _count_closure_indices(monkeypatch)
    certified, trace = uniqueness_chain(SY.ex01_majorant(T=2, per_unit=16),
                                        tol=1e-9, max_steps=5_000)
    assert certified and trace.omega_stages >= 2 and trace.stabilization_index >= 50
    assert len(calls) == 1


def test_sample_on_own_grid_returns_values():
    grid = SV.make_grid(0, 1, 8)
    f = GridFn(grid, grid ** 2)
    assert f.sample(grid) is f.values
    assert np.array_equal(f.sample(grid.copy()), f.values)
    assert f.sample(np.array([0.0625]))[0] == pytest.approx(0.0078125)


# -- observability ------------------------------------------------------------------------


def test_ex01_report_counts_uniqueness_steps(capsys):
    rep = run_ex01(T=2.0, per_unit=64)
    _, _, utrace = windowed_envelope(SY.ex01_majorant(T=2.0, per_unit=64),
                                     tol=1e-9, max_steps=30_000)
    stab = rep.stabilization
    assert set(stab) == {"steps", "omega_stages", "uniqueness_steps"}
    assert stab["uniqueness_steps"] == utrace.stabilization_index > 0
    assert rep.outputs["uniqueness_omega_stages"] == utrace.omega_stages
    assert main(["example", "ex01", "--T", "2", "--grid", "64"]) == 0
    assert f"uniqueness_steps: {utrace.stabilization_index}\n" in capsys.readouterr().out


# -- the one chain loop -------------------------------------------------------------------


def test_uniqueness_chain_label_sequence():
    _, trace = uniqueness_chain(SY.ex01_majorant(T=2, per_unit=16),
                                tol=1e-9, max_steps=5_000)
    assert trace.labels == ["start", "omega 1", "omega 2", "step 732"]
    assert trace.stabilization_index == 732 and trace.omega_stages == 2


def _nan_system():
    from leftprim.intervals import Interval

    grid = SV.make_grid(0, 1, 16)
    nan = lambda x: GridFn(grid, np.full(len(grid), np.nan))
    return SV.CauchySystem(1, [nan], [0.0], Interval(0, 1 + 1e-9), grid)


def test_nan_up_chain_is_never_stabilized():
    S = _nan_system()
    _, trace = iterate_chain(S, S.constant_start([0.0]), "up", max_steps=5,
                             max_omega_stages=1)
    assert not trace.stabilized and trace.stabilization_index is None
    assert trace.labels == ["start"] + [f"step {k}" for k in range(1, 6)] + [
        "omega 1"] + [f"step {k}" for k in range(6, 11)] + ["omega 2"]


def test_nan_in_a_later_component_is_never_stabilized():
    from leftprim.intervals import Interval

    grid = SV.make_grid(0, 1, 16)
    zero = lambda x: GridFn(grid, np.zeros(len(grid)))
    nan = lambda x: GridFn(grid, np.full(len(grid), np.nan))
    S = SV.CauchySystem(2, [zero, nan], [0.0, 0.0], Interval(0, 1 + 1e-9), grid)
    start = S.constant_start([0.0, 0.0])
    for direction in ("up", "down"):
        _, trace = iterate_chain(S, start, direction, max_steps=3,
                                 max_omega_stages=0)
        assert not trace.stabilized and trace.stabilization_index is None
        assert trace.labels == ["start", "step 1", "step 2", "step 3", "omega 1"]
    assert math.isnan(SV.residual(S, start))


def test_nan_operator_fails_the_order_checks():
    S = _nan_system()
    pair = SV.SubSuperPair(S.constant_start([-1.0]), S.constant_start([1.0]))
    with pytest.raises(SV.OrderBoundError, match="not a subsolution"):
        pair.validate(S)
    nan = lambda w: GridFn(S.grid, np.full(len(S.grid), np.nan))
    M = SV.MajorantOp(nan, GridFn.constant(S.grid, 1.0), S.grid)
    with pytest.raises(SV.OrderBoundError, match="not increasing"):
        M.spot_check_increasing()


def test_minmax_bracket_chain_budget_raises():
    from leftprim.intervals import Interval

    grid = SV.make_grid(0, 1, 64)

    def phi(x):
        v = 1 + np.tanh(x[0].values)
        return GridFn(grid, np.concatenate(
            [[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(grid))]))

    S = SV.CauchySystem(1, [phi], [0.0], Interval(0, 1 + 1e-9), grid)
    cfg = SV.L1Config(Q=lambda r: 2.0)
    with pytest.raises(SV.FixedPointError, match="up bracket chain .* max_steps=3 "):
        SV.minmax_l1(S, cfg, max_steps=3)
    y_min, y_max, _ = SV.minmax_l1(S, cfg, tol=1e-12, max_steps=2000)
    assert np.allclose(y_min[0].values, y_max[0].values, atol=1e-9)


def test_smallest_greatest_traces_carry_the_residuals():
    from leftprim.runs import run_ex31

    rep = run_ex31(per_unit=128)
    (y_lo, y_hi), (tr_up, tr_dn) = rep.solutions, rep.traces
    assert tr_up.residual == SV.residual(rep.system, y_lo) == rep.residuals["smallest"]
    assert tr_dn.residual == SV.residual(rep.system, y_hi) == rep.residuals["greatest"]
    S = SY.random_monotone_system(np.random.default_rng(11), m=2)
    pair = SV.bounds_to_subsuper(S, *SY.order_bounds_for_random(S))
    y_lo, y_hi, (tr_up, tr_dn) = SV.smallest_greatest(S, pair, tol=1e-11,
                                                      max_steps=300)
    assert tr_up.residual == SV.residual(S, y_lo)
    assert tr_dn.residual == SV.residual(S, y_hi)
