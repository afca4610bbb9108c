"""Monotone chains, the quantized system, the segment-affine fixed point,
L1 minimal/maximal solutions, uniqueness chains, higher-order reduction."""

import math
from fractions import Fraction

import numpy as np
import pytest

from leftprim import builders as B
from leftprim import systems as SY
from leftprim.funcspace import RegulatedFn
from leftprim.intervals import Interval
from leftprim.solver import (CauchySystem, GridFn, L1Config, MonotonicityError,
                             SolverDataError, SubSuperPair, apply_operator,
                             as_grid, iterate_chain, make_grid, minmax_l1,
                             residual, reduce_higher_order, smallest_greatest,
                             uniqueness_chain)
from leftprim.stepfn import StepFn

F = Fraction


# -- apply_operator ------------------------------------------------------------


def _constant_system(c, grid):
    maps = [lambda x, i=i: GridFn(grid, np.zeros(len(grid)))
            for i in range(len(c))]
    return CauchySystem(len(c), maps, list(c), Interval(0, 1 + 1e-9), grid)


def test_apply_operator_constant():
    grid = make_grid(0, 1, 16)
    S = _constant_system([1.0, 2.0], grid)
    out = apply_operator(S, S.constant_start([0, 0]))
    assert np.allclose(as_grid(out[0], grid), 1.0)
    assert np.allclose(as_grid(out[1], grid), 2.0)


def test_apply_operator_identity_slope():
    grid = make_grid(0, 1, 16)
    maps = [lambda x: GridFn(grid, grid.copy())]
    S = CauchySystem(1, maps, [0.0], Interval(0, 1 + 1e-9), grid)
    out = apply_operator(S, S.constant_start([0]))
    assert np.allclose(as_grid(out[0], grid), grid)


# -- iterate_chain --------------------------------------------------------------


def test_chain_constant_operator_stabilizes_immediately():
    grid = make_grid(0, 1, 16)
    S = _constant_system([1.0], grid)
    start = S.constant_start([0.0])  # subsolution: 0 <= 1
    x, trace = iterate_chain(S, start, "up")
    assert trace.stabilized and trace.stabilization_index <= 2
    assert np.allclose(as_grid(x[0], grid), 1.0)


def test_chain_scalar_affine_map():
    # F(x) = x/2 + 1 pointwise: monotone iterates toward 2, closed by the
    # tolerance comparison after ~50 steps
    grid = make_grid(0, 1, 8)
    maps = [lambda x: GridFn(grid, 0.5 * as_grid(x[0], grid) + 1.0)]
    S = CauchySystem(1, maps, [0.0], Interval(0, 1 + 1e-9), grid)
    x, trace = iterate_chain(S, S.constant_start([0.0]), "up", tol=1e-14,
                             max_steps=200)
    assert trace.stabilized
    assert 40 <= trace.stabilization_index <= 60
    assert np.allclose(as_grid(x[0], grid), 2.0, atol=1e-12)


def test_chain_budget_exhaustion_flags_nonconvergence():
    grid = make_grid(0, 1, 8)
    maps = [lambda x: GridFn(grid, 0.5 * as_grid(x[0], grid) + 1.0)]
    S = CauchySystem(1, maps, [0.0], Interval(0, 1 + 1e-9), grid)
    x, trace = iterate_chain(S, S.constant_start([0.0]), "up", tol=1e-16,
                             max_steps=3, max_omega_stages=0)
    assert not trace.stabilized
    assert trace.stabilization_index is None


def test_chain_detects_monotonicity_violation():
    grid = make_grid(0, 1, 8)
    flip = {"k": 0}

    def bad_map(x):
        flip["k"] += 1
        return GridFn(grid, np.full(len(grid), (-1.0) ** flip["k"]))

    S = CauchySystem(1, [bad_map], [0.0], Interval(0, 1 + 1e-9), grid)
    with pytest.raises(MonotonicityError):
        iterate_chain(S, S.constant_start([-2.0]), "up", max_steps=10)


# -- the quantized two-component system -----------------------------------------


# frozen from a 40-digit mpmath evaluation of the quantized recursion
EX31_UP_INTS = [(-48588, -62175), (-12147, -21261), (-11807, -13711),
                (-10677, -13493), (-10616, -12717), (-10377, -12673),
                (-10363, -12496), (-10303, -12485), (-10299, -12440),
                (-10284, -12437), (-10283, -12426), (-10279, -12425),
                (-10279, -12422), (-10278, -12422), (-10278, -12421),
                (-10278, -12421)]
EX31_DOWN_INTS = [(48587, 62174), (12146, 21260), (11806, 13709),
                  (10675, 13492), (10614, 12715), (10376, 12670),
                  (10361, 12494), (10302, 12483), (10298, 12439),
                  (10283, 12436), (10282, 12424), (10278, 12423),
                  (10277, 12420), (10276, 12420), (10276, 12419),
                  (10276, 12419)]


def test_ex31_quadratures_against_oracle():
    # mpmath.quadosc oracle values at 40 digits
    JA_oracle = 0.5181176219806056727055402448509141870537
    JB_oracle = 0.1214699828758386901182647243716480904657
    JA, JB, err = SY.ex31_quadratures(tol=1e-12)
    assert abs(JA - JA_oracle) < 1e-11
    assert abs(JB - JB_oracle) < 1e-11
    assert err < 1e-10


def test_ex31_scalar_chain_matches_oracle_sequence():
    JA, JB, _ = SY.ex31_quadratures()
    q = SY.QuantizedCoefficients(JA, JB)
    hist, ints, stab = q.chain(-4.0, -4.0)
    assert ints == EX31_UP_INTS
    assert stab == 15  # x_15 = x_16
    hist, ints, stab = q.chain(4.0, 4.0)
    assert ints == EX31_DOWN_INTS
    assert stab == 15


def test_ex31_quantization_robust_to_quadrature_tolerance():
    # perturbing J_A, J_B by the stated quadrature tolerance must not move
    # any floor across a threshold anywhere along either chain
    JA, JB, _ = SY.ex31_quadratures()
    for dA in (-1e-10, 0.0, 1e-10):
        for dB in (-1e-10, 0.0, 1e-10):
            q = SY.QuantizedCoefficients(JA + dA, JB + dB)
            _, up, s1 = q.chain(-4.0, -4.0)
            _, dn, s2 = q.chain(4.0, 4.0)
            assert up == EX31_UP_INTS and dn == EX31_DOWN_INTS
            assert s1 == s2 == 15


def test_ex31_generic_chain_agrees_with_scalar_path():
    S = SY.ex31_system(per_unit=512)
    pair = SY.ex31_subsuper(S)
    y_lo, y_hi, (tr_up, tr_dn) = smallest_greatest(
        S, pair, tol=1e-12, max_steps=40)
    assert tr_up.stabilized and tr_dn.stabilized
    # exact quantized coefficients from the tags
    (tag1, _), (tag2, _) = y_lo[0].tag, y_lo[1].tag
    assert tag1 == ("atan", -10278) and tag2 == ("tanh", -12421)
    (tag1, _), (tag2, _) = y_hi[0].tag, y_hi[1].tag
    assert tag1 == ("atan", 10276) and tag2 == ("tanh", 12419)
    assert residual(S, y_lo) == 0.0
    assert residual(S, y_hi) == 0.0


def test_ex31_comparison_in_initial_values():
    S = SY.ex31_system(per_unit=256)
    pair = SY.ex31_subsuper(S)
    y_lo, _, _ = smallest_greatest(S, pair, tol=1e-12, max_steps=40)
    S2 = SY.ex31_system(per_unit=256)
    S2.c = [Fraction(1, 2), Fraction(1, 2)]
    pair2 = SY.ex31_subsuper(S2)
    # raise the bracket for the raised data
    pair2.upper = [u + RegulatedFn.constant(1, u.interval) for u in pair2.upper]
    y_lo2, _, _ = smallest_greatest(S2, pair2, tol=1e-12, max_steps=40)
    g = S.grid
    for a, b in zip(y_lo, y_lo2):
        assert np.all(as_grid(a, g) <= as_grid(b, g) + 1e-12)


# -- ex01: segment-affine operator ---------------------------------------------------


def test_ex01_fixed_point_matches_closed_form():
    H = lambda ts: np.asarray(ts, dtype=float) ** 2
    S = SY.ex01_system(H, T=5, per_unit=256)
    start = S.constant_start([-1.0])  # constant -1 is a subsolution
    x, trace = iterate_chain(S, start, "up", tol=1e-13,
                             max_steps=30_000, max_omega_stages=8,
                             record_every=0)
    closed = SY.ex01_closed_form(H, 2.0, S.grid)
    err = float(np.max(np.abs(as_grid(x[0], S.grid) - closed)))
    assert err <= 1e-9
    assert residual(S, x) <= 1e-9


def test_ex01_closed_form_values():
    H = lambda ts: np.asarray(ts, dtype=float) ** 2
    grid = make_grid(0, 5, 64, include=(1, 2, 3, 4, 5))
    y = SY.ex01_closed_form(H, 2.0, grid)
    j1 = int(np.searchsorted(grid, 1.0))
    assert y[j1] == pytest.approx(-1.0)  # H(1) - H'_-(1) = 1 - 2
    j = int(np.searchsorted(grid, 3.5))
    assert y[j] == pytest.approx(-1.0 + 3 * 4 / 2)


def test_ex01_uniqueness_majorant_certifies():
    M = SY.ex01_majorant(T=3, per_unit=256)
    certified, trace = uniqueness_chain(M, tol=1e-9, max_steps=20_000)
    assert certified
    assert trace.omega_stages >= 2  # the chain needs the closure stages


def test_uniqueness_geometric_decay():
    grid = make_grid(0, 1, 32)
    from leftprim.solver import MajorantOp
    M = MajorantOp(lambda w: GridFn(grid, 0.5 * as_grid(w, grid)),
                   GridFn.constant(grid, 1.0), grid)
    certified, trace = uniqueness_chain(M, tol=1e-6)
    assert certified
    assert trace.stabilization_index <= math.ceil(math.log2(1e6)) + 2


def test_uniqueness_identity_never_certifies():
    grid = make_grid(0, 1, 32)
    from leftprim.solver import MajorantOp
    M = MajorantOp(lambda w: GridFn(grid, as_grid(w, grid).copy()),
                   GridFn.constant(grid, 1.0), grid)
    certified, trace = uniqueness_chain(M, tol=1e-6, max_steps=50,
                                        max_omega_stages=2)
    assert not certified


# -- bounds_to_subsuper / comparison --------------------------------------------------


def test_bounds_to_subsuper_constant_density_bounds():
    # distributions are carried by their primitives: density -+1 <-> -+t
    from leftprim.integral import Distribution
    from leftprim.solver import bounds_to_subsuper
    from leftprim.stepfn import PiecewisePoly
    grid = make_grid(0, 1, 32)
    S = _constant_system([2.0], grid)
    lo = Distribution(RegulatedFn.from_poly(
        PiecewisePoly([F(0), F(1)], [(F(0), F(-1))])))
    hi = Distribution(RegulatedFn.from_poly(
        PiecewisePoly([F(0), F(1)], [(F(0), F(1))])))
    pair = bounds_to_subsuper(S, [lo], [hi])
    g = S.grid
    assert np.allclose(as_grid(pair.lower[0], g), 2.0 - g)
    assert np.allclose(as_grid(pair.upper[0], g), 2.0 + g)


def test_bounds_to_subsuper_zero_bounds():
    from leftprim.integral import Distribution
    from leftprim.solver import bounds_to_subsuper
    grid = make_grid(0, 1, 32)
    S = _constant_system([0.0], grid)
    zero = Distribution(RegulatedFn.from_step(StepFn.constant(0, 1, F(0))))
    pair = bounds_to_subsuper(S, [zero], [zero])
    g = S.grid
    assert np.allclose(as_grid(pair.lower[0], g), 0.0)
    assert np.allclose(as_grid(pair.upper[0], g), 0.0)


def test_random_systems_comparison_property():
    rng = np.random.default_rng(123)
    from leftprim.solver import bounds_to_subsuper
    for trial in range(10):
        seed = int(rng.integers(0, 10 ** 6))
        r1 = np.random.default_rng(seed)
        r2 = np.random.default_rng(seed)
        S1 = SY.random_monotone_system(r1, m=2)
        S2 = SY.random_monotone_system(r2, m=2, shift=0.5)
        S2.c = [c + 0.25 for c in S1.c]
        lo1, hi1 = SY.order_bounds_for_random(S1)
        lo2, hi2 = SY.order_bounds_for_random(S2)
        p1 = bounds_to_subsuper(S1, lo1, hi1)
        p2 = bounds_to_subsuper(S2, lo2, hi2)
        y1_lo, y1_hi, _ = smallest_greatest(S1, p1, tol=1e-11, max_steps=300)
        y2_lo, y2_hi, _ = smallest_greatest(S2, p2, tol=1e-11, max_steps=300)
        g = S1.grid
        for a, b in zip(y1_lo, y2_lo):
            assert np.all(as_grid(a, g) <= as_grid(b, g) + 1e-8)
        for a, b in zip(y1_hi, y2_hi):
            assert np.all(as_grid(a, g) <= as_grid(b, g) + 1e-8)


# -- minimal / maximal via the L1 route ---------------------------------------------------


def test_minmax_zero_operator():
    grid = make_grid(0, 1, 32)
    maps = [lambda x: GridFn(grid, np.zeros(len(grid)))]
    S = CauchySystem(1, maps, [0.0], Interval(0, 1 + 1e-9), grid)
    cfg = L1Config(Q=lambda r: 0.5)  # constant growth bound
    y_min, y_max, (pair, R, _) = minmax_l1(S, cfg)
    assert np.allclose(as_grid(y_min[0], grid), 0.0)
    assert np.allclose(as_grid(y_max[0], grid), 0.0)
    assert R == pytest.approx(0.5, abs=1e-8)



def _zero_l1_system(value):
    grid = make_grid(0, 1, 32)
    maps = [lambda x: GridFn(grid, np.full(len(grid), value))]
    return CauchySystem(1, maps, [0.0], Interval(0, 1 + 1e-9), grid)


@pytest.mark.parametrize("Q,message", [
    (lambda r: r + 1, "no R with Q"),  # Q(r) > r on the whole scan
    (lambda r: 1.0 if r < 50 else 2 * r, "growth hypothesis fails: r <= Q"),
    (lambda r: 0.5, "L1 growth hypothesis fails a spot check"),  # ||Phi||_1 = 1
])
def test_minmax_l1_rejects_growth_data_with_a_typed_error(Q, message):
    with pytest.raises(SolverDataError, match=message):
        minmax_l1(_zero_l1_system(1.0), L1Config(Q=Q))

def test_minmax_norm_bounded_constant_growth():
    # ||Phi_i(x)||_1 <= R_i constants: Q == max R_i satisfies the hypothesis
    grid = make_grid(0, 1, 32)
    maps = [lambda x: GridFn(grid, 0.25 * np.sin(3 * grid)),
            lambda x: GridFn(grid, 0.125 * np.cos(3 * grid) - 0.125)]
    S = CauchySystem(2, maps, [0.0, 0.0], Interval(0, 1 + 1e-9), grid)
    R_i = [float(np.trapezoid(np.abs(as_grid(m(None), grid)), grid))
           for m in maps]
    cfg = L1Config(Q=lambda r, R=max(R_i): R)
    y_min, y_max, (pair, R, _) = minmax_l1(S, cfg)
    assert R == pytest.approx(max(R_i), abs=1e-8)
    # operator is constant in x, so min = max = Phi
    for i, m in enumerate(maps):
        assert np.allclose(as_grid(y_min[i], grid), as_grid(m(None), grid),
                           atol=1e-9)
        assert np.allclose(as_grid(y_max[i], grid), as_grid(m(None), grid),
                           atol=1e-9)


def test_minmax_scalar_analytic_oracle():
    # y' = 1 + tanh(y), y(0) = 0; implicit closed form
    # y/2 - exp(-2y)/4 = t - 1/4, solved per grid point by bisection
    grid = make_grid(0, 1, 256)
    maps = [lambda x: GridFn(grid, np.concatenate([[0.0], np.cumsum(
        0.5 * ((1 + np.tanh(as_grid(x[0], grid)))[1:]
               + (1 + np.tanh(as_grid(x[0], grid)))[:-1]) * np.diff(grid))]))]
    S = CauchySystem(1, maps, [0.0], Interval(0, 1 + 1e-9), grid)
    cfg = L1Config(Q=lambda r: 2.0)  # 1 + tanh is within (0, 2)
    y_min, y_max, _ = minmax_l1(S, cfg, tol=1e-12, max_steps=2000)

    def oracle(t):
        f = lambda y: y / 2 - math.exp(-2 * y) / 4 - (t - 0.25)
        lo, hi = 0.0, 4.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid) <= 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    exact = np.array([oracle(t) for t in grid])
    for y in (y_min, y_max):
        err = float(np.max(np.abs(as_grid(y[0], grid) - exact)))
        assert err <= 5e-5  # grid trapezoid accuracy at 256/unit
    # min and max coincide for this contraction
    assert np.allclose(as_grid(y_min[0], grid), as_grid(y_max[0], grid),
                       atol=1e-10)


# -- higher order ---------------------------------------------------------------------------


def test_reduce_higher_order_zero_rhs():
    grid = make_grid(0, 1, 64)
    g_map = lambda x: GridFn(grid, np.zeros(len(grid)))
    S = reduce_higher_order(2, g_map, [1.0, 2.0], Interval(0, 1 + 1e-9), grid)
    pair = SubSuperPair([GridFn.constant(grid, -1.0), GridFn.constant(grid, -1.0)],
                        [GridFn(grid, 2.0 + 3.0 * grid), GridFn.constant(grid, 3.0)])
    y_lo, y_hi, _ = smallest_greatest(S, pair, tol=1e-12, max_steps=500)
    expected = 1.0 + 2.0 * grid
    assert float(np.max(np.abs(as_grid(y_lo[0], grid) - expected))) <= 1e-9
    assert float(np.max(np.abs(as_grid(y_hi[0], grid) - expected))) <= 1e-9


def test_reduce_higher_order_bounds_from_iterated_cumulatives():
    # order-bounded right side: the sub/supersolution pair built from
    # iterated cumulative primitives of the bounds brackets the closed form
    grid = make_grid(0, 1, 128)
    k = 2.0
    g_map = lambda x: GridFn(grid, k * grid)  # primitive of constant k
    c = [0.5, 1.0]
    S = reduce_higher_order(2, g_map, c, Interval(0, 1 + 1e-9), grid)
    h_lo, h_hi = k - 1.0, k + 1.0  # constant order bounds on g
    y2_lo = c[1] + h_lo * grid
    y2_hi = c[1] + h_hi * grid
    y1_lo = c[0] + c[1] * grid + h_lo * grid ** 2 / 2
    y1_hi = c[0] + c[1] * grid + h_hi * grid ** 2 / 2
    pair = SubSuperPair([GridFn(grid, y1_lo), GridFn(grid, y2_lo)],
                        [GridFn(grid, y1_hi), GridFn(grid, y2_hi)])
    y_lo, y_hi, _ = smallest_greatest(S, pair, tol=1e-13, max_steps=500)
    closed = c[0] + c[1] * grid + k * grid ** 2 / 2
    for y in (y_lo, y_hi):
        assert float(np.max(np.abs(as_grid(y[0], grid) - closed))) <= 1e-9


def test_reduce_higher_order_constant_rhs():
    grid = make_grid(0, 1, 64)
    k = 3.0
    g_map = lambda x: GridFn(grid, k * grid)  # primitive of the constant k
    S = reduce_higher_order(2, g_map, [0.0, 0.0], Interval(0, 1 + 1e-9), grid)
    pair = SubSuperPair([GridFn.constant(grid, -1.0), GridFn.constant(grid, -1.0)],
                        [GridFn(grid, 4.0 * grid), GridFn.constant(grid, 4.0)])
    y_lo, y_hi, _ = smallest_greatest(S, pair, tol=1e-13, max_steps=500)
    expected = k * grid ** 2 / 2
    assert float(np.max(np.abs(as_grid(y_lo[0], grid) - expected))) <= 1e-9
    assert float(np.max(np.abs(as_grid(y_hi[0], grid) - expected))) <= 1e-9
