"""Stieltjes uniform convergence, uniqueness-certificate soundness, and the
weighted-operator bracket construction."""

from fractions import Fraction

import numpy as np

from leftprim import builders as B
from leftprim import systems as SY
from leftprim.funcspace import RegulatedFn, norm, step_approximation
from leftprim.gauge import stieltjes
from leftprim.integral import Distribution
from leftprim.intervals import Interval
from leftprim.solver import (GridFn, SubSuperPair, as_grid, bounds_to_subsuper,
                             iterate_chain, make_grid, residual,
                             smallest_greatest, uniqueness_chain)
from leftprim.stepfn import PiecewisePoly, StepFn

F = Fraction


# -- Stieltjes uniform convergence -----------------------------------------------------


def test_stieltjes_uniform_convergence():
    f = B.left_frac_series(4, p=2)
    g = StepFn([F(0), F(1, 3), F(2, 3), F(1)], [F(0), F(2), F(1)])
    Vg = g.variation()
    ref_tol = 1e-4
    ref = stieltjes(f, g, F(0), F(1), tol=ref_tol)
    for n in (4, 16, 64):
        Fn = step_approximation(f, n)
        approx = stieltjes(RegulatedFn.from_step(Fn), g, F(0), F(1))
        # certified chain: |int F dg - int F_n dg| <= ||F - F_n||_inf Vg
        assert abs(float(approx) - float(ref)) <= (1 / n) * float(Vg) + ref_tol


# -- uniqueness certificate soundness -----------------------------------------------


def test_uniqueness_certificate_soundness():
    # two grid-verified fixed points obtained independently (up-chain from a
    # subsolution, down-chain from a supersolution) differ by <= 2 tol when
    # the majorant chain certifies
    tol = 1e-9
    H = lambda ts: np.asarray(ts, dtype=float) ** 2
    S = SY.ex01_system(H, T=3, per_unit=256)
    M = SY.ex01_majorant(T=3, per_unit=256)
    certified, _ = uniqueness_chain(M, tol=tol)
    assert certified
    up, _ = iterate_chain(S, S.constant_start([-1.0]), "up", tol=1e-13,
                          max_steps=30_000, record_every=0)
    closed = SY.ex01_closed_form(H, 2.0, S.grid)
    super_start = [GridFn(S.grid, closed + (1.0 + S.grid))]
    down, _ = iterate_chain(S, super_start, "down", tol=1e-13,
                            max_steps=30_000, record_every=0)
    assert residual(S, up) <= tol and residual(S, down) <= tol
    gap = float(np.max(np.abs(as_grid(up[0], S.grid)
                              - as_grid(down[0], S.grid))))
    assert gap <= 2 * tol


# -- weighted increasing operators ------------------------------------------------------


def test_weighted_operator_bracket_matches_closed_form():
    # one-component operator F(x) = H_w * int_0^t (g0 + clamp(x)) with a
    # bounded increasing link; order bounds g0 -+ 1 give the pair
    # c + H_w * (G0 -+ t) via exact primitives
    per_unit = 128
    grid = make_grid(0, 1, per_unit)
    iv = Interval(0, 1 + 1e-9)
    g0 = StepFn([F(0), F(1, 2), F(1)], [F(1), F(-1)])
    G0 = g0.cumulative()
    Hw = StepFn([F(0), F(1, 2), F(1)], [F(1), F(2)])  # bounded, nonnegative
    Hw_grid = RegulatedFn.from_step(Hw).sample(grid)
    G0_grid = G0.sample_array(grid)
    c = [0.25]

    def g_prim(x):
        # primitive of g0 + tanh(x): exact step cumulative plus grid trapezoid
        link = np.tanh(as_grid(x[0], grid))
        prim = np.concatenate([[0.0], np.cumsum(
            0.5 * (link[1:] + link[:-1]) * np.diff(grid))])
        return GridFn(grid, G0_grid + prim)

    S = SY.weighted_system(
        weights=[[lambda ts: Hw_grid]], g_prims=[[g_prim]],
        G_terms=[np.zeros(len(grid))], c=c, interval=iv, grid=grid)

    lin = PiecewisePoly([F(0), F(1)], [(F(0), F(1))])  # t
    lo_prim = RegulatedFn.product_of(
        RegulatedFn.from_step(Hw), RegulatedFn.from_poly(G0 + (-1) * lin))
    hi_prim = RegulatedFn.product_of(
        RegulatedFn.from_step(Hw), RegulatedFn.from_poly(G0 + lin))
    pair = bounds_to_subsuper(S, [Distribution(lo_prim)],
                              [Distribution(hi_prim)])
    # the pair is exactly c + H_w-weighted primitives of the bounds
    assert np.allclose(as_grid(pair.lower[0], grid),
                       0.25 + Hw_grid * (G0_grid - grid), atol=1e-12)
    assert np.allclose(as_grid(pair.upper[0], grid),
                       0.25 + Hw_grid * (G0_grid + grid), atol=1e-12)
    y_lo, y_hi, _ = smallest_greatest(S, pair, tol=1e-11, max_steps=400)
    assert residual(S, y_lo) <= 1e-9
