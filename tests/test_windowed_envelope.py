"""The windowed contraction certificate for uniqueness envelopes: exact
oracles on random affine majorants, the refusals, its work per window, and
the ex01 chain pair inside the bound it certifies."""

import math

import numpy as np
import pytest

from leftprim import solver as SV
from leftprim import systems as SY
from leftprim.solver import (GridFn, MajorantOp, as_grid, iterate_chain,
                             windowed_chain, windowed_envelope)

H = lambda ts: np.asarray(ts, dtype=float) ** 2


def _random_affine_majorant(seed, T=3, per_unit=8):
    """G(w) = L w + c with L >= 0 lower triangular (row sums <= 0.3, so the
    certificate's theta stays below 1) and c >= 0; at each closure point b
    G copies w(b - 1).  Returns the majorant and the largest envelope p,
    the fixed point of (I - L) p = c."""
    rng = np.random.default_rng(seed)
    closure = tuple(range(1, T + 1))
    grid = SV.make_grid(0, T, per_unit, include=closure)
    n = len(grid)
    L = np.tril(rng.uniform(0, 1, size=(n, n)))
    L *= 0.3 / L.sum(axis=1, keepdims=True)
    c = rng.uniform(0, 1, size=n)
    for b in SV.closure_indices(grid, closure):
        L[b], c[b] = 0.0, 0.0
        L[b, b - 1] = 1.0
    p = np.linalg.solve(np.eye(n) - L, c)
    w0 = (p.max() + 1) * rng.uniform(1, 3, size=n)  # an envelope p obeys
    G = lambda w: GridFn(grid, L @ as_grid(w, grid) + c)
    return MajorantOp(G, GridFn(grid, w0), grid, closure_points=closure), p


@pytest.mark.parametrize("seed", range(6))
def test_the_bound_dominates_the_exact_fixed_point(seed):
    M, p = _random_affine_majorant(seed)
    horizon, env, trace = windowed_envelope(M, tol=math.inf)
    assert horizon == 3.0 and trace.stabilized
    assert len(trace.bracket_widths) == 3
    assert np.all(env.values >= p)
    assert max(trace.bracket_widths) == float(env.values.max())


def test_the_identity_majorant_is_not_certified():
    grid = SV.make_grid(0, 1, 32)
    M = MajorantOp(lambda w: GridFn(grid, as_grid(w, grid).copy()),
                   GridFn.constant(grid, 1.0), grid)
    horizon, env, trace = windowed_envelope(M, max_steps=50)
    # theta = 1 for every s, so the first power step does not lower it
    assert horizon == 0.0 and not trace.stabilized
    assert trace.bracket_widths == [math.inf]
    assert np.all(np.isinf(env.values)) and trace.stabilization_index == 3


@pytest.mark.parametrize("f,message", [
    (lambda v: v ** 2, "not subadditive"),            # superlinear
    (np.sqrt, "not positively homogeneous"),          # subadditive only
    (lambda v: 0.5 * v - 1.0, "negative at 0"),
])
def test_a_majorant_outside_the_contract_is_refused(f, message):
    grid = SV.make_grid(0, 1, 32)
    M = MajorantOp(lambda w: GridFn(grid, f(as_grid(w, grid))),
                   GridFn.constant(grid, 1.0), grid)
    with pytest.raises(SV.SublinearityError, match=message):
        windowed_envelope(M)


def test_a_volterra_majorant_certifies_through_power_steps():
    # G(w) = 3 int_0^t w: theta(w0 = 1) = 3 at t = 1.  Each power step adds
    # L(s)/theta, so s grows toward a truncated exponential e^(mu t), for which
    # 3 int_0^t s <= (3/mu) s; six steps bring theta below 1.  The window has
    # no prefix, so the inflow is 0 and the bound is 0.
    grid = SV.make_grid(0, 1, 256)

    def G(w):
        v = as_grid(w, grid)
        return GridFn(grid, 3 * np.concatenate(
            [[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(grid))]))

    M = MajorantOp(G, GridFn.constant(grid, 1.0), grid)
    horizon, env, trace = windowed_envelope(M)
    assert horizon == 1.0 and trace.stabilized
    assert trace.stabilization_index == 8  # inflow, L(w0), six power steps
    assert np.all(env.values == 0.0)
    # a budget short of the sixth step leaves the window uncertified
    horizon, _, trace = windowed_envelope(M, max_steps=7)
    assert horizon == 0.0 and trace.bracket_widths == [math.inf]
    assert trace.stabilization_index == 7


def test_the_budget_ends_the_horizon():
    M = SY.ex01_majorant(T=3, per_unit=64)
    horizon, env, trace = windowed_envelope(M, max_steps=5)
    assert horizon == 2.0 and trace.bracket_widths == [0.0, 0.0, math.inf]
    assert not trace.stabilized and trace.stabilization_index == 4
    assert np.all(np.isinf(env.values[M.grid > 2.0]))


@pytest.mark.parametrize("T", [5, 50])
def test_ex01_needs_at_most_four_applications_per_window(T):
    M = SY.ex01_majorant(T=T, per_unit=256)
    calls, G = [0], M.G

    def counted(w):
        calls[0] += 1
        return G(w)

    M.G = counted
    M.spot_check_increasing()
    M.spot_check_sublinear()
    checks = calls[0]
    horizon, env, trace = windowed_envelope(M, max_steps=30_000)
    assert horizon == float(T) and trace.stabilized
    assert np.all(env.values == 0.0)
    assert calls[0] == 2 * checks + trace.stabilization_index
    assert trace.stabilization_index <= 4 * T


def test_ex01_is_certified_and_on_the_closed_form_at_T_50():
    from leftprim.runs import run_ex01

    rep = run_ex01(T=50.0, per_unit=256)
    out = rep.outputs
    assert out["uniqueness_certified"] is True
    assert out["uniqueness_interval"] == [0, 50.0]
    assert out["uniqueness_bound"] == 0.0
    closed = SY.ex01_closed_form(H, 2.0, rep.system.grid)
    assert float(np.max(np.abs(rep.solution[0].values - closed))) <= 1e-9


def test_the_ex01_chain_pair_lies_within_the_bound_of_a_down_chain():
    # the down chain from a supersolution approaches the greatest fixed point
    # from above; the envelope certifies that it is the one the pair brackets
    S = SY.ex01_system(H, T=5, per_unit=256)
    _, pair, _ = windowed_chain(S, S.constant_start([-1.0]), 30_000)
    horizon, env, _ = windowed_envelope(SY.ex01_majorant(T=5, per_unit=256))
    assert horizon == 5.0
    closed = SY.ex01_closed_form(H, 2.0, S.grid)
    down, trace = iterate_chain(S, [GridFn(S.grid, closed + 1.0 + S.grid)],
                                "down", tol=1e-13, max_steps=30_000,
                                record_every=0)
    assert trace.stabilized
    y, d = down[0].values, env.values
    assert np.all(pair.lower[0].values - d <= y)
    assert np.all(y <= pair.upper[0].values + d + 1e-9)  # the chain's stop error
