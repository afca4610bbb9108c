"""Concrete Cauchy systems and majorant operators for the solver.

The two-component quantized system (``ex31``) carries its iterates as exact
coefficient families: every iterate is G_i + q * shape_i with q = arctan or
tanh of a quantized rational, so stabilization is detected exactly.  The
coupling of coefficients to shapes follows the displayed solutions: component
1 pairs the arctan coefficient (driven by the integral of x_2 - G_2 over
[0,1]) with t(1+cos(1/t)), component 2 the tanh coefficient with
t(1-sin(1/t)).  Note the printed factor functions would pair the shapes the
other way around; this module follows the displayed solution coupling and
records the discrepancy here rather than resolving it.

The segment-affine ``ex01`` operator and its envelope ``G`` compute their
segment data (the [0, 1] split, each point's segment and the grid index of
the segment's left end) once, when they are built; each application is then
two numpy expressions, O(grid) with no loop over segments.

A random monotone system samples each exact forcing primitive on its grid in
one vectorised ``PiecewisePoly.sample_array`` pass (float for float what
exact evaluation at each grid point gives, but O(cells) exact work per
component instead of one exact evaluation per grid point) and computes its
grid spacing once, so each application is O(m * grid) numpy work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import builders as B
from .funcspace import RegulatedFn, integrate_regulated
from .intervals import DomainError, Interval
from .solver import (CauchySystem, GridFn, MajorantOp, SolverDataError,
                     TaggedFn, as_grid, make_grid)


# -- the quantized two-component system ---------------------------------------------


@dataclass
class QuantizedCoefficients:
    """Exact scalar reduction of the ex31 operator.

    One application maps (q1, q2) to
        q1' = arctan( floor(1e5 * q2 * J_B) / 1e4 )
        q2' = tanh( floor(3e4 * q1 * J_A) / 1e4 )
    where J_A = int_0^1 t(1+cos(1/t)) dt and J_B = int_0^1 t(1-sin(1/t)) dt
    and floor is toward minus infinity.
    """

    JA: float
    JB: float

    def quantize(self, q1: float, q2: float):
        k1 = math.floor(1e5 * q2 * self.JB)
        k2 = math.floor(3e4 * q1 * self.JA)
        return k1, k2

    def step(self, q1: float, q2: float):
        k1, k2 = self.quantize(q1, q2)
        return math.atan(k1 / 1e4), math.tanh(k2 / 1e4), (k1, k2)

    def chain(self, q1: float, q2: float):
        """Iterate to exact stabilization of the quantized integers, within
        100 steps."""
        ks = None
        history = [(q1, q2)]
        quantized = []
        for n in range(100):
            nq1, nq2, nks = self.step(q1, q2)
            quantized.append(nks)
            if nks == ks:
                return history, quantized, n  # x_n = x_{n+1}
            q1, q2, ks = nq1, nq2, nks
            history.append((q1, q2))
        return history, quantized, None


def ex31_quadratures(tol: float = 1e-12):
    """J_A and J_B via the certified oscillatory route."""
    JA, eA = B.shape_A().expr.integral(0, 1, tol=tol)
    JB, eB = B.shape_B().expr.integral(0, 1, tol=tol)
    return JA, JB, eA + eB


def ex31_system(T=1, per_unit: int = 4096, quad_tol: float = 1e-12) -> CauchySystem:
    """The two-component quantized system on [0, T] with zero data.

    Operator: F_1(x) = G_1 + arctan(floor(1e5 I_2)/1e4) * shape_A and
    F_2(x) = G_2 + tanh(floor(3e4 I_1)/1e4) * shape_B, with
    I_i = int_0^1 (x_i - G_i) and G_i = 0.  The operator integrates over
    [0, 1], so T >= 1.
    """
    if T < 1:
        raise DomainError(f"ex31 integrates its iterates over [0, 1], past T = {float(T):g}")
    iv = Interval(Fraction(0), Fraction(T))
    sA = B.shape_A(0, T)
    sB = B.shape_B(0, T)
    grid = make_grid(0, T, per_unit)

    def integral01(fn):
        if isinstance(fn, TaggedFn):
            fn = fn.fn
        if isinstance(fn, GridFn):
            return float(np.trapezoid(fn.sample(grid), grid))
        v, _ = integrate_regulated(fn, 0, 1, quad_tol)
        return float(v)

    def phi1(x):
        i2 = integral01(x[1])
        k1 = math.floor(1e5 * i2)
        coeff = math.atan(k1 / 1e4)
        return TaggedFn(RegulatedFn.lincomb([(coeff, sA)]), ("atan", k1))

    def phi2(x):
        i1 = integral01(x[0])
        k2 = math.floor(3e4 * i1)
        coeff = math.tanh(k2 / 1e4)
        return TaggedFn(RegulatedFn.lincomb([(coeff, sB)]), ("tanh", k2))

    return CauchySystem(2, [phi1, phi2], [Fraction(0), Fraction(0)], iv, grid,
                        name="ex31")


def ex31_subsuper(S: CauchySystem):
    """The +-4 * shape bracketing pair."""
    sA = B.shape_A(S.interval.lo, S.interval.hi)
    sB = B.shape_B(S.interval.lo, S.interval.hi)
    lower = [RegulatedFn.lincomb([(-4, sA)]), RegulatedFn.lincomb([(-4, sB)])]
    upper = [RegulatedFn.lincomb([(4, sA)]), RegulatedFn.lincomb([(4, sB)])]
    from .solver import SubSuperPair
    return SubSuperPair(lower, upper)


# -- the ex01 functional operator --------------------------------------------------------


def _ex01_segments(grid: np.ndarray):
    """Segment data of a sorted grid starting at 0, built once per operator.

    Returns ``(k, s, anchor)``: ``grid[:k]`` is the [0, 1] part; each point
    of ``grid[k:]`` lies in the segment (i, i+1] with i = ``s`` (as a float)
    and ``anchor`` is the grid index of i.
    """
    k = int(np.searchsorted(grid, 1.0, side="right"))
    s = np.ceil(grid[k:]) - 1.0
    return k, s, np.searchsorted(grid, s)


def ex01_operator(H, grid: np.ndarray):
    """The segment-affine operator: F(x)(t) = H(t) + t(x(t) - H(1)) on [0,1],
    and x(i) + i + (t-i)(x(t) - x(i) - i) on (i, i+1].

    ``H`` is a callable on arrays.  At integer points the pointwise action is
    the identity, so the system must declare them as closure points.
    """
    k, s, anchor = _ex01_segments(grid)
    Hv0 = H(grid)[:k]
    H1 = float(H(np.array([1.0]))[0])
    g0, gs = grid[:k], grid[k:] - s

    def op(x):
        v = as_grid(x, grid)
        xa = v[anchor]
        out = np.empty_like(v)
        out[:k] = Hv0 + g0 * (v[:k] - H1)
        out[k:] = xa + s + gs * (v[k:] - xa - s)
        return GridFn(grid, out)

    return op


def ex01_grid(T, per_unit: int):
    """The ex01 grid on [0, T] through its closure points 1, ..., floor(T),
    and those points; ex01 reports its value at t = 1, so T >= 1."""
    if T < 1:
        raise DomainError(f"ex01 reports its value at t = 1 > T = {float(T):g}")
    closure = tuple(range(1, int(T) + 1))
    return make_grid(0, T, per_unit, include=closure), closure


def ex01_system(H, T=5, per_unit: int = 256) -> CauchySystem:
    grid, closure = ex01_grid(T, per_unit)
    op = ex01_operator(H, grid)
    return CauchySystem(1, [lambda x: op(x[0])], [0.0],
                        Interval(0, T + 1e-9), grid,
                        closure_points=closure, name="ex01")


def ex01_closed_form(H, Hprime_left_1, grid: np.ndarray) -> np.ndarray:
    """The unique fixed point: H(t) - t(H(1)-H(t))/(1-t) on [0,1), then
    H(1) - H'_-(1) at 1, then constant + i(i+1)/2 on each (i, i+1]."""
    Hv = H(grid)
    H1 = float(H(np.array([1.0]))[0])
    out = np.empty_like(grid)
    m = grid < 1.0
    out[m] = Hv[m] - grid[m] * (H1 - Hv[m]) / (1.0 - grid[m])
    base = H1 - Hprime_left_1
    out[~m] = base
    for i in range(1, int(math.floor(float(grid[-1]))) + 1):
        mi = grid > i + 1e-15
        out[mi] = base + i * (i + 1) / 2
    return out


def ex01_majorant(T=3, per_unit: int = 256) -> MajorantOp:
    """The envelope operator G(u)(t) = t u(t) on [0,1],
    (i+1-t) u(i) + (t-i) u(t) on (i, i+1], with the worked starting envelope
    w0(t) = u(t) on [0,1], max(u(t), u(i)) on (i, i+1], which is u itself
    for the positive increasing u(t) = 1 + t."""
    grid, closure = ex01_grid(T, per_unit)
    k, s, anchor = _ex01_segments(grid)
    g0, left, right = grid[:k], (s + 1.0) - grid[k:], grid[k:] - s

    def G(w):
        v = as_grid(w, grid)
        out = np.empty_like(v)
        out[:k] = g0 * v[:k]
        out[k:] = left * v[anchor] + right * v[k:]
        return GridFn(grid, out)

    return MajorantOp(G, GridFn(grid, 1.0 + grid), grid, closure_points=closure)


# -- weighted increasing operators and random monotone systems ----------------------------


def weighted_system(weights, g_prims, G_terms, c, interval: Interval,
                    grid: np.ndarray) -> CauchySystem:
    """Operators of the form F_i(x) = sum_j H_ij * (int_a^t g_ij(x)) + G_i.

    ``weights[i][j]`` are nonnegative bounded left-continuous weight
    callables on arrays; ``g_prims[i][j]`` map the iterate vector to the
    *primitive* of g_ij on the grid (vanishing at a), following the
    package-wide convention that component maps supply primitives;
    ``G_terms[i]`` are grid arrays vanishing at a.
    """
    m = len(g_prims)

    def phi(i):
        def apply(x):
            acc = np.array(G_terms[i], dtype=float).copy()
            for w, gp in zip(weights[i], g_prims[i]):
                acc = acc + w(grid) * as_grid(gp(x), grid)
            return GridFn(grid, acc)
        return apply

    return CauchySystem(m, [phi(i) for i in range(m)], list(c), interval,
                        grid, name="weighted")


def random_monotone_system(rng, m: int = None, per_unit: int = 128,
                           shift=0.0) -> CauchySystem:
    """Seeded random increasing order-bounded system on [0, 1].

    Component maps integrate a random exact step forcing term (grid
    primitive sampled from the exact cumulative) plus nonnegative-weighted
    increasing bounded links tanh(x_j) (grid trapezoid, consistent with the
    piecewise-linear grid semantics); ``shift`` raises the forcing, which is
    used by the comparison experiments.
    """
    from .stepfn import random_stepfn

    m = int(rng.integers(1, 4)) if m is None else m
    if m < 1:
        raise SolverDataError(f"a system needs dimension >= 1, not {m}")
    grid = make_grid(0, 1, per_unit)
    iv = Interval(0, 1 + 1e-9)
    A = rng.uniform(0, 1.5, size=(m, m))
    forcing_steps = []
    forcing_prims = []
    for i in range(m):
        sf = random_stepfn(rng, max_cells=4, value_range=2)
        if shift:
            sf = sf + Fraction(shift).limit_denominator(64)
        forcing_steps.append(sf)
        forcing_prims.append(sf.cumulative().sample_array(grid))
    dg = np.diff(grid)

    def phi(i):
        def apply(x):
            links = np.zeros(len(grid))
            for j in range(m):
                links = links + A[i, j] * np.tanh(as_grid(x[j], grid))
            prim = np.concatenate([[0.0], np.cumsum(
                0.5 * (links[1:] + links[:-1]) * dg)])
            return GridFn(grid, forcing_prims[i] + prim)
        return apply

    c = [float(rng.uniform(-1, 1)) for _ in range(m)]
    return CauchySystem(m, [phi(i) for i in range(m)], c, iv, grid,
                        name=f"random-monotone-{m}", forcing_steps=forcing_steps,
                        link_weights=A)


def order_bounds_for_random(S: CauchySystem):
    """Order-bound distributions for :func:`random_monotone_system`.

    tanh lies in (-1, 1), so f_i is bracketed by forcing_i -+ sum_j A_ij;
    the bounds are exact step densities wrapped as distributions via their
    piecewise-linear primitives.
    """
    from .integral import Distribution

    bounds_lo, bounds_hi = [], []
    for i in range(S.m):
        # round the slack upward so the Fraction bound still dominates
        slack = Fraction(math.ceil(float(np.sum(S.link_weights[i])) * 2 ** 20) + 1,
                         2 ** 20)
        lo = S.forcing_steps[i] + (-slack)
        hi = S.forcing_steps[i] + slack
        bounds_lo.append(Distribution(RegulatedFn.from_poly(lo.cumulative())))
        bounds_hi.append(Distribution(RegulatedFn.from_poly(hi.cumulative())))
    return bounds_lo, bounds_hi
