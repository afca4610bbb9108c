"""Left gauges, gamma-fine left partitions, and the left-gauge Stieltjes
integral.

The integral of a left-continuous regulated F against a bounded-variation g
is computed by step-approximating F and summing a_i [g(y_i+) - g(x_i+)] over
the step cells; the gauge/tagged-sum machinery is kept as a verification
surface.  Partitions here are finite, with explicit overflow signalling when
a gauge shrinks too fast toward the left endpoint (the denumerable case).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .funcspace import RegulatedFn, step_approximation
from .intervals import DomainError, Interval
from .stepfn import StepFn, _lattice, _q, _right_cells, _sums


class PartitionOverflow(RuntimeError):
    """max_cells exceeded; carries the partial partition accumulated so far."""

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


class VariationError(ValueError):
    """Unknown or unbounded total variation, or a tolerance too tight for
    it; ``loosest_tol``, when set, is a tolerance that is accepted."""

    def __init__(self, message, loosest_tol=None):
        super().__init__(message)
        self.loosest_tol = loosest_tol


class PartitionError(ValueError):
    """Structurally invalid gauge or tagged partition."""


@dataclass
class LeftGauge:
    """Maps y in (a, b] to a left-open interval (x, y] with x < y.

    Either ``width(y) -> positive delta`` (interval (y - delta, y]) or an
    explicit finite ``table`` of split points: gamma(y) reaches down to the
    largest table point strictly below y.
    """

    width: object = None
    table: list = None

    def __call__(self, y, a):
        if self.width is not None:
            d = self.width(y) if callable(self.width) else self.width
            if not d > 0:
                raise PartitionError(f"gauge width {d} at y={y} is not positive")
            x = max(a, y - d)
        else:
            x = max([p for p in self.table if p < y] + [a])
        if not (x < y):
            raise DomainError(f"gauge returned empty interval at y={y}")
        return x, y


@dataclass
class LeftPartition:
    """Finite ordered list of cells (x_i, y_i] with tags xi_i in (x_i, y_i]."""

    cells: list  # [(x, y)]
    tags: list

    def __post_init__(self):
        if len(self.cells) != len(self.tags):
            raise PartitionError("need one tag per cell")
        for (x, y), t in zip(self.cells, self.tags):
            if not (x < t <= y):
                raise PartitionError(f"tag {t} outside cell ({x}, {y}]")
        for (x1, y1), (x2, y2) in zip(self.cells, self.cells[1:]):
            if y1 != x2:
                raise PartitionError("cells must be contiguous left to right")


def fine_partition(gamma: LeftGauge, a, b, max_cells: int = 10_000) -> LeftPartition:
    """Greedy right-to-left gamma-fine left partition of (a, b].

    Starts at b, repeatedly takes gamma(y) clipped to (a, y] and moves to the
    cell's left endpoint.  Raises PartitionOverflow carrying the partial
    partition when max_cells is exceeded (e.g. gauges with gamma(y) inside
    (y/2, y] near 0 admit only denumerable partitions).
    """
    if not a < b:
        raise DomainError(f"empty interval ({a}, {b}]")
    cells, y = [], b
    while y > a:
        x, yy = gamma(y, a)
        cells.append((x, y))
        y = x
        if len(cells) > max_cells:
            cells.reverse()
            partial = LeftPartition(cells, [c[1] for c in cells])
            raise PartitionOverflow(
                f"gauge admitted no finite partition within {max_cells} cells",
                partial)
    cells.reverse()
    return LeftPartition(cells, [c[1] for c in cells])


def _resolve_bv(g):
    """Accepts StepFn / PiecewisePoly / RegulatedFn(step|poly) / Multiplier."""
    from .integral import Multiplier
    if isinstance(g, Multiplier):
        return g.g_fn()
    if isinstance(g, RegulatedFn):
        if g.kind in ("step", "poly"):
            return g.payload
        raise VariationError("g must carry exact step/polynomial data")
    return g


def _g_rights(g, ts):
    """g(t+) at each of the ascending points ``ts``, in one walk, with the
    closed-endpoint convention g(b+) := g(b) from the domain maximum b on."""
    k = bisect_left(ts, g.hi)
    tail = [g(g.hi)] * (len(ts) - k) if k < len(ts) else []
    return g.right_limits(ts[:k]) + tail


def _stieltjes_floats(xs, g, ts):
    """``sum_k xs[k] [g(ts[k+1]+) - g(ts[k]+)]`` for float xs and ascending
    float ts, with the bits of the cell loop in ``stieltjes``; step values are
    subtracted only where the right-limit cell changes (elsewhere ``v - v``)."""
    if not isinstance(g, StepFn):
        d = np.diff(np.array(_g_rights(g, ts), dtype=float))
    else:
        v, k = g.values, bisect_left(ts, g.hi)  # from hi on, g(b+) := g(b)
        c = np.append(_right_cells(ts[:k], g), [len(v) - 1] * (len(ts) - k)).astype(int)
        d, i = np.array([float(x - x) for x in v])[c[:-1]], np.flatnonzero(np.diff(c))
        d[i] = [float(v[r] - v[l]) for l, r in zip(c[i].tolist(), c[i + 1].tolist())]
    # x * Fraction is x * float(Fraction); the sum runs from 0, in order
    return float(np.cumsum(np.append(0.0, np.multiply(xs, d)))[-1])


def mu_interval(g, x, y):
    """The Borel measure of (x, y] induced by g: g(y+) - g(x+).

    ``g`` may be a StepFn, a PiecewisePoly, exact-data RegulatedFn, or a
    Multiplier; at the domain maximum the right limit is taken as g(b)
    (documented convention).
    """
    if not x < y:
        raise DomainError(f"empty interval ({x}, {y}]")
    gx, gy = _g_rights(_resolve_bv(g), [x, y])
    return gy - gx


MAX_LEVEL = 1_000_000  # largest step level stieltjes builds for symbolic F


def stieltjes(F: RegulatedFn, g, a, b, tol: float = 1e-9):
    """int_a^b F dg for left-continuous regulated F and bounded-variation g.

    Step-approximates F at level n with Vg/n <= tol, then evaluates the exact
    cell sum sum a_i [g(y_i+) - g(x_i+)].  The approximation error is bounded
    by ||F - F_n||_inf Vg <= tol; exact (rational) when F is already a step
    function and g is exact step data.
    """
    gr = _resolve_bv(g)  # a Multiplier builds its g once
    try:
        Vg = gr.variation()
    except NotImplementedError:
        raise VariationError("total variation of g is not known")
    if F.kind == "step":
        Fn = F.payload.restrict(Fraction(a), Fraction(b)) \
            if (a, b) != (F.payload.lo, F.payload.hi) else F.payload
    else:
        n = max(2, int(float(Vg) / tol) + 1) if Vg > 0 else 2
        if n > MAX_LEVEL:
            # 2 significant digits, rounded up: any tol > Vg/MAX_LEVEL works
            loosest = float(f"{1.06 * float(Vg) / (MAX_LEVEL - 1):.2g}")
            raise VariationError(
                f"tolerance {tol:g} needs step level n={n} > {MAX_LEVEL}",
                loosest_tol=loosest)
        Fn = step_approximation(F, n, Interval(a, b))
    if all(type(x) is float for x in Fn.breaks + Fn.values):
        return _stieltjes_floats(Fn.values, gr, Fn.breaks)
    gv = _g_rights(gr, Fn.breaks)
    # sum_k v_k (gv[k+1] - gv[k]), as ints over one denominator on exact data
    acc, _, _, den = _sums(Fn, gv, _lattice(gv) if Fn.exact else (None, None), 0)
    return _q(acc[-1], den)


def stieltjes_sum(F: RegulatedFn, g, P: LeftPartition):
    """Riemann-Stieltjes-type sum sum F(xi_i)[g(y_i+) - g(x_i+)] over P."""
    gv = _g_rights(_resolve_bv(g), [P.cells[0][0]] + [y for _, y in P.cells])
    total = 0
    for k, tag in enumerate(P.tags):
        total += F.value(tag) * (gv[k + 1] - gv[k])
    return total


def uniform_partition(a, b, k: int) -> LeftPartition:
    """k equal cells of (a, b], tagged at their right endpoints."""
    a, b = Fraction(a), Fraction(b)
    pts = [a + (b - a) * Fraction(i, k) for i in range(k + 1)]
    cells = list(zip(pts[:-1], pts[1:]))
    return LeftPartition(cells, [c[1] for c in cells])
