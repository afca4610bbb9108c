"""Left gauges, gamma-fine left partitions, and the left-gauge Stieltjes
integral.

The integral of a left-continuous regulated F against exact step or
polynomial g runs over mu_g((x, y]) = g(y+) - g(x+): an exact cell sum when
F is step data, else int F g' dt plus g's atoms; the gauge/tagged-sum
machinery is kept as a verification surface.  Partitions here are finite,
with explicit overflow signalling when a gauge shrinks too fast toward the
left endpoint (the denumerable case).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from . import symbolic as sym
from .funcspace import RegulatedFn, integrate_regulated
from .intervals import DomainError, Interval
from .stepfn import PiecewisePoly, StepFn


class PartitionOverflow(RuntimeError):
    """max_cells exceeded; carries the partial partition accumulated so far."""

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


class VariationError(ValueError):
    """g is not exact step or piecewise-polynomial data."""


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
        g = g.payload
    if not isinstance(g, (StepFn, PiecewisePoly)):
        raise VariationError("g must carry exact step/polynomial data")
    return g


def _g_rights(g, ts):
    """g(t+) at each of the ascending points ``ts``, in one walk, with the
    closed-endpoint convention g(b+) := g(b) from the domain maximum b on."""
    k = bisect_left(ts, g.hi)
    tail = [g(g.hi)] * (len(ts) - k) if k < len(ts) else []
    return g.right_limits(ts[:k]) + tail


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


def stieltjes(F: RegulatedFn, g, a, b, tol: float = 1e-9):
    """int_a^b F dg over mu_g((x, y]) = g(y+) - g(x+), for left-continuous
    regulated F and exact step or piecewise-polynomial g.

    Step F: the cell sum sum a_i [g(y_i+) - g(x_i+)], exact on exact data.
    Other F: int_a^b F g' dt cell by cell of g through ``integrate_regulated``
    at ``tol`` (c int F where g' = c, so primitives and closed forms serve),
    plus the atoms F(t) [g(t+) - g(t)] at g's breaks t in (a, b].
    """
    gr = _resolve_bv(g)  # a Multiplier builds its g once
    total = F.expr.cell_sum(lambda bs: _g_rights(gr, bs), a, b)
    if total is not None:
        return total
    if a < gr.lo:
        raise DomainError(f"{a} below the domain of g [{gr.lo}, {gr.hi}]")
    bs, total = gr.breaks, 0
    for i, c in enumerate(gr.coeffs if isinstance(gr, PiecewisePoly) else ()):
        l, r = max(bs[i], a), min(bs[i + 1], b)
        d = [k * c[k] for k in range(1, len(c))]  # g' on the cell
        if not l < r or not any(d):
            continue
        if any(d[1:]):
            Fd = sym.Product(F.expr, sym.PolyLeaf(PiecewisePoly([l, r], [d])))
            total += integrate_regulated(RegulatedFn(Fd, Interval(l, r)), l, r, tol)[0]
        else:
            total += d[0] * integrate_regulated(F, l, r, tol)[0]
    ts = [t for t in bs[1:-1] if a < t <= b]
    for t, right in zip(ts, gr.right_limits(ts)):
        jump = right - gr(t)
        if jump:
            total += F.value(t) * jump
    return total


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
