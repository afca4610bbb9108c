"""Left-regulated functions: the space facade and its operations.

A :class:`RegulatedFn` pairs one :mod:`~leftprim.symbolic` expression tree
(exact :class:`~leftprim.stepfn.StepFn` / :class:`~leftprim.stepfn.PiecewisePoly`
data are leaves of it) with its interval and an optional registered
primitive.  All operations in this module are pure; values are immutable
after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import symbolic as sym
from .intervals import DomainError, Interval
from .quadrature import (EstimationError, IntegrabilityError,
                         integrate_piecewise, richardson_limit)
from .stepfn import PiecewisePoly, StepFn

_PROBES = 40_000        # probe lattice cells of oscillation_partition
_MAX_CELLS = 2_000_000  # cells oscillation_partition may bound in all


class RegulatedFn:
    """A left-regulated scalar function on an interval.

    ``expr`` is a :mod:`~leftprim.symbolic` expression tree; exact step and
    polynomial data sit in it as :class:`~leftprim.symbolic.StepLeaf` /
    :class:`~leftprim.symbolic.PolyLeaf` leaves.  Nodes evaluate the
    left-limit branch at their declared discontinuities and the right branch
    at the domain minimum when it exists (exact leaves keep their stored
    base value there), so every instance is left-continuous as seen through
    :meth:`value`.  ``primitive`` is an optional registered antiderivative.
    """

    def __init__(self, expr: sym.Expr, interval: Interval, name: str = "",
                 primitive: "RegulatedFn | None" = None):
        self.expr = expr
        self.interval = interval
        self.name = name
        self.primitive = primitive

    @property
    def kind(self) -> str:
        """A display label, not a dispatch key: the root node's declared
        ``kind``, ``step`` / ``poly`` for exact leaves, else ``lincomb`` /
        ``product`` / ``symbolic``."""
        return self.expr.kind

    @property
    def payload(self):
        """The exact StepFn / PiecewisePoly data of a leaf, else the expression."""
        return self.expr if self.expr.data is None else self.expr.data

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_step(cls, step: StepFn, name: str = "") -> "RegulatedFn":
        return cls(sym.StepLeaf(step), step.interval, name)

    @classmethod
    def from_poly(cls, poly: PiecewisePoly, name: str = "") -> "RegulatedFn":
        return cls(sym.PolyLeaf(poly), poly.interval, name)

    @classmethod
    def lincomb(cls, parts, interval=None) -> "RegulatedFn":
        parts = [(c, f) for c, f in parts]
        if not parts:
            raise ValueError("empty linear combination")
        iv = interval or parts[0][1].interval
        steps = [f.expr.step() for _, f in parts]
        if all(sf is not None for sf in steps):
            terms = [sf.map(lambda v, c=c: _like(c, v) * v)
                     for (c, _), sf in zip(parts, steps)]
            return cls.from_step(sum(terms[1:], terms[0]))
        return cls(sym.Sum([sym.Scale(c, f.expr, f.primitive) for c, f in parts]), iv)

    @classmethod
    def product_of(cls, f: "RegulatedFn", g: "RegulatedFn", name: str = "") -> "RegulatedFn":
        fs, gs = f.expr.step(), g.expr.step()
        if fs is not None and gs is not None:
            return cls.from_step(fs * gs, name)
        if f.expr.data is not None and g.expr.data is not None:
            return cls.from_poly(f.expr.data.as_poly() * g.expr.data.as_poly(), name)
        return cls(sym.Product(f.expr, g.expr), f.interval, name)

    @classmethod
    def constant(cls, value, interval: Interval, name: str = "") -> "RegulatedFn":
        return cls.from_step(StepFn.constant(interval.lo, interval.hi,
                                             Fraction(value)), name)

    def __repr__(self):
        label = self.name or self.kind
        return f"RegulatedFn<{label} on {self.interval}>"

    # -- evaluation ---------------------------------------------------------------

    def value(self, t):
        if not self.interval.contains(t):
            raise DomainError(f"{t} outside {self.interval}")
        if t == self.interval.lo:
            return self.expr.ev_min(t)
        return self.expr.ev(t, 0)

    def left_limit(self, t):
        if not self.interval.contains(t) or t == self.interval.lo:
            raise DomainError(f"no left limit at {t}")
        return self.expr.ev(t, -1)

    def right_limit(self, t):
        """Right limit, or None when it does not exist (second kind)."""
        if not self.interval.contains(t) or t == self.interval.hi:
            return None
        try:
            return self.expr.ev(t, +1)
        except sym.SecondKindLimit:
            return None

    def sample(self, ts) -> np.ndarray:
        """Vectorised values: left branch, right branch at the domain minimum."""
        ts = np.asarray(ts, dtype=float)
        out = self.expr.ev_array(ts)
        lo = float(self.interval.lo)
        at_min = ts <= lo
        if np.any(at_min):
            out = out.copy()
            out[at_min] = self.value(self.interval.lo)
        return out

    # -- structure ------------------------------------------------------------------

    def jumps(self, lo=None, hi=None):
        lo = self.interval.lo if lo is None else lo
        hi = self.interval.hi if hi is None else hi
        return self.expr.jumps(lo, hi)

    def osc_bound_array(self, us, vs):
        return self.expr.osc_bound_array(us, vs)

    def sup_bound_cells(self, us, vs):
        return self.expr.sup_bound_array(us, vs)

    # arithmetic sugar: f + g and f - g
    def __add__(self, other):
        return RegulatedFn.lincomb([(1, self), (1, other)], self.interval)

    def __sub__(self, other):
        return RegulatedFn.lincomb([(1, self), (-1, other)], self.interval)


def _like(c, v):
    """Coerce scalar c to pair with value v, keeping Fractions exact."""
    if isinstance(v, (Fraction, int)) and isinstance(c, (Fraction, int)):
        return Fraction(c)
    return float(c)


# ---------------------------------------------------------------------------
# operations


def limits(f: RegulatedFn, t):
    """(left limit, value, right limit or None) at t.

    At the domain minimum the left limit is reported as the value itself.
    """
    val = f.value(t)
    left = val if t == f.interval.lo else f.left_limit(t)
    right = f.right_limit(t)
    return left, val, right


def _cut_cells(f: RegulatedFn, J: Interval):
    """Float cells (us, vs] of J between its ends and the expression's bound
    cuts inside it."""
    lo, hi = float(J.lo), float(J.hi)
    cuts = sorted({lo, hi}.union(float(c) for c in f.expr.bound_cuts(J.lo, J.hi)
                                 if lo < float(c) < hi))
    return np.array(cuts[:-1]), np.array(cuts[1:])


def _first_probe(grid: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(grid, u, side="right")`` on the uniform lattice."""
    last = len(grid) - 1
    k = np.floor((u - grid[0]) / ((grid[-1] - grid[0]) / last)) + 1
    k = np.clip(k, 0, last + 1).astype(np.intp)
    while True:  # move the estimate by one against the lattice until exact
        down = (k > 0) & (grid[np.maximum(k - 1, 0)] > u)
        up = (k <= last) & (grid[np.minimum(k, last)] <= u)
        if not (down.any() or up.any()):
            return k
        k = k + up - down


@dataclass
class OscillationPartition:
    """Finite oscillation partition: cells (cuts[i], cuts[i+1]] with values."""

    n: int
    interval: Interval
    cuts: list
    values: list
    certified: bool
    residual: list  # cells at the width floor that still violate 1/n


def oscillation_partition(f: RegulatedFn, n: int, J: Interval) -> OscillationPartition:
    """Left-open cell partition of J with per-cell oscillation <= 1/n.

    Cells are seeded at the declared discontinuities and split by bisection,
    one ``osc_bound_array`` call per level, while the bound is not <= 1/n
    (a NaN bound is not), some point of the uniform ``_PROBES``-cell lattice
    lies in the cell's open interior, and the cell is wider than
    (hi - lo) 2^-48.  The first probe right of a start u is
    floor((u - lo) / step) + 1, corrected by one at a time against the
    lattice until exact.  Step data give the exact, certified merge;
    symbolic cells at the width floor next to second-kind discontinuities
    may keep oscillation above 1/n and are listed in ``residual``.
    """
    if not J.is_compact:
        raise EstimationError(
            "unsupported: oscillation partition needs a compact interval "
            "(no tail limit was supplied)")
    lo, hi = float(J.lo), float(J.hi)
    sf = f.expr.step(J.lo, J.hi)
    if sf is not None:
        sf = sf.merged()
        return OscillationPartition(n, J, list(sf.breaks), list(sf.values),
                                    True, [])

    w_floor = (hi - lo) * 2.0 ** -48
    grid = np.linspace(lo, hi, _PROBES + 1)
    target = 1.0 / n

    us, vs = _cut_cells(f, J)
    kept, residual = [], []
    total = len(us)
    while len(us):
        osc = f.osc_bound_array(us, vs)
        wide = (vs - us) > w_floor
        # probe strictly inside (u, v): first lattice point > u is < v
        k = _first_probe(grid, us)
        has_probe = (k < len(grid)) & (grid[np.minimum(k, len(grid) - 1)] < vs)
        over = ~(osc <= target)  # a NaN bound certifies nothing
        split = over & wide & has_probe
        stuck = over & ~wide
        residual.extend(zip(us[stuck], vs[stuck]))
        kept.append(us[~split])
        mid = 0.5 * (us[split] + vs[split])
        us = np.concatenate([us[split], mid])
        vs = np.concatenate([mid, vs[split]])
        total += len(mid)
        if total > _MAX_CELLS:
            raise EstimationError(
                f"oscillation partition exceeded {_MAX_CELLS} cells at n={n}")
    breaks = np.sort(np.concatenate([*kept, [hi]]))
    values = f.sample(breaks[1:])
    return OscillationPartition(n, J, breaks.tolist(), values.tolist(),
                                False, residual)


def step_approximation(f: RegulatedFn, n: int, J: Interval = None) -> StepFn:
    """Countably-stepped approximation with |F_n - f| <= 1/n (see partition).

    For step input the result is the merged restriction (zero error).  For
    symbolic input the bound is certified on the probe lattice, except inside
    the reported residual cells hugging second-kind discontinuities.  A
    bisection break at ``float(c)``, for a bound cut or an end c of J, is c.
    """
    J = J or f.interval
    part = oscillation_partition(f, n, J)
    cuts = part.cuts
    if not part.certified:
        exact = {float(c): c for c in [J.lo, J.hi, *f.expr.bound_cuts(J.lo, J.hi)]}
        cuts = [exact.get(x, x) for x in cuts]
    return StepFn(cuts, part.values, f.value(cuts[0]))


def lattice(f: RegulatedFn, g: RegulatedFn, op: str) -> RegulatedFn:
    """Pointwise join (max) or meet (min); exact on step data."""
    if f.interval.lo != g.interval.lo or f.interval.hi != g.interval.hi:
        raise DomainError("lattice operands on different intervals")
    fs, gs = f.expr.step(), g.expr.step()
    if fs is not None and gs is not None:
        return RegulatedFn.from_step(fs.join(gs) if op == "join" else fs.meet(gs))
    return RegulatedFn(sym.PointwiseExtreme(f.expr, g.expr, op == "join"), f.interval)


def abs_fn(f: RegulatedFn) -> RegulatedFn:
    sf = f.expr.step()
    if sf is not None:
        return RegulatedFn.from_step(sf.abs())
    return RegulatedFn(sym.AbsExpr(f.expr), f.interval)


def pos_fn(f: RegulatedFn) -> RegulatedFn:
    sf = f.expr.step()
    if sf is not None:  # the lattice's Fraction 0 would replace a float 0.0
        return RegulatedFn.from_step(sf.pos())
    return lattice(f, RegulatedFn.constant(0, f.interval), "join")


def neg_fn(f: RegulatedFn) -> RegulatedFn:
    sf = f.expr.step()
    if sf is not None:  # and -1 * v would turn int data into Fractions
        return RegulatedFn.from_step(sf.neg())
    return pos_fn(RegulatedFn.lincomb([(-1, f)]))


def norm(F: RegulatedFn, kind: str, J: Interval = None, tol: float = 1e-10,
         grid: int = 4096):
    """Alexiewicz / L1 / sup norm of F on J.

    Exact rationals for step data (the Alexiewicz norm via extrema of the
    piecewise-linear cumulative); numeric estimates otherwise.  With a
    registered primitive P the Alexiewicz norm costs one sample pass, one
    ``P.sample`` on the refinement differenced and summed in order (the
    floats of integrating cell by cell); without one, each cell integrates.
    """
    J = J or F.interval
    if kind not in ("alexiewicz", "l1", "sup"):
        raise ValueError(f"unknown norm kind {kind!r}")
    exact = F.expr.norm(kind, J.lo, J.hi, grid)
    if exact is not None:
        return exact
    lo, hi = float(J.lo), float(J.hi)
    if kind == "sup":
        if not classify(F, J).locally_riemann:
            raise EstimationError(
                "sup norm of an unbounded function has no certified bound")
        ts = np.linspace(lo, hi, grid + 1)
        extra = np.array([float(c) for c in F.jumps(J.lo, J.hi)])
        if len(extra):
            ts = np.concatenate([ts, extra])
        return float(np.max(np.abs(F.sample(ts))))
    if kind == "l1":
        g = abs_fn(F)
        val, _ = integrate_regulated(g, lo, hi, tol)
        return val
    # alexiewicz: extrema of the cumulative, summed in order over a refinement
    cuts = sorted({lo, hi}.union(float(c) for c in F.jumps(J.lo, J.hi)))
    pts = [lo]
    for a, b in zip(cuts[:-1], cuts[1:]):
        k = max(2, int(grid * (b - a) / (hi - lo)) + 1)
        pts.extend(np.linspace(a, b, k)[1:])
    P = F.primitive
    if P is None:
        steps = [integrate_regulated(F, a, b, tol)[0]
                 for a, b in zip(pts[:-1], pts[1:])]
    elif not (P.interval.contains(lo) and P.interval.contains(hi)):
        raise DomainError(f"{J} outside {P.interval}")
    else:  # P(b) - P(a) per cell, 0 where a == b as integrate_regulated gives
        pts = np.array(pts)
        steps = np.where(pts[1:] == pts[:-1], 0.0, np.diff(P.sample(pts)))
    acc = np.cumsum(steps)
    return max(0.0, float(acc.max())) - min(0.0, float(acc.min()))


def local_metric(F: RegulatedFn, G: RegulatedFn, kind: str, exhaustion,
                 depth: int = None) -> float:
    """Sum of norm_n/(1+norm_n) over an increasing compact exhaustion.

    The series is truncated at ``depth`` terms (every term is < 1, so the
    omitted tail is at most the remaining term count); the displayed metric
    has no summability weights and this truncation is the desk-scale
    surrogate.
    """
    if not exhaustion:
        raise ValueError("empty exhaustion")
    depth = len(exhaustion) if depth is None else min(depth, len(exhaustion))
    diff = RegulatedFn.lincomb([(1, F), (-1, G)], F.interval)
    total = 0.0
    for J in exhaustion[:depth]:
        d = float(norm(diff, kind, J))
        total += d / (1.0 + d)
    return total


@dataclass
class Classification:
    locally_riemann: bool
    locally_lebesgue: bool
    locally_hk: bool
    certified: bool


def classify(F: RegulatedFn, J: Interval = None) -> Classification:
    """Integrability flags on compact subintervals of J.

    Step data is certain; symbolic classification combines the declared
    singularity class of the expression tree with a boundedness probe, and
    carries certified=False.
    """
    J = J or F.interval
    if F.expr.data is not None:
        return Classification(True, True, True, True)
    sing = F.expr.sing_class()
    us, vs = _cut_cells(F, J)
    # local boundedness is equivalent to local Riemann integrability for
    # left-regulated functions (a.e. continuity comes free)
    bounded = bool(np.all(np.isfinite(F.sup_bound_cells(us, vs))))
    riemann = bounded
    lebesgue = riemann or sing <= sym.ABS
    hk = lebesgue or sing <= sym.COND
    if sing >= sym.DIV:
        riemann = lebesgue = hk = False
    return Classification(riemann, lebesgue, hk, False)


def integrate_regulated(F: RegulatedFn, a, b, tol: float = 1e-10):
    """Integral of F over [a, b] with an error bound.

    In order of preference: the endpoint difference of a registered
    primitive; the expression's closed form (exact for step and
    piecewise-polynomial data, term by term across combinations whose every
    term has one); otherwise adaptive quadrature splitting at declared
    discontinuities.
    """
    if a == b:
        return 0.0, 0.0
    if F.primitive is not None:
        return sym.primitive_difference(F.primitive, a, b)
    closed = F.expr.integral(a, b, tol)
    if closed is not None:
        return closed
    cls = classify(F)
    if not cls.locally_hk:
        raise IntegrabilityError(f"{F!r} is not locally HK integrable")
    cuts = [float(c) for c in F.jumps(min(a, b), max(a, b))]
    return integrate_piecewise(F.sample, float(a), float(b), cuts, tol)


def fd_derivative_check(F: RegulatedFn, G: RegulatedFn, points, h0: float = 1e-3,
                        min_dist: float = None):
    """Compare central finite differences of F with G at the given points,
    Richardson-extrapolated from the steps h, h/2, h/4 and h/8.

    Points too close to G's declared discontinuities are skipped with a note.
    Returns a report dict with per-point deviations and the max.
    """
    jumps = np.array([float(j) for j in G.jumps()] or [np.inf])
    report = {"points": [], "skipped": [], "max_deviation": 0.0}
    for t in points:
        t = float(t)
        dist = float(np.min(np.abs(jumps - t))) if jumps.size else np.inf
        h = min(h0, dist / 8) if np.isfinite(dist) else h0
        if min_dist is not None and dist < min_dist:
            report["skipped"].append((t, "too close to discontinuity"))
            continue
        if h <= 0:
            report["skipped"].append((t, "on discontinuity"))
            continue
        sampler = lambda hh: (F.value(t + hh) - F.value(t - hh)) / (2 * hh)
        d, _ = richardson_limit(sampler, h, levels=4, order=2)
        dev = abs(d - G.value(t))
        report["points"].append((t, dev))
        report["max_deviation"] = max(report["max_deviation"], dev)
    return report
