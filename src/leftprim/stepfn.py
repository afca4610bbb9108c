"""Exact step functions on left-open cells, and piecewise polynomials.

A :class:`StepFn` is the computational backbone of the package: a function
that is constant on finitely many contiguous left-open cells ``(b[i-1], b[i]]``
covering ``(b[0], b[-1]]``, plus a separate value at the base point ``b[0]``.
The representation is left-continuous by construction.  When every breakpoint
and value is a :class:`fractions.Fraction` all operations here are exact;
float-valued instances arise as step approximations of symbolic functions and
make no exactness claims.  A :class:`PiecewisePoly` holds a polynomial per
cell instead; primitives of step data live there.

The base ``_Cells`` owns the rules both share: break validation, ``lo`` /
``hi`` / ``interval``, evaluation and one-sided limits with their domain
checks, ``right_limits``, ``jump_points`` and ``integral``, through two cell
hooks each class supplies, ``_at(i, t)`` and ``_cell_integral(i, l, r)``.
Arithmetic, ``refined``, ``cumulative`` and ``variation`` stay per class, as
do ``StepFn``'s ``restrict``, lattice and norms, whose loops read ``values``.

Costs in comparisons, for operands of n and m cells: evaluation and the
one-sided limits at a point take O(log n); ``+``, ``-``, ``*``, ``join``,
``meet``, ``le`` and ``zip_with`` take O(n + m), one forward walk over both
break lists that also yields the operand cells of every merged cell;
``refined`` with m extra breaks takes O(n + m) when they come sorted
(``PiecewisePoly.zip_with`` passes the merged breaks), O(n + m log m) if not;
``right_limits`` at k ascending points takes O(n + k); ``restrict`` to k
cells takes O(log n + k).  ``merged``, norms, integrals and ``cumulative``
are single O(n) passes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction

from .intervals import DomainError, Interval


class StepDataError(ValueError):
    """Malformed step or piecewise-polynomial data."""


def _is_exact(xs) -> bool:
    return all(isinstance(x, (Fraction, int)) for x in xs)


def _merge(a, b):
    """Merge two strictly increasing break lists with equal ends.

    Returns the sorted union (a's object where both hold a point) and, for
    each merged cell ``(pts[k], pts[k+1]]``, the index of the cell of a and
    of the cell of b that contain it: one forward walk, no lookups.
    """
    pts, ia, ib = [a[0]], [], []
    i = j = 1
    while i < len(a):  # a and b end on the same point
        x, y = a[i], b[j]
        ia.append(i - 1)
        ib.append(j - 1)
        if y < x:
            pts.append(y)
            j += 1
        else:
            pts.append(x)
            i += 1
            if not x < y:
                j += 1
    return pts, ia, ib


def _refine(breaks, extra):
    """``_merge`` of ``breaks`` with the points of ``extra`` strictly inside
    them, given in any order and possibly repeated (the first of equal
    points is kept); returns the merged breaks and their cells of ``breaks``.
    """
    lo, hi = breaks[0], breaks[-1]
    inner = sorted(b for b in extra if lo < b < hi)  # stable; linear if sorted
    inner = [b for i, b in enumerate(inner) if i == 0 or inner[i - 1] < b]
    pts, cells, _ = _merge(breaks, [lo, *inner, hi])
    return pts, cells


def _right_cells(points, breaks):
    """For each of the ascending ``points`` in ``[breaks[0], breaks[-1])``,
    the j with ``breaks[j] <= t < breaks[j+1]``: the cell carrying the right
    limit at t, found in one forward walk.

    Float points are walked against ``float(b)`` of exact breaks: under
    round-to-nearest ``t < float(b)`` implies ``t < b`` and ``t > float(b)``
    implies ``t > b``, so only ``t == float(b)`` is settled on ``b`` itself.
    """
    if points and (points[0] < breaks[0] or points[-1] >= breaks[-1]):
        raise DomainError(f"points outside [{breaks[0]}, {breaks[-1]})")
    keys = breaks
    if points and all(isinstance(t, float) for t in points):
        keys = [float(b) for b in breaks]
    out = []
    j = 0
    for t in points:
        while keys[j + 1] < t or keys[j + 1] == t and breaks[j + 1] <= t:
            j += 1
        out.append(j)
    return out


def float_cells(breaks, ts, exact: bool):
    """For the float points ``ts``, the cell index ``j`` (cell
    ``(breaks[j], breaks[j+1]]``) among the increasing, exact or float
    ``breaks``, as an integer array shaped like ``ts``: -1 at or below
    ``breaks[0]``, ``len(breaks) - 1`` above ``breaks[-1]``.

    Cells are found against ``float(b)``: j is the cell closing at the first
    break with ``float(b) >= t``, the cell whose polynomial bounds a cell
    ``(u, float(c)]`` cut at ``c``.  With ``exact`` the cell holding t is
    returned instead, ``breaks[j] < t <= breaks[j+1]``, as ``__call__``
    evaluates: under round-to-nearest ``t < float(b)`` implies ``t < b`` and
    ``t > float(b)`` implies ``t > b``, so only a point ``t == float(b) != b``
    is settled on the exact breaks.
    """
    import numpy as np

    shape = np.shape(ts)
    ts = np.asarray(ts, dtype=float).ravel()
    fb = np.array([float(b) for b in breaks])
    pos = np.searchsorted(fb, ts, side="left")
    cells = pos - 1
    if exact:
        near = np.minimum(pos, len(fb) - 1)
        for k in np.flatnonzero(fb[near] == ts):
            t = float(ts[k])
            if breaks[near[k]] != t:
                cells[k] = bisect_left(breaks, t) - 1
    return cells.reshape(shape)


class _Cells:
    """Left-open cells ``(breaks[i], breaks[i+1]]`` over strictly increasing
    ``breaks``, read through ``_at`` and ``_cell_integral``."""

    __slots__ = ("breaks", "base_value", "exact")

    def _set_breaks(self, breaks, ncells):
        breaks = list(breaks)
        if len(breaks) != ncells + 1:
            raise StepDataError("need one more breakpoint than cells")
        if not all(breaks[i] < breaks[i + 1] for i in range(ncells)):
            raise StepDataError("breakpoints must be strictly increasing")
        self.breaks = breaks

    @property
    def lo(self):
        return self.breaks[0]

    @property
    def hi(self):
        return self.breaks[-1]

    @property
    def interval(self) -> Interval:
        return Interval(self.lo, self.hi)

    def __call__(self, t):
        if t < self.lo or t > self.hi:
            raise DomainError(f"{t} outside [{self.lo}, {self.hi}]")
        if t == self.lo:
            return self.base_value
        return self._at(bisect_left(self.breaks, t, lo=1) - 1, t)

    def left_limit(self, t):
        if t <= self.lo or t > self.hi:
            raise DomainError(f"no left limit at {t}")
        return self._at(bisect_left(self.breaks, t, lo=1) - 1, t)

    def right_limit(self, t):
        if t < self.lo or t >= self.hi:
            raise DomainError(f"no right limit at {t}")
        # at a breakpoint b_j the next cell (b_j, b_{j+1}] carries the limit
        return self._at(bisect_right(self.breaks, t) - 1, t)

    def right_limits(self, ts):
        """Right limits at the ascending points ``ts`` of [lo, hi)."""
        return [self._at(j, t) for j, t in zip(_right_cells(ts, self.breaks), ts)]

    def jump_points(self):
        """Points where the function jumps: breaks whose left and right
        limits differ, and the base point when its value differs from the
        right limit there."""
        out, prev = [], self.base_value
        for i in range(len(self.breaks) - 1):
            b = self.breaks[i]
            if self._at(i, b) != prev:
                out.append(b)
            prev = self._at(i, self.breaks[i + 1])
        return out

    def integral(self, a=None, b=None):
        """Exact integral over [a, b] (defaults: whole domain)."""
        a = self.lo if a is None else a
        b = self.hi if b is None else b
        sign = 1
        if a > b:
            a, b, sign = b, a, -1
        if a < self.lo or b > self.hi:
            raise DomainError("integration limits outside domain")
        total = 0
        for i in range(len(self.breaks) - 1):
            l, r = max(self.breaks[i], a), min(self.breaks[i + 1], b)
            if r > l:
                total += self._cell_integral(i, l, r)
        return sign * total


class StepFn(_Cells):
    """Piecewise-constant, left-continuous function on ``[b0, bk]``."""

    __slots__ = ("values",)

    def __init__(self, breaks, values, base_value=None):
        values = list(values)
        self._set_breaks(breaks, len(values))
        if base_value is None:
            # D^lc convention: right-continuous at the minimum
            base_value = values[0]
        self.values = values
        self.base_value = base_value
        self.exact = _is_exact(self.breaks) and _is_exact(values) and _is_exact([base_value])

    # -- construction helpers -------------------------------------------------

    @classmethod
    def indicator(cls, lo, hi, domain_lo=None, domain_hi=None, value=Fraction(1)):
        """chi_{(lo, hi]} on [domain_lo, domain_hi] (defaults to [lo, hi])."""
        lo, hi = Fraction(lo), Fraction(hi)
        dlo = Fraction(domain_lo) if domain_lo is not None else lo
        dhi = Fraction(domain_hi) if domain_hi is not None else hi
        breaks, values = [dlo], []
        zero = Fraction(0)
        for b, v in ((lo, zero), (hi, value), (dhi, zero)):
            if b > breaks[-1]:
                breaks.append(b)
                values.append(v)
        return cls(breaks, values, zero)

    @classmethod
    def constant(cls, lo, hi, value):
        return cls([Fraction(lo), Fraction(hi)], [Fraction(value)])

    def __repr__(self):
        cells = ", ".join(
            f"({self.breaks[i]},{self.breaks[i+1]}]->{self.values[i]}"
            for i in range(min(len(self.values), 4))
        )
        more = "..." if len(self.values) > 4 else ""
        return f"StepFn[{self.base_value}@{self.lo}; {cells}{more}]"

    def _at(self, i, t):
        return self.values[i]

    def _cell_integral(self, i, l, r):
        return self.values[i] * (r - l)

    # -- structural operations --------------------------------------------------

    def merged(self) -> "StepFn":
        """Coalesce adjacent cells carrying equal values."""
        breaks = [self.breaks[0]]
        values = []
        for i, v in enumerate(self.values):
            if values and values[-1] == v:
                breaks[-1] = self.breaks[i + 1]
            else:
                breaks.append(self.breaks[i + 1])
                values.append(v)
        return StepFn(breaks, values, self.base_value)

    def refined(self, extra_breaks) -> "StepFn":
        pts, cells = _refine(self.breaks, extra_breaks)
        return StepFn(pts, [self.values[j] for j in cells], self.base_value)

    def restrict(self, lo, hi) -> "StepFn":
        if not self.lo <= lo < hi <= self.hi:
            raise DomainError(f"[{lo}, {hi}] not inside [{self.lo}, {self.hi}]")
        # cells j0..j1 meet (lo, hi]; an end on a breakpoint keeps its object
        j0 = bisect_right(self.breaks, lo) - 1
        j1 = bisect_left(self.breaks, hi, lo=1) - 1
        first, last = self.breaks[j0], self.breaks[j1 + 1]
        breaks = ([first if first == lo else lo] + self.breaks[j0 + 1:j1 + 1]
                  + [last if last == hi else hi])
        base = self(lo) if lo > self.lo else self.base_value
        return StepFn(breaks, self.values[j0:j1 + 1], base)

    @staticmethod
    def _common(f: "StepFn", g: "StepFn"):
        if f.lo != g.lo or f.hi != g.hi:
            raise DomainError("step functions live on different intervals")
        pts, fc, gc = _merge(f.breaks, g.breaks)
        return pts, [f.values[j] for j in fc], [g.values[j] for j in gc]

    def zip_with(self, other: "StepFn", op) -> "StepFn":
        pts, fv, gv = self._common(self, other)
        return StepFn(pts, [op(a, b) for a, b in zip(fv, gv)],
                      op(self.base_value, other.base_value)).merged()

    def map(self, op) -> "StepFn":
        return StepFn(self.breaks, [op(v) for v in self.values],
                      op(self.base_value)).merged()

    def __add__(self, other):
        if isinstance(other, StepFn):
            return self.zip_with(other, lambda a, b: a + b)
        return self.map(lambda v: v + other)

    def __sub__(self, other):
        if isinstance(other, StepFn):
            return self.zip_with(other, lambda a, b: a - b)
        return self.map(lambda v: v - other)

    def __mul__(self, other):
        if isinstance(other, StepFn):
            return self.zip_with(other, lambda a, b: a * b)
        return self.map(lambda v: v * other)

    def __rmul__(self, c):
        return self.map(lambda v: c * v)

    def __neg__(self):
        return self.map(lambda v: -v)

    def __eq__(self, other):
        if not isinstance(other, StepFn):
            return NotImplemented
        a, b = self.merged(), other.merged()
        return (a.breaks == b.breaks and a.values == b.values
                and a.base_value == b.base_value)

    def __hash__(self):
        m = self.merged()  # equal functions share their merged form
        return hash((tuple(m.breaks), tuple(m.values), m.base_value))

    # -- lattice ---------------------------------------------------------------

    def join(self, other):
        return self.zip_with(other, max)

    def meet(self, other):
        return self.zip_with(other, min)

    def abs(self):
        return self.map(abs)

    def pos(self):
        zero = Fraction(0) if self.exact else 0.0
        return self.map(lambda v: max(v, zero))

    def neg(self):
        zero = Fraction(0) if self.exact else 0.0
        return self.map(lambda v: max(-v, zero))

    def le(self, other) -> bool:
        pts, fv, gv = self._common(self, other)
        return self.base_value <= other.base_value and all(
            a <= b for a, b in zip(fv, gv))

    # -- jumps / variation -------------------------------------------------------

    def variation(self):
        """Total variation on [lo, hi]."""
        v = abs(self.values[0] - self.base_value)
        for i in range(1, len(self.values)):
            v += abs(self.values[i] - self.values[i - 1])
        return v

    # -- integration and norms ----------------------------------------------------

    def cumulative(self):
        """Exact running integral x -> int_lo^x, as a PiecewisePoly."""
        coeffs = []
        acc = Fraction(0) if self.exact else 0.0
        for i, v in enumerate(self.values):
            # on (b_i, b_{i+1}]: acc + v*(x - b_i)
            coeffs.append((acc - v * self.breaks[i], v))
            acc = acc + v * (self.breaks[i + 1] - self.breaks[i])
        return PiecewisePoly(list(self.breaks), coeffs,
                             base_value=Fraction(0) if self.exact else 0.0)

    def sup_norm(self):
        return max(abs(self.base_value), max(abs(v) for v in self.values))

    def l1_norm(self, a=None, b=None):
        return self.abs().integral(a, b)

    def alexiewicz_norm(self, a=None, b=None):
        """sup over subintervals of |integral|, via cumulative extrema."""
        f = self if a is None and b is None else self.restrict(
            a if a is not None else self.lo, b if b is not None else self.hi)
        acc = Fraction(0) if f.exact else 0.0
        mn = mx = acc
        for i, v in enumerate(f.values):
            acc = acc + v * (f.breaks[i + 1] - f.breaks[i])
            mn = min(mn, acc)
            mx = max(mx, acc)
        return mx - mn

    def alexiewicz_extrema(self):
        """Breakpoints attaining the cumulative max and min."""
        acc = Fraction(0) if self.exact else 0.0
        mn = mx = acc
        arg_mn = arg_mx = self.breaks[0]
        for i, v in enumerate(self.values):
            acc = acc + v * (self.breaks[i + 1] - self.breaks[i])
            if acc > mx:
                mx, arg_mx = acc, self.breaks[i + 1]
            if acc < mn:
                mn, arg_mn = acc, self.breaks[i + 1]
        return arg_mn, arg_mx

    def as_poly(self) -> "PiecewisePoly":
        """Degree-0 piecewise polynomial view."""
        return PiecewisePoly(list(self.breaks), [(v,) for v in self.values],
                             self.base_value)

    # -- serialization --------------------------------------------------------------

    def to_cells(self):
        return [(self.breaks[i], self.breaks[i + 1], self.values[i])
                for i in range(len(self.values))]

    @classmethod
    def from_cells(cls, cells, base_value):
        breaks = [cells[0][0]]
        values = []
        for x, y, v in cells:
            if x != breaks[-1]:
                raise StepDataError("cells must be contiguous")
            breaks.append(y)
            values.append(v)
        return cls(breaks, values, base_value)


class PiecewisePoly(_Cells):
    """Left-continuous piecewise polynomial on left-open cells.

    ``coeffs[i]`` holds the coefficient tuple (ascending powers) in force on
    ``(breaks[i], breaks[i+1]]``.  Primitives of step data (piecewise linear)
    and their iterated primitives live here.
    """

    __slots__ = ("coeffs",)

    def __init__(self, breaks, coeffs, base_value=None):
        self.coeffs = [tuple(c) for c in coeffs]
        self._set_breaks(breaks, len(self.coeffs))
        if base_value is None:
            base_value = self._horner(self.coeffs[0], self.breaks[0])
        self.base_value = base_value
        self.exact = (_is_exact(self.breaks) and _is_exact([base_value])
                      and all(_is_exact(c) for c in self.coeffs))

    @staticmethod
    def _horner(c, x):
        acc = 0
        for a in reversed(c):
            acc = acc * x + a
        return acc

    def _at(self, i, t):
        return self._horner(self.coeffs[i], t)

    def _cell_integral(self, i, l, r):
        anti = _poly_antiderivative(self.coeffs[i])
        return self._horner(anti, r) - self._horner(anti, l)

    def refined(self, extra):
        pts, cells = _refine(self.breaks, extra)
        return PiecewisePoly(pts, [self.coeffs[j] for j in cells], self.base_value)

    def sample_array(self, ts):
        """Vectorised left-continuous evaluation (float), cell for cell as
        ``__call__``."""
        return self.eval_cells(ts, float_cells(self.breaks, ts, exact=True))

    def eval_cells(self, ts, cells):
        """Float value at each ``ts[k]`` of the polynomial on cell
        ``cells[k]`` (a :func:`float_cells` index), the base value where the
        index is -1."""
        import numpy as np

        ts = np.asarray(ts, dtype=float)
        idx = np.clip(cells, 0, len(self.coeffs) - 1)
        deg = max(len(c) for c in self.coeffs)
        cmat = np.array([[float(c[k]) if k < len(c) else 0.0
                          for k in range(deg)] for c in self.coeffs])
        acc = np.zeros_like(ts)
        for k in range(deg - 1, -1, -1):
            acc = acc * ts + cmat[idx, k]
        return np.where(cells < 0, float(self.base_value), acc)

    def zip_with(self, other, op):
        if self.lo != other.lo or self.hi != other.hi:
            raise DomainError("piecewise polynomials on different intervals")
        pts = _merge(self.breaks, other.breaks)[0]
        coeffs = [op(ca, cb) for ca, cb in zip(self.refined(pts).coeffs,
                                               other.refined(pts).coeffs)]
        return PiecewisePoly(pts, coeffs, op_scalar(op, self.base_value, other.base_value))

    def __add__(self, other):
        if isinstance(other, PiecewisePoly):
            return self.zip_with(other, _poly_add)
        return PiecewisePoly(self.breaks,
                             [_poly_add(c, (other,)) for c in self.coeffs],
                             self.base_value + other)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, k):
        return PiecewisePoly(self.breaks, [tuple(k * a for a in c) for c in self.coeffs],
                             k * self.base_value)

    def __mul__(self, other):
        if isinstance(other, PiecewisePoly):
            return self.zip_with(other, _poly_mul)
        return self.__rmul__(other)

    def cumulative(self):
        coeffs = []
        acc = Fraction(0) if self.exact else 0.0
        for i, c in enumerate(self.coeffs):
            anti = _poly_antiderivative(c)
            off = acc - self._horner(anti, self.breaks[i])
            coeffs.append(_poly_add(anti, (off,)))
            acc = acc + self._horner(anti, self.breaks[i + 1]) - self._horner(anti, self.breaks[i])
        return PiecewisePoly(list(self.breaks), coeffs,
                             base_value=Fraction(0) if self.exact else 0.0)

    def variation(self):
        """Exact total variation for cells of degree <= 2."""
        total = 0
        prev = self.base_value
        for i, c in enumerate(self.coeffs):
            l, r = self.breaks[i], self.breaks[i + 1]
            jump_in = self._horner(c, l) - prev  # discontinuity entering the cell
            total += abs(jump_in)
            if len(c) <= 1:
                pass
            elif len(c) == 2:
                total += abs(c[1]) * (r - l)
            elif len(c) == 3:
                vertex = -c[1] / (2 * c[2]) if c[2] != 0 else None
                pts = [l] + ([vertex] if vertex is not None and l < vertex < r else []) + [r]
                for p, q in zip(pts, pts[1:]):
                    total += abs(self._horner(c, q) - self._horner(c, p))
            else:
                raise NotImplementedError("variation only for degree <= 2 cells")
            prev = self._horner(c, r)
        return total


def op_scalar(op, a, b):
    if op is _poly_add:
        return a + b
    if op is _poly_mul:
        return a * b
    raise AssertionError("unknown polynomial op")


def _poly_add(c1, c2):
    n = max(len(c1), len(c2))
    return tuple((c1[i] if i < len(c1) else 0) + (c2[i] if i < len(c2) else 0)
                 for i in range(n))


def _poly_mul(c1, c2):
    out = [0] * (len(c1) + len(c2) - 1)
    for i, a in enumerate(c1):
        for j, b in enumerate(c2):
            out[i + j] += a * b
    return tuple(out)


def _poly_antiderivative(c):
    return (0,) + tuple(Fraction(a, k + 1) if isinstance(a, (int, Fraction))
                        else a / (k + 1) for k, a in enumerate(c))


def random_stepfn(rng, lo=0, hi=1, max_cells=8, value_range=6, denom_pool=(2, 3, 4, 5, 7, 8)) -> StepFn:
    """Seeded random exact step function on [lo, hi]."""
    lo, hi = Fraction(lo), Fraction(hi)
    k = int(rng.integers(1, max_cells + 1))
    cuts = set()
    while len(cuts) < k - 1:
        den = int(rng.choice(denom_pool)) * 4
        num = int(rng.integers(1, den))
        c = lo + (hi - lo) * Fraction(num, den)
        if lo < c < hi:
            cuts.add(c)
    breaks = [lo] + sorted(cuts) + [hi]
    values = [Fraction(int(rng.integers(-value_range, value_range + 1)),
                       int(rng.choice(denom_pool)))
              for _ in range(len(breaks) - 1)]
    return StepFn(breaks, values)
