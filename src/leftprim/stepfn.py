"""Exact step functions on left-open cells, and piecewise polynomials.

A :class:`StepFn` is the computational backbone of the package: a function
that is constant on finitely many contiguous left-open cells ``(b[i-1], b[i]]``
covering ``(b[0], b[-1]]``, plus a separate value at the base point ``b[0]``.
The representation is left-continuous by construction.  When every breakpoint
and value is a :class:`fractions.Fraction` all operations here are exact;
float-valued instances arise as step approximations of symbolic functions and
make no exactness claims.  A :class:`PiecewisePoly` holds a polynomial per
cell instead; primitives of step data live there.  Both share the cell core
``_Cells``: break checks, evaluation, one-sided limits and ``integral``.

Exact breaks carry an int lattice, ``keys[i] = breaks[i] * den`` over a common
denominator ``den`` of at most ``LATTICE_BITS`` bits.  Walks compare keys, and
the exact sums over cells add value numerators times key widths as ints, then
build one ``Fraction``.  Above the bound, and on float breaks, ``keys`` are the
breaks, and the same code runs on ``Fraction`` or float arithmetic.

Costs for n and m cells, in int comparisons on a lattice (``Fraction`` or
float ones without): ``+``, ``-``, ``*``, ``join``, ``meet``, ``le`` and
``zip_with`` take O(n + m), one forward walk over both key lists that also
yields the operand cells of each merged cell, plus 2 ``Fraction`` comparisons
of the domain ends; ``right_limits`` at k ascending exact points O(n + k), at
k float points one ``searchsorted`` (a :func:`float_cells` reading, of three)
plus a ``Fraction`` comparison per tie ``t == float(b)``; the constructor
check, ``merged``, norms, integrals and ``cumulative`` are O(n) passes.
Evaluation at a point takes O(log n) ``Fraction`` comparisons, ``restrict``
to k cells O(log n + k), and ``refined`` with m extra breaks O(n + m) if they
come sorted, O(n + m log m) if not.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import lcm
from operator import add, lt, mul

from .intervals import DomainError, Interval

# Past 512-1024 bits the gcds of building keys and Fractions from the int
# sums cost more than the Fraction arithmetic they replace (measured on
# 2000-cell steps, ROADMAP item 8); 256 keeps a margin of 2 or more.
LATTICE_BITS = 256
_DENOMS = (2, 3, 4, 5, 7, 8)  # denominators of random_stepfn's cuts and values


class StepDataError(ValueError):
    """Malformed step or piecewise-polynomial data."""


def _is_exact(xs) -> bool:
    return all(isinstance(x, (Fraction, int)) for x in xs)


def _lattice(xs, den=1):
    """``(D, [x * D for x in xs])`` for exact xs, with D the least multiple
    of den over all their denominators, while D has at most LATTICE_BITS
    bits; else ``(None, None)``."""
    ratios = []
    for x in xs:
        if not isinstance(x, (Fraction, int)):
            return None, None
        ratios.append(x.as_integer_ratio())
        if den % ratios[-1][1]:
            den = lcm(den, ratios[-1][1])
            if den.bit_length() > LATTICE_BITS:  # stop at once: no big gcds
                return None, None
    return den, [n * (den // d) for n, d in ratios]


def _sums(xs, bs, lattice, zero, absolute=False):
    """The sums ``zero + sum_{j < i} xs[j] * (bs[j+1] - bs[j])``, i = 0 ..
    len(xs), and the xs, bs and den they ran on: ints over the lattices of xs
    and bs (given) from 0 if their denominators multiply past 1, else as given
    and den None (at 1 the data may be ``int``s, whose sums stay ``int``).
    ``absolute`` sums ``|xs[j]|`` instead (on a lattice: the |numerators|)."""
    dy, ky = lattice
    dx, kx = _lattice(xs) if dy is not None else (None, None)
    den = None
    if dx is not None and dx * dy > 1:
        xs, bs, zero, den = kx, ky, 0, dx * dy
    if absolute:
        xs = list(map(abs, xs))
    out = [zero]
    for x, l, r in zip(xs, bs, bs[1:]):
        zero = zero + x * (r - l)
        out.append(zero)
    return out, xs, bs, den


def _q(x, den):
    return x if den is None else Fraction(x, den)


def _merge(a, ka, b, kb):
    """Merge two strictly increasing break lists a and b with equal ends,
    walking their keys ka and kb.

    Returns the sorted union (a's object where both hold a point), its keys
    and, for each merged cell ``(pts[k], pts[k+1]]``, the index of the cell
    of a and of the cell of b that contain it: one forward walk, no lookups.
    """
    pts, keys, ia, ib = [a[0]], [ka[0]], [], []
    i = j = 1
    while i < len(a):  # a and b end on the same point
        x, y = ka[i], kb[j]
        ia.append(i - 1)
        ib.append(j - 1)
        if y < x:
            pts.append(b[j])
            keys.append(y)
            j += 1
        else:
            pts.append(a[i])
            keys.append(x)
            i += 1
            if not x < y:
                j += 1
    return pts, keys, ia, ib


def _walk(f, g):
    """``_merge`` of f's and g's breaks, walking their keys rescaled to the
    lcm of their dens if it is within the bound, else the breaks; the union
    comes with its lattice ``(den, keys)``, den None without one."""
    den = f.den and g.den and lcm(f.den, g.den)
    if den and den.bit_length() <= LATTICE_BITS:
        ka = list(map((den // f.den).__mul__, f.keys))
        kb = list(map((den // g.den).__mul__, g.keys))
    else:
        den, ka, kb = None, f.breaks, g.breaks
    pts, keys, ia, ib = _merge(f.breaks, ka, g.breaks, kb)
    return pts, (den, keys), ia, ib


def _refine(breaks, extra):
    """``_merge`` of ``breaks`` with the points of ``extra`` strictly inside
    them, given in any order and possibly repeated (the first of equal
    points is kept); returns the merged breaks and their cells of ``breaks``.
    """
    lo, hi = breaks[0], breaks[-1]
    inner = sorted(b for b in extra if lo < b < hi)  # stable; linear if sorted
    inner = [lo] + [b for i, b in enumerate(inner) if i == 0 or inner[i - 1] < b] + [hi]
    pts, _, cells, _ = _merge(breaks, breaks, inner, inner)
    return pts, cells


def _right_cells(points, f):
    """For each of the ascending ``points`` in ``[f.lo, f.hi)``, the j with
    ``breaks[j] <= t < breaks[j+1]``: one :func:`float_cells` lookup for float
    points (an int array), else one forward walk (on the joint lattice, if any)."""
    breaks = f.breaks
    if points and (points[0] < breaks[0] or points[-1] >= breaks[-1]):
        raise DomainError(f"points outside [{breaks[0]}, {breaks[-1]})")
    if points and all(isinstance(t, float) for t in points):
        return float_cells(breaks, points, True, right=True)
    keys = breaks
    if f.den is not None:
        den, kp = _lattice(points, f.den)
        if den is not None:
            keys = list(map((den // f.den).__mul__, f.keys))
            points = kp
    out, j = [], 0
    for t in points:
        while keys[j + 1] <= t:
            j += 1
        out.append(j)
    return out


def float_cells(breaks, ts, exact: bool, right=False):
    """For the float points ``ts``, the cell index ``j`` (cell
    ``(breaks[j], breaks[j+1]]``) among the increasing, exact or float
    ``breaks``, as an integer array shaped like ``ts``: -1 at or below
    ``breaks[0]``, ``len(breaks) - 1`` above ``breaks[-1]`` (with ``right``:
    -1 below, ``len(breaks) - 1`` at or above).

    Three readings of one ``searchsorted`` on ``float(b)``: by default the
    cell closing at the first break with ``float(b) >= t``, whose polynomial
    bounds a cell ``(u, float(c)]`` cut at ``c``; with ``exact`` the cell
    holding t, ``breaks[j] < t <= breaks[j+1]`` (as ``__call__``); with
    ``right`` the right-limit cell, ``breaks[j] <= t < breaks[j+1]``.  As
    round-to-nearest keeps ``t < float(b)`` below b and ``t > float(b)``
    above it, the exact readings settle only ``t == float(b) != b`` on b.
    """
    import numpy as np

    shape = np.shape(ts)
    ts = np.asarray(ts, dtype=float).ravel()
    fb = np.array([float(b) for b in breaks])
    pos = np.searchsorted(fb, ts, side="right" if right else "left")
    cells = pos - 1
    if exact or right:
        # the break t may tie: the last with float(b) <= t, or the first >= t
        near = np.maximum(pos - 1, 0) if right else np.minimum(pos, len(fb) - 1)
        for k in np.flatnonzero(fb[near] == ts):
            t = float(ts[k])
            if breaks[near[k]] != t:
                cells[k] = (bisect_right if right else bisect_left)(breaks, t) - 1
    return cells.reshape(shape)


class _Cells:
    """Left-open cells ``(breaks[i], breaks[i+1]]`` over strictly increasing
    ``breaks``, read through ``_at`` and ``_cell_integral``."""

    __slots__ = ("breaks", "den", "keys", "base_value", "exact")

    def _set_breaks(self, breaks, ncells, lattice):
        """Check and store ``breaks`` and their lattice ``(den, keys)``, as
        given (walk outputs pass theirs) or computed; returns exactness."""
        breaks = list(breaks)
        if len(breaks) != ncells + 1:
            raise StepDataError("need one more breakpoint than cells")
        den, keys = lattice or _lattice(breaks)
        if den is None:
            keys = breaks
        if not all(map(lt, keys, keys[1:])):
            raise StepDataError("breakpoints must be strictly increasing")
        self.breaks, self.den, self.keys = breaks, den, keys
        return den is not None or _is_exact(breaks)

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
        """Right limits at the ascending points ``ts`` of [lo, hi); at float
        points a polynomial's by ``eval_cells``, whose float Horner on
        ``float(c)`` has ``_at``'s bits (``Fraction`` falls back to float)."""
        cells = _right_cells(ts, self)
        if isinstance(self, StepFn) or isinstance(cells, list):
            return [self._at(j, t) for j, t in zip(cells, ts)]
        return self.eval_cells(ts, cells).tolist()

    def jump_points(self):
        """Points where the function jumps: breaks whose left and right
        limits differ, and the base point when its value differs from the
        right limit there."""
        out, prev = [], self.base_value
        for i, b in enumerate(self.breaks[:-1]):
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

    def __init__(self, breaks, values, base_value=None, *, lattice=None):
        values = list(values)
        exact = self._set_breaks(breaks, len(values), lattice)
        if base_value is None:
            # D^lc convention: right-continuous at the minimum
            base_value = values[0]
        self.values = values
        self.base_value = base_value
        self.exact = exact and _is_exact(values) and _is_exact([base_value])

    # -- construction helpers -------------------------------------------------

    @classmethod
    def indicator(cls, lo, hi, domain_lo=None, domain_hi=None):
        """chi_{(lo, hi]} on [domain_lo, domain_hi] (defaults to [lo, hi])."""
        lo, hi = Fraction(lo), Fraction(hi)
        dlo = Fraction(domain_lo) if domain_lo is not None else lo
        dhi = Fraction(domain_hi) if domain_hi is not None else hi
        breaks, values = [dlo], []
        zero = Fraction(0)
        for b, v in ((lo, zero), (hi, Fraction(1)), (dhi, zero)):
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
        keep = [0]  # indices of the breaks kept
        values = []
        for i, v in enumerate(self.values):
            if values and values[-1] == v:
                keep[-1] = i + 1
            else:
                keep.append(i + 1)
                values.append(v)
        b, k = self.breaks, self.keys
        return StepFn([b[i] for i in keep], values, self.base_value,
                      lattice=(self.den, [k[i] for i in keep]))

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
        pts, lattice, fc, gc = _walk(f, g)
        return pts, lattice, [f.values[j] for j in fc], [g.values[j] for j in gc]

    def zip_with(self, other: "StepFn", op) -> "StepFn":
        pts, lattice, fv, gv = self._common(self, other)
        return StepFn(pts, [op(a, b) for a, b in zip(fv, gv)],
                      op(self.base_value, other.base_value),
                      lattice=lattice).merged()

    def map(self, op) -> "StepFn":
        return StepFn(self.breaks, [op(v) for v in self.values],
                      op(self.base_value), lattice=(self.den, self.keys)).merged()

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
        _, _, fv, gv = self._common(self, other)
        return self.base_value <= other.base_value and all(
            a <= b for a, b in zip(fv, gv))

    # -- jumps / variation -------------------------------------------------------

    def variation(self):
        """Total variation on [lo, hi]."""
        xs = [self.base_value, *self.values]
        den, nums = _lattice(xs)
        if den in (None, 1):  # as stored, so int data stays int
            den, nums = None, xs
        v = abs(nums[1] - nums[0])
        for i in range(2, len(nums)):
            v += abs(nums[i] - nums[i - 1])
        return _q(v, den)

    # -- integration and norms ----------------------------------------------------

    def _running(self, zero):  # integrals from lo to each break
        return _sums(self.values, self.breaks, (self.den, self.keys), zero)

    def integral(self, a=None, b=None):
        """Exact integral over [a, b] (defaults: whole domain)."""
        if (a is None or a == self.lo) and (b is None or b == self.hi):
            acc, _, _, den = self._running(0)
            return _q(acc[-1], den)
        return super().integral(a, b)

    def cumulative(self):
        """Exact running integral x -> int_lo^x, as a PiecewisePoly."""
        zero = Fraction(0) if self.exact else 0.0
        acc, xs, bs, den = self._running(zero)
        # on (b_i, b_{i+1}]: acc_i + v*(x - b_i)
        coeffs = [(_q(acc[i] - x * bs[i], den), v)
                  for i, (x, v) in enumerate(zip(xs, self.values))]
        return PiecewisePoly(self.breaks, coeffs, base_value=zero,
                             lattice=(self.den, self.keys))

    def sup_norm(self):
        return max(abs(self.base_value), max(abs(v) for v in self.values))

    def l1_norm(self, a=None, b=None):
        f = self if a is None and b is None else self.restrict(
            a if a is not None else self.lo, b if b is not None else self.hi)
        if not f.exact:
            return self.abs().integral(a, b)
        acc, _, _, den = _sums(f.values, f.breaks, (f.den, f.keys), 0, absolute=True)
        return _q(acc[-1], den)

    def alexiewicz_norm(self):
        """sup over subintervals of |integral|, via cumulative extrema."""
        acc, _, _, den = self._running(Fraction(0) if self.exact else 0.0)
        return _q(max(acc) - min(acc), den)

    def alexiewicz_extrema(self):
        """Breakpoints attaining the cumulative max and min (the first, on
        ties)."""
        acc = self._running(Fraction(0) if self.exact else 0.0)[0]
        at = range(len(acc))
        return (self.breaks[min(at, key=acc.__getitem__)],
                self.breaks[max(at, key=acc.__getitem__)])

    def as_poly(self) -> "PiecewisePoly":
        """Degree-0 piecewise polynomial view."""
        return PiecewisePoly(self.breaks, [(v,) for v in self.values],
                             self.base_value, lattice=(self.den, self.keys))

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

    def __init__(self, breaks, coeffs, base_value=None, *, lattice=None):
        self.coeffs = [tuple(c) for c in coeffs]
        exact = self._set_breaks(breaks, len(self.coeffs), lattice)
        if base_value is None:
            base_value = self._horner(self.coeffs[0], self.breaks[0])
        self.base_value = base_value
        self.exact = (exact and _is_exact([base_value])
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
        pts, lattice, ia, ib = _walk(self, other)
        coeffs = [op(self.coeffs[i], other.coeffs[j]) for i, j in zip(ia, ib)]
        scalar = {_poly_add: add, _poly_mul: mul}[op]
        return PiecewisePoly(pts, coeffs, scalar(self.base_value, other.base_value),
                             lattice=lattice)

    def __add__(self, other):
        if isinstance(other, PiecewisePoly):
            return self.zip_with(other, _poly_add)
        return PiecewisePoly(self.breaks,
                             [_poly_add(c, (other,)) for c in self.coeffs],
                             self.base_value + other, lattice=(self.den, self.keys))

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, k):
        return PiecewisePoly(self.breaks, [tuple(k * a for a in c) for c in self.coeffs],
                             k * self.base_value, lattice=(self.den, self.keys))

    def __mul__(self, other):
        if isinstance(other, PiecewisePoly):
            return self.zip_with(other, _poly_mul)
        return self.__rmul__(other)

    def cumulative(self):
        coeffs = []
        zero = acc = Fraction(0) if self.exact else 0.0
        for i, c in enumerate(self.coeffs):
            anti = _poly_antiderivative(c)
            off = acc - self._horner(anti, self.breaks[i])
            coeffs.append(_poly_add(anti, (off,)))
            acc = acc + self._horner(anti, self.breaks[i + 1]) - self._horner(anti, self.breaks[i])
        return PiecewisePoly(self.breaks, coeffs, base_value=zero,
                             lattice=(self.den, self.keys))

    def variation(self):
        """Exact total variation for cells of degree <= 2."""
        total, prev = 0, self.base_value
        for i, c in enumerate(self.coeffs):
            l, r = self.breaks[i], self.breaks[i + 1]
            total += abs(self._horner(c, l) - prev)  # the jump entering the cell
            if len(c) == 2:
                total += abs(c[1]) * (r - l)
            elif len(c) == 3:
                vertex = -c[1] / (2 * c[2]) if c[2] != 0 else None
                pts = [l] + ([vertex] if vertex is not None and l < vertex < r else []) + [r]
                for p, q in zip(pts, pts[1:]):
                    total += abs(self._horner(c, q) - self._horner(c, p))
            elif len(c) > 3:
                raise NotImplementedError("variation only for degree <= 2 cells")
            prev = self._horner(c, r)
        return total


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


def random_stepfn(rng, lo=0, hi=1, max_cells=8, value_range=6) -> StepFn:
    """Seeded random exact step function on [lo, hi]."""
    lo, hi = Fraction(lo), Fraction(hi)
    k = int(rng.integers(1, max_cells + 1))
    cuts = set()
    while len(cuts) < k - 1:
        den = int(rng.choice(_DENOMS)) * 4
        num = int(rng.integers(1, den))
        c = lo + (hi - lo) * Fraction(num, den)
        if lo < c < hi:
            cuts.add(c)
    breaks = [lo] + sorted(cuts) + [hi]
    values = [Fraction(int(rng.integers(-value_range, value_range + 1)),
                       int(rng.choice(_DENOMS)))
              for _ in range(len(breaks) - 1)]
    return StepFn(breaks, values)
