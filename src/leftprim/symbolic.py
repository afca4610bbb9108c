"""Left-regulated functions as expression trees with branch-aware evaluation.

Expression nodes are the package's one function protocol.  Leaves hold exact
step and piecewise-polynomial data (:class:`StepLeaf`, :class:`PolyLeaf`),
the truncated oscillatory series built from ``frac(n t)`` compositions,
Heaviside steps, monomials, and the ``t * trig(1/t)`` shapes; sums,
scalings, products, pointwise extremes and absolute values combine them,
each with one combine of its children's values that serves the point, the
domain-minimum and the array paths alike.  Every node knows

* its value with one-sided branch selection (``side`` -1/0/+1 for left
  limit / value / right limit); by convention the value at a declared jump
  is the left-limit branch, which makes every family left-continuous by
  construction,
* its exact jump set (rationals, as ``Fraction``) on a query interval,
* certified oscillation and sup bounds on arrays of cells that do not
  straddle a declared cut, which drive the oscillation-partition refinement
  (the sup bound defaults to |f(v)| + osc on (u, v]),
* a closed-form integral where one exists (``None`` otherwise),
* a singularity class used by the integrability classifier,
* its exact routes (``data``, ``step``, ``norm``, ``cell_sum``), which the
  exact leaves answer from their data and every other node with ``None``,
  where the caller takes its numeric route.

One function, ``_split``, picks the branch at a jump of the frac and
Heaviside leaves, for points and arrays alike: exactly at a rational point,
and within ``SNAP`` of a jump for a float, so that rational jump locations
survive the round trip through binary floats.  It is the only reader of
``SNAP``: the ``t * trig(1/t)`` shapes, their derivative factors and ``1/t``
decide t = 0 exactly, and evaluate a point through their array kernel.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .quadrature import oscillatory_t_trig
from .stepfn import _lattice, _q, _sums, float_cells

SNAP = 1e-9

# singularity classes, ordered by severity
BOUNDED, ABS, COND, DIV = 0, 1, 2, 3


class SecondKindLimit(ArithmeticError):
    """The requested one-sided limit does not exist."""


def _rationals_in(lo, hi, den):
    """Multiples of 1/den in [lo, hi]."""
    lo_n = math.ceil(Fraction(lo) * den) if not isinstance(lo, float) \
        else math.ceil(lo * den - 1e-12)
    hi_n = math.floor(Fraction(hi) * den) if not isinstance(hi, float) \
        else math.floor(hi * den + 1e-12)
    return [Fraction(k, den) for k in range(lo_n, hi_n + 1)]


def _split(t, n, side=0):
    """(floor, frac) of z = n t on the requested branch.

    The one place that decides whether t sits on a jump k/n: exactly for a
    ``Fraction`` or ``int`` t, within ``SNAP * n`` for a float or an array.
    On a jump the left branch (side <= 0) is (k - 1, 1.0) and the right
    limit (side > 0) is (k, 0.0)."""
    if isinstance(t, (Fraction, int)):
        z = Fraction(t) * n
        fl = math.floor(z)
        # a rational t is never just short of a jump
        phi, above, below = float(z - fl), z == fl, False
    else:
        # a float point stays a Python scalar: no array for one point
        z = t * n if isinstance(t, float) else np.asarray(t, dtype=float) * n
        fl = np.floor(z) if isinstance(z, np.ndarray) else math.floor(z)
        phi = z - fl
        above, below = phi < SNAP * n, phi > 1 - SNAP * n
    on = above | below
    fl, at = (fl + below, 0.0) if side > 0 else (fl - above, 1.0)
    if isinstance(on, np.ndarray):
        return fl, np.where(on, at, phi)
    return fl, at if on else phi


def _frac_cell(n, us, vs):
    """phi-range (phi_lo, phi_hi] of frac(n t) over cut-free cells (u, v]."""
    base, phi_hi = _split(vs, n)
    return np.maximum(n * us - base, 0.0), phi_hi


def _merge_jumps(lists):
    lists = list(lists)
    if len(lists) == 1:
        return lists[0]
    out = set()
    for l in lists:
        out.update(l)
    return sorted(out)


def primitive_difference(P, a, b):
    """(P(b) - P(a), rounding bound) for a registered primitive P."""
    pb, pa = P.value(b), P.value(a)
    return pb - pa, 1e-15 * (abs(pb) + abs(pa))


class Expr:
    """Base node; subclasses override the protocol methods.  ``kind`` labels
    the node for :attr:`leftprim.funcspace.RegulatedFn.kind`."""

    kind = "symbolic"
    data = None  # the exact StepFn / PiecewisePoly of an exact leaf

    def ev_min(self, t):
        """Value at a domain minimum t: the right branch (right continuity
        at the minimum), or the value itself where no right limit exists."""
        try:
            return self.ev(t, +1)
        except SecondKindLimit:
            return self.ev(t, 0)

    def jumps(self, lo, hi):
        """Exact discontinuity points in [lo, hi]."""
        return []

    def bound_cuts(self, lo, hi):
        """Points osc/sup bound cells must not straddle (defaults to jumps)."""
        return self.jumps(lo, hi)

    # Every node gives its certified bounds in array form only, on cells
    # (u, v] that straddle none of its bound cuts: osc_bound_array(us, vs)
    # bounds the oscillation, sup_bound_array(us, vs) bounds |f|.  A node
    # left continuous at v has |f| <= |f(v)| + osc on (u, v]; that is the
    # |f| bound unless the node has a cheaper closed form.

    def sup_bound_array(self, us, vs):
        return np.abs(self.ev_array(vs)) + self.osc_bound_array(us, vs)

    def integral(self, a, b, tol=1e-12):
        """(integral over [a, b], error bound) in closed form, or None."""
        return None

    def sing_class(self) -> int:
        return BOUNDED

    def step(self, lo=None, hi=None):
        """Exact step data, restricted to [lo, hi] when given."""
        return None

    def norm(self, kind, lo, hi, grid):
        """The alexiewicz / l1 / sup norm of exact data on [lo, hi]."""
        return None

    def cell_sum(self, w, lo, hi):
        """sum_k v_k (w(y_k) - w(x_k)) over the step cells (x_k, y_k] on
        [lo, hi], ``w`` mapping the list of breaks to their weights."""
        return None


class _ExactLeaf(Expr):
    """Exact step or piecewise-polynomial data; ``ev`` returns the data's own
    values (exact rationals when the data is exact)."""

    def __init__(self, data):
        self.data = data

    def ev(self, t, side=0):
        if side < 0:
            return self.data.left_limit(t)
        if side > 0:
            return self.data.right_limit(t)
        return self.data(t)

    def ev_min(self, t):
        return self.data(t)  # the stored base value

    def jumps(self, lo, hi):
        return [b for b in self.data.jump_points() if lo <= b <= hi]

    def bound_cuts(self, lo, hi):
        return [Fraction(b) for b in self.data.breaks if lo <= b <= hi]

    def integral(self, a, b, tol=1e-12):
        return self.data.integral(a, b), 0.0


class StepLeaf(_ExactLeaf):
    """A :class:`~leftprim.stepfn.StepFn`: constant between its breakpoints.

    The array forms of both exact leaves read a float ``t == float(b)`` on
    the cell closing at the break b (the left branch, as ``_split`` picks
    for the jump leaves), so a bound cell ``(u, float(b)]`` cut at b holds
    only the values its bound covers, even where ``float(b) > b``."""

    kind = "step"

    def ev_array(self, ts):
        sf = self.data
        cells = float_cells(sf.breaks, ts, exact=False)
        vals = np.array([float(v) for v in sf.values])
        return np.where(cells < 0, float(sf.base_value),
                        vals[np.clip(cells, 0, len(vals) - 1)])

    def osc_bound_array(self, us, vs):
        return np.zeros(np.shape(us))  # cells are cut at every breakpoint

    def step(self, lo=None, hi=None):
        sf = self.data
        if lo is None or (lo, hi) == (sf.lo, sf.hi):
            return sf
        return sf.restrict(Fraction(lo), Fraction(hi))

    def norm(self, kind, lo, hi, grid):
        return getattr(self.step(lo, hi), f"{kind}_norm")()

    def cell_sum(self, w, lo, hi):
        sf = self.step(lo, hi)
        ws = w(sf.breaks)
        # as ints over one denominator on exact data
        acc, _, _, den = _sums(sf, ws, _lattice(ws) if sf.exact else (None, None), 0)
        return _q(acc[-1], den)


class PolyLeaf(_ExactLeaf):
    """A :class:`~leftprim.stepfn.PiecewisePoly`."""

    kind = "poly"

    def ev_array(self, ts):
        return self.data.eval_cells(ts, float_cells(self.data.breaks, ts,
                                                    exact=False))

    def osc_bound_array(self, us, vs):
        """Lipschitz bound of the polynomial on the cell closing at vs,
        |a_k| k max(|u|,|v|,1)^(k-1) (v - u)."""
        us, vs = np.asarray(us, dtype=float), np.asarray(vs, dtype=float)
        cells = float_cells(self.data.breaks, vs, exact=False)
        p = self.data
        idx = np.clip(cells, 0, len(p.coeffs) - 1)
        deg = max(len(c) for c in p.coeffs)
        cmat = np.array([[abs(float(c[k])) if k < len(c) else 0.0
                          for k in range(deg)] for c in p.coeffs])
        scale = np.maximum(np.maximum(np.abs(us), np.abs(vs)), 1.0)
        lip = np.zeros_like(us)
        for k in range(1, deg):
            lip = lip + cmat[idx, k] * k * scale ** (k - 1)
        return lip * (vs - us)

    def norm(self, kind, lo, hi, grid):
        """Sampled at the breaks plus a dense grid (sup and the cumulative
        extrema are attained to O(h^2)): an estimate, not a bound."""
        lo, hi = float(lo), float(hi)
        ts = np.unique(np.concatenate([
            np.linspace(lo, hi, grid + 1),
            np.array([float(b) for b in self.data.breaks if lo <= float(b) <= hi])]))
        vals = self.ev_array(ts)
        if kind == "sup":
            return float(np.max(np.abs(vals)))
        if kind == "l1":
            return float(np.trapezoid(np.abs(vals), ts))
        cvals = PolyLeaf(self.data.cumulative()).ev_array(ts)
        return float(np.max(cvals) - np.min(cvals))


class Monomial(Expr):
    """t**k for integer k >= 0."""

    def __init__(self, k=1):
        if k < 0:
            raise ValueError(f"monomial power must be >= 0, got {k}")
        self.k = k

    def ev(self, t, side=0):
        # numpy's power on a 0-d array, not the float's libm pow: the two
        # differ in the last bit at some t
        return float(self.ev_array(float(t)))

    def ev_array(self, ts):
        return np.asarray(ts, dtype=float) ** self.k

    def osc_bound_array(self, us, vs):
        out = np.abs(vs ** self.k - us ** self.k)
        if self.k % 2 == 0:  # an even power takes its least value 0 ** k at 0
            across = (us < 0) & (vs > 0)
            out = np.where(across, np.maximum(us ** self.k, vs ** self.k)
                           - 0.0 ** self.k, out)
        return out

    def sup_bound_array(self, us, vs):
        return np.maximum(np.abs(us) ** self.k, np.abs(vs) ** self.k)


class _JumpLeaf(Expr):
    """A leaf that is one formula ``_of(floor, frac)`` of z = n t, read on
    the branch :func:`_split` picks, so its point and array paths agree."""

    def __init__(self, n=1):
        self.n = n

    def ev(self, t, side=0):
        return float(self._of(*_split(t, self.n, side)))

    def ev_array(self, ts):
        return self._of(*_split(ts, self.n))


class Heaviside(_JumpLeaf):
    """H1: 0 for t <= 0, 1 for t > 0 (left continuous)."""

    def _of(self, fl, phi):
        return (fl >= 0) * 1.0

    def jumps(self, lo, hi):
        return [Fraction(0)] if lo <= 0 <= hi else []

    def osc_bound_array(self, us, vs):
        return np.where((us >= 0) | (vs <= 0), 0.0, 1.0)


class SeriesTerm(_JumpLeaf):
    """Common machinery for terms built on phi = frac(n t).

    Subclasses give the term's profile kernel ``g_array``, one formula that
    serves arrays and, through ``ev``, single points alike (so both paths
    round identically), and, for the generic bounds, ``g_sup`` / ``g_lip``:
    array bounds of |g| and of its Lipschitz constant over phi-ranges
    (phi_lo, phi_hi].
    """

    continuous = False

    def _of(self, fl, phi):
        return self.g_array(phi)

    def ev(self, t, side=0):
        # g is singular at phi = 0, the right limit at a jump
        fl, phi = _split(t, self.n, side)
        if phi == 0.0:
            if self.continuous:
                return 0.0
            raise SecondKindLimit(f"no right limit at jump of order-{self.n} term")
        return float(self._of(fl, phi))

    def jumps(self, lo, hi):
        return [] if self.continuous else _rationals_in(lo, hi, self.n)

    def bound_cuts(self, lo, hi):
        return _rationals_in(lo, hi, self.n)

    def osc_bound_array(self, us, vs):
        phi_lo, phi_hi = _frac_cell(self.n, us, vs)
        touch = phi_lo <= 0
        safe_lo = np.where(touch, 0.5, phi_lo)
        with np.errstate(divide="ignore", invalid="ignore"):
            sup = self.g_sup(safe_lo, phi_hi)
            lip = self.g_lip(safe_lo, phi_hi)
            sup_touch = self.g_sup(np.zeros_like(phi_lo), phi_hi)
        out = np.minimum(2 * sup, lip * (phi_hi - phi_lo))
        return np.where(touch, 2 * sup_touch, out)

    def sup_bound_array(self, us, vs):
        return self.g_sup(*_frac_cell(self.n, us, vs))


class OscCosTerm(SeriesTerm):
    """(1/n^2) (2 phi cos(pi/(2 phi)) + (pi/2) sin(pi/(2 phi))).

    Bounded, with a discontinuity of the second kind (from the right) at
    every jump of phi.
    """

    def g_array(self, phi):
        a = math.pi / (2 * phi)
        return (2 * phi * np.cos(a) + (math.pi / 2) * np.sin(a)) / self.n ** 2

    def g_sup(self, phi_lo, phi_hi):
        return (2 * phi_hi + math.pi / 2) / self.n ** 2

    def g_lip(self, phi_lo, phi_hi):
        return (2 + math.pi / phi_lo + math.pi ** 2 / (4 * phi_lo ** 2)) / self.n ** 2


class SmoothSquareCosTerm(SeriesTerm):
    """(phi^2 / n^3) cos(pi/(2 phi)); continuous (both one-sided limits 0)."""

    continuous = True

    def g_array(self, phi):
        # the product, not phi ** 2: on a float, ** calls libm pow, which
        # differs from the product in the last bit at some phi
        return (phi * phi) * np.cos(math.pi / (2 * phi)) / self.n ** 3

    def g_sup(self, phi_lo, phi_hi):
        return phi_hi ** 2 / self.n ** 3

    def g_lip(self, phi_lo, phi_hi):
        # |d/dphi| = |2 phi cos + (pi/2) sin| <= 2 + pi/2 globally
        return (2 + math.pi / 2) / self.n ** 3

    def osc_bound_array(self, us, vs):
        phi_lo, phi_hi = _frac_cell(self.n, us, vs)
        return np.minimum(2 * self.g_sup(phi_lo, phi_hi),
                          self.g_lip(phi_lo, phi_hi) * (phi_hi - phi_lo))


class HardOscTerm(SeriesTerm):
    """cos(pi/(2 phi)) + (pi/(2 phi)) sin(pi/(2 phi)): unbounded, conditional."""

    def g_array(self, phi):
        a = math.pi / (2 * phi)
        return np.cos(a) + a * np.sin(a)

    def g_sup(self, phi_lo, phi_hi):
        return np.where(phi_lo <= 0, np.inf, 1 + math.pi / (2 * np.maximum(phi_lo, 1e-300)))

    def g_lip(self, phi_lo, phi_hi):
        p = np.maximum(phi_lo, 1e-300)
        return math.pi / p ** 2 + math.pi ** 2 / (4 * p ** 3)

    def sing_class(self):
        return COND


class SmoothPhiCosTerm(SeriesTerm):
    """(phi / n) cos(pi/(2 phi)); continuous."""

    continuous = True

    def g_array(self, phi):
        return phi * np.cos(math.pi / (2 * phi)) / self.n

    def g_sup(self, phi_lo, phi_hi):
        return phi_hi / self.n

    def g_lip(self, phi_lo, phi_hi):
        return (1 + math.pi / (2 * phi_lo)) / self.n


class SqrtRecipTerm(SeriesTerm):
    """1 / (2 sqrt(phi)): absolutely integrable power singularity."""

    def g_array(self, phi):
        return 0.5 / np.sqrt(phi)

    def g_sup(self, phi_lo, phi_hi):
        return np.where(phi_lo <= 0, np.inf, 0.5 / np.sqrt(np.maximum(phi_lo, 1e-300)))

    def osc_bound_array(self, us, vs):
        phi_lo, phi_hi = _frac_cell(self.n, us, vs)
        # monotone in phi: exact oscillation
        return self.g_sup(phi_lo, phi_hi) - 0.5 / np.sqrt(phi_hi)

    def sing_class(self):
        return ABS


class SqrtFloorTerm(SeriesTerm):
    """([n t] + sqrt(phi)) / n; continuous across jumps of the floor."""

    continuous = True
    ev = _JumpLeaf.ev  # the formula holds at phi = 0

    def _of(self, fl, phi):
        return (fl + np.sqrt(phi)) / self.n

    def osc_bound_array(self, us, vs):
        phi_lo, phi_hi = _frac_cell(self.n, us, vs)
        return (np.sqrt(phi_hi) - np.sqrt(np.maximum(phi_lo, 0.0))) / self.n

    def sup_bound_array(self, us, vs):
        return (np.abs(_split(vs, self.n)[0]) + 1) / self.n


class LeftFracTerm(SeriesTerm):
    """(1 + n t - floor_left(n t)) / n**p: piecewise linear, left continuous."""

    def __init__(self, n, p):
        super().__init__(n)
        self.p = p

    ev = _JumpLeaf.ev  # phi is 0.0 for the right limit at a jump, so 0.0 there

    def _of(self, fl, phi):
        return phi / self.n ** self.p

    def osc_bound_array(self, us, vs):
        phi_lo, phi_hi = _frac_cell(self.n, us, vs)
        return (phi_hi - np.maximum(phi_lo, 0.0)) / self.n ** self.p

    def sup_bound_array(self, us, vs):
        return np.full(np.shape(us), 1.0 / self.n ** self.p)


@functools.lru_cache(maxsize=64)
def _t_trig_oscillatory_part(trig, a, b, tol):
    """Certified int_a^b t trig(1/t) dt; pure, so memoised process-wide."""
    return oscillatory_t_trig(trig, a, b, tol=tol)


class Shape(Expr):
    """t (1 + sign*trig(1/t)) for t > 0, 0 at t = 0; continuous, nonnegative."""

    def __init__(self, trig, sign):
        if trig not in ("sin", "cos"):
            raise ValueError(f"unsupported trig factor {trig!r}")
        self.trig = trig
        self.sign = sign
        self._f = np.sin if trig == "sin" else np.cos

    def ev(self, t, side=0):
        return float(self.ev_array(float(t)))

    def ev_array(self, ts):
        ts = np.asarray(ts, dtype=float)
        out = np.zeros_like(ts)
        m = ts > 0
        t = ts[m]
        out[m] = t * (1 + self.sign * self._f(1.0 / t))
        return out

    def osc_bound_array(self, us, vs):
        top = self.sup_bound_array(us, vs)  # 0 <= f <= 2 max(t, 0)
        p = np.maximum(us, 1e-300)
        return np.where(us <= 0, top, np.minimum(top, (2 + 1.0 / p) * (vs - us)))

    def sup_bound_array(self, us, vs):
        return 2 * np.maximum(np.asarray(vs, dtype=float), 0.0)

    def integral(self, a, b, tol=1e-12):
        """Exact-splitting integral: t^2/2 term plus certified oscillatory part."""
        osc, err = _t_trig_oscillatory_part(self.trig, float(a), float(b), float(tol))
        return (float(b) ** 2 - float(a) ** 2) / 2 + self.sign * osc, err


class GFactor(Expr):
    """(1/t) trig(1/t) + other_trig(1/t) + 1; the derivative of a Shape.

    kind "A": (1/t) cos(1/t) - sin(1/t) + 1   (primitive t (1 - sin(1/t)))
    kind "B": (1/t) sin(1/t) + cos(1/t) + 1   (primitive t (1 + cos(1/t)))
    Value at t = 0 is defined as 0.
    """

    def __init__(self, kind):
        if kind not in ("A", "B"):
            raise ValueError(f"unknown GFactor kind {kind!r}")
        self.variant = kind

    def primitive_shape(self) -> Shape:
        return Shape("sin", -1) if self.variant == "A" else Shape("cos", +1)

    def ev(self, t, side=0):
        if side > 0 and t <= 0:
            raise SecondKindLimit("no right limit at 0")
        return float(self.ev_array(float(t)))

    def ev_array(self, ts):
        ts = np.asarray(ts, dtype=float)
        out = np.zeros_like(ts)
        m = ts > 0
        r = 1.0 / ts[m]
        if self.variant == "A":
            out[m] = r * np.cos(r) - np.sin(r) + 1
        else:
            out[m] = r * np.sin(r) + np.cos(r) + 1
        return out

    def osc_bound_array(self, us, vs):
        us = np.asarray(us, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            lip = 1 / us ** 2 + 1 / us ** 3 + 1 / us ** 2 + 1 / us ** 2
            out = np.minimum(2 * self.sup_bound_array(us, vs), lip * (vs - us))
        return np.where(us > 0, out, np.inf)

    def sup_bound_array(self, us, vs):
        us = np.asarray(us, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(us > 0, 1.0 / us + 2, np.inf)

    def sing_class(self):
        return COND

    def integral(self, a, b, tol=1e-12):
        s = self.primitive_shape()
        return s.ev(b) - s.ev(a), 1e-15


class _Composite(Expr):
    """A node built from child expressions: jumps and cuts merge, the
    singularity class is the worst of the children's, every evaluation
    path defaults to ``_op`` of the children's values on that path, and
    both bounds to ``_bound`` of an iterator over the children's bounds of
    that kind (a sum adds them as they come)."""

    def __init__(self, *children):
        self.children = children

    def ev(self, t, side=0):
        return self._op(*(x.ev(t, side) for x in self.children))

    def ev_min(self, t):
        return self._op(*(x.ev_min(t) for x in self.children))

    def ev_array(self, ts):
        return self._op(*(x.ev_array(ts) for x in self.children))

    def jumps(self, lo, hi):
        return _merge_jumps(x.jumps(lo, hi) for x in self.children)

    def bound_cuts(self, lo, hi):
        return _merge_jumps(x.bound_cuts(lo, hi) for x in self.children)

    def osc_bound_array(self, us, vs):
        return self._bound(us, (x.osc_bound_array(us, vs) for x in self.children))

    def sup_bound_array(self, us, vs):
        return self._bound(us, (x.sup_bound_array(us, vs) for x in self.children))

    def sing_class(self):
        return max((x.sing_class() for x in self.children), default=BOUNDED)


class Scale(_Composite):
    """c * inner.  ``c`` stays exact in ``ev`` (a Fraction times exact data
    is exact); the array path uses float(c).  ``primitive`` is an optional
    registered antiderivative of ``inner`` (anything with ``value(t)``)."""

    kind = "lincomb"

    def __init__(self, c, inner, primitive=None):
        super().__init__(inner)
        self.c = c
        self.inner = inner
        self.primitive = primitive

    def _op(self, v):
        return self.c * v

    def ev_array(self, ts):
        return float(self.c) * self.inner.ev_array(ts)

    def jumps(self, lo, hi):
        return [] if self.c == 0 else self.inner.jumps(lo, hi)

    def _bound(self, us, bounds):
        return abs(float(self.c)) * next(bounds)

    def integral(self, a, b, tol=1e-12):
        part = primitive_difference(self.primitive, a, b) \
            if self.primitive is not None else self.inner.integral(a, b, tol)
        if part is None:
            return None
        return float(self.c) * part[0], abs(float(self.c)) * part[1]

    def sing_class(self):
        return BOUNDED if self.c == 0 else self.inner.sing_class()


class Sum(_Composite):
    kind = "lincomb"

    def __init__(self, terms):
        flat = []
        for t in terms:
            if isinstance(t, Sum):
                flat.extend(t.children)
            else:
                flat.append(t)
        super().__init__(*flat)

    def _op(self, *values):
        return sum(values)

    def ev_array(self, ts):
        # accumulates in place from zeros, so an empty sum is an array too
        ts = np.asarray(ts, dtype=float)
        acc = np.zeros_like(ts)
        for x in self.children:
            acc += x.ev_array(ts)
        return acc

    def _bound(self, us, bounds):
        return sum(bounds, np.zeros(np.shape(us)))

    def integral(self, a, b, tol=1e-12):
        """Term by term, only when every term has a closed form."""
        total = err = 0.0
        for x in self.children:
            part = x.integral(a, b, tol)
            if part is None:
                return None
            total += part[0]
            err += part[1]
        return total, err


class Product(_Composite):
    kind = "product"

    def __init__(self, a, b):
        super().__init__(a, b)
        self.a, self.b = a, b

    def _op(self, va, vb):
        return va * vb

    def ev(self, t, side=0):
        try:
            va = self.a.ev(t, side)
        except SecondKindLimit:
            # a bounded-to-zero partner can still force the limit to zero
            if self.b.ev(t, side) == 0.0:
                return 0.0
            raise
        try:
            return va * self.b.ev(t, side)
        except SecondKindLimit:
            if va == 0.0:
                return 0.0
            raise

    def osc_bound_array(self, us, vs):
        sa, sb = self.a.sup_bound_array(us, vs), self.b.sup_bound_array(us, vs)
        return (_times(sa, self.b.osc_bound_array(us, vs))
                + _times(sb, self.a.osc_bound_array(us, vs)))

    def sup_bound_array(self, us, vs):
        return _times(self.a.sup_bound_array(us, vs), self.b.sup_bound_array(us, vs))


def _times(x, y):
    """x * y for bound arrays, 0 where either is an exact 0 (a factor that is 0
    or constant on the cell), even against an infinite bound."""
    with np.errstate(invalid="ignore"):
        return np.where((x == 0) | (y == 0), 0.0, x * y)


class PointwiseExtreme(_Composite):
    """max or min of two expressions; preserves left continuity."""

    def __init__(self, a, b, is_max=True):
        super().__init__(a, b)
        self.a, self.b, self.is_max = a, b, is_max

    def _op(self, va, vb):
        return max(va, vb) if self.is_max else min(va, vb)

    def ev_array(self, ts):
        op = np.maximum if self.is_max else np.minimum
        return op(self.a.ev_array(ts), self.b.ev_array(ts))

    def _bound(self, us, bounds):
        return np.maximum(*bounds)


class AbsExpr(_Composite):
    def _op(self, v):
        return abs(v)

    def _bound(self, us, bounds):
        return next(bounds)


class RecipT(Expr):
    """1/t: divergent at 0, the canonical non-integrable example."""

    def ev(self, t, side=0):
        if t == 0:
            raise SecondKindLimit("1/t blows up at 0")
        return float(self.ev_array(float(t)))

    def ev_array(self, ts):
        with np.errstate(divide="ignore"):
            return 1.0 / np.asarray(ts, dtype=float)

    def osc_bound_array(self, us, vs):
        us, vs = np.asarray(us, dtype=float), np.asarray(vs, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where((us <= 0) & (vs >= 0), np.inf, np.abs(1 / us - 1 / vs))

    def sing_class(self):
        return DIV


# ---------------------------------------------------------------------------
# truncated series of the catalogued families


def series(term_cls, m, **kw):
    return Sum([term_cls(n, **kw) if kw else term_cls(n) for n in range(1, m + 1)])
