"""Linear walks of the exact step algebra against naive bisection references,
the Stieltjes right-limit walk at float/rational ties, and comparison-count
guards on the cost of merges and restrictions."""

import math
from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest

from leftprim import gauge
from leftprim.funcspace import RegulatedFn
from leftprim.intervals import DomainError
from leftprim.stepfn import (PiecewisePoly, StepFn, _poly_add, _poly_mul,
                             float_cells, random_stepfn)

F = Fraction


# -- naive references: sort the break union, bisect every point ---------------


def ref_value(f, t):
    return f.base_value if t == f.lo else f.values[bisect_left(f.breaks, t, lo=1) - 1]


def ref_common(f, g):
    pts = sorted(set(f.breaks).union(g.breaks))
    return (pts, [ref_value(f, t) for t in pts[1:]],
            [ref_value(g, t) for t in pts[1:]])


def ref_zip(f, g, op):
    pts, fv, gv = ref_common(f, g)
    return StepFn(pts, [op(a, b) for a, b in zip(fv, gv)],
                  op(f.base_value, g.base_value)).merged()


def ref_refined(f, extra):
    pts = sorted(set(f.breaks).union(b for b in extra if f.lo < b < f.hi))
    return StepFn(pts, [ref_value(f, t) for t in pts[1:]], f.base_value)


def ref_restrict(f, lo, hi):
    r = ref_refined(f, [lo, hi])
    i0, i1 = r.breaks.index(lo), r.breaks.index(hi)
    base = ref_value(f, lo) if lo > f.lo else f.base_value
    return StepFn(r.breaks[i0:i1 + 1], r.values[i0:i1], base)


def ref_poly_zip(p, q, op):
    pts = sorted(set(p.breaks).union(q.breaks))
    cell = lambda r, t: r.coeffs[bisect_left(r.breaks, t, lo=1) - 1]
    return pts, [op(cell(p, t), cell(q, t)) for t in pts[1:]]


def ref_g_right(g, t):
    if t >= g.hi:
        return g(g.hi)
    j = bisect_left(g.breaks, t)
    if g.breaks[j] == t:
        j += 1
    if isinstance(g, StepFn):
        return g.values[j - 1]
    return PiecewisePoly._horner(g.coeffs[j - 1], t)


def same(a, b):
    """Equal data, objects of the same types, same base value."""
    return (a.breaks == b.breaks and a.values == b.values
            and [type(x) for x in a.breaks] == [type(x) for x in b.breaks]
            and a.base_value == b.base_value)


def grid_step(rng, den, cells):
    """Exact step on [0, 1] with breaks drawn from multiples of 1/den."""
    cuts = sorted(set(int(c) for c in rng.integers(1, den, size=cells - 1)))
    breaks = [F(0)] + [F(c, den) for c in cuts] + [F(1)]
    values = [F(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
              for _ in range(len(breaks) - 1)]
    return StepFn(breaks, values, F(int(rng.integers(-5, 6))))


OPS = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
       "mul": lambda a, b: a * b, "max": max, "min": min}


def pairs(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):  # shared breaks: small common denominators
        yield random_stepfn(rng, max_cells=12), random_stepfn(rng, max_cells=12)
    for _ in range(20):  # disjoint interior breaks: coprime denominators
        yield grid_step(rng, 7, 6), grid_step(rng, 11, 9)
    for _ in range(10):  # identical operands, and single-cell operands
        f = random_stepfn(rng, max_cells=12)
        yield f, f
        yield f, StepFn.constant(0, 1, F(int(rng.integers(-3, 4))))
        yield StepFn.constant(0, 1, F(1, 3)), f


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_zip_with_matches_bisect_reference(seed):
    for f, g in pairs(seed):
        for op in OPS.values():
            assert same(f.zip_with(g, op), ref_zip(f, g, op))
        assert f.le(g) == (f.base_value <= g.base_value and all(
            a <= b for a, b in zip(*ref_common(f, g)[1:])))


def test_merge_keeps_first_operand_objects_on_ties():
    f = StepFn([0, F(1, 2), 1], [F(1), F(2)])  # int ends
    g = StepFn([F(0), F(1, 4), F(1)], [F(3), F(5)])
    for a, b in ((f, g), (g, f)):
        for op in OPS.values():
            assert same(a.zip_with(b, op), ref_zip(a, b, op))


@pytest.mark.parametrize("seed", [0, 1])
def test_refined_matches_bisect_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        f = random_stepfn(rng, max_cells=10)
        extra = [F(int(rng.integers(-2, 30)), 24) for _ in range(int(rng.integers(0, 8)))]
        extra += extra[:2] + f.breaks[:2]  # duplicates, and breaks already present
        assert same(f.refined(extra), ref_refined(f, extra))


@pytest.mark.parametrize("seed", [0, 1])
def test_restrict_matches_bisect_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(30):
        f = random_stepfn(rng, max_cells=10)
        mids = [(a + b) / 2 for a, b in zip(f.breaks, f.breaks[1:])]
        ends = sorted(set(f.breaks + mids))  # breaks, both domain ends, between
        for _ in range(10):
            i, j = sorted(rng.choice(len(ends), size=2, replace=False))
            lo, hi = ends[i], ends[j]
            assert same(f.restrict(lo, hi), ref_restrict(f, lo, hi))
        assert same(f.restrict(f.lo, f.hi), ref_restrict(f, f.lo, f.hi))


def test_restrict_keeps_break_objects_at_its_ends():
    f = StepFn([0.0, 0.5, 1.0], [1.0, 2.0], 0.0)
    r = f.restrict(F(1, 2), F(1))
    assert r.breaks == [0.5, 1.0] and all(type(b) is float for b in r.breaks)
    assert same(r, ref_restrict(f, F(1, 2), F(1)))


def test_restrict_outside_domain_raises():
    f = StepFn([F(0), F(1)], [F(1)])
    for lo, hi in ((F(-1), F(1, 2)), (F(1, 2), F(2)), (F(1, 2), F(1, 2))):
        with pytest.raises(DomainError):
            f.restrict(lo, hi)


def random_poly(rng, den):
    cuts = sorted(set(int(c) for c in rng.integers(1, den, size=int(rng.integers(0, 5)))))
    breaks = [F(0)] + [F(c, den) for c in cuts] + [F(1)]
    coeffs = [tuple(F(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
                    for _ in range(int(rng.integers(1, 4))))
              for _ in range(len(breaks) - 1)]
    return PiecewisePoly(breaks, coeffs, F(int(rng.integers(-3, 4))))


def test_poly_zip_with_matches_bisect_reference():
    rng = np.random.default_rng(5)
    for _ in range(40):
        p, q = random_poly(rng, int(rng.choice([6, 7, 8]))), random_poly(rng, 8)
        for op in (_poly_add, _poly_mul):
            r = p.zip_with(q, op)
            assert (r.breaks, r.coeffs) == ref_poly_zip(p, q, op)
        assert p.refined(q.breaks).coeffs == ref_poly_zip(p, q, lambda a, b: a)[1]


# -- float points among exact breaks -------------------------------------------


def ref_cell(breaks, t, exact):
    """Bisect the float t into the exact breaks, or into their floats."""
    keys = breaks if exact else [float(b) for b in breaks]
    return bisect_left(keys, t) - 1


@pytest.mark.parametrize("exact", [True, False])
def test_float_cells_match_bisect_reference(exact):
    rng = np.random.default_rng(5)
    breaks = sorted({F(0), F(1)}.union(
        F(int(rng.integers(1, 60)), int(rng.integers(61, 90))) for _ in range(40)))
    fb = [float(b) for b in breaks]
    pts = (fb + [math.nextafter(x, 2) for x in fb]
           + [math.nextafter(x, -1) for x in fb] + list(rng.uniform(-0.1, 1.1, 54)))
    ts = np.array(pts[:len(pts) // 4 * 4]).reshape(-1, 4)
    got = float_cells(breaks, ts, exact=exact)
    assert got.shape == ts.shape
    assert got.tolist() == [[ref_cell(breaks, t, exact) for t in row]
                            for row in ts.tolist()]


def test_float_cells_readings_differ_only_above_inexact_breaks():
    breaks = [F(0), F(1, 5), F(1, 3), F(1, 2), F(1)]
    ts = np.array([float(b) for b in breaks])  # float(1/5) > 1/5, float(1/3) < 1/3
    assert float_cells(breaks, ts, exact=False).tolist() == [-1, 0, 1, 2, 3]
    assert float_cells(breaks, ts, exact=True).tolist() == [-1, 1, 1, 2, 3]
    assert float_cells(breaks, ts[1], exact=True) == 1  # a 0-d point


# -- Stieltjes right-limit walk -------------------------------------------------


def walk_vs_reference(g, ts):
    assert gauge._g_rights(g, ts) == [ref_g_right(g, t) for t in ts]


def test_right_limit_walk_at_float_rational_ties():
    g = StepFn([F(0), F(1, 4), F(1, 3), F(1, 2), F(1)], [F(1), F(2), F(3), F(4)])
    near = float(F(1, 3))  # ties float(1/3) in the walk, lies just below 1/3
    assert near < F(1, 3)
    walk_vs_reference(g, [0.0, 0.25, near, 0.5, 0.75, 1.0])
    assert gauge._g_rights(g, [0.25, near])[0] == 2  # 0.25 == 1/4: next cell
    assert gauge._g_rights(g, [near])[0] == 2         # below 1/3: same cell
    walk_vs_reference(g, [F(0), F(1, 4), F(1, 3), F(1)])
    p = PiecewisePoly(g.breaks, [(F(0), F(1)), (F(1), F(-1)), (F(2), F(3)), (F(5),)])
    walk_vs_reference(p, [0.0, 0.25, near, 0.5, 1.0])


def test_right_limit_walk_at_hi_and_below_lo():
    g = StepFn([F(0), F(1, 2), F(1)], [F(1), F(3)], F(0))
    walk_vs_reference(g, [0.5, 1.0])
    assert gauge._g_rights(g, [1.0, 2.0]) == [3, 3]  # g(b+) := g(b)
    with pytest.raises(DomainError):
        gauge._g_rights(g, [-0.5, 0.5])
    p = PiecewisePoly([F(0), F(1)], [(F(0), F(1))])
    with pytest.raises(DomainError):
        gauge._g_rights(p, [-0.5, 0.5])
    with pytest.raises(DomainError):  # the one-point path agrees
        gauge.mu_interval(p, F(-1, 2), F(1, 2))
    with pytest.raises(DomainError):
        p.left_limit(F(2))


def test_stieltjes_float_step_against_cellwise_reference():
    g = StepFn([F(0), F(1, 4), F(1, 3), F(1)], [F(1), F(3), F(6)], F(0))
    near = float(F(1, 3))
    f = StepFn([0.0, 0.25, near, 0.5, 1.0], [0.5, -1.25, 2.0, 0.75])
    want = 0
    for x, y, v in f.to_cells():
        want += v * (ref_g_right(g, y) - ref_g_right(g, x))
    got = gauge.stieltjes(RegulatedFn.from_step(f), g, 0.0, 1.0)
    assert got == want and repr(got) == repr(want)
    with pytest.raises(DomainError):  # F reaches below g's domain
        gauge.stieltjes(RegulatedFn.from_step(StepFn([-1.0, 1.0], [1.0])), g, -1.0, 1.0)


# -- the shared cell core: step data against its degree-0 polynomial view -----


def ref_integral(f, a, b):
    sign = -1 if a > b else 1
    a, b = min(a, b), max(a, b)
    return sign * sum((v * (min(r, b) - max(l, a)) for l, r, v in f.to_cells()
                       if min(r, b) > max(l, a)), F(0))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_step_and_poly_share_the_cell_core(seed):
    rng = np.random.default_rng(seed)
    for k in range(30):
        f = random_stepfn(rng, max_cells=10) if k % 2 else grid_step(rng, 7, 6)
        p = f.as_poly()
        mids = [(l + r) / 2 for l, r in zip(f.breaks, f.breaks[1:])]
        ts = sorted(set(f.breaks).union(mids))  # breaks, inside cells, both ends
        for t in ts:
            assert f(t) == p(t) == ref_value(f, t)
            assert type(p(t)) is Fraction
            if t > f.lo:
                left = f.values[bisect_left(f.breaks, t, lo=1) - 1]
                assert f.left_limit(t) == p.left_limit(t) == left
            if t < f.hi:
                assert f.right_limit(t) == p.right_limit(t) == ref_g_right(f, t)
        inner = ts[:-1]
        assert f.right_limits(inner) == p.right_limits(inner) == \
            [ref_g_right(f, t) for t in inner]
        jumps = [b for b in f.breaks[:-1] if ref_g_right(f, b) != f(b)]
        assert f.jump_points() == p.jump_points() == jumps
        for a, b in ((f.lo, f.hi), (f.hi, f.lo), (ts[1], ts[-2]),
                     (ts[-2], ts[1]), (mids[0], mids[-1]), (ts[2], ts[2])):
            x, y = f.integral(a, b), p.integral(a, b)
            assert x == y == ref_integral(f, a, b) and type(x) is type(y)
        assert f.integral() == p.integral() == ref_integral(f, f.lo, f.hi)
        for bad in (f.lo - 1, f.hi + 1):
            for g in (f, p):
                with pytest.raises(DomainError):
                    g(bad)
                with pytest.raises(DomainError):  # forward, then reversed
                    g.integral(bad, f.hi if bad < f.lo else f.lo)
        for g in (f, p):
            with pytest.raises(DomainError):
                g.left_limit(f.lo)
            with pytest.raises(DomainError):
                g.right_limit(f.hi)


# -- comparison-count guards ----------------------------------------------------


class Counted(Fraction):
    """A Fraction that counts the comparisons made on it."""

    n = 0

    def _count(op):
        def cmp(self, other):
            Counted.n += 1
            return op(self, other)
        return cmp

    __lt__ = _count(Fraction.__lt__)
    __le__ = _count(Fraction.__le__)
    __gt__ = _count(Fraction.__gt__)
    __ge__ = _count(Fraction.__ge__)
    __eq__ = _count(Fraction.__eq__)
    __hash__ = Fraction.__hash__


def counted_step(cells):
    """Exact step on [0, 1] with breaks i/cells."""
    breaks = [Counted(i, cells) for i in range(cells + 1)]
    return StepFn(breaks, [Fraction(i % 5) for i in range(cells)])


def comparisons(fn):
    Counted.n = 0
    fn()
    return Counted.n


def test_merge_comparisons_linear():
    # coprime grids share only their ends: the union has n + m - 1 cells
    for n, m in ((64, 65), (1000, 1001)):
        f, g = counted_step(n), counted_step(m)
        for op in (f.__add__, f.join, f.meet, f.le):
            assert comparisons(lambda: op(g)) <= 6 * (n + m)
        assert comparisons(lambda: f.refined(g.breaks)) <= 6 * (n + m)


def test_restrict_comparisons_logarithmic():
    n, k = 4096, 8
    f = counted_step(n)
    lo, hi = Counted(1000, n), Counted(1000 + k, n)
    assert len(f.restrict(lo, hi).values) == k
    assert comparisons(lambda: f.restrict(lo, hi)) <= 4 * (math.log2(n) + k)


def test_right_limit_walk_comparisons_linear():
    n = 1000
    g = counted_step(n)
    ts = [Counted(i, 11 * n) for i in range(11 * n)]
    assert comparisons(lambda: g.right_limits(ts)) <= 4 * (n + len(ts))
