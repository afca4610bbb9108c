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
from leftprim.stepfn import LATTICE_BITS
from leftprim.integral import Multiplier
from leftprim.stepfn import _right_cells

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


# -- the int lattice: walks and exact sums against naive Fraction loops --------
# (naive references: plain loops over the stored values and breaks)


def ref_merged(f):
    breaks, values = [f.breaks[0]], []
    for i, v in enumerate(f.values):
        if values and values[-1] == v:
            breaks[-1] = f.breaks[i + 1]
        else:
            breaks.append(f.breaks[i + 1])
            values.append(v)
    return breaks, values


def ref_integral_loop(f, a=None, b=None):
    a = f.lo if a is None else a
    b = f.hi if b is None else b
    sign = 1
    if a > b:
        a, b, sign = b, a, -1
    total = 0
    for i, v in enumerate(f.values):
        l, r = max(f.breaks[i], a), min(f.breaks[i + 1], b)
        if r > l:
            total += v * (r - l)
    return sign * total


def ref_l1(f):
    breaks, values = ref_merged(StepFn(f.breaks, [abs(v) for v in f.values]))
    return ref_integral_loop(StepFn(breaks, values))


def ref_variation(f):
    v = abs(f.values[0] - f.base_value)
    for i in range(1, len(f.values)):
        v += abs(f.values[i] - f.values[i - 1])
    return v


def ref_running(f):
    acc = Fraction(0) if f.exact else 0.0
    out = [acc]
    for i, v in enumerate(f.values):
        acc = acc + v * (f.breaks[i + 1] - f.breaks[i])
        out.append(acc)
    return out


def ref_alexiewicz(f):
    acc = ref_running(f)
    mn = mx = acc[0]
    for x in acc[1:]:
        mn, mx = min(mn, x), max(mx, x)
    return mx - mn


def ref_extrema(f):
    acc = ref_running(f)
    mn = mx = acc[0]
    arg_mn = arg_mx = f.breaks[0]
    for i, x in enumerate(acc[1:]):
        if x > mx:
            mx, arg_mx = x, f.breaks[i + 1]
        if x < mn:
            mn, arg_mn = x, f.breaks[i + 1]
    return arg_mn, arg_mx


def ref_cumulative(f):
    acc = ref_running(f)
    return [(acc[i] - v * f.breaks[i], v) for i, v in enumerate(f.values)]


def ref_stieltjes(f, g):
    gv = [ref_g_right(g, t) for t in f.breaks]
    total = 0
    for k, v in enumerate(f.values):
        total += v * (gv[k + 1] - gv[k])
    return total


def ident(a, b):
    """Same type and value: same numerator and denominator when rational,
    same bits (sign of zero included) when float."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(ident, a, b))
    if isinstance(a, float):
        return repr(a) == repr(b)
    return (a.numerator, a.denominator) == (b.numerator, b.denominator)


def lattice_ok(h):
    """A walk output's lattice matches its breaks, and the public
    constructor rebuilds it unchanged."""
    if h.den is None:
        assert h.keys is h.breaks
    else:
        assert h.den.bit_length() <= LATTICE_BITS
        assert all(type(k) is int and k == b * h.den for k, b in zip(h.keys, h.breaks))
        assert len(h.keys) == len(h.breaks)
    cls = type(h)
    data = h.values if cls is StepFn else h.coeffs
    r = cls(h.breaks, data, h.base_value)
    assert ident(r.breaks, h.breaks) and ident(list(r.values if cls is StepFn else r.coeffs),
                                               list(data))
    assert r.exact == h.exact


def dyadic_step(rng, lo=F(0), hi=F(1)):
    cuts = sorted({lo + (hi - lo) * F(int(rng.integers(1, 64)), 64)
                   for _ in range(int(rng.integers(0, 9)))})
    values = [F(int(rng.integers(-9, 10)), 2 ** int(rng.integers(0, 4)))
              for _ in range(len(cuts) + 1)]
    return StepFn([lo, *cuts, hi], values, F(int(rng.integers(-3, 4))))


def int_step(rng, typ):
    """Integer breaks on [0, 10] and integer values, as ``typ`` objects."""
    cuts = sorted(set(int(c) for c in rng.integers(1, 10, size=int(rng.integers(0, 6)))))
    values = [typ(int(rng.integers(-4, 5))) for _ in range(len(cuts) + 1)]
    return StepFn([typ(0), *map(typ, cuts), typ(10)], values, typ(int(rng.integers(-2, 3))))


def harmonic(rng):
    """Steps on [-1, 0] with breaks -1/k: their denominator is above the bound."""
    k = int(rng.integers(200, 260))
    breaks = [F(-1)] + [F(-1, m) for m in range(2, k + 2)] + [F(0)]
    values = [F(int(rng.integers(-3, 4)), int(rng.integers(1, 4))) for _ in breaks[1:]]
    return StepFn(breaks, values, F(1))


def float_step(rng):
    cuts = sorted(set(float(c) for c in rng.uniform(0, 1, size=int(rng.integers(0, 8)))))
    values = [float(v) for v in rng.normal(size=len(cuts) + 1)]
    values[-1] = -0.0  # sums keep the sign of zero
    return StepFn([0.0, *cuts, 1.0], values, -0.0)


def lattice_pairs(seed):
    rng = np.random.default_rng(seed)
    for k in range(10):
        yield dyadic_step(rng), dyadic_step(rng)
        yield grid_step(rng, 8 * 6, 6), grid_step(rng, 8 * 9, 9)  # 8 * cells
        yield grid_step(rng, 7, 6), grid_step(rng, 11, 9)          # coprime
        yield int_step(rng, int), int_step(rng, int)
        yield int_step(rng, F), int_step(rng, int)                # Fraction(k, 1)
        yield float_step(rng), float_step(rng)
        d = dyadic_step(rng)
        yield StepFn(d.breaks, [float(v) for v in d.values]), d      # float values
        if k < 2:  # slow on the naive references
            f = harmonic(rng)
            yield f, harmonic(rng)
            yield f, dyadic_step(rng, F(-1), F(0))                # one lattice
            yield StepFn(f.breaks, [float(v) for v in f.values]), f  # float values


def min_den(f):
    """The least common denominator of exact breaks; None for float ones."""
    if all(isinstance(b, (F, int)) for b in f.breaks):
        return math.lcm(*(F(b).denominator for b in f.breaks))
    return None


def test_lattice_pairs_cover_both_sides_of_the_bound():
    kinds = {(f.den is None, min_den(f) is None) for pair in lattice_pairs(0) for f in pair}
    assert kinds == {(False, False), (True, False), (True, True)}


@pytest.mark.parametrize("seed", [0, 1])
def test_lattice_walks_match_fraction_references(seed):
    for f, g in lattice_pairs(seed):
        for h in (f, g):  # the least denominator, while within the bound
            d = min_den(h)
            assert h.den == (d if d and d.bit_length() <= LATTICE_BITS else None)
        outs = [f.zip_with(g, op) for op in OPS.values()]
        outs += [f + g, f - g, f * g, f.join(g), f.meet(g), f.merged(), f.abs(), 3 * f]
        for h in outs:
            lattice_ok(h)
        for h, op in zip(outs, OPS.values()):
            assert same(h, ref_zip(f, g, op))
            assert ident(h.breaks, ref_zip(f, g, op).breaks)
        assert ident(f.merged().breaks, ref_merged(f)[0])
        assert ident(f.merged().values, ref_merged(f)[1])
        assert f.le(g) == (f.base_value <= g.base_value and all(
            a <= b for a, b in zip(*ref_common(f, g)[1:])))
        assert f.le(f)


@pytest.mark.parametrize("seed", [0, 1])
def test_lattice_sums_match_fraction_loops(seed):
    for f, g in lattice_pairs(seed):
        for h in (f, g):
            assert ident(h.integral(), ref_integral_loop(h))
            ends = sorted(set(h.breaks[:3] + h.breaks[-2:]))
            mid = (h.breaks[0] + h.breaks[1]) / 2
            for a, b in ((ends[0], ends[-1]), (ends[-1], ends[0]), (ends[1], ends[-2]),
                         (mid, ends[-1]), (ends[0], mid), (mid, mid)):
                assert ident(h.integral(a, b), ref_integral_loop(h, a, b))
            assert ident(h.l1_norm(), ref_l1(h))
            assert ident(h.variation(), ref_variation(h))
            assert ident(h.alexiewicz_norm(), ref_alexiewicz(h))
            assert ident(h.alexiewicz_extrema(), ref_extrema(h))
            c = h.cumulative()
            lattice_ok(c)
            assert ident(c.breaks, h.breaks) and ident(c.coeffs, ref_cumulative(h))
            assert ident(c.base_value, F(0) if h.exact else 0.0)
        got = gauge.stieltjes(RegulatedFn.from_step(f), g, f.lo, f.hi)
        assert ident(got, ref_stieltjes(f, g))
        p = g.cumulative()  # a piecewise-linear g
        assert ident(gauge.stieltjes(RegulatedFn.from_step(f), p, f.lo, f.hi),
                     ref_stieltjes(f, p))


def test_right_limits_on_and_off_the_lattice():
    g = StepFn([F(0), F(1, 2 ** 200), F(1, 2), F(1)], [F(1), F(2), F(3)], F(0))
    assert g.den == 2 ** 200
    near = [F(0), F(1, 3 ** 20), F(1, 2 ** 200), F(1, 3), F(1, 2), F(2, 3)]
    far = near + [F(1, 3 ** 100)]  # joint denominator above the bound
    for ts in (near, sorted(far)):
        assert g.right_limits(ts) == [ref_g_right(g, t) for t in ts]
        p = g.cumulative()
        assert p.right_limits(ts) == [ref_g_right(p, t) for t in ts]


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


def counted_harmonic(n, num=1):
    """Exact step on [-1, 0] with breaks -num/k: above the lattice bound."""
    ks = range(num + 1, n + 1) if num == 1 else range(3, 2 * n, 2)
    breaks = [Counted(-1)] + [Counted(-num, k) for k in ks] + [Counted(0)]
    return StepFn(breaks, [Fraction(i % 3) for i in range(len(breaks) - 1)])


def test_lattice_merge_compares_no_fractions_but_the_ends():
    for n, m in ((64, 65), (1000, 1001)):
        f, g = counted_step(n), counted_step(m)
        assert (f.den, g.den) == (n, m)
        for op in (f.__add__, f.join, f.meet, f.le):
            assert comparisons(lambda: op(g)) <= 4


def test_lattice_add_runs_no_fraction_add_or_eq_per_cell(monkeypatch):
    calls = {"add": 0, "eq": 0}

    def counted(name, op):
        def fn(self, other):
            calls[name] += 1
            return op(self, other)
        return fn

    n, m = 1000, 1001
    f, g = random_values(counted_step(n)), random_values(counted_step(m))
    assert f.vden is not None and g.vden is not None
    monkeypatch.setattr(Fraction, "__add__", counted("add", Fraction.__add__))
    monkeypatch.setattr(Fraction, "__eq__", counted("eq", Fraction.__eq__))
    f + g
    assert calls["add"] <= 2 and calls["eq"] <= 4  # the base values and the ends
    f.zip_with(g, lambda a, b: a + b)  # the op path adds per cell
    assert calls["add"] >= n + m


def random_values(f, seed=0):
    """f's breaks with seeded values p/q, |p| <= 50, 1 <= q <= 8."""
    rng = np.random.default_rng(seed)
    n = len(f.values)
    return StepFn(f.breaks, [F(int(p), int(q)) for p, q in
                             zip(rng.integers(-50, 51, n), rng.integers(1, 9, n))])


def test_merge_above_the_bound_stays_linear():
    f, g = counted_harmonic(300), counted_harmonic(301, num=2)  # disjoint inner breaks
    assert f.den is None and g.den is None
    n, m = len(f.values), len(g.values)
    for op in (f.__add__, f.join, f.meet, f.le):
        assert comparisons(lambda: op(g)) <= 6 * (n + m)


# -- float points: one lookup against the forward walk it replaced ----------


def ref_right_walk(breaks, points):
    """The forward walk right-limit cells of float points were found by: keys
    ``float(b)``, a tie ``t == float(b)`` settled on b itself."""
    keys, out, j = [float(b) for b in breaks], [], 0
    for t in points:
        while keys[j + 1] < t or keys[j + 1] == t and breaks[j + 1] <= t:
            j += 1
        out.append(j)
    return out


def tie_breaks():
    """Exact breaks on [-1, 1] whose floats lie above (1/5, -1/3) and below
    (1/3, -1/5) them, with dyadic ones between."""
    return [F(-1), F(-1, 2), F(-1, 3), F(-1, 5), F(0), F(1, 5), F(1, 4), F(1, 3), F(1)]


def tie_points(rng, breaks, k=200):
    """Ascending float points of [lo, hi): lo itself, every float(b) and its
    neighbours, negative ones, and seeded ones."""
    fb = [float(b) for b in breaks]
    pts = fb + [math.nextafter(x, 2) for x in fb] + [math.nextafter(x, -2) for x in fb]
    pts += rng.uniform(fb[0], fb[-1], k).tolist()
    return sorted(t for t in pts if breaks[0] <= t < breaks[-1])


@pytest.mark.parametrize("seed", [0, 1])
def test_right_cells_lookup_matches_the_float_walk(seed):
    rng = np.random.default_rng(seed)
    exact = tie_breaks()
    floats = sorted({-1.0, 1.0}.union(float(x) for x in rng.uniform(-1, 1, 30)))
    for breaks in (exact, floats, [F(-1), F(1, 2 ** 300), F(1, 2 ** 299), F(1)]):
        ts = tie_points(rng, breaks)
        assert ts[0] == breaks[0] and any(t < 0 for t in ts)
        want = ref_right_walk(breaks, ts)
        assert ident(float_cells(breaks, ts, True, right=True).tolist(), want)
        f = StepFn(breaks, [F(i) for i in range(len(breaks) - 1)])
        assert ident(_right_cells(ts, f).tolist(), want)
    below, above = float(F(1, 3)), float(F(1, 5))  # < 1/3 and > 1/5
    assert float_cells(exact, [below, above], True, right=True).tolist() == [6, 5]
    assert float_cells(exact, [-1.0, -2.0], True, right=True).tolist() == [0, -1]


def mixed_coeffs(rng, cells):
    """Degree 0-3 cells with Fraction and int coefficients, zeros among them."""
    def coef():
        c = F(int(rng.integers(-5, 6)), int(rng.integers(1, 7)))
        return c if rng.integers(0, 2) else int(c * 6)
    return [tuple(coef() for _ in range(int(rng.integers(1, 5)))) for _ in range(cells)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_poly_right_limits_at_float_points_match_scalar_horner(seed):
    rng = np.random.default_rng(seed)
    breaks = tie_breaks()
    coeffs = mixed_coeffs(rng, len(breaks) - 1)
    coeffs[3] = (0, F(0), 0)  # 0 * t for t < 0 on the way
    p = PiecewisePoly(breaks, coeffs)
    ts = tie_points(rng, breaks)
    got = p.right_limits(ts)
    assert ident(got, [ref_g_right(p, t) for t in ts])
    assert ident(got, [p._at(j, t) for j, t in zip(ref_right_walk(breaks, ts), ts)])
    ex = [F(-1), F(-1, 3), F(1, 5), F(2, 3)]  # exact points keep exact values
    assert ident(p.right_limits(ex), [ref_g_right(p, t) for t in ex])


def float_F(rng, lo, hi, n, nan=False):
    """Float step on [lo, hi] with n cells, values of both signs (a NaN one)."""
    cuts = sorted(set(rng.uniform(lo, hi, n - 1).tolist()) - {lo, hi})
    values = rng.normal(size=len(cuts) + 1).tolist()
    values[len(values) // 2] = -0.0
    if nan:
        values[1] = math.nan
    return StepFn([float(lo), *cuts, float(hi)], values)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stieltjes_of_float_steps_is_bit_identical_to_the_cell_loop(seed):
    rng = np.random.default_rng(seed)
    breaks = tie_breaks()
    g = StepFn(breaks, [F(int(rng.integers(-4, 5)), 3) for _ in breaks[1:]], F(0))
    ident_poly = PiecewisePoly([F(-1), F(1)], [(F(0), F(1))])
    density = StepFn(breaks, [F(int(rng.integers(-4, 5)), 2) for _ in breaks[1:]])
    m = Multiplier(RegulatedFn.from_step(density), F(0))
    fg = StepFn([-1.0, -0.25, 0.5, 1.0], [math.nan, 1.5, -2.0])  # float g, NaN kept
    snap = StepFn([-1.0, *map(float, breaks[1:-1]), 1.0],
                  [0.5, -1.0, 0.5, 2.0, 1.0, 3.0, 1.0, 0.0])
    for gg, ref in ((g, g), (ident_poly, ident_poly), (g.cumulative(), g.cumulative()),
                    (m, m.g_fn()), (fg, fg)):
        for f in (float_F(rng, -1, 1, 300), float_F(rng, -1, 1, 40, nan=True),
                  float_F(rng, -1, 1.5, 50), snap):  # past g's hi; breaks on float(b)
            want = ref_stieltjes(f, ref)
            got = gauge.stieltjes(RegulatedFn.from_step(f), gg, f.lo, f.hi)
            assert ident(got, want), (gg, got, want)
    with pytest.raises(DomainError):  # F reaches below g's domain
        gauge.stieltjes(RegulatedFn.from_step(float_F(rng, -2, 1, 9)), g, -2.0, 1.0)


def test_float_stieltjes_keeps_nan_where_g_stays_on_an_infinite_value():
    # inf - inf is NaN inside g's middle cell; 0.0 there would sum to inf
    g = StepFn([-1.0, -0.25, 0.5, 1.0], [1.0, math.inf, 1.0])
    f = StepFn([-1.0, -0.5, 0.0, 0.25, 0.75, 1.0], [1.0, 2.0, 5.0, -1.0, 3.0])
    want = ref_stieltjes(f, g)
    assert math.isnan(want)
    assert ident(gauge.stieltjes(RegulatedFn.from_step(f), g, -1.0, 1.0), want)


# -- the L1 norm without an abs() step ----------------------------------------


@pytest.mark.parametrize("seed", [0, 1])
def test_l1_norm_is_identical_to_the_integral_of_abs(seed):
    rng = np.random.default_rng(seed)
    steps = [dyadic_step(rng), grid_step(rng, 7, 6), grid_step(rng, 8 * 9, 9),
             int_step(rng, int), int_step(rng, F), harmonic(rng)]
    for h in steps:
        assert ident(h.l1_norm(), h.abs().integral())
        mid = (h.breaks[0] + h.breaks[1]) / 2
        for a, b in ((h.lo, h.hi), (mid, h.hi), (h.breaks[1], h.breaks[-2]),
                     (h.lo, mid), (mid, h.breaks[-2])):
            if a < b:
                assert ident(h.l1_norm(a, b), h.abs().integral(a, b))
        assert ident(h.l1_norm(h.lo), h.l1_norm())
