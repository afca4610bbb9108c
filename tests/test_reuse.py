"""Differential tests of the shared implementations against the copies they
replaced, which are kept here as references: the zero-anchored primitive of
``parts`` (now ``cumulative(f, a, 0)``) with the step branch of the density
sup norm, and the scalar right limit ``g(t+)`` of ``mu_interval`` and
``stieltjes_sum`` (now one ``_g_rights`` walk)."""

from fractions import Fraction

import numpy as np
import pytest

from leftprim import builders as B
from leftprim import funcspace as fs
from leftprim.funcspace import RegulatedFn
from leftprim.gauge import LeftPartition, mu_interval, stieltjes_sum
from leftprim.integral import Distribution, Multiplier, parts
from leftprim.intervals import DomainError, Interval
from leftprim.quadrature import integrate_piecewise
from leftprim.stepfn import PiecewisePoly, StepFn, random_stepfn

F = Fraction


# -- references: the replaced copies ------------------------------------------------


def ref_anchored(Fn, Fa, a, b):
    """The zero-anchored representative of Fn on [a, b]."""
    if Fn.kind == "step":
        return RegulatedFn.from_step(
            Fn.payload.restrict(Fraction(a), Fraction(b)) + (-Fa))
    if Fn.kind == "poly":
        return RegulatedFn.from_poly(Fn.payload + (-Fa)) if Fa != 0 else Fn
    if Fa == 0:
        return Fn
    return Fn - RegulatedFn.constant(Fa, Fn.interval)


def ref_parts(f, g, a, b, tol=1e-10):
    """``parts`` with the anchored copy and the step sup-norm branch."""
    Fn, h = f.primitive, g.density
    sup_h = h.payload.sup_norm() if h.kind == "step" else fs.norm(h, "sup")
    gb = g.g(b)
    J = Interval(a, b)
    if Fn.kind in ("step", "poly") and h.kind == "step":
        Fa = Fn.payload(a)
        Fb = Fn.payload(b) - Fa
        integral_part = 0
        for x, y, v in h.payload.to_cells():
            lo, hi = max(x, Fraction(a)), min(y, Fraction(b))
            if hi > lo:
                integral_part += v * (Fn.payload.integral(lo, hi) - Fa * (hi - lo))
        value = Fb * gb - integral_part
    else:
        Fa = Fn.value(a)
        Fb = Fn.value(b) - Fa
        cuts = [float(c) for c in Fn.jumps(a, b)] + [float(c) for c in h.jumps(a, b)]
        integral_part, _ = integrate_piecewise(
            lambda ts: (Fn.sample(ts) - Fa) * h.sample(ts),
            float(a), float(b), cuts, tol)
        value = Fb * gb - integral_part
    F0 = ref_anchored(Fn, Fa, a, b)
    if f.space_tag == "LL":
        bound = abs(Fb) * abs(gb) + float(fs.norm(F0, "l1", J)) * float(sup_h)
    else:
        bound = abs(Fb) * abs(gb) + float(fs.norm(F0, "alexiewicz", J)) * (
            float(sup_h) + float(g.variation))
    assert abs(float(value)) <= float(bound) + 1e-9 * (1 + abs(float(bound)))
    return value, bound


def ref_g_right(g, t, hi):
    """g(t+) with the closed-endpoint convention g(b+) := g(b)."""
    if t >= hi:
        return g(hi)
    return g.right_limit(t)


def outcome(fn, *args):
    try:
        return fn(*args)
    except AssertionError:  # parts asserts its own bound
        return "AssertionError"


# -- parts -------------------------------------------------------------------------


def suite_cases(seed, count=60):
    """The parts_suite draws: a normalized polynomial primitive on [0, 1], a
    step density and a space tag, followed here by a random step primitive."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        deg = int(rng.integers(1, 6))
        coeffs = [F(int(rng.integers(-4, 5)), int(rng.integers(1, 5)))
                  for _ in range(deg + 1)]
        if all(c == 0 for c in coeffs[1:]):
            coeffs[1] = F(1)
        Fp = PiecewisePoly([F(0), F(1)], [tuple(coeffs)])
        h = random_stepfn(rng, max_cells=4)
        space = "LL" if rng.integers(2) else "LD"
        yield RegulatedFn.from_poly(Fp - Fp(F(0))), h, space
        yield RegulatedFn.from_poly(Fp), h, space  # F(0) != 0 in general
        yield RegulatedFn.from_step(random_stepfn(rng)), h, space


@pytest.mark.parametrize("seed", [0, 7])
def test_parts_equals_the_anchored_copy_on_the_suite_cases(seed):
    for prim, h, space in suite_cases(seed):
        f, g = Distribution(prim, space), Multiplier.from_step_density(h, F(0))
        assert outcome(parts, f, g, F(0), F(1)) == outcome(ref_parts, f, g, F(0), F(1))


@pytest.mark.parametrize("seed", [0, 7])
def test_parts_equals_the_anchored_copy_inside_a_larger_domain(seed):
    # F and h live on [0, 1]; the integral runs over a rational [a, b] inside
    rng = np.random.default_rng(seed + 100)
    for k, (prim, h, space) in enumerate(suite_cases(seed, count=40)):
        a, b = sorted(F(int(x), 16) for x in rng.choice(np.arange(17), 2, replace=False))
        f, g = Distribution(prim, space), Multiplier.from_step_density(h, F(0))
        got = outcome(parts, f, g, a, b)
        assert got == outcome(ref_parts, f, g, a, b), (k, a, b)


@pytest.mark.parametrize("a", [F(0), F(1, 4)])
def test_parts_equals_the_anchored_copy_on_a_symbolic_primitive(a):
    # LL only: the LD bound's Alexiewicz norm of shape_A integrates cell by
    # cell, which takes minutes
    f = Distribution(B.shape_A(), "LL")
    g = Multiplier.from_step_density(StepFn([F(0), F(1, 2), F(1)], [F(2), F(-1)]), F(0))
    assert parts(f, g, a, F(1)) == ref_parts(f, g, a, F(1))


# -- mu_interval and stieltjes_sum ---------------------------------------------------


def bv_functions(seed):
    """Seeded exact g on [0, 1]: steps, their piecewise-linear cumulatives
    (with a base value off the right limit) and a Multiplier."""
    rng = np.random.default_rng(seed)
    for _ in range(6):
        s = random_stepfn(rng, max_cells=10)
        yield s
        c = s.cumulative()
        yield c
        yield PiecewisePoly(c.breaks, c.coeffs, F(-3))
        yield Multiplier.from_step_density(s, F(1, 3))


def probe_points(g, rng):
    """Breaks, random rationals and floats in [0, 1], g.hi and past it."""
    pts = list(g.breaks) + [F(int(rng.integers(0, 97)), 96) for _ in range(8)]
    pts += [float(rng.uniform(0, 1)) for _ in range(4)] + [0.25, 1.0]
    return sorted(set(pts + [g.hi, F(5, 4), 1.5]))


@pytest.mark.parametrize("seed", range(4))
def test_mu_interval_equals_the_scalar_right_limit_difference(seed):
    rng = np.random.default_rng(seed)
    for g in bv_functions(seed):
        gr = g.g_fn() if isinstance(g, Multiplier) else g
        pts = probe_points(gr, rng)
        for x, y in zip(pts, pts[1:]):
            want = ref_g_right(gr, y, gr.hi) - ref_g_right(gr, x, gr.hi)
            assert mu_interval(g, x, y) == want, (x, y)
        with pytest.raises(DomainError):  # below the domain, as the reference
            ref_g_right(gr, F(-1, 8), gr.hi)
        for y in (F(1, 2), gr.hi, 2.0):
            with pytest.raises(DomainError):
                mu_interval(g, F(-1, 8), y)


def scalar_cell_loop(Fstep, gr, P):
    total = 0
    for (x, y), tag in zip(P.cells, P.tags):
        total += Fstep(tag) * (ref_g_right(gr, y, gr.hi) - ref_g_right(gr, x, gr.hi))
    return total


@pytest.mark.parametrize("seed", range(4))
def test_stieltjes_sum_equals_the_scalar_cell_loop(seed):
    # F lives on [0, 2], so the cells run past g.hi = 1
    rng = np.random.default_rng(seed + 50)
    for g in bv_functions(seed):
        gr = g.g_fn() if isinstance(g, Multiplier) else g
        Fstep = random_stepfn(rng, 0, 2, max_cells=6)
        pts = sorted(set([F(0)] + [p for p in probe_points(gr, rng) if p > 0] + [F(2)]))
        for ends in (pts, sorted({float(p) for p in pts})):
            cells = list(zip(ends[:-1], ends[1:]))
            P = LeftPartition(cells, [y for _, y in cells])
            assert stieltjes_sum(RegulatedFn.from_step(Fstep), g, P) \
                == scalar_cell_loop(Fstep, gr, P)
