"""Primitive integral, FTC, Hake, pairing, parts, and the LR product."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate

from leftprim import builders as B
from leftprim.funcspace import RegulatedFn
from leftprim.integral import (Distribution, Multiplier, MultiplierError, TestFn,
                               cumulative, dirac, hake, pairing, parts,
                               primitive_integral, product)
from leftprim.intervals import DomainError
from leftprim.stepfn import PiecewisePoly, StepFn, random_stepfn

F = Fraction


def poly_fn(coeffs, lo=0, hi=1):
    return RegulatedFn.from_poly(
        PiecewisePoly([F(lo), F(hi)], [tuple(F(c) for c in coeffs)]))


def test_primitive_integral_identity():
    f = Distribution(poly_fn([0, 1]))  # primitive F(t) = t
    assert primitive_integral(f, 0, 1) == 1


def test_primitive_integral_dirac():
    assert primitive_integral(dirac(), -1, 1) == 1


def test_primitive_integral_additive_reversal():
    rng = np.random.default_rng(5)
    for _ in range(50):
        f = Distribution(RegulatedFn.from_step(random_stepfn(rng)))
        pts = sorted(rng.uniform(0, 1, size=3))
        a, c, b = (F(p).limit_denominator(64) for p in pts)
        total = primitive_integral(f, a, c) + primitive_integral(f, c, b)
        assert total == primitive_integral(f, a, b)
        assert primitive_integral(f, b, a) == -primitive_integral(f, a, b)


def test_endpoint_modes():
    f = dirac()
    # [a,b): jump at 0 included; (a,b] over an interval containing 0 likewise
    assert primitive_integral(f, -1, 1, "closed_open") == 1
    assert primitive_integral(f, 0, 1, "closed_open") == 1  # 0- left value
    assert primitive_integral(f, 0, 1, "open_open") == 0    # excludes the jump
    assert primitive_integral(f, -1, 0, "closed_closed") == 1
    assert primitive_integral(f, -1, 0, "closed_open") == 0


def test_cumulative_dirac():
    g = cumulative(dirac(), -1, 0)
    assert g.value(-0.5) == 0
    assert g.value(0) == 0
    assert g.value(0.5) == 1
    assert g.value(1) == 1


def test_cumulative_affine_shift():
    f = Distribution(poly_fn([0, 0, 1], 0, 3))  # primitive t^2 on [0,3]
    g = cumulative(f, 1, 5)
    assert g.value(1) == 5
    assert g.value(2) == 5 + 4 - 1


def test_cumulative_ftc_roundtrip():
    rng = np.random.default_rng(9)
    for _ in range(50):
        f = Distribution(RegulatedFn.from_step(random_stepfn(rng)))
        c = F(int(rng.integers(-3, 4)))
        g = cumulative(f, F(1, 4), c)
        f2 = Distribution(g)
        a, b = F(1, 8), F(7, 8)
        assert primitive_integral(f2, a, b) == primitive_integral(f, a, b)


# -- pairing -------------------------------------------------------------------


def test_pairing_dirac_sifting():
    phi = TestFn(0.0, 0.5)
    assert pairing(dirac(), phi) == pytest.approx(1.0, abs=1e-10)


def test_pairing_constant_primitive():
    k = Distribution(RegulatedFn.from_step(StepFn.constant(-1, 1, F(7))))
    phi = TestFn(0.0, 0.5)
    assert pairing(k, phi) == pytest.approx(0.0, abs=1e-12)


def test_pairing_support_escape():
    phi = TestFn(0.9, 0.5)
    with pytest.raises(DomainError):
        pairing(dirac(), phi)


def test_pairing_linearity():
    rng = np.random.default_rng(21)
    phi = TestFn(0.5, 0.25)
    tol = 1e-10
    for _ in range(20):
        f1 = Distribution(RegulatedFn.from_step(random_stepfn(rng)))
        f2 = Distribution(RegulatedFn.from_step(random_stepfn(rng)))
        a1, a2 = rng.uniform(-2, 2, size=2)
        comb = Distribution(RegulatedFn.lincomb(
            [(F(a1).limit_denominator(100), f1.primitive),
             (F(a2).limit_denominator(100), f2.primitive)]))
        lhs = pairing(comb, phi, tol)
        rhs = (float(F(a1).limit_denominator(100)) * pairing(f1, phi, tol)
               + float(F(a2).limit_denominator(100)) * pairing(f2, phi, tol))
        assert abs(lhs - rhs) <= 2 * tol + 1e-9


# -- Hake ---------------------------------------------------------------------------


def test_hake_t_sin_recip():
    # primitive t sin(1/t) extended by 0: limit of int_x^1 as x->0+ is sin(1)
    from leftprim import symbolic as sym

    expr = sym.Product(sym.Monomial(1), _SinRecip())
    Fp = RegulatedFn(expr, B.monomial(1).interval)
    f = Distribution(Fp)
    assert hake(f, "left_endpoint", 1) == pytest.approx(math.sin(1.0), abs=1e-9)
    # numeric corroboration: F(c) - F(eps) stabilises
    seq = [Fp.value(1) - Fp.value(eps) for eps in (1e-4, 1e-6, 1e-8)]
    assert abs(seq[-1] - math.sin(1)) < 1e-6


class _SinRecip:
    """sin(1/t) helper expression (second kind at 0, bounded)."""

    def ev(self, t, side=0):
        from leftprim.symbolic import SecondKindLimit
        t = float(t)
        if abs(t) < 1e-12:
            raise SecondKindLimit("oscillates at 0")
        return math.sin(1.0 / t)

    def ev_array(self, ts):
        ts = np.asarray(ts, dtype=float)
        out = np.zeros_like(ts)
        m = np.abs(ts) > 1e-12
        out[m] = np.sin(1.0 / ts[m])
        return out

    def jumps(self, lo, hi):
        return []

    def bound_cuts(self, lo, hi):
        return []

    def osc_bound_array(self, us, vs):
        return np.full(np.shape(us), 2.0)

    def sup_bound_array(self, us, vs):
        return np.full(np.shape(us), 1.0)

    def sing_class(self):
        return 0


def test_hake_matches_primitive_integral_for_tG():
    f = Distribution(B.t_times_G(4))
    direct = primitive_integral(f, 0, 1)
    lim = hake(f, "left_endpoint", 1)
    assert abs(direct - lim) <= 1e-8


def test_hake_step_exact():
    f = Distribution(RegulatedFn.from_step(StepFn.indicator(F(1, 3), 1, 0, 1)))
    assert hake(f, "left_endpoint", 1) == 1  # F(1) - F(0+) = 1 - 0
    assert hake(f, "right_endpoint", 0) == 1


# -- integration by parts ----------------------------------------------------------------


def test_parts_dirac_linear_multiplier():
    # g(x) = x + 1 via density h = 1 anchored at -1; oracle: int g ddelta = g(0)
    h = StepFn.constant(-1, 1, F(1))
    g = Multiplier.from_step_density(h, F(-1))
    value, bound = parts(dirac(), g, -1, 1)
    assert value == 1  # 1*g(1) - int_{-1}^{1} H1 = 2 - 1
    assert abs(value) <= bound


def test_parts_smooth_against_classical_quadrature():
    # F = t^2 (so f = 2t), h = 1 on [0,1]: int f g = int 2t * t dt = 2/3
    Fp = poly_fn([0, 0, 1])
    f = Distribution(Fp, "LR")
    g = Multiplier.from_step_density(StepFn.constant(0, 1, F(1)), F(0))
    value, bound = parts(f, g, 0, 1)
    oracle, _ = scipy.integrate.quad(lambda t: 2 * t * t, 0, 1)
    assert float(value) == pytest.approx(oracle, abs=1e-10)
    assert abs(float(value)) <= float(bound)


def test_multiplier_with_a_symbolic_density():
    # g(x) = int_{1/4}^x t^2 dt = (x^3 - 1/64) / 3; Vh of t^2 on [0, 1] is 1
    g = Multiplier(B.monomial(2), 0.25)
    assert g.variation_certified is False
    assert g.variation == pytest.approx(1.0, abs=1e-12)
    for x in (0.0, 0.25, 0.6, 1.0):
        assert g.g(x) == pytest.approx((x ** 3 - 0.25 ** 3) / 3, abs=1e-12)
    assert g.density_sup() == 1.0
    with pytest.raises(MultiplierError, match="step density"):
        g.g_fn()


def test_parts_zero_multiplier():
    f = Distribution(poly_fn([0, 0, 1]))
    g = Multiplier.from_step_density(StepFn.constant(0, 1, F(0)), F(0))
    value, _ = parts(f, g, 0, 1)
    assert value == 0


def test_parts_ll_bound_is_hoelder():
    # the bound uses the zero-anchored representative F - F(a) on [a, b]
    rng = np.random.default_rng(2)
    for _ in range(20):
        Fstep = random_stepfn(rng)
        f = Distribution(RegulatedFn.from_step(Fstep), "LL")
        h = random_stepfn(rng)
        g = Multiplier.from_step_density(h, F(0))
        value, bound = parts(f, g, 0, 1)
        anchored = Fstep + (-Fstep(F(0)))
        expected_bound = (abs(anchored(1)) * abs(g.g(1))
                          + anchored.l1_norm() * h.sup_norm())
        assert bound == pytest.approx(float(expected_bound))
        assert abs(float(value)) <= float(bound) + 1e-12


def test_parts_symbolic_primitive_quadrature_path():
    # symbolic primitive against a step density: quadrature route, LL bound
    f = Distribution(B.shape_A(), "LL")
    h = StepFn([F(0), F(1, 2), F(1)], [F(2), F(-1)])
    g = Multiplier.from_step_density(h, F(0))
    value, bound = parts(f, g, 0, 1)
    # oracle: F(b) g(b) - int F h with scipy on the smooth pieces
    Fb = f.primitive.value(1)
    o1, _ = scipy.integrate.quad(lambda t: 2 * t * (1 + math.cos(1 / t)),
                                 1e-9, 0.5, limit=2000)
    o2, _ = scipy.integrate.quad(lambda t: -t * (1 + math.cos(1 / t)),
                                 0.5, 1.0, limit=400)
    oracle = Fb * float(g.g(1)) - (o1 + o2)
    assert float(value) == pytest.approx(oracle, abs=1e-6)
    assert abs(float(value)) <= float(bound)


def test_pairing_with_symbolic_primitive():
    f = Distribution(B.left_frac_series(3, p=2, lo=0, hi=1))
    phi = TestFn(0.5, 0.3)
    v = pairing(f, phi, tol=1e-9)
    # oracle: -int F phi' with the step approximation (exact cellwise)
    from leftprim.funcspace import step_approximation
    Fn = step_approximation(f.primitive, 4000)
    o = -sum(float(vv) * (phi(y) - phi(x)) for x, y, vv in Fn.to_cells())
    assert v == pytest.approx(o, abs=1e-3)


# -- LR product ------------------------------------------------------------------------------


def test_product_indicator_idempotent():
    f = Distribution(RegulatedFn.from_step(StepFn.indicator(0, 1)), "LR")
    p = product(f, f)
    assert p.primitive.payload == StepFn.indicator(0, 1)


def test_product_t_squared():
    f = Distribution(poly_fn([0, 1]), "LR")
    p = product(f, f)
    assert p.primitive.payload(F(1, 2)) == F(1, 4)
    from leftprim.funcspace import norm
    assert norm(p.primitive, "sup") == 1  # <= 1 * 1


def test_product_requires_lr():
    f = Distribution(poly_fn([0, 1]), "LD")
    with pytest.raises(ValueError):
        product(f, f)


def test_product_submultiplicative_exact():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        a = random_stepfn(rng, max_cells=5)
        b = random_stepfn(rng, max_cells=5)
        prod = a * b
        assert prod.sup_norm() <= a.sup_norm() * b.sup_norm()


# -- LL absoluteness -----------------------------------------------------------------------


def test_ll_absoluteness_identities():
    # |f|, f+, f- act through the lattice on primitives:
    # int f = int f+ - int f-, and |int f| >= |int |f||, exactly on step data
    rng = np.random.default_rng(23)
    for _ in range(200):
        s = random_stepfn(rng)
        f = Distribution(RegulatedFn.from_step(s), "LL")
        fp = Distribution(RegulatedFn.from_step(s.pos()), "LL")
        fm = Distribution(RegulatedFn.from_step(s.neg()), "LL")
        fa = Distribution(RegulatedFn.from_step(s.abs()), "LL")
        a, b = F(0), F(1)
        assert primitive_integral(f, a, b) == (
            primitive_integral(fp, a, b) - primitive_integral(fm, a, b))
        assert abs(primitive_integral(f, a, b)) >= abs(
            primitive_integral(fa, a, b))
