#!/usr/bin/env python3
"""Distributions through their primitives: the Dirac measure, an HK-only
distribution with its Hake limits and test-function pairing, the product
on the Riemann-class algebra, integration by parts against Lipschitz
multipliers, and the left-gauge Stieltjes integral with its gauge-partition
verification surface.
"""

from fractions import Fraction

import numpy as np

from leftprim import (Distribution, LeftGauge, Multiplier, RegulatedFn, StepFn,
                      dirac, fine_partition, hake, integrate_regulated,
                      mu_interval, pairing, parts, primitive_integral, product,
                      stieltjes, stieltjes_sum)
from leftprim import builders as B
from leftprim.gauge import PartitionOverflow, uniform_partition
from leftprim.integral import TestFn
from leftprim.quadrature import integrate_piecewise
from leftprim.stepfn import PiecewisePoly

F = Fraction

print("== the Dirac measure lives here ==")
d = dirac()  # primitive: Heaviside step on [-1, 1]
print("integral over [-1,1]:", primitive_integral(d, -1, 1))
print("endpoint conventions: [0,1) ->", primitive_integral(d, 0, 1),
      "  (0,1) ->", primitive_integral(d, 0, 1, "open_open"))
phi = TestFn(0.0, 0.5)
print("sifting through a bump test function:", pairing(d, phi))

print("\n== an HK-only distribution: Hake limits and pairing ==")
# f = (1/t) sin(1/t) + cos(1/t) + 1 is not Lebesgue integrable near 0; its
# primitive is t(1 + cos(1/t))
f = Distribution(B.shape_A())
print("Hake: lim_{x->0+} int_x^1 f = F(1) - F(0+) =", hake(f, "left_endpoint", 1),
      "= primitive integral", primitive_integral(f, 0, 1))
g_f = B.g_factor_B()  # f itself, with shape_A registered as its primitive
print("  int_x^1 f for x = 1e-2, 1e-4, 1e-6:",
      [round(integrate_regulated(g_f, x, 1)[0], 9) for x in (1e-2, 1e-4, 1e-6)])
print("  lim_{y->1-} int_{1/2}^y f = F(1-) - F(1/2) =",
      hake(f, "right_endpoint", F(1, 2)))
bump = TestFn(0.5, 0.25)
direct, _ = integrate_piecewise(
    lambda ts: g_f.sample(ts) * np.vectorize(bump)(ts), 0.25, 0.75, [], 1e-12)
print(f"<f, phi> = -int F phi' = {pairing(f, bump):.13f};  int f phi = {direct:.13f}")

print("\n== the product on the Riemann-class algebra ==")
# the primitive of the product of two LR distributions is the pointwise
# product of their primitives: here a step U and W(t) = t
U = RegulatedFn.from_step(StepFn([F(0), F(1, 2), F(1)], [F(1), F(3)]))
W = RegulatedFn.from_poly(PiecewisePoly([F(0), F(1)], [(F(0), F(1))]))
uw = product(Distribution(U, "LR"), Distribution(W, "LR"))
print("int_0^1 u w = U(1) W(1) - U(0) W(0) =", primitive_integral(uw, 0, 1),
      "  int_{1/4}^{3/4} u w =", primitive_integral(uw, F(1, 4), F(3, 4)),
      "= 3 (3/4) - 1 (1/4)")

print("\n== integration by parts ==")
g = Multiplier.from_step_density(StepFn.constant(-1, 1, F(1)), F(-1))
value, bound = parts(d, g, -1, 1)
print(f"against g(x) = x+1: value {value} (= g(0)), certified bound {bound}")
g_smooth = Multiplier(B.monomial(1, -1, 1), 0)  # density t: g(x) = x^2 / 2
value, bound = parts(d, g_smooth, -1, 1)
print(f"against g(x) = x^2/2: value {value:.1e} (= g(0) = 0), bound {bound} "
      f"with a sampled variation {g_smooth.variation} "
      f"(certified: {g_smooth.variation_certified})")

print("\n== left-gauge partitions ==")
P = fine_partition(LeftGauge(width=F(1, 4)), F(0), F(1))
print("constant gauge width 1/4:", P.cells)
try:
    fine_partition(LeftGauge(width=lambda y: y / 2), 0, 1, max_cells=16)
except PartitionOverflow as exc:
    print("halving gauge overflows as it must; partial cells down to",
          float(exc.partial.cells[0][0]))

print("\n== Stieltjes integral, exactly on step data ==")
Fs = RegulatedFn.from_step(StepFn([F(0), F(1, 3), F(2, 3), F(1)],
                                  [F(1), F(-2), F(3)]))
g2 = PiecewisePoly([F(0), F(1)], [(F(0), F(0), F(1))])  # g(t) = t^2
val = stieltjes(Fs, g2, F(0), F(1))
print("int F d(t^2) =", val, "(exact rational)")
sums = [stieltjes_sum(Fs, g2, uniform_partition(0, 1, k)) for k in (2, 8, 243)]
print("tagged partition sums converge:", [float(s) for s in sums], "->",
      float(val))
print("atom bookkeeping: mu over (0, 1/3] of a jump-2 step at 1/3:",
      mu_interval(StepFn([F(0), F(1, 3), F(1)], [F(0), F(2)]), F(0), F(1, 3)))

print("\n== Stieltjes integral of a series: int F g' dt plus g's atoms ==")
f4 = B.left_frac_series(4, p=2)
atoms = StepFn([F(0), F(1, 3), F(2, 3), F(1)], [F(0), F(2), F(1)])  # jumps 2, -1
print("E611_F(m=4) against atoms 2 at 1/3 and -1 at 2/3:",
      stieltjes(f4, atoms, F(0), F(1)), "= tagged sum",
      stieltjes_sum(f4, atoms, uniform_partition(0, 1, 3)),
      "= 2 F(1/3) - F(2/3)", 2 * f4.value(F(1, 3)) - f4.value(F(2, 3)))
print("E611_F(m=3) against t^2: int F 2t dt =",
      stieltjes(B.left_frac_series(3, p=2), g2, F(0), F(1)))
