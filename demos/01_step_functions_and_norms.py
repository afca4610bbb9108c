#!/usr/bin/env python3
"""Exact step-function calculus: lattice operations, the three norms, and
the non-completeness norm sequences; then the same lattice on symbolic
data, exact data beside a symbolic series, and the local metric.

The step sections run in exact rational arithmetic; every identity printed
there is an equality of Fractions, not a float comparison.  On symbolic data
the lattice identities hold sample for sample, and each result is shown
through its countably stepped approximant.
"""

from fractions import Fraction

import numpy as np

from leftprim import (Interval, RegulatedFn, StepFn, abs_fn, classify,
                      integrate_regulated, lattice, local_metric, neg_fn, norm,
                      pos_fn, random_stepfn, step_approximation)
from leftprim import builders as B
from leftprim.builders import AlternatingIndicatorTail

F = Fraction

print("== two-bump example ==")
# chi_{(0,1]} - chi_{(1,2]} on [0,2]: the cumulative rises to 1 then falls
f = StepFn.indicator(0, 1, 0, 2) - StepFn.indicator(1, 2, 0, 2)
print("cells:", f.to_cells())
print("Alexiewicz norm (exact):", f.alexiewicz_norm())      # 1
print("L1 norm:", f.l1_norm(), "  sup norm:", f.sup_norm())  # 2, 1
lo_arg, hi_arg = f.alexiewicz_extrema()
print("cumulative extrema attained at:", lo_arg, hi_arg)

print("\n== lattice structure on random step data ==")
rng = np.random.default_rng(0)
g, h = random_stepfn(rng), random_stepfn(rng)
print("join commutes:", g.join(h) == h.join(g))
print("f = f+ - f-   :", g.pos() - g.neg() == g)
print("|f| = f+ + f- :", g.pos() + g.neg() == g.abs())
dom = g.abs().join(h.abs())
print("Riesz monotonicity: ||g|| <= ||dom|| in all three norms:",
      g.abs().l1_norm() <= dom.l1_norm()
      and g.abs().sup_norm() <= dom.sup_norm()
      and g.abs().alexiewicz_norm() <= dom.alexiewicz_norm())
Rg, Rh = RegulatedFn.from_step(g), RegulatedFn.from_step(h)
print("the RegulatedFn + and - stay exact: (g + h) - h == g:",
      ((Rg + Rh) - Rh).payload == g)

print("\n== the lattice on symbolic data ==")
# a sawtooth series shifted down by 3/4 (so it changes sign) and t(1+cos(1/t))
saw = B.left_frac_series(3)
wave = RegulatedFn.lincomb([(1, saw),
                            (-1, RegulatedFn.constant(F(3, 4), saw.interval))])
shape = B.shape_A()
ts = np.linspace(0, 1, 10_001)
ops = {"f v g": lattice(wave, shape, "join"), "f ^ g": lattice(wave, shape, "meet"),
       "f+": pos_fn(wave), "f-": neg_fn(wave), "|f|": abs_fn(wave)}
s = {k: v.sample(ts) for k, v in ops.items()}
w = wave.sample(ts)
print("on 10,001 points: f v g + f ^ g == f + g:",
      np.array_equal(s["f v g"] + s["f ^ g"], w + shape.sample(ts)),
      " f+ - f- == f:", np.array_equal(s["f+"] - s["f-"], w),
      " f+ + f- == |f|:", np.array_equal(s["f+"] + s["f-"], s["|f|"]))
print("each is locally Riemann integrable:",
      all(classify(v).locally_riemann for v in ops.values()))
n = 16
for k, v in ops.items():
    sf = step_approximation(v, n)
    err = float(np.max(np.abs(RegulatedFn.from_step(sf).sample(ts) - s[k])))
    print(f"  step approximant of {k:5s} at n={n}: {len(sf.values):3d} cells, "
          f"error {err:.4f} <= 1/{n}: {err <= 1 / n}")

print("\n== exact data beside a symbolic series ==")
# g, its exact primitive (piecewise linear) and a quarter of E47_G(m=2)
mix = RegulatedFn.lincomb([(1, Rg), (1, RegulatedFn.from_poly(g.cumulative())),
                           (F(1, 4), B.osc_series_G(2))])
print("declared jumps:", ", ".join(str(j) for j in mix.jumps()))
c = classify(mix)
print(f"classified: riemann={c.locally_riemann} lebesgue={c.locally_lebesgue} "
      f"hk={c.locally_hk} certified={c.certified}")
sf = step_approximation(mix, 8)
err = float(np.max(np.abs(RegulatedFn.from_step(sf).sample(ts) - mix.sample(ts))))
print(f"step approximant at n=8: {len(sf.values)} cells, error {err:.4f} <= 1/8:",
      err <= 1 / 8)
a, b = F(1, 4), F(3, 4)
v, e = integrate_regulated(mix, a, b)
P = B.osc_series_F(2)  # the registered primitive of E47_G(m=2)
parts = g.integral(a, b) + g.cumulative().integral(a, b)
print(f"integral over [1/4, 3/4], term by term: {v:.15f} (+- {e:.1e}); "
      f"exact parts {parts} plus P(3/4) - P(1/4) over 4: "
      f"{float(parts) + (P.value(b) - P.value(a)) / 4:.15f}")

print("\n== the normed spaces are not complete ==")
print("the alternating indicator tails converge in norm to a function whose")
print("left limit at 0 does not exist; the norms follow exact laws:")
for n in (1, 2, 5, 10, 25):
    tail = AlternatingIndicatorTail(n)
    a, l = tail.alexiewicz_exact(), tail.l1_exact()
    print(f"  n={n:3d}: ||F-F_n||_A = {a} = 1/{n+1}-1/{n+2}"
          f"   ||F-F_n||_1 = {l} = 1/{n+1}")
    assert a == F(1, n + 1) - F(1, n + 2) and l == F(1, n + 1)

print("\n== the local metric on an exhaustion ==")
# sum of d_k / (1 + d_k) over [0, 1/2], [0, 1], [0, 2], d_k the Alexiewicz
# distance of the two-bump example from 0 on the k-th interval
Rf = RegulatedFn.from_step(f)
zero = RegulatedFn.constant(0, Rf.interval)
exhaustion = [Interval(F(0), F(k, 2)) for k in (1, 2, 4)]
ds = [norm(Rf, "alexiewicz", J) for J in exhaustion]
print("d_k:", ", ".join(map(str, ds)), "  metric:",
      local_metric(Rf, zero, "alexiewicz", exhaustion), "= 1/3 + 1/2 + 1/2")
