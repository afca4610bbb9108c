#!/usr/bin/env python3
"""The catalogued left-regulated function families and what integrals exist.

Three sibling families built on phi = frac(n t) separate the integrability
classes: a bounded one (Riemann), one with absolutely integrable square-root
singularities (Lebesgue but not Riemann), and one with conditional 1/phi
oscillations (HK only).  Each has a continuous registered primitive, checked
here by finite differences.  Every catalogued family, bounded or not, has a
countably stepped approximant within 1/n of it.
"""

from fractions import Fraction

import numpy as np

from leftprim import (RegulatedFn, classify, fd_derivative_check,
                      integrate_regulated, limits, step_approximation)
from leftprim import builders as B

print("== branch-aware evaluation ==")
G = B.osc_series_G(3)
left, value, right = limits(G, 0.5)
print(f"series at t=1/2: left limit {left:.6f}, value {value:.6f} (equal:",
      f"{left == value}), right limit {'absent' if right is None else right}")
print("  (the value at a jump is the left branch; the right limit does not")
print("   exist because of the reciprocal phase)")

print("\n== integrability classification ==")
for name, params in [("t_G", {"m": 4}), ("E409_Gm", {"m": 2}),
                     ("t2_Gm", {"m": 2}), ("recip_t", {}), ("heaviside_step", {})]:
    f = B.build_function(name, **params)
    c = classify(f)
    print(f"  {name:14s} {f.kind:8s} riemann={c.locally_riemann!s:5s} "
          f"lebesgue={c.locally_lebesgue!s:5s} hk={c.locally_hk!s:5s} "
          f"certified={c.certified}")

print("\n== countably stepped approximants at n = 8 ==")
print("(max |S_n - f| on 10,001 points; cells next to a second-kind")
print(" discontinuity stop at the width floor)")
n = 8
for f in [B.t_times_G(4), B.hard_series_Gm(2), B.g_factor_A(), B.heaviside(),
          B.monomial(2, -1, 1), B.recip_t(Fraction(1, 10), 1)]:
    sf = step_approximation(f, n)
    ts = np.linspace(float(f.interval.lo), float(f.interval.hi), 10_001)
    err = float(np.max(np.abs(RegulatedFn.from_step(sf).sample(ts) - f.sample(ts))))
    print(f"  {f.name:16s} on [{f.interval.lo}, {f.interval.hi}]: "
          f"{len(sf.values):5d} cells, error {err:.4f} <= 1/{n}: {err <= 1 / n}")

print("\n== primitives check out by finite differences ==")
pts = [0.137, 0.402, 0.561, 0.713, 0.886]
rep = fd_derivative_check(B.osc_series_F(4), B.osc_series_G(4), pts, h0=1e-4)
print("  smooth-series derivative max deviation:", rep["max_deviation"])
rep = fd_derivative_check(B.hard_series_Fm(2), B.hard_series_Gm(2), pts,
                          h0=1e-4)
print("  hard-series derivative max deviation:  ", rep["max_deviation"])

print("\n== certified oscillatory quadrature ==")
v, err = integrate_regulated(B.shape_A(), 0, 1, tol=1e-12)
print(f"  integral of t(1+cos(1/t)) over [0,1] = {v:.12f} (+- {err:.1e})")
v2, _ = integrate_regulated(B.g_factor_B(), 0, 0.3)
print(f"  registry: integral of the derivative factor to t=0.3 -> "
      f"{v2:.12f} = shape value {B.shape_A().value(0.3):.12f}")
v3, _ = B.g_factor_B().expr.integral(0, 0.3)
print(f"  the factor's own closed form, through its primitive shape -> {v3:.12f}")
