#!/usr/bin/env python3
"""Monotone fixed points of distributional Cauchy systems.

Runs the quantized two-component system between its +-4-shape bracket
(every iterate is an exact arctan/tanh coefficient times a shape), the
segment-affine operator whose fixed point needs left-continuity closure
(window by window, and as one plain chain through omega-stages), the
uniqueness-majorant chain that certifies through omega-stages, a
second-order equation reduced to a first-order system, and the minimal and
maximal solutions of a system under an L1 growth bound.
"""

import dataclasses

import numpy as np

from leftprim import (GridFn, Interval, L1Config, iterate_chain, make_grid,
                      minmax_l1, reduce_higher_order)
from leftprim.runs import run_ex01, run_ex31
from leftprim.solver import as_grid, uniqueness_chain, windowed_chain
from leftprim import systems as SY

print("== quantized two-component system ==")
rep = run_ex31(quad_tol=1e-10)
out = rep.outputs
print("smallest solution coefficients:",
      out["smallest"]["component_1"]["exact"],
      out["smallest"]["component_2"]["exact"])
print("greatest solution coefficients:",
      out["greatest"]["component_1"]["exact"],
      out["greatest"]["component_2"]["exact"])
print("scalar reduction and generic chain agree:",
      out["scalar_and_generic_paths_agree"])
print("stabilization:", rep.stabilization, f"in {rep.timing_s:.2f}s")

print("\n== segment-affine operator: closure at the branch points ==")
rep = run_ex01(T=5.0, per_unit=256)
print("sup error against the closed form:",
      rep.outputs["closed_form_sup_error"])
print("value at t=1 (the left-limit redefinition):",
      rep.outputs["value_at_1"]["decimal"])
print("uniqueness majorant certified:", rep.outputs["uniqueness_certified"],
      "on", rep.outputs["uniqueness_interval"], "with envelope bound",
      rep.outputs["uniqueness_bound"], "in",
      rep.stabilization["uniqueness_steps"], "operator applications")

print("\n== a watchable uniqueness chain ==")
M = SY.ex01_majorant(T=3, per_unit=64)
certified, trace = uniqueness_chain(M, tol=1e-9)
print("envelope sup after each recorded stage:")
for label, stage in zip(trace.labels, trace.stages):
    if label.startswith("omega") or label in ("start",):
        print(f"  {label:10s} sup = {float(np.max(stage[0])):.3e}")
print("certified:", certified)

print("\n== the segment-affine operator as one plain chain ==")
H = lambda ts: np.asarray(ts, dtype=float) ** 2
S = SY.ex01_system(H, T=3, per_unit=64)
closed = SY.ex01_closed_form(H, 2.0, S.grid)
start = S.constant_start([-1.0])
y, trace = iterate_chain(S, start, "up", tol=1e-10, max_steps=200,
                         record_every=0)
print(f"stabilized: {trace.stabilized} after {trace.stabilization_index} steps "
      f"and {trace.omega_stages} omega-stages (each closes t = 1, 2, 3 from the "
      "left); sup error against the closed form",
      f"{float(np.max(np.abs(as_grid(y[0], S.grid) - closed))):.1e}")
y, _, trace = windowed_chain(S, start, 30_000)
print(f"window by window: {trace.stabilization_index} steps, sup error",
      f"{float(np.max(np.abs(as_grid(y[0], S.grid) - closed))):.1e}")
_, _, trace = windowed_chain(S, start, 3)
print("with a budget of 3 steps: stabilized", trace.stabilized,
      "and bracket widths", trace.bracket_widths, "(inf: unbracketed)")

print("\n== a second-order equation as a first-order system ==")
# y'' = k with y(0) = y'(0) = 0: y_1' = y_2, y_2' = k; the last map returns
# the primitive k t of the right-hand side
k = 3.0
grid = make_grid(0, 1, 64)
S = reduce_higher_order(2, lambda x: GridFn(grid, k * grid), [0.0, 0.0],
                        Interval(0, 1), grid)
y, trace = iterate_chain(S, S.constant_start([0.0, 0.0]), "up", tol=1e-12)
print(f"y'' = {k}: stabilized after {trace.stabilization_index} steps; "
      "sup |y - k t^2/2| on the grid =",
      float(np.max(np.abs(as_grid(y[0], grid) - k * grid ** 2 / 2))))

print("\n== minimal and maximal solutions under L1 growth ==")
# a seeded random monotone system with zero initial values; every component
# map has L1 norm <= Q = 10, so R = Q(R) = 10 bounds the solutions
S = dataclasses.replace(SY.random_monotone_system(np.random.default_rng(7), m=2),
                        c=[0.0, 0.0])
y_min, y_max, (_, R, (up, down)) = minmax_l1(S, L1Config(Q=lambda r: 10.0))
at_1 = lambda ys: [round(float(as_grid(v, S.grid)[-1]), 9) for v in ys]
print(f"R = {R}; minimal solution at t = 1: {at_1(y_min)}, maximal: "
      f"{at_1(y_max)}; residuals {up.residual:.1e}, {down.residual:.1e}")
