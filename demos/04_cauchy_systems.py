#!/usr/bin/env python3
"""Monotone fixed points of distributional Cauchy systems.

Runs the quantized two-component system between its +-4-shape bracket
(every iterate is an exact arctan/tanh coefficient times a shape), the
segment-affine operator whose fixed point needs left-continuity closure,
and the uniqueness-majorant chain that certifies through omega-stages.
"""

import numpy as np

from leftprim.runs import run_ex01, run_ex31
from leftprim.solver import as_grid, iterate_chain, uniqueness_chain
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
