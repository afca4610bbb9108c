"""High-level experiment drivers producing RunReports."""

from __future__ import annotations

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np

from . import systems as SY
from .reporting import RunReport, exact_expr
from .solver import (as_grid, bounds_to_subsuper, residual, smallest_greatest,
                     windowed_chain, windowed_envelope)


def run_ex31(quad_tol: float = 1e-10, per_unit: int = 4096, T=1) -> RunReport:
    """Both monotone chains of the quantized two-component system.

    Reports the smallest/greatest solution coefficients as exact quantized
    rationals inside arctan/tanh, the observed stabilization indices of the
    scalar-reduction path and the generic chain path, and their agreement.
    """
    t0 = time.time()
    JA, JB, quad_err = SY.ex31_quadratures(tol=quad_tol)
    scalar = SY.QuantizedCoefficients(JA, JB)
    _, up_ints, up_stab = scalar.chain(-4.0, -4.0)
    _, dn_ints, dn_stab = scalar.chain(4.0, 4.0)

    S = SY.ex31_system(T=T, per_unit=per_unit, quad_tol=quad_tol)
    pair = SY.ex31_subsuper(S)
    y_lo, y_hi, (tr_up, tr_dn) = smallest_greatest(S, pair, tol=1e-12,
                                                   max_steps=40)
    lo_ints = tuple(f.tag[0][1] for f in y_lo)  # the quantized integers
    hi_ints = tuple(f.tag[0][1] for f in y_hi)
    agree = (lo_ints == up_ints[-1]) and (hi_ints == dn_ints[-1])

    report = RunReport("ex31")
    report.parameters = {"quad_tol": quad_tol, "grid_per_unit": per_unit,
                         "T": T, "J_A": f"{JA:.12f}", "J_B": f"{JB:.12f}",
                         "quadrature_error_bound": quad_err}
    shapes = {"shape_1": "t*(1+cos(1/t))", "shape_2": "t*(1-sin(1/t))"}
    report.outputs = {
        "smallest": {
            "component_1": exact_expr("arctan", Fraction(lo_ints[0], 10 ** 4)),
            "component_2": exact_expr("tanh", Fraction(lo_ints[1], 10 ** 4)),
            **shapes,
        },
        "greatest": {
            "component_1": exact_expr("arctan", Fraction(hi_ints[0], 10 ** 4)),
            "component_2": exact_expr("tanh", Fraction(hi_ints[1], 10 ** 4)),
            **shapes,
        },
        "scalar_and_generic_paths_agree": agree,
        "truncation_note": (
            f"domain truncated to [0, {T}]; the coefficients are determined "
            "by integrals over [0, 1] alone, so the displayed solutions "
            "extend to the unbounded domain with the same coefficients"),
    }
    report.residuals = {"smallest": tr_up.residual,
                        "greatest": tr_dn.residual,
                        "tag": "grid sup-norm"}
    report.stabilization = {
        "scalar_up": up_stab, "scalar_down": dn_stab,
        "generic_up": tr_up.stabilization_index,
        "generic_down": tr_dn.stabilization_index,
        "reference_count": 16,
    }
    report.timing_s = time.time() - t0
    report.solutions = (y_lo, y_hi)
    report.traces = (tr_up, tr_dn)
    report.system = S
    return report


def run_ex01(T: float = 5.0, per_unit: int = 256, tol: float = 1e-9) -> RunReport:
    """Fixed point of the segment-affine operator with H(t) = t^2, compared
    with the closed form, plus the uniqueness-majorant certification.

    The up chain runs window by window (:func:`~leftprim.solver.windowed_chain`)
    and ends in a sub/supersolution bracket of width ``bracket_width``;
    30,000 steps bound its plain steps over all windows together, and the
    operator applications of the envelope certificate.  The bracket identifies
    the chain limit only where uniqueness is certified:
    :func:`~leftprim.solver.windowed_envelope` bounds the difference of any
    two solutions by ``uniqueness_bound`` on ``uniqueness_interval`` =
    [0, horizon], which is [0, T] when every window contracts."""
    t0 = time.time()
    max_steps = 30_000
    H = lambda ts: np.asarray(ts, dtype=float) ** 2
    S = SY.ex01_system(H, T=T, per_unit=per_unit)
    x, _, trace = windowed_chain(S, S.constant_start([-1.0]), max_steps)
    closed = SY.ex01_closed_form(H, 2.0, S.grid)
    err = float(np.max(np.abs(as_grid(x[0], S.grid) - closed)))
    M = SY.ex01_majorant(T=T, per_unit=per_unit)
    horizon, _, utrace = windowed_envelope(M, tol=tol, max_steps=max_steps)
    bound = max((w for w in utrace.bracket_widths if w < math.inf),
                default=math.inf)
    report = RunReport("ex01")
    report.parameters = {"T": T, "grid_per_unit": per_unit, "H": "t^2",
                         "tol": tol}
    report.outputs = {"closed_form_sup_error": err,
                      "value_at_1": {"exact": "H(1)-H'_-(1) = -1",
                                     "decimal": f"{float(as_grid(x[0], S.grid)[int(np.searchsorted(S.grid, 1.0))]):.12f}",
                                     "tag": f"tol={tol}"},
                      "uniqueness_certified": utrace.stabilized,
                      "uniqueness_omega_stages": utrace.omega_stages,
                      "uniqueness_interval": [0, horizon],
                      "uniqueness_bound": bound,
                      "bracket_width": max(trace.bracket_widths),
                      "truncation_note": (
                          f"domain truncated to [0, {T}]; beyond T the fixed "
                          "point continues by the same segment recursion, "
                          "adding i to the constant on each (i, i+1]; the "
                          "bracket identifies the chain limit only where "
                          f"uniqueness is certified, on [0, {horizon}]")}
    report.residuals = {"fixed_point": residual(S, x), "tag": "grid sup-norm"}
    report.stabilization = {"steps": trace.stabilization_index,
                            "omega_stages": trace.omega_stages,
                            "uniqueness_steps": utrace.stabilization_index}
    report.timing_s = time.time() - t0
    report.solution = x
    report.traces = (trace,)
    report.system = S
    return report


def run_random_monotone(cfg: dict, seed: int = 0) -> RunReport:
    """Smallest and greatest solutions of the seeded random monotone system
    a ``solve`` config describes; the report echoes the config and keeps the
    up chain's trace for export."""
    t0 = time.time()
    rng = np.random.default_rng(int(cfg.get("seed", seed)))
    S = SY.random_monotone_system(rng, m=int(cfg.get("dimension", 2)),
                                  per_unit=int(cfg.get("grid", 128)))
    if "initial_values" in cfg:  # replace runs the length check again
        S = dataclasses.replace(S, c=[float(c) for c in cfg["initial_values"]])
    pair = bounds_to_subsuper(S, *SY.order_bounds_for_random(S))
    y_lo, y_hi, (tr_up, tr_dn) = smallest_greatest(
        S, pair, tol=float(cfg.get("tol", 1e-10)),
        max_steps=int(cfg.get("max_steps", 300)))
    report = RunReport("solve:random_monotone")
    report.parameters = dict(cfg)
    report.outputs = {
        "smallest_at_T": [float(as_grid(y, S.grid)[-1]) for y in y_lo],
        "greatest_at_T": [float(as_grid(y, S.grid)[-1]) for y in y_hi],
    }
    report.residuals = {"smallest": tr_up.residual, "greatest": tr_dn.residual}
    report.stabilization = {"up": tr_up.stabilization_index,
                            "down": tr_dn.stabilization_index}
    report.timing_s = time.time() - t0
    report.traces = (tr_up,)
    report.system = S
    return report
