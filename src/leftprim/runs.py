"""High-level experiment drivers producing RunReports."""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np

from . import systems as SY
from .reporting import RunReport, exact_expr
from .solver import (as_grid, residual, smallest_greatest, windowed_chain,
                     windowed_envelope)


def run_ex31(quad_tol: float = 1e-10, per_unit: int = 4096,
             max_steps: int = 40, T=1) -> RunReport:
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
                                                   max_steps=max_steps)
    lo_tags = [f.tag[0] for f in y_lo]
    hi_tags = [f.tag[0] for f in y_hi]
    lo_ints = (lo_tags[0][1], lo_tags[1][1])
    hi_ints = (hi_tags[0][1], hi_tags[1][1])
    agree = (lo_ints == up_ints[-1]) and (hi_ints == dn_ints[-1])

    report = RunReport("ex31")
    report.parameters = {"quad_tol": quad_tol, "grid_per_unit": per_unit,
                         "T": T, "J_A": f"{JA:.12f}", "J_B": f"{JB:.12f}",
                         "quadrature_error_bound": quad_err}
    report.outputs = {
        "smallest": {
            "component_1": exact_expr("arctan", Fraction(lo_ints[0], 10 ** 4)),
            "component_2": exact_expr("tanh", Fraction(lo_ints[1], 10 ** 4)),
            "shape_1": "t*(1+cos(1/t))",
            "shape_2": "t*(1-sin(1/t))",
        },
        "greatest": {
            "component_1": exact_expr("arctan", Fraction(hi_ints[0], 10 ** 4)),
            "component_2": exact_expr("tanh", Fraction(hi_ints[1], 10 ** 4)),
            "shape_1": "t*(1+cos(1/t))",
            "shape_2": "t*(1-sin(1/t))",
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


def run_ex01(T: float = 5.0, per_unit: int = 256, tol: float = 1e-9,
             max_steps: int = 30_000) -> RunReport:
    """Fixed point of the segment-affine operator with H(t) = t^2, compared
    with the closed form, plus the uniqueness-majorant certification.

    The up chain runs window by window (:func:`~leftprim.solver.windowed_chain`)
    and ends in a sub/supersolution bracket of width ``bracket_width``;
    ``max_steps`` bounds its plain steps over all windows together, and the
    operator applications of the envelope certificate.  The bracket identifies
    the chain limit only where uniqueness is certified:
    :func:`~leftprim.solver.windowed_envelope` bounds the difference of any
    two solutions by ``uniqueness_bound`` on ``uniqueness_interval`` =
    [0, horizon], which is [0, T] when every window contracts."""
    t0 = time.time()
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
    report.system = S
    return report
