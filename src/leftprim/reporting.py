"""Run reports, CSV export, and the structured-text config format.

Config files are a plain "key: value" format with nested blocks, parsed as a
YAML subset via ``yaml.safe_load``.  CSV export writes '.' decimal points,
a header row, one sample per row at grid points plus the declared
discontinuities (two rows per jump: the left value at ``t`` and the right
limit labelled ``t+``).  Exported step functions round-trip exactly through
the "p/q" rational cell encoding.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import yaml

from .funcspace import RegulatedFn
from .solver import IterationTrace
from .stepfn import StepDataError, StepFn


@dataclass
class RunReport:
    """Structured record of one run; every number carries 'exact' or a tol.

    ``system``, ``solution`` / ``solutions`` and ``traces`` keep the solved
    system, its solution (or smallest/greatest pair) and the chain traces
    for export; they are not part of the text report.
    """

    run_id: str
    parameters: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    stabilization: dict = field(default_factory=dict)
    timing_s: float = 0.0
    system: object = None
    solution: list = None
    solutions: tuple = ()
    traces: tuple = ()

    def to_text(self) -> str:
        doc = {
            "run": self.run_id,
            "parameters": _plain(self.parameters),
            "outputs": _plain(self.outputs),
            "residuals": _plain(self.residuals),
            "stabilization": _plain(self.stabilization),
            "timing_s": round(self.timing_s, 3),
        }
        return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, Fraction):
        return frac_str(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def frac_str(q: Fraction) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 \
        else str(q.numerator)


def parse_frac(s) -> Fraction:
    if isinstance(s, (int, Fraction)):
        return Fraction(s)
    return Fraction(str(s))


def exact_expr(kind: str, q: Fraction, digits: int = 12) -> dict:
    """An exact coefficient with its decimal rendering, e.g. arctan(p/q)."""
    import math

    q = Fraction(q)
    fn = {"arctan": math.atan, "tanh": math.tanh}[kind]
    val = fn(abs(q.numerator) / q.denominator)  # both kinds are odd
    sign = "" if q >= 0 else "-"
    return {"exact": f"{sign}{kind}({frac_str(abs(q))})",
            "decimal": f"{(val if q >= 0 else -val):.{digits}f}",
            "tag": "exact"}


# -- step function serialization ----------------------------------------------------


def stepfn_to_doc(f: StepFn) -> dict:
    return {
        "base_point": frac_str(f.breaks[0]),
        "base_value": frac_str(f.base_value),
        "cells": [{"x": frac_str(x), "y": frac_str(y), "v": frac_str(v)}
                  for x, y, v in f.to_cells()],
    }


def stepfn_from_doc(doc: dict) -> StepFn:
    cells = [(parse_frac(c["x"]), parse_frac(c["y"]), parse_frac(c["v"]))
             for c in doc["cells"]]
    f = StepFn.from_cells(cells, parse_frac(doc["base_value"]))
    if f.breaks[0] != parse_frac(doc["base_point"]):
        raise StepDataError("base_point differs from the first cell's start")
    return f


# -- config -----------------------------------------------------------------------------


def load_config(path) -> dict:
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    return doc or {}


def dump_config(doc: dict, path):
    with open(path, "w") as fh:
        yaml.safe_dump(_plain(doc), fh, sort_keys=False)


# -- CSV export ---------------------------------------------------------------------------


def export_function_csv(f: RegulatedFn, out, grid: int = 256):
    """Sampled rows t,value; jumps contribute a (t, left value) row and a
    (t+, right limit) row.  Right limits that do not exist are left blank."""
    lo, hi = float(f.interval.lo), float(f.interval.hi)
    jumps = sorted(float(j) for j in f.jumps())
    ts = np.linspace(lo, hi, grid + 1)
    rows = []
    jset = set(jumps)
    for t in np.unique(np.concatenate([ts, np.array(jumps)])):
        rows.append((_fmt_t(t), repr(float(f.value(t)))))
        if t in jset and t < hi:
            r = f.right_limit(t)
            rows.append((_fmt_t(t) + "+", "" if r is None else repr(float(r))))
    w = csv.writer(out)
    w.writerow(["t", "value"])
    w.writerows(rows)


def _fmt_t(t: float) -> str:
    return repr(float(t))


def export_trace_csv(trace: IterationTrace, grid, out, thin: int = 1):
    """Rows stage,t,component values."""
    w = csv.writer(out)
    ncomp = len(trace.stages[0]) if trace.stages else 0
    w.writerow(["stage", "t"] + [f"y{i+1}" for i in range(ncomp)])
    for label, stage in zip(trace.labels, trace.stages):
        for k in range(0, len(grid), thin):
            w.writerow([label, repr(float(grid[k]))]
                       + [repr(float(comp[k])) for comp in stage])


def export(obj, path, format: str = "csv", grid=None, thin: int = 1):
    """Dispatching exporter for functions, traces, and reports."""
    if format == "report":
        if not isinstance(obj, RunReport):
            raise TypeError("format='report' exports a RunReport")
        text = obj.to_text()
        with open(path, "w") as fh:
            fh.write(text)
        return path
    if isinstance(obj, RunReport):
        raise ValueError("reports export with format='report'")
    if isinstance(obj, IterationTrace) and grid is None:
        raise ValueError("trace export needs the grid")  # before truncating path
    with open(path, "w", newline="") as fh:
        if isinstance(obj, IterationTrace):
            export_trace_csv(obj, grid, fh, thin)
        elif isinstance(obj, RegulatedFn):
            export_function_csv(obj, fh, grid or 256)
        elif isinstance(obj, StepFn):
            export_function_csv(RegulatedFn.from_step(obj), fh, grid or 256)
        else:
            raise TypeError(f"cannot export {type(obj).__name__}")
    return path
