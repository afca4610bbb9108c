"""Run reports, CSV export, and the structured-text config format.

Config files are a plain "key: value" format with nested blocks, parsed as a
YAML subset via ``yaml.safe_load``.  CSV export writes '.' decimal points,
a header row, one sample per row at grid points plus the declared
discontinuities (two rows per jump: the left value at ``t`` and the right
limit labelled ``t+``).  Step functions are read from the exact "p/q"
rational cell encoding.
"""

from __future__ import annotations

import csv
import io
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


def exact_expr(kind: str, q: Fraction) -> dict:
    """An exact coefficient and its 12-digit decimal, e.g. arctan(p/q)."""
    import math

    q = Fraction(q)
    fn = {"arctan": math.atan, "tanh": math.tanh}[kind]
    val = fn(abs(q.numerator) / q.denominator)  # both kinds are odd
    sign = "" if q >= 0 else "-"
    return {"exact": f"{sign}{kind}({frac_str(abs(q))})",
            "decimal": f"{(val if q >= 0 else -val):.12f}",
            "tag": "exact"}


# -- step function serialization ----------------------------------------------------


def stepfn_from_doc(doc: dict) -> StepFn:
    """The step function of a config file's ``stepfn`` block; a missing key,
    a ``cells`` entry that is not a non-empty list of x, y, v mappings, or a
    number that does not parse raises :class:`ConfigError` naming it."""
    for key in ("cells", "base_value", "base_point"):
        if key not in doc:
            raise ConfigError(f"the stepfn block has no {key!r} key")
    cells = doc["cells"]
    if not isinstance(cells, list) or not cells:
        raise ConfigError(f"the stepfn block's cells are not a non-empty list: {cells!r}")
    for i, c in enumerate(cells):
        key = next((k for k in "xyv" if not isinstance(c, dict) or k not in c), None)
        if key:
            raise ConfigError(f"cell {i} of the stepfn block has no {key!r} key")
    try:
        cells = [tuple(parse_frac(c[k]) for k in "xyv") for c in cells]
        base_value, base_point = parse_frac(doc["base_value"]), parse_frac(doc["base_point"])
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"the stepfn block: {exc}") from exc
    f = StepFn.from_cells(cells, base_value)
    if f.breaks[0] != base_point:
        raise StepDataError("base_point differs from the first cell's start")
    return f


# -- config -----------------------------------------------------------------------------


class ConfigError(ValueError):
    """A config file that cannot be read, is not a key: value mapping,
    lacks a key its command reads or holds one it does not read."""


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh) or {}
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(" ".join(str(exc).split())) from exc  # one line
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: not a key: value mapping")
    return doc


# -- CSV export ---------------------------------------------------------------------------


def export_function_csv(f: RegulatedFn, out, grid: int = 256):
    """Sampled rows t,value; jumps contribute a (t, left value) row and a
    (t+, right limit) row.  Right limits that do not exist are left blank.

    Cost: one ``f.sample`` pass over all rows, plus one scalar right limit
    per jump."""
    lo, hi = float(f.interval.lo), float(f.interval.hi)
    jumps = sorted(float(j) for j in f.jumps())
    ts = np.unique(np.concatenate([np.linspace(lo, hi, grid + 1),
                                   np.array(jumps)]))
    rows = []
    jset = set(jumps)
    for t, v in zip(ts.tolist(), f.sample(ts).tolist()):
        rows.append((repr(t), repr(v)))
        if t in jset and t < hi:
            r = f.right_limit(t)
            rows.append((repr(t) + "+", "" if r is None else repr(float(r))))
    w = csv.writer(out)
    w.writerow(["t", "value"])
    w.writerows(rows)


def export_trace_csv(trace: IterationTrace, grid, out, thin: int = 1):
    """Rows stage,t,component values."""
    w = csv.writer(out)
    ncomp = len(trace.stages[0]) if trace.stages else 0
    w.writerow(["stage", "t"] + [f"y{i+1}" for i in range(ncomp)])
    for label, stage in zip(trace.labels, trace.stages):
        for k in range(0, len(grid), thin):
            w.writerow([label, repr(float(grid[k]))]
                       + [repr(float(comp[k])) for comp in stage])


def export(obj, path, grid=None, thin: int = 1):
    """CSV export of a function or a chain trace; returns ``path``."""
    if isinstance(obj, IterationTrace) and grid is None:
        raise ValueError("trace export needs the grid")
    buf = io.StringIO(newline="")  # rendered first: a failure writes no file
    if isinstance(obj, IterationTrace):
        export_trace_csv(obj, grid, buf, thin)
    elif isinstance(obj, RegulatedFn):
        export_function_csv(obj, buf, grid or 256)
    else:
        raise TypeError(f"cannot export {type(obj).__name__}")
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())
    return path
