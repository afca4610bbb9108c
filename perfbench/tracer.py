"""Span tracing around the public calls of each leftprim module.

The tracer patches the package from the outside: every listed function or
method is replaced by a wrapper that records a span (name, start, end,
parent span, op id) while tracing is switched on, and calls straight through
otherwise.  A function that other modules import by name is replaced in each
module that holds it.  Self time is span time minus the time of its direct
child spans.  Counters (cells, evaluations, operator applications, chain
steps) are collected at the same boundaries; they depend only on the inputs,
so they repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from bisect import bisect_left, bisect_right

import numpy as np


class Tracer:
    def __init__(self):
        self.active = False
        self.names = []
        self.name_ids = {}
        self.op_id = -1
        self.reset()

    def reset(self):
        """Drop recorded spans, self times and counters."""
        self.span_name = array("h")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack = []  # [span index, name, child time]
        self.self_s = {}
        self.calls = {}
        self.counters = {}
        self.err_over_tol = 0.0
        self.last_stepapprox_cells = 0

    def name_id(self, name):
        i = self.name_ids.get(name)
        if i is None:
            i = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def parent_name(self):
        return self.stack[-1][1] if self.stack else None

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def call(self, name, fn, args, kw):
        idx = len(self.span_start)
        parent = self.stack[-1][0] if self.stack else -1
        frame = [idx, name, 0.0]
        self.span_name.append(self.name_id(name))
        self.span_parent.append(parent)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self.stack.append(frame)
        start = time.perf_counter()
        self.span_start.append(start)
        try:
            return fn(*args, **kw)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.span_end[idx] = end
            dur = end - start
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[2]
            self.calls[name] = self.calls.get(name, 0) + 1
            if self.stack:
                self.stack[-1][2] += dur

    def write(self, path):
        """Spans as columns: name id, start, end, parent index, op id."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int16),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 op=np.frombuffer(self.span_op, dtype=np.int32))


TRACER = Tracer()


def _wrap(orig, name, when=None, after=None, before=None):
    """A traced stand-in for ``orig``.

    ``name`` is a span name or a callable of the arguments; ``when`` filters
    the calls that get a span; ``before`` may rewrite the arguments (to count
    integrand evaluations); ``after`` updates counters from the result.
    """
    T = TRACER

    @functools.wraps(orig)
    def traced(*args, **kw):
        if not T.active or (when is not None and not when(args, kw)):
            return orig(*args, **kw)
        span = name(args, kw) if callable(name) else name
        if before is not None:
            args, kw = before(span, args, kw)
        if after is None:
            return T.call(span, orig, args, kw)
        res = T.call(span, orig, args, kw)
        after(span, args, kw, res)
        return res

    return traced


def _replace_everywhere(pkg_modules, owner, attr, traced):
    """Set ``owner.attr`` and every module-level alias of the same object."""
    orig = getattr(owner, attr)
    setattr(owner, attr, traced)
    for mod in pkg_modules:
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, traced)


def _arg(args, kw, i, key, default=None):
    if key in kw:
        return kw[key]
    return args[i] if len(args) > i else default


def install(lp):
    """Patch the imported leftprim package ``lp``; call once per import."""
    import importlib

    T = TRACER
    mods = {}
    for sub in ("stepfn", "symbolic", "funcspace", "quadrature", "integral",
                "gauge", "solver", "systems", "builders", "reporting", "runs",
                "suites", "cli"):
        mods[sub] = importlib.import_module(f"{lp.__name__}.{sub}")
    pkg = [lp] + list(mods.values())
    S, P = mods["stepfn"].StepFn, mods["stepfn"].PiecewisePoly
    R = mods["funcspace"].RegulatedFn

    def method(cls, attr, name, **kw):
        setattr(cls, attr, _wrap(getattr(cls, attr), name, **kw))

    def function(mod, attr, name, **kw):
        _replace_everywhere(pkg, mod, attr, _wrap(getattr(mod, attr), name, **kw))

    # stepfn merges: cells counted on the inputs, independent of the algorithm
    def merge_cells(span, args, kw, res):
        n = len(args[0].values) if hasattr(args[0], "values") else len(args[0].coeffs)
        if len(args) > 1 and hasattr(args[1], "breaks"):
            o = args[1]
            n += len(o.values) if hasattr(o, "values") else len(o.coeffs)
        T.count("stepfn.merge.cells", n)

    for attr in ("zip_with", "refined", "restrict", "merged"):
        method(S, attr, "stepfn.merge", after=merge_cells)
    for attr in ("zip_with", "refined"):
        method(P, attr, "stepfn.merge", after=merge_cells)
    for cls in (S, P):
        for attr in ("__call__", "left_limit", "right_limit"):
            method(cls, attr, "stepfn.eval")
    for attr in ("integral", "cumulative", "variation", "l1_norm", "sup_norm",
                 "alexiewicz_norm", "alexiewicz_extrema"):
        method(S, attr, "stepfn.query")
    for attr in ("integral", "cumulative", "variation"):
        method(P, attr, "stepfn.query")

    # symbolic: sampling and the certified bounds of symbolic kinds
    symbolic_kind = lambda args, kw: args[0].kind not in ("step", "poly")

    def sample_points(span, args, kw, res):
        T.count("symbolic.sample.points", int(np.size(_arg(args, kw, 1, "ts"))))

    method(R, "sample", "symbolic.sample", when=symbolic_kind, after=sample_points)

    def bound_cells_before(span, args, kw):
        outer = T.parent_name()
        if outer != "symbolic.bound":
            n = int(np.size(_arg(args, kw, 1, "us")))
            T.count("symbolic.bound.cells", n)
            if outer == "funcspace.partition":
                T.count("funcspace.partition.cells_bounded", n)
        return args, kw

    for attr in ("osc_bound_array", "sup_bound_cells"):
        method(R, attr, "symbolic.bound", before=bound_cells_before)

    # funcspace
    fs = mods["funcspace"]

    def partition_after(span, args, kw, res):
        T.count("funcspace.partition.cells", len(res.values))
        T.count("funcspace.partition.residual_cells", len(res.residual))

    function(fs, "oscillation_partition", "funcspace.partition",
             after=partition_after)

    def stepapprox_after(span, args, kw, res):
        T.last_stepapprox_cells = len(res.values)

    function(fs, "step_approximation", "funcspace.stepapprox",
             after=stepapprox_after)
    function(fs, "norm", "funcspace.norm")
    function(fs, "integrate_regulated", "funcspace.integrate")

    # quadrature: integrand evaluations counted by wrapping the integrand
    q = mods["quadrature"]

    def count_evals(span, args, kw):
        f = _arg(args, kw, 0, "f")

        def counted(x):
            T.count("quadrature.gauss.f_evals", int(np.size(x)))
            return f(x)

        if "f" in kw:
            kw = dict(kw, f=counted)
        else:
            args = (counted,) + tuple(args[1:])
        return args, kw

    def gauss_after(span, args, kw, res):
        tol = _arg(args, kw, 3, "tol", 1e-10)
        if tol > 0:
            T.err_over_tol = max(T.err_over_tol, float(res[1]) / tol)

    function(q, "adaptive_gauss", "quadrature.gauss", before=count_evals,
             after=gauss_after)
    function(q, "oscillatory_reciprocal", "quadrature.osc")

    # integral
    function(mods["integral"], "parts", "integral.parts")

    # gauge: exact path (F is step data) and float path (F step-approximated)
    g = mods["gauge"]

    def stieltjes_name(args, kw):
        F = _arg(args, kw, 0, "F")
        return "gauge.stieltjes_exact" if F.kind == "step" else "gauge.stieltjes_approx"

    def stieltjes_before(span, args, kw):
        T.last_stepapprox_cells = 0
        return args, kw

    def stieltjes_after(span, args, kw, res):
        if span == "gauge.stieltjes_exact":
            F = _arg(args, kw, 0, "F").payload
            a, b = _arg(args, kw, 2, "a"), _arg(args, kw, 3, "b")
            inner = bisect_left(F.breaks, b) - bisect_right(F.breaks, a)
            T.count(span + ".cells", inner + 1)
        else:
            T.count(span + ".cells", T.last_stepapprox_cells)

    function(g, "stieltjes", stieltjes_name, before=stieltjes_before,
             after=stieltjes_after)

    # solver
    sv = mods["solver"]

    def apply_before(span, args, kw):
        if T.parent_name() == "solver.chain":
            T.count("solver.chain.steps")
        return args, kw

    function(sv, "apply_operator", "solver.apply", before=apply_before)

    def chain_after(span, args, kw, res):
        T.count("solver.chain.omega_stages", res[1].omega_stages)

    function(sv, "iterate_chain", "solver.chain", after=chain_after)
    function(sv, "uniqueness_chain", "solver.unique")

    # systems: builders, and the operator callables they hand to the solver
    sy = mods["systems"]

    def operator_before(span, args, kw):
        if T.parent_name() == "solver.unique":
            T.count("solver.unique.steps")
        return args, kw

    def wrap_operator(fn):
        return _wrap(fn, "systems.operator", before=operator_before)

    def build_after(span, args, kw, res):
        if isinstance(res, sv.CauchySystem):
            res.component_maps = [wrap_operator(f) for f in res.component_maps]
        elif isinstance(res, sv.MajorantOp):
            res.G = wrap_operator(res.G)

    for attr in ("ex31_quadratures", "ex31_system", "ex31_subsuper",
                 "ex01_system", "ex01_majorant", "weighted_system",
                 "random_monotone_system", "order_bounds_for_random"):
        function(sy, attr, "systems.build", after=build_after)

    # reporting and cli
    def export_after(span, args, kw, res):
        if isinstance(res, (str, os.PathLike)) and os.path.exists(res):
            T.count("reporting.export.bytes", os.path.getsize(res))

    function(mods["reporting"], "export", "reporting.export", after=export_after)
    function(mods["cli"], "main", "cli.main")


def layer_metrics(spans_self, calls, counters, err_over_tol):
    """The per-layer metrics, from one traced pass."""
    c = lambda k: calls.get(k, 0)
    s = lambda k: spans_self.get(k, 0.0)
    n = lambda k: counters.get(k, 0)
    return {
        "stepfn.merge.calls": (c("stepfn.merge"), "count"),
        "stepfn.merge.cells": (n("stepfn.merge.cells"), "count"),
        "stepfn.merge.self_s": (s("stepfn.merge"), "s"),
        "stepfn.eval.calls": (c("stepfn.eval"), "count"),
        "stepfn.eval.self_s": (s("stepfn.eval"), "s"),
        "stepfn.query.calls": (c("stepfn.query"), "count"),
        "stepfn.query.self_s": (s("stepfn.query"), "s"),
        "symbolic.sample.calls": (c("symbolic.sample"), "count"),
        "symbolic.sample.points": (n("symbolic.sample.points"), "count"),
        "symbolic.sample.self_s": (s("symbolic.sample"), "s"),
        "symbolic.bound.calls": (c("symbolic.bound"), "count"),
        "symbolic.bound.cells": (n("symbolic.bound.cells"), "count"),
        "symbolic.bound.self_s": (s("symbolic.bound"), "s"),
        "funcspace.partition.calls": (c("funcspace.partition"), "count"),
        "funcspace.partition.cells": (n("funcspace.partition.cells"), "count"),
        "funcspace.partition.cells_bounded":
            (n("funcspace.partition.cells_bounded"), "count"),
        "funcspace.partition.kept_ratio": (
            n("funcspace.partition.cells")
            / max(1, n("funcspace.partition.cells_bounded")), "ratio"),
        "funcspace.partition.residual_cells":
            (n("funcspace.partition.residual_cells"), "count"),
        "funcspace.partition.self_s": (s("funcspace.partition"), "s"),
        "funcspace.stepapprox.calls": (c("funcspace.stepapprox"), "count"),
        "funcspace.stepapprox.self_s": (s("funcspace.stepapprox"), "s"),
        "funcspace.norm.calls": (c("funcspace.norm"), "count"),
        "funcspace.norm.self_s": (s("funcspace.norm"), "s"),
        "funcspace.integrate.calls": (c("funcspace.integrate"), "count"),
        "funcspace.integrate.self_s": (s("funcspace.integrate"), "s"),
        "quadrature.gauss.calls": (c("quadrature.gauss"), "count"),
        "quadrature.gauss.f_evals": (n("quadrature.gauss.f_evals"), "count"),
        "quadrature.gauss.self_s": (s("quadrature.gauss"), "s"),
        "quadrature.err_over_tol": (err_over_tol, "ratio"),
        "quadrature.osc.calls": (c("quadrature.osc"), "count"),
        "quadrature.osc.self_s": (s("quadrature.osc"), "s"),
        "integral.parts.calls": (c("integral.parts"), "count"),
        "integral.parts.self_s": (s("integral.parts"), "s"),
        "gauge.stieltjes_exact.calls": (c("gauge.stieltjes_exact"), "count"),
        "gauge.stieltjes_exact.cells": (n("gauge.stieltjes_exact.cells"), "count"),
        "gauge.stieltjes_exact.self_s": (s("gauge.stieltjes_exact"), "s"),
        "gauge.stieltjes_approx.calls": (c("gauge.stieltjes_approx"), "count"),
        "gauge.stieltjes_approx.cells": (n("gauge.stieltjes_approx.cells"), "count"),
        "gauge.stieltjes_approx.self_s": (s("gauge.stieltjes_approx"), "s"),
        "solver.apply.calls": (c("solver.apply"), "count"),
        "solver.apply.self_s": (s("solver.apply"), "s"),
        "solver.chain.calls": (c("solver.chain"), "count"),
        "solver.chain.steps": (n("solver.chain.steps"), "count"),
        "solver.chain.omega_stages": (n("solver.chain.omega_stages"), "count"),
        "solver.chain.self_s": (s("solver.chain"), "s"),
        "solver.unique.calls": (c("solver.unique"), "count"),
        "solver.unique.steps": (n("solver.unique.steps"), "count"),
        "solver.unique.self_s": (s("solver.unique"), "s"),
        "systems.operator.calls": (c("systems.operator"), "count"),
        "systems.operator.self_s": (s("systems.operator"), "s"),
        "systems.build.calls": (c("systems.build"), "count"),
        "systems.build.self_s": (s("systems.build"), "s"),
        "reporting.export.calls": (c("reporting.export"), "count"),
        "reporting.export.bytes": (n("reporting.export.bytes"), "bytes"),
        "reporting.export.self_s": (s("reporting.export"), "s"),
        "cli.main.calls": (c("cli.main"), "count"),
        "cli.main.self_s": (s("cli.main"), "s"),
    }


# span names grouped as in the workload split claims
GROUPS = {
    "exact_core": ("stepfn.merge", "stepfn.eval", "stepfn.query",
                   "gauge.stieltjes_exact"),
    "approx_core": ("symbolic.sample", "symbolic.bound", "funcspace.partition",
                    "funcspace.stepapprox", "funcspace.norm",
                    "funcspace.integrate", "quadrature.gauss", "quadrature.osc",
                    "gauge.stieltjes_approx", "stepfn.eval"),
    "solve_core": ("solver.apply", "solver.chain", "solver.unique",
                   "systems.operator", "systems.build"),
    "stepfn_merge": ("stepfn.merge",),
}
