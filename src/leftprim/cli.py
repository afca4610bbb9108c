"""Command-line driver.

Each subcommand takes only the flags it reads (any other exits 2):
``integrate`` --m --tol --T --out; ``norm`` --m --grid --tol --T --out;
``stieltjes`` --m --tol --T --out; ``example`` --m --grid --tol --T --out
--format; ``solve`` --out --format, the rest from its config file (key:
value blocks holding only keys its system kind reads; see the demos
directory); ``suite`` --count --seed --out.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

import numpy as np

from . import builders as B
from . import gauge, intervals, quadrature, runs, solver, stepfn, symbolic
from . import suites as SU
from . import systems as SY
from .funcspace import integrate_regulated, limits, norm
from .gauge import stieltjes
from .reporting import (ConfigError, RunReport, export, load_config,
                        stepfn_from_doc)

# the package's typed errors: reported as one stderr line, exit code 1
_ERRORS = (intervals.DomainError, symbolic.SecondKindLimit, stepfn.StepDataError,
           quadrature.EstimationError, quadrature.IntegrabilityError,
           gauge.PartitionError, solver.MonotonicityError,
           solver.OrderBoundError, solver.FixedPointError,
           solver.SolverDataError, ConfigError)

_FLAGS = {
    "m": dict(type=int, default=None, help="series truncation depth"),
    "grid": dict(type=int, default=4096,
                 help="grid density per unit interval"),
    "tol": dict(type=float, default=1e-10),
    "T": dict(type=float, default=None,
              help="domain truncation for unbounded problems"),
    "seed": dict(type=int, default=0),
    "out": dict(type=str, default=None, help="output file (default: stdout)"),
    "format": dict(choices=("csv", "report"), default="report"),
}


def _command(sub, name, func, help, flags):
    """The parser of subcommand ``name``, with the shared ``flags`` it reads."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func)
    for flag in flags.split():
        p.add_argument(f"--{flag}", **_FLAGS[flag])
    return p


def _build(name, args):
    kw = {}
    if args.m is not None:
        kw["m"] = args.m
    if args.T is not None:
        kw["lo"] = 0
        kw["hi"] = _frac_or_float(args.T)
    if name in B.BUILDERS:
        return B.build_function(name, **kw)
    raise SystemExit(f"unknown builder {name!r}; known: {sorted(B.BUILDERS)}")


def _frac_or_float(x):
    f = Fraction(x).limit_denominator(10 ** 6)
    return f if float(f) == float(x) else float(x)


def _emit(text, args):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_integrate(args):
    f = _build(args.function, args)
    v, e = integrate_regulated(f, _frac_or_float(args.a),
                               _frac_or_float(args.b), args.tol)
    _emit(f"integral: {v!r}\nerror_bound: {e!r}\n", args)
    return 0


def cmd_norm(args):
    f = _build(args.function, args)
    v = norm(f, args.kind, tol=args.tol, grid=args.grid)
    tag = "exact" if isinstance(v, Fraction) else f"numeric(grid={args.grid})"
    _emit(f"norm: {float(v)!r}\nkind: {args.kind}\ntag: {tag}\n", args)
    return 0


def cmd_stieltjes(args):
    f = _build(args.function, args)
    if args.g == "identity":
        lo, hi = f.interval.lo, f.interval.hi
        g = stepfn.PiecewisePoly([Fraction(lo), Fraction(hi)],
                                 [(Fraction(0), Fraction(1))])
    elif args.g == "heaviside":
        g = B.heaviside_step(float(f.interval.lo), float(f.interval.hi)).payload
    else:
        doc = load_config(args.g)
        if not isinstance(doc.get("stepfn"), dict):
            raise ConfigError(f"{args.g}: no stepfn block")
        g = stepfn_from_doc(doc["stepfn"])
    v = stieltjes(f, g, f.interval.lo, f.interval.hi, tol=args.tol)
    _emit(f"stieltjes: {float(v)!r}\n", args)
    return 0


def cmd_example(args):
    name = args.name
    if name == "ex31":
        rep = runs.run_ex31(quad_tol=args.tol, per_unit=args.grid,
                            T=args.T if args.T is not None else 1)
        return _emit_report(rep, args)
    if name == "ex01":
        rep = runs.run_ex01(T=args.T if args.T is not None else 5.0,
                            per_unit=min(args.grid, 512))
        return _emit_report(rep, args)
    if name == "ex01_closed_form":
        T = args.T if args.T is not None else 5.0
        H = lambda ts: np.asarray(ts, dtype=float) ** 2
        grid, _ = SY.ex01_grid(T, min(args.grid, 512))
        y = SY.ex01_closed_form(H, 2.0, grid)
        j1 = int(np.searchsorted(grid, 1.0))
        _emit("builder: ex01_closed_form\nH: t^2\n"
              f"value_at_1: {float(y[j1])!r}  # H(1) - H'_-(1)\n"
              f"value_at_T: {float(y[-1])!r}\n", args)
        return 0
    f = _build(name, args)
    if args.format == "csv":
        path = args.out or f"{name}.csv"
        export(f, path, grid=args.grid)
        print(f"wrote {path}")
        return 0
    lo, hi = float(f.interval.lo), float(f.interval.hi)
    probe = lo + 0.5 * (hi - lo)
    left, val, right = limits(f, probe)
    _emit(f"builder: {name}\ninterval: [{lo}, {hi}]\n"
          f"value_at_midpoint: {val!r}\nleft_limit: {left!r}\n"
          f"right_limit: {'none' if right is None else repr(right)}\n", args)
    return 0


def _emit_report(rep: RunReport, args):
    if args.format == "csv" and rep.traces:
        # named by the run id up to a ':', so solve:random_monotone -> solve_
        path = args.out or f"{rep.run_id.partition(':')[0]}_trace.csv"
        export(rep.traces[-1], path, grid=rep.system.grid,
               thin=max(1, len(rep.system.grid) // 64))
        print(f"wrote {path}")
        return 0
    _emit(rep.to_text(), args)
    return 0


def cmd_suite(args):
    t0 = time.time()
    rep = SU.run_suite(args.name, seed=args.seed, count=args.count)
    out = RunReport(f"suite:{args.name}")
    out.parameters = {"seed": args.seed, "count": rep.get("count")}
    out.outputs = {k: v for k, v in rep.items()
                   if k not in ("suite", "seed", "count")}
    out.timing_s = time.time() - t0
    _emit(out.to_text(), args)
    return 0 if rep["passed"] else 1


# the config keys each ``solve`` system kind reads
_SOLVE_KEYS = {"ex31": {"system", "tol", "grid", "T"},
               "ex01": {"system", "T", "grid"},
               "random_monotone": {"system", "seed", "dimension", "grid", "tol",
                                   "max_steps", "initial_values"}}


def cmd_solve(args):
    """Solve a system described by a config file; an unknown system kind, or
    a key that kind does not read, raises :class:`ConfigError` naming it."""
    cfg = load_config(args.config)
    kind = cfg.get("system", "ex31")
    if not isinstance(kind, str) or kind not in _SOLVE_KEYS:
        raise ConfigError(f"{args.config}: unknown system kind {kind!r}; "
                          f"known: {sorted(_SOLVE_KEYS)}")
    unread = sorted(map(str, set(cfg) - _SOLVE_KEYS[kind]))
    if unread:
        raise ConfigError(f"{args.config}: system {kind} does not read "
                          f"{', '.join(unread)}")
    if kind == "ex31":
        rep = runs.run_ex31(quad_tol=float(cfg.get("tol", 1e-10)),
                            per_unit=int(cfg.get("grid", 4096)),
                            T=cfg.get("T", 1))
    elif kind == "ex01":
        rep = runs.run_ex01(T=float(cfg.get("T", 5.0)),
                            per_unit=int(cfg.get("grid", 256)))
    else:
        rep = runs.run_random_monotone(cfg)
    return _emit_report(rep, args)


def _parser():
    ap = argparse.ArgumentParser(
        prog="leftprim",
        description="Primitive integrals of left-regulated distributions: "
                    "integration, norms, Stieltjes integrals, and monotone "
                    "solvers for distributional Cauchy systems.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = _command(sub, "integrate", cmd_integrate,
                 "integrate a catalogued function", "m tol T out")
    p.add_argument("function")
    p.add_argument("a", type=float)
    p.add_argument("b", type=float)

    p = _command(sub, "norm", cmd_norm, "Alexiewicz / L1 / sup norm",
                 "m grid tol T out")
    p.add_argument("function")
    p.add_argument("kind", choices=("alexiewicz", "l1", "sup"))

    p = _command(sub, "stieltjes", cmd_stieltjes,
                 "left-gauge Stieltjes integral", "m tol T out")
    p.add_argument("function")
    p.add_argument("g", help="'identity', 'heaviside', or a config file "
                             "with a stepfn block")

    p = _command(sub, "solve", cmd_solve, "solve a system from a config file",
                 "out format")
    p.add_argument("config")

    p = _command(sub, "example", cmd_example, "build a catalogued example",
                 "m grid tol T out format")
    p.add_argument("name")

    p = _command(sub, "suite", cmd_suite, "run a property suite", "seed out")
    p.add_argument("name", choices=sorted(SU.SUITES))
    p.add_argument("--count", type=int, default=None)
    return ap


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"leftprim {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
