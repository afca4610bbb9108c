"""Command-line driver.

Subcommands: ``integrate``, ``norm``, ``stieltjes``, ``solve``,
``example <name>``, ``suite <name>``.  Shared flags: ``--m``, ``--grid``,
``--tol``, ``--T``, ``--seed``, ``--out``, ``--format``.  ``solve`` consumes
a config file (key: value blocks); see the demos directory for worked
inputs.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

import numpy as np

from . import builders as B
from . import suites as SU
from .funcspace import integrate_regulated, norm
from .gauge import VariationError, stieltjes
from .reporting import (RunReport, export, load_config, stepfn_from_doc)


def _common(p):
    p.add_argument("--m", type=int, default=None,
                   help="series truncation depth")
    p.add_argument("--grid", type=int, default=4096,
                   help="grid density per unit interval")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--T", type=float, default=None,
                   help="domain truncation for unbounded problems")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None,
                   help="output file (default: stdout)")
    p.add_argument("--format", choices=("csv", "report"), default="report")


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
        from .stepfn import PiecewisePoly
        lo, hi = f.interval.lo, f.interval.hi
        g = PiecewisePoly([Fraction(lo), Fraction(hi)],
                          [(Fraction(0), Fraction(1))])
    elif args.g == "heaviside":
        g = B.heaviside_step(float(f.interval.lo), float(f.interval.hi)).payload
    else:
        g = stepfn_from_doc(load_config(args.g)["stepfn"])
    try:
        v = stieltjes(f, g, f.interval.lo, f.interval.hi, tol=args.tol)
    except VariationError as exc:
        hint = f"; --tol {exc.loosest_tol:g} or looser works" \
            if exc.loosest_tol else ""
        raise SystemExit(f"leftprim stieltjes: {exc}{hint}")
    _emit(f"stieltjes: {float(v)!r}\n", args)
    return 0


def cmd_example(args):
    name = args.name
    if name == "ex31":
        from .runs import run_ex31
        rep = run_ex31(quad_tol=args.tol, per_unit=args.grid,
                       T=args.T if args.T is not None else 1)
        return _emit_report(rep, args)
    if name == "ex01":
        from .runs import run_ex01
        rep = run_ex01(T=args.T if args.T is not None else 5.0,
                       per_unit=min(args.grid, 512))
        return _emit_report(rep, args)
    if name == "ex01_closed_form":
        from . import systems as SY
        from .solver import make_grid
        T = args.T if args.T is not None else 5.0
        H = lambda ts: np.asarray(ts, dtype=float) ** 2
        grid = make_grid(0, T, min(args.grid, 512),
                         include=range(1, int(T) + 1))
        y = SY.ex01_closed_form(H, 2.0, grid)
        j1 = int(np.searchsorted(grid, 1.0))
        _emit("builder: ex01_closed_form\nH: t^2\n"
              f"value_at_1: {float(y[j1])!r}  # H(1) - H'_-(1)\n"
              f"value_at_T: {float(y[-1])!r}\n", args)
        return 0
    f = _build(name, args)
    if args.format == "csv":
        path = args.out or f"{name}.csv"
        export(f, path, "csv", grid=args.grid)
        print(f"wrote {path}")
        return 0
    lo, hi = float(f.interval.lo), float(f.interval.hi)
    probe = lo + 0.5 * (hi - lo)
    from .funcspace import limits
    left, val, right = limits(f, probe)
    _emit(f"builder: {name}\ninterval: [{lo}, {hi}]\n"
          f"value_at_midpoint: {val!r}\nleft_limit: {left!r}\n"
          f"right_limit: {'none' if right is None else repr(right)}\n", args)
    return 0


def _emit_report(rep: RunReport, args):
    if args.format == "csv" and rep.traces:
        path = args.out or f"{rep.run_id}_trace.csv"
        export(rep.traces[1], path, "csv", grid=rep.system.grid,
               thin=max(1, len(rep.system.grid) // 64))
        print(f"wrote {path}")
        return 0
    _emit(rep.to_text(), args)
    return 0


def cmd_suite(args):
    rep = SU.run_suite(args.name, seed=args.seed, count=args.count)
    out = RunReport(f"suite:{args.name}")
    out.parameters = {"seed": args.seed, "count": rep.get("count")}
    out.outputs = {k: v for k, v in rep.items()
                   if k not in ("suite", "seed", "count")}
    _emit(out.to_text(), args)
    return 0 if rep["passed"] else 1


def cmd_solve(args):
    """Solve a system described by a config file."""
    from . import systems as SY
    from .solver import smallest_greatest, bounds_to_subsuper

    cfg = load_config(args.config)
    kind = cfg.get("system", "ex31")
    if kind == "ex31":
        from .runs import run_ex31
        rep = run_ex31(quad_tol=float(cfg.get("tol", args.tol)),
                       per_unit=int(cfg.get("grid", args.grid)),
                       T=cfg.get("T", args.T) or 1)
        return _emit_report(rep, args)
    if kind == "ex01":
        from .runs import run_ex01
        rep = run_ex01(T=float(cfg.get("T", args.T) or 5.0),
                       per_unit=int(cfg.get("grid", 256)))
        return _emit_report(rep, args)
    if kind == "random_monotone":
        rng = np.random.default_rng(int(cfg.get("seed", args.seed)))
        S = SY.random_monotone_system(rng, m=int(cfg.get("dimension", 2)),
                                      per_unit=int(cfg.get("grid", 128)))
        if "initial_values" in cfg:
            S.c = [float(c) for c in cfg["initial_values"]]
        lo, hi = SY.order_bounds_for_random(S)
        pair = bounds_to_subsuper(S, lo, hi)
        y_lo, y_hi, (tr_up, tr_dn) = smallest_greatest(
            S, pair, tol=float(cfg.get("tol", 1e-10)),
            max_steps=int(cfg.get("max_steps", 300)))
        rep = RunReport("solve:random_monotone")
        rep.parameters = dict(cfg)
        from .solver import as_grid
        rep.outputs = {
            "smallest_at_T": [float(as_grid(y, S.grid)[-1]) for y in y_lo],
            "greatest_at_T": [float(as_grid(y, S.grid)[-1]) for y in y_hi],
        }
        rep.residuals = {"smallest": tr_up.residual,
                         "greatest": tr_dn.residual}
        rep.stabilization = {"up": tr_up.stabilization_index,
                             "down": tr_dn.stabilization_index}
        if args.format == "csv":
            path = args.out or "solve_trace.csv"
            export(tr_up, path, "csv", grid=S.grid,
                   thin=max(1, len(S.grid) // 64))
            print(f"wrote {path}")
            return 0
        _emit(rep.to_text(), args)
        return 0
    raise SystemExit(f"unknown system kind {kind!r}")


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="leftprim",
        description="Primitive integrals of left-regulated distributions: "
                    "integration, norms, Stieltjes integrals, and monotone "
                    "solvers for distributional Cauchy systems.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("integrate", help="integrate a catalogued function")
    p.add_argument("function")
    p.add_argument("a", type=float)
    p.add_argument("b", type=float)
    _common(p)
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("norm", help="Alexiewicz / L1 / sup norm")
    p.add_argument("function")
    p.add_argument("kind", choices=("alexiewicz", "l1", "sup"))
    _common(p)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("stieltjes", help="left-gauge Stieltjes integral")
    p.add_argument("function")
    p.add_argument("g", help="'identity', 'heaviside', or a config file "
                             "with a stepfn block")
    _common(p)
    p.set_defaults(func=cmd_stieltjes)

    p = sub.add_parser("solve", help="solve a system from a config file")
    p.add_argument("config")
    _common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("example", help="build a catalogued example")
    p.add_argument("name")
    _common(p)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("suite", help="run a property suite")
    p.add_argument("name", choices=sorted(SU.SUITES))
    p.add_argument("--count", type=int, default=None)
    _common(p)
    p.set_defaults(func=cmd_suite)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
