"""The reachability map: which functions in ``src/leftprim`` no run calls.

A fresh interpreter runs the package's runs under ``sys.setprofile`` and
records every code object of ``src/leftprim`` that gets called:

- one pass of every op of the three benchmark workloads (``exact``,
  ``approx``, ``solve``; ``perfbench/workloads.py``) on seed 1, without
  their output checks;
- the README CLI lines, every catalogued name through ``example``,
  ``example --format csv`` and ``norm ... sup``, ``solve`` for each system
  kind, ``stieltjes`` with a config file and at its default tol, and the six
  suites at ``--count 5``; the CLI runs in-process, in a scratch directory;
- the four demos, through ``runpy``.

Every function and method of the package (matched by file, first line and
qualified name; bodies that only raise are left out) that none of these
calls must be named in ``ALLOWED``, with the reason it stays.  A new
function that no run calls fails the test with its name; so does an
allowed one that gains a run.  To edit the map, give the function a run or
delete it, or, if neither can happen yet, add ``"module.qualname":
"reason"`` to ``ALLOWED``.
"""

from __future__ import annotations

import ast
import contextlib
import glob
import io
import json
import os
import runpy
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_TRACER = "perfbench/tracer.py patches it by name; deleting it needs a benchmark change first"

ALLOWED = {
    "systems.weighted_system": _TRACER,
    "systems.weighted_system.<locals>.phi": _TRACER,
    "systems.weighted_system.<locals>.phi.<locals>.apply": _TRACER,
    "stepfn.StepFn.refined": _TRACER,
    "stepfn.PiecewisePoly.refined": _TRACER,
    "stepfn._refine": _TRACER,
    "stepfn.PiecewisePoly.variation": _TRACER,
    "intervals.Interval.__repr__": "debugging aid; no run prints an Interval",
    "funcspace.RegulatedFn.__repr__": "debugging aid; no run prints a RegulatedFn",
    "stepfn.StepFn.__repr__": "debugging aid; no run prints a StepFn",
    "stepfn.StepFn.__hash__": "keeps hashing consistent with __eq__",
    "stepfn.StepFn.le": "part of the step algebra the tests check",
    "stepfn.StepFn.__neg__": "part of the step algebra the tests check",
    "stepfn.PiecewisePoly.__rmul__": "part of the polynomial algebra the tests check",
}


def _only_raises(node):
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    return len(body) == 1 and isinstance(body[0], ast.Raise)


def package_functions(pkg_dir):
    """{(file, first line, qualname): "module.qualname"} for every named
    function of the package whose body does more than raise."""
    out = {}
    for path in sorted(glob.glob(os.path.join(pkg_dir, "*.py"))):
        with open(path) as fh:
            source = fh.read()
        mod = os.path.splitext(os.path.basename(path))[0]
        defs = [n for n in ast.walk(ast.parse(source))
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not _only_raises(n)]
        # a decorated function's code starts at its first decorator
        lines = {min([n.lineno] + [d.lineno for d in n.decorator_list]) for n in defs}
        stack = [compile(source, path, "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            if code.co_name.startswith("<") or code.co_firstlineno not in lines:
                continue
            out[(path, code.co_firstlineno, code.co_qualname)] = \
                f"{mod}.{code.co_qualname}"
    return out


def _cli(lp, argv):
    """One CLI command in-process; its output and exit code are not checked."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            lp.cli.main(argv)
        except SystemExit:  # argparse exits this way
            pass


def _runs(lp, scratch):
    """Everything the map covers, in one process."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    for build in workloads.WORKLOADS.values():
        for op in build(lp, 1, scratch):
            op.fn()

    os.chdir(scratch)
    configs = {
        "system.yaml": "system: random_monotone\ndimension: 2\nseed: 7\n"
                       "grid: 128\ntol: 1.0e-9\ninitial_values: [0.0, 0.5]\n",
        "ex31.yaml": "system: ex31\ngrid: 256\n",
        "ex01.yaml": "system: ex01\nT: 2\ngrid: 64\n",
        "step.yaml": "stepfn:\n  base_point: 0\n  base_value: 0\n"
                     "  cells:\n    - {x: 0, y: 1/2, v: 1}\n    - {x: 1/2, y: 1, v: -1}\n",
    }
    for name, text in configs.items():
        with open(name, "w") as fh:
            fh.write(text)
    argvs = [
        ["integrate", "shape_A", "0", "1", "--tol", "1e-12"],
        ["norm", "E611_F", "sup", "--m", "5"],
        ["stieltjes", "E611_F", "identity", "--m", "3", "--tol", "1e-4"],
        ["example", "ex31", "--tol", "1e-10"],
        ["example", "ex31", "--format", "csv", "--out", "trace.csv"],
        ["example", "E47_G", "--m", "4", "--format", "csv", "--out", "g.csv"],
        ["solve", "system.yaml"],
        ["solve", "ex31.yaml"],
        ["solve", "ex01.yaml"],
        ["stieltjes", "E611_F", "step.yaml", "--m", "3", "--tol", "1e-4"],
        ["stieltjes", "E611_F", "heaviside", "--m", "3"],
    ]
    for name in sorted(lp.builders.BUILDERS):
        argvs += [["example", name], ["example", name, "--format", "csv"],
                  ["norm", name, "sup"]]
    for name in sorted(lp.suites.SUITES):
        argvs.append(["suite", name, "--count", "5"])
    for argv in argvs:
        _cli(lp, argv)

    for path in sorted(glob.glob(os.path.join(ROOT, "demos", "0[1-4]_*.py"))):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(path, run_name="__main__")


def uncalled(scratch):
    """The qualified names of the package functions no run calls."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import leftprim as lp
    from leftprim import cli, suites  # noqa: F401  (lp.cli, lp.suites)

    funcs = package_functions(os.path.dirname(os.path.abspath(lp.__file__)))
    files = {f for f, _, _ in funcs}
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename in files:
                called.add((code.co_filename, code.co_firstlineno, code.co_qualname))

    sys.setprofile(profile)
    try:
        _runs(lp, scratch)
    finally:
        sys.setprofile(None)
    return sorted(name for key, name in funcs.items() if key not in called)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="the map names code objects by co_qualname (Python 3.11+)")
def test_every_uncalled_function_is_allowed(tmp_path):
    out = subprocess.run([sys.executable, os.path.abspath(__file__), str(tmp_path)],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    found = set(json.loads(out.stdout.strip().splitlines()[-1]))
    new = sorted(found - set(ALLOWED))
    assert not new, f"called by no run (give each a run, delete it or allow it): {new}"
    stale = sorted(set(ALLOWED) - found)
    assert not stale, f"allowed, but now called or deleted (drop it from ALLOWED): {stale}"


if __name__ == "__main__":  # python tests/test_reachability.py SCRATCH_DIR
    print(json.dumps(uncalled(sys.argv[1])))
