"""Typed invariant errors that survive ``python -O``, hashing consistent with
equality, and the jumps of exact piecewise polynomials."""

import ast
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from leftprim.funcspace import RegulatedFn
from leftprim.gauge import (LeftGauge, LeftPartition, PartitionError,
                            fine_partition, mu_interval)
from leftprim.intervals import DomainError, Interval
from leftprim.solver import (CauchySystem, FixedPointError, GridFn,
                             OrderBoundError, SolverDataError, SubSuperPair,
                             iterate_chain, make_grid, smallest_greatest)
from leftprim.stepfn import PiecewisePoly, StepDataError, StepFn

F = Fraction
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_step_data_errors():
    with pytest.raises(StepDataError):
        StepFn([0, 1, 1], [1, 2])  # not strictly increasing
    with pytest.raises(StepDataError):
        StepFn([0, 1], [1, 2])  # one break short
    with pytest.raises(StepDataError):
        PiecewisePoly([0, 1], [(1,), (2,)])
    with pytest.raises(StepDataError):
        StepFn.from_cells([(0, 1, 1), (F(3, 2), 2, 1)], 0)  # a gap at (1, 3/2]
    assert issubclass(StepDataError, ValueError)


def test_gauge_errors():
    g = StepFn([F(0), F(1)], [F(1)])
    with pytest.raises(DomainError):
        mu_interval(g, F(1, 2), F(1, 2))
    with pytest.raises(DomainError):
        fine_partition(LeftGauge(width=F(1, 4)), F(1), F(0))
    with pytest.raises(PartitionError):
        LeftGauge(width=0)(F(1), F(0))
    with pytest.raises(PartitionError):
        LeftPartition([(F(0), F(1))], [])


def test_invariants_raise_under_optimize():
    script = ("from leftprim.stepfn import StepFn, StepDataError\n"
              "try:\n    StepFn([0, 1, 1], [1, 2])\n"
              "except StepDataError:\n    print('raised')\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "raised"


def _scalar_system(f, grid, monotone=True):
    """One component whose map sends a constant x to the constant f(x)."""
    phi = lambda x: GridFn.constant(grid, f(float(x[0].values[0])))
    return CauchySystem(1, [phi], [0.0], Interval(0, 1 + 1e-9), grid,
                        monotone=monotone)


def test_solver_data_errors():
    grid = make_grid(0, 1, 8)
    with pytest.raises(SolverDataError, match="shape"):
        GridFn(grid, np.zeros(3))
    with pytest.raises(SolverDataError, match="2 components"):
        CauchySystem(2, [lambda x: x[0]], [0.0, 0.0], Interval(0, 1), grid)
    S = _scalar_system(lambda x: 1.0, grid)
    with pytest.raises(SolverDataError, match="direction"):
        iterate_chain(S, S.constant_start([0.0]), "sideways")
    assert issubclass(SolverDataError, ValueError)


def test_smallest_greatest_errors():
    grid = make_grid(0, 1, 8)
    S = _scalar_system(lambda x: 0.5 * x + 1.0, grid)  # fixed point 2
    pair = SubSuperPair(S.constant_start([0.0]), S.constant_start([4.0]))
    with pytest.raises(FixedPointError, match="not fixed points"):
        smallest_greatest(S, pair, max_steps=3, max_omega_stages=0)
    # fixed points 2 and 3; the up chain from 0 jumps to 3, the down chain
    # from 4 drops to 2, so the computed "smallest" lies above the "greatest"
    f = lambda x: 3.0 if x < 1 or 2.9 <= x <= 3.1 else 2.0
    S = _scalar_system(f, grid, monotone=False)
    with pytest.raises(OrderBoundError, match="smallest solution exceeds greatest"):
        smallest_greatest(S, pair)


def test_solver_errors_raise_under_optimize():
    script = ("import numpy as np\n"
              "from leftprim.solver import GridFn, SolverDataError\n"
              "try:\n    GridFn(np.zeros(4), np.zeros(3))\n"
              "except SolverDataError:\n    print('raised')\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "raised"


def test_hash_agrees_with_eq():
    a = StepFn([F(0), F(1, 2), F(1)], [F(1), F(1)])
    b = StepFn([F(0), F(1)], [F(1)])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert len({a, StepFn([F(0), F(1)], [F(2)])}) == 2


def test_poly_jump_points():
    step = StepFn([F(0), F(1, 2), F(1)], [F(0), F(1)])
    assert step.as_poly().jump_points() == step.jump_points() == [F(1, 2)]
    assert RegulatedFn.from_poly(step.as_poly()).jumps() == \
        RegulatedFn.from_step(step).jumps() == [F(1, 2)]
    assert step.cumulative().jump_points() == []
    assert RegulatedFn.from_poly(step.cumulative()).jumps() == []
    based = PiecewisePoly([F(0), F(1)], [(F(1), F(1))], F(0))  # base 0, right limit 1
    assert based.jump_points() == [F(0)]
    kink = PiecewisePoly([F(0), F(1), F(2)], [(F(0), F(1)), (F(2), F(-1))])
    assert kink.jump_points() == []  # continuous at 1: both limits are 1


SOLVE_PATH_ERRORS = """\
from fractions import Fraction
from leftprim.funcspace import RegulatedFn, norm
from leftprim.integral import Distribution, Multiplier, MultiplierError
from leftprim.intervals import DomainError, Interval
from leftprim.stepfn import StepFn

step = RegulatedFn.from_step(StepFn([Fraction(0), Fraction(1)], [Fraction(1)]))
poly = RegulatedFn.from_poly(step.payload.cumulative())
cases = [(DomainError, lambda: Interval(1, 0)),
         (ValueError, lambda: RegulatedFn.lincomb([])),
         (ValueError, lambda: norm(step, "l2")),
         (ValueError, lambda: Distribution(poly, "LX")),
         (MultiplierError, lambda: Multiplier(poly, Fraction(0)).g_fn())]
for error, make in cases:
    try:
        make()
    except error as exc:
        print(type(exc).__name__)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_solve_path_errors_raise_under_optimize(flags):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, *flags, "-c", SOLVE_PATH_ERRORS],
                         env=env, capture_output=True, text=True, timeout=120,
                         check=True)
    assert out.stdout.split() == ["DomainError", "ValueError", "ValueError",
                                  "ValueError", "MultiplierError"]


DATA_ERRORS = """\
import sys
from leftprim import symbolic as sym
from leftprim.builders import AlternatingIndicatorTail
from leftprim.intervals import DomainError
from leftprim.quadrature import oscillatory_reciprocal, oscillatory_t_trig
from leftprim.reporting import export, load_config, stepfn_from_doc
from leftprim.solver import IterationTrace
from leftprim.stepfn import PiecewisePoly, StepDataError

path = sys.argv[1]
with open(path + ".yaml", "w") as fh:  # base_point is not the first cell's x
    fh.write("stepfn:\\n  base_point: '1'\\n  base_value: '0'\\n"
             "  cells:\\n  - {x: '0', y: '1', v: '2'}\\n")
cases = [
    (StepDataError, lambda: PiecewisePoly([0, 1, 1], [(1,), (2,)])),
    (StepDataError, lambda: PiecewisePoly([1, 0], [(1,)])),
    (DomainError, lambda: PiecewisePoly([0, 1], [(0, 1)]).integral(-1, 2)),
    (StepDataError, lambda: stepfn_from_doc(load_config(path + ".yaml")["stepfn"])),
    (ValueError, lambda: sym.Monomial(-1)),
    (ValueError, lambda: sym.Shape("tan", 1)),
    (ValueError, lambda: sym.GFactor("C")),
    (ValueError, lambda: sym.SmoothWrap("exp", sym.Const(1))),
    (ValueError, lambda: oscillatory_reciprocal("sin", 1, 1.0)),
    (DomainError, lambda: oscillatory_t_trig("sin", 1.0, 0.5)),
    (TypeError, lambda: export(IterationTrace("up"), path + ".txt", "report")),
    (ValueError, lambda: export(IterationTrace("up"), path + ".csv")),
    (ValueError, lambda: AlternatingIndicatorTail(0)),
]
for error, make in cases:
    try:
        make()
    except error as exc:
        print(type(exc).__name__)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_data_errors_raise_under_optimize(flags, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, *flags, "-c", DATA_ERRORS,
                          str(tmp_path / "doc")], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split() == [
        "StepDataError", "StepDataError", "DomainError", "StepDataError",
        "ValueError", "ValueError", "ValueError", "ValueError", "ValueError",
        "DomainError", "TypeError", "ValueError", "ValueError"]
    assert not (tmp_path / "doc.csv").exists()  # refused before opening it


def _asserts(node, where=None):
    """The enclosing function name of every ``assert`` below ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Assert):
            yield where
        inner = child.name if isinstance(child, ast.FunctionDef) else where
        yield from _asserts(child, inner)


def test_no_asserts_in_package():
    """Invariants raise typed errors, so ``python -O`` keeps them; the one
    ``assert`` left is ``integral.parts``' bound check, which the benchmark
    counts as a known failure kind."""
    src = os.path.join(ROOT, "src", "leftprim")
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read(), name)
            found += [(name, where) for where in _asserts(tree)]
    assert found == [("integral.py", "parts")]
