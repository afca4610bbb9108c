"""Typed invariant errors that survive ``python -O``, hashing consistent with
equality, and the jumps of exact piecewise polynomials."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from leftprim.funcspace import RegulatedFn
from leftprim.gauge import (LeftGauge, LeftPartition, PartitionError,
                            fine_partition, mu_interval)
from leftprim.intervals import DomainError
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
