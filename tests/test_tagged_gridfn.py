"""Tagged GridFns: the one chain carrier for finite-coefficient families.

A toy system settles by its tags, ``GridFn + c`` nests the tag, an untagged
iterate sends the chain back to its tolerance, ex31's maps return the
samples of the exact q * shape combination, integrate grid inputs over
[0, 1] only, and a run samples no symbolic function per iterate."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from leftprim import solver as SV
from leftprim import systems as SY
from leftprim import builders as B
from leftprim.funcspace import RegulatedFn
from leftprim.intervals import Interval
from leftprim.runs import run_ex31
from leftprim.solver import GridFn, apply_operator, iterate_chain

GRID = SV.make_grid(0, 1, 16)


def _system(*maps):
    return SV.CauchySystem(len(maps), list(maps), [0.0] * len(maps),
                           Interval(0, 1 + 1e-9), GRID)


def test_adding_a_constant_nests_the_tag():
    f = GridFn(GRID, GRID ** 2, ("atan", 7))
    for c in (Fraction(1, 2), 1, 0.25):
        g = f + c
        assert g.tag == (("atan", 7), c) and type(g.tag[1]) is type(c)
        assert np.array_equal(g.values, GRID ** 2 + float(c))
    assert (GridFn(GRID, GRID) + 1).tag is None
    assert GridFn.constant(GRID, 1.0).tag is None


def test_equal_samples_under_different_tags_do_not_settle():
    tick = itertools.count(1).__next__
    S = _system(lambda x: GridFn(GRID, np.zeros(len(GRID)), ("k", tick())))
    start = [GridFn(GRID, np.zeros(len(GRID)), "start")]
    _, trace = iterate_chain(S, start, "up", tol=1.0, max_steps=5,
                             max_omega_stages=0)
    assert not trace.stabilized and trace.stabilization_index is None


def test_repeated_tags_settle_at_once():
    # the samples keep rising, so only the tags can settle the chain
    tick = itertools.count(1).__next__
    S = _system(lambda x: GridFn(GRID, tick() * GRID, "same"))
    _, trace = iterate_chain(S, S.constant_start([0.0]), "up", tol=1e-12,
                             max_steps=50, max_omega_stages=0)
    assert trace.stabilized and trace.stabilization_index == 1
    assert trace.labels == ["start", "step 1", "step 2"]


def test_an_untagged_iterate_falls_back_to_the_tolerance():
    tick = itertools.count(1).__next__
    tagged = lambda x: GridFn(GRID, np.zeros(len(GRID)), ("k", tick()))
    untagged = lambda x: GridFn(GRID, np.zeros(len(GRID)))
    S = _system(tagged, untagged)
    start = [GridFn(GRID, np.zeros(len(GRID)), "a"),
             GridFn(GRID, np.zeros(len(GRID)), "b")]
    _, trace = iterate_chain(S, start, "up", tol=1e-12, max_steps=50,
                             max_omega_stages=0)
    assert trace.stabilized and trace.stabilization_index == 0


def test_ex31_maps_return_the_samples_of_the_exact_combination():
    S = SY.ex31_system(per_unit=256)
    shapes, pair = (B.shape_A(0, 1), B.shape_B(0, 1)), SY.ex31_subsuper(S)
    for x in (pair.lower, pair.upper, S.constant_start([0.3, -0.2])):
        out = apply_operator(S, x)
        for f, shape, fn in zip(out, shapes, (math.atan, math.tanh)):
            (kind, k), c = f.tag
            q = fn(k / 1e4)
            want = RegulatedFn.lincomb([(q, shape)]).sample(S.grid)
            assert c == 0 and f.values.tobytes() == want.tobytes()
        # the next application reads the tagged iterates in closed form
        again = apply_operator(S, out)
        regulated = [RegulatedFn.lincomb([(fn(f.tag[0][1] / 1e4), s)])
                     for f, s, fn in zip(out, shapes, (math.atan, math.tanh))]
        assert [f.tag for f in again] == [f.tag for f in apply_operator(S, regulated)]


@pytest.mark.parametrize("T,per_unit", [(2, 64), (2.5, 5), (3, 7)])
def test_ex31_integrates_grid_inputs_over_the_unit_interval(T, per_unit):
    S = SY.ex31_system(T=T, per_unit=per_unit)
    assert 1.0 in S.grid
    # 1 on [0, 1], 50 past it: only the unit interval counts
    v = np.where(S.grid <= 1.0, 1.0, 50.0)
    tags = [f.tag for f in apply_operator(S, [GridFn(S.grid, v)] * 2)]
    assert tags == [(("atan", 100000), 0), (("tanh", 30000), 0)]


def test_ex31_grid_is_unchanged_at_T_1():
    for per_unit in (5, 128, 4096):
        assert np.array_equal(SY.ex31_system(per_unit=per_unit).grid,
                              np.linspace(0, 1, per_unit + 1))


def test_run_ex31_samples_only_its_shapes_and_start_pair(monkeypatch):
    """Two shape samples at build and eight of the +-4 * shape start pair;
    no iterate is sampled again."""
    sample, calls = RegulatedFn.sample, []

    def counted(self, ts):
        calls.append(self)
        return sample(self, ts)

    monkeypatch.setattr(RegulatedFn, "sample", counted)
    rep = run_ex31(per_unit=128)
    assert rep.outputs["scalar_and_generic_paths_agree"] is True
    assert len(calls) <= 10
    assert {type(f) for f in rep.solutions[0] + rep.solutions[1]} == {GridFn}
