"""Random monotone systems: forcing primitives against a naive exact-call
reference, ``PiecewisePoly.sample_array`` at float ties, solutions from the
sub/supersolution pair against those from the exact bound primitives, and
call-count guards on the sampling done while building and solving a
system."""

from fractions import Fraction

import numpy as np
import pytest

from leftprim import solver as SV
from leftprim import systems as SY
from leftprim.funcspace import RegulatedFn
from leftprim.solver import GridFn, bounds_to_subsuper, smallest_greatest
from leftprim.stepfn import PiecewisePoly

F = Fraction


def naive_forcing(sf, grid):
    """One exact ``__call__`` of the cumulative per grid point."""
    cum = sf.cumulative()
    return np.array([float(cum(t)) for t in grid])


def forcing_of(S, i):
    """Component i's forcing primitive: its map at x = 0, where every link
    tanh(0) vanishes and the link primitive is exactly 0.0."""
    zero = [GridFn.constant(S.grid, 0.0)] * S.m
    return S.component_maps[i](zero).values


@pytest.mark.parametrize("per_unit", [3, 5, 7, 128])
@pytest.mark.parametrize("shift", [0.0, 0.3])
def test_forcing_primitives_byte_equal_to_exact_calls(per_unit, shift):
    for seed in range(12):
        S = SY.random_monotone_system(np.random.default_rng(seed), m=3,
                                      per_unit=per_unit, shift=shift)
        for i, sf in enumerate(S.forcing_steps):
            assert forcing_of(S, i).tobytes() == naive_forcing(sf, S.grid).tobytes()


def test_forcing_cases_include_inexact_ties():
    """The per_unit=5 cases above meet a break b with t == float(b) != b."""
    hits = 0
    for seed in range(12):
        S = SY.random_monotone_system(np.random.default_rng(seed), m=3,
                                      per_unit=5)
        for sf in S.forcing_steps:
            hits += sum(float(b) != b and float(b) in S.grid for b in sf.breaks)
    assert hits > 0


def test_sample_array_at_float_ties():
    # float(1/5) > 1/5 lies in the cell (1/5, 1/3]; float(1/3) < 1/3 too
    p = PiecewisePoly([F(0), F(1, 5), F(1, 3), F(1)], [(F(1),), (F(2),), (F(3),)])
    ts = np.array([float(F(1, 5)), float(F(1, 3))])
    assert list(p.sample_array(ts)) == [float(p(t)) for t in ts] == [2.0, 2.0]
    # a float just above an inexact domain minimum is not the base point
    q = PiecewisePoly([F(1, 5), F(1, 2), F(1)], [(F(1),), (F(2),)], F(7))
    t = float(F(1, 5))
    assert q.sample_array(np.array([t]))[0] == float(q(t)) == 1.0
    assert q.sample_array(np.array([0.5]))[0] == float(q(0.5)) == 1.0


def _counting(monkeypatch, cls, name, counts):
    orig = getattr(cls, name)

    def counted(self, *args, **kw):
        counts[id(self)] = counts.get(id(self), 0) + 1
        return orig(self, *args, **kw)

    monkeypatch.setattr(cls, name, counted)


def test_build_makes_no_exact_calls(monkeypatch):
    counts = {}
    _counting(monkeypatch, PiecewisePoly, "__call__", counts)
    for seed in range(5):
        SY.random_monotone_system(np.random.default_rng(seed), m=3, shift=0.5)
    assert sum(counts.values()) == 0


def _bracket(seed, m):
    S = SY.random_monotone_system(np.random.default_rng(seed), m=m)
    lo, hi = SY.order_bounds_for_random(S)
    return S, lo, hi


def _solve(S, pair):
    """Everything ``smallest_greatest`` returns, as bytes."""
    y_lo, y_hi, traces = smallest_greatest(S, pair, tol=1e-11, max_steps=300)
    return ([SV.as_grid(y, S.grid).tobytes() for y in y_lo + y_hi],
            [(t.labels, [[s.tobytes() for s in st] for st in t.stages],
              t.stabilized, t.stabilization_index, t.omega_stages,
              np.float64(t.residual).tobytes()) for t in traces])


@pytest.mark.parametrize("per_unit", [128, 5])
@pytest.mark.parametrize("shift", [0.0, 0.3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_subsuper_pair_solves_as_the_exact_primitives(m, shift, per_unit):
    """The pair of ``bounds_to_subsuper`` gives the solutions, traces and
    residuals of a pair of the exact bound primitives, bit for bit."""
    from leftprim.integral import cumulative
    # at per_unit 5, seeds 2 (m = 2) and 11 (m = 3) meet a break b with
    # t == float(b) != b
    for seed in range(12):
        S = SY.random_monotone_system(np.random.default_rng(seed), m=m,
                                      per_unit=per_unit, shift=shift)
        lo, hi = SY.order_bounds_for_random(S)
        a = S.interval.lo
        exact = SV.SubSuperPair(
            [cumulative(h, a, c) for h, c in zip(lo, S.c)],
            [cumulative(h, a, c) for h, c in zip(hi, S.c)])
        assert _solve(S, bounds_to_subsuper(S, lo, hi)) == _solve(S, exact)


def _sampled(monkeypatch):
    """Record every ``RegulatedFn.sample`` call; return the list and the
    unwrapped method."""
    sample, sampled = RegulatedFn.sample, []

    def counted(self, ts):
        sampled.append(self)
        return sample(self, ts)

    monkeypatch.setattr(RegulatedFn, "sample", counted)
    return sampled, sample


def test_bounds_to_subsuper_samples_each_bound_once(monkeypatch):
    """``bounds_to_subsuper`` samples each of the 2m order-bound primitives
    once, on the grid, and returns those samples as the pair."""
    sampled, sample = _sampled(monkeypatch)
    for seed, m in ((3, 3), (4, 2), (5, 1)):
        S, lo, hi = _bracket(seed, m)
        sampled.clear()
        pair = bounds_to_subsuper(S, lo, hi)
        assert len({id(f) for f in sampled}) == len(sampled) == 2 * m
        assert [sample(f, S.grid).tobytes() for f in sampled] == \
            [f.values.tobytes() for f in pair.lower + pair.upper]
        assert {type(f) for f in pair.lower + pair.upper} == {GridFn}


def test_smallest_greatest_pair_samples_do_not_grow(monkeypatch):
    """``smallest_greatest`` on the pair of ``bounds_to_subsuper`` samples
    no primitive again, and the component maps receive only GridFns."""
    sampled, _ = _sampled(monkeypatch)
    inputs = []
    for seed, m in ((3, 3), (4, 2), (5, 1)):
        S, lo, hi = _bracket(seed, m)
        S.component_maps = [lambda x, phi=phi: inputs.extend(x) or phi(x)
                            for phi in S.component_maps]
        pair = bounds_to_subsuper(S, lo, hi)
        sampled.clear()
        inputs.clear()
        smallest_greatest(S, pair, tol=1e-11, max_steps=300)
        assert sampled == []
        assert inputs and {type(f) for f in inputs} == {GridFn}
