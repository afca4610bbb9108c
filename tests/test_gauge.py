"""Left gauges, fine partitions, and the left-gauge Stieltjes integral."""

from fractions import Fraction

import numpy as np
import pytest

from leftprim import builders as B
from leftprim.funcspace import RegulatedFn, norm
from leftprim.gauge import (LeftGauge, LeftPartition, PartitionError,
                            PartitionOverflow, VariationError, fine_partition,
                            mu_interval, stieltjes, stieltjes_sum,
                            uniform_partition)
from leftprim.stepfn import PiecewisePoly, StepFn, random_stepfn

F = Fraction


def test_fine_partition_constant_width():
    P = fine_partition(LeftGauge(width=F(1, 4)), F(0), F(1))
    assert P.cells == [(F(k, 4), F(k + 1, 4)) for k in range(4)]


def test_fine_partition_shrinking_gauge_overflows():
    gauge = LeftGauge(width=lambda y: y / 2)
    with pytest.raises(PartitionOverflow) as exc:
        fine_partition(gauge, 0, 1, max_cells=64)
    partial = exc.value.partial
    assert len(partial.cells) == 65
    assert partial.cells[0][0] == 2.0 ** -65  # accumulating toward 0


def test_fine_partition_rule_table():
    gauge = LeftGauge(table=[F(1, 3), F(2, 3)])
    P = fine_partition(gauge, F(0), F(1))
    assert P.cells == [(F(0), F(1, 3)), (F(1, 3), F(2, 3)), (F(2, 3), F(1))]


def test_partition_validation():
    with pytest.raises(PartitionError):
        LeftPartition([(0, 1), (2, 3)], [1, 3])  # gap between cells
    with pytest.raises(PartitionError):
        LeftPartition([(0, 1)], [0])  # tag outside (0, 1]


def test_mu_interval_heaviside():
    g = B.heaviside_step().payload
    assert mu_interval(g, F(-1, 2), F(1, 2)) == 1


def test_mu_interval_identity():
    g = PiecewisePoly([F(0), F(1)], [(F(0), F(1))])  # g(t) = t
    assert mu_interval(g, F(1, 5), F(4, 5)) == F(3, 5)


def test_mu_interval_jump_additivity():
    g = StepFn([F(0), F(1, 3), F(1)], [F(0), F(2)])  # jump 2 at 1/3
    total = mu_interval(g, F(0), F(1, 3)) + mu_interval(g, F(1, 3), F(1))
    assert mu_interval(g, F(0), F(1)) == total
    # the jump at 1/3 is seen through right limits: g((1/3)+) - g(0+) = 2
    assert mu_interval(g, F(0), F(1, 3)) == 2


def test_stieltjes_constant_vs_identity():
    one = RegulatedFn.from_step(StepFn.constant(0, 1, F(1)))
    g = PiecewisePoly([F(0), F(1)], [(F(0), F(1))])
    assert stieltjes(one, g, F(0), F(1)) == 1


def test_stieltjes_indicator_against_dirac_measure():
    # F = chi_{(0,1/2]}, g = H1 on [-1,1]: the only mass is the jump at 0,
    # where F's value (left continuity) is F(0) = 0
    Fs = RegulatedFn.from_step(StepFn.indicator(0, F(1, 2), -1, 1))
    g = B.heaviside_step().payload
    val = stieltjes(Fs, g, F(-1), F(1))
    # measure-sum oracle: atoms of g times F's value there
    oracle = Fs.payload(F(0)) * (g.right_limit(F(0)) - g.left_limit(F(0)))
    assert val == oracle == 0


def test_stieltjes_step_against_quadratic():
    Fs = RegulatedFn.from_step(
        StepFn([F(0), F(1, 3), F(2, 3), F(1)], [F(1), F(-2), F(3)]))
    g = PiecewisePoly([F(0), F(1)], [(F(0), F(0), F(1))])  # g = t^2
    val = stieltjes(Fs, g, F(0), F(1))
    expected = (F(1) * (F(1, 9) - 0) + F(-2) * (F(4, 9) - F(1, 9))
                + F(3) * (F(1) - F(4, 9)))
    assert val == expected


def test_stieltjes_sum_constant():
    c = RegulatedFn.from_step(StepFn.constant(0, 1, F(7)))
    g = PiecewisePoly([F(0), F(1)], [(F(0), F(1))])
    P = uniform_partition(0, 1, 13)
    assert stieltjes_sum(c, g, P) == 7


def test_stieltjes_sum_refinement_converges():
    # F = t, g = t on [0,1]: sums -> 1/2 within O(mesh)
    t = B.monomial(1)
    g = PiecewisePoly([F(0), F(1)], [(F(0), F(1))])
    errs = []
    for k in (4, 16, 64, 256):
        P = uniform_partition(0, 1, k)
        errs.append(abs(float(stieltjes_sum(t, g, P)) - 0.5))
    assert all(e <= 1.0 / k for e, k in zip(errs, (4, 16, 64, 256)))
    assert errs[-1] < errs[0]


def test_stieltjes_sum_bounded_by_sup_variation():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        Fs = random_stepfn(rng, max_cells=4)
        g = random_stepfn(rng, max_cells=4)
        P = uniform_partition(0, 1, int(rng.integers(2, 9)))
        s = stieltjes_sum(RegulatedFn.from_step(Fs), g, P)
        assert abs(s) <= Fs.sup_norm() * g.variation() + 0  # exact rationals


def test_stieltjes_unknown_variation():
    t = B.monomial(1)
    with pytest.raises((VariationError, AttributeError)):
        stieltjes(t, object(), 0, 1)


def test_stieltjes_builds_a_multipliers_g_once(monkeypatch):
    from leftprim.integral import Multiplier

    rng = np.random.default_rng(5)
    cuts = sorted(set(F(int(k), 97) for k in rng.integers(1, 97, size=40)))
    br = [F(0), *cuts, F(1)]
    density = StepFn(br, [F(int(rng.integers(-5, 6)), 4) for _ in br[1:]])
    m = Multiplier(RegulatedFn.from_step(density), F(1, 3))
    calls = []
    real = Multiplier.g_fn

    def counted(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(Multiplier, "g_fn", counted)
    Fs = RegulatedFn.from_step(
        StepFn([F(0), F(1, 5), F(1, 2), F(1)], [F(3), F(-1), F(2)]))
    # the same values as when g was resolved twice, exact and float
    assert stieltjes(Fs, m, F(0), F(1)) == F(-263, 3880)
    assert len(calls) == 1
    # g' is the density v on each cell (x, y]: int_0^1 t dg = sum v (y^2 - x^2) / 2
    exact = sum(v * (y * y - x * x) / 2 for x, y, v in density.to_cells())
    assert abs(stieltjes(B.monomial(1), m, 0, 1, tol=1e-3) - float(exact)) <= 1e-15
    assert len(calls) == 2


# -- the decomposition: int F g' dt plus g's atoms, for F not step data ---------------

ATOMS = StepFn([F(0), F(1, 3), F(2, 3), F(1)], [F(0), F(2), F(1)])  # atoms 2, -1
IDENTITY = PiecewisePoly([F(0), F(1)], [(F(0), F(1))])


@pytest.mark.parametrize("k", [3, 6, 9])
def test_stieltjes_atoms_equal_the_tagged_sum(k):
    # float(1/3) < 1/3: the atom at 1/3 weighs F(1/3), not F(1/3+)
    f = B.left_frac_series(4, p=2)
    val = stieltjes(f, ATOMS, F(0), F(1), tol=1e-4)
    assert val == stieltjes_sum(f, ATOMS, uniform_partition(0, 1, k))
    assert val == 2 * f.value(F(1, 3)) - f.value(F(2, 3))
    assert abs(val - 0.3611111111111111) <= 1e-15


@pytest.mark.parametrize("name, m, want", [("E47_G", 3, 0.0), ("E407_Gm", 2, 0.0),
                                           ("E409_Gm", 2, 2.0)])
def test_stieltjes_against_the_identity(name, m, want):
    # E407_Gm's registered primitive E408_Fm vanishes at 0 and at 1
    f = B.build_function(name, m=m)
    assert abs(stieltjes(f, IDENTITY, F(0), F(1), tol=1e-4) - want) <= 1e-10


def test_stieltjes_of_exact_polynomial_data_is_exact():
    p = PiecewisePoly([F(0), F(1, 2), F(1)], [(F(1), F(2)), (F(0), F(0), F(3))])
    f = RegulatedFn.from_poly(p)
    from leftprim.integral import Multiplier
    m = Multiplier.from_step_density(StepFn([F(0), F(1, 4), F(1)], [F(3), F(-1)]), 0)
    got = [stieltjes(f, g, F(0), F(1)) for g in (IDENTITY, ATOMS, m)]
    assert all(type(v) is F for v in got)
    assert got == [F(13, 8), 2 * p(F(1, 3)) - p(F(2, 3)),
                   3 * p.integral(0, F(1, 4)) - p.integral(F(1, 4), 1)]


def test_stieltjes_of_t_against_t_squared():
    g = PiecewisePoly([F(0), F(1)], [(F(0), F(0), F(1))])
    assert abs(stieltjes(B.monomial(1), g, F(0), F(1)) - 2 / 3) <= 1e-12
    # a jump of 1 at 1/2 adds its atom F(1/2) * 1
    g = PiecewisePoly([F(0), F(1, 2), F(1)], [(F(0), F(1)), (F(1), F(1))])
    assert abs(stieltjes(B.monomial(1), g, F(0), F(1)) - 1.0) <= 1e-12


def test_stieltjes_counts_the_atom_at_b_and_not_the_one_at_a():
    # atoms at 0 (base value 0, g(0+) = 1), 1/2 (1 -> 3) and none at 1 (g(1+) := g(1))
    g = StepFn([F(0), F(1, 2), F(1)], [F(1), F(3)], F(0))
    t, one = B.monomial(1), B.monomial(0)
    assert stieltjes(t, g, F(0), F(1, 2)) == 2 * t.value(F(1, 2)) == 1.0
    assert stieltjes(t, g, F(1, 2), F(1)) == 0
    assert stieltjes(t, g, F(0), F(1)) == 1.0
    for x, y in ((F(0), F(1, 2)), (F(1, 4), F(1, 2)), (F(1, 2), F(1)), (F(0), F(1))):
        assert stieltjes(one, g, x, y) == mu_interval(g, x, y)
