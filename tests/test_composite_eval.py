"""Composite nodes evaluate as their children's values combined: ``ev`` on
every side, ``ev_min`` at the domain minimum and ``ev_array``, compared with
``==`` against the children's values combined here by hand."""

from fractions import Fraction

import numpy as np
import pytest

from leftprim import builders as B
from leftprim import funcspace as fs
from leftprim import symbolic as sym
from leftprim.funcspace import RegulatedFn
from leftprim.intervals import Interval
from leftprim.stepfn import PiecewisePoly, StepFn
from leftprim.symbolic import SecondKindLimit

F = Fraction

# on [0, 1]; the base value 7/8 differs from the right limit 1/2 at 0
STEP = sym.StepLeaf(StepFn([F(0), F(1, 3), F(2, 3), F(1)],
                           [F(1, 2), F(-3, 4), F(5, 4)], F(7, 8)))
POLY = sym.PolyLeaf(PiecewisePoly([F(0), F(1, 2), F(1)],
                                  [(F(1, 5), F(2, 3)), (F(-1), F(0), F(3))]))
OSC = sym.OscCosTerm(2)        # second kind from the right at 0, 1/2 and 1
FRAC = sym.LeftFracTerm(3, 1)  # jumps at 1/3 and 2/3, right limit 0 there
SMOOTH = sym.SmoothSquareCosTerm(2)

# interior points: jumps of the children (exact and as floats) and between
POINTS = [F(1, 3), F(1, 2), F(2, 3), F(3, 10), 0.5, 2 / 3, 0.8]
TS = np.array([0.0, 0.3, 1 / 3, 0.5, 0.6, 2 / 3, 0.8, 1.0])

# (node, children, scalar combine, array combine)
CASES = {
    "sum": (sym.Sum([STEP, OSC, FRAC, POLY]), (STEP, OSC, FRAC, POLY),
            lambda a, b, c, d: a + b + c + d, None),
    # exact children: Fraction values at Fraction points and at the minimum
    "sum-exact": (sym.Sum([STEP, POLY]), (STEP, POLY), lambda a, b: a + b, None),
    "scale-exact": (sym.Scale(F(-3, 2), STEP), (STEP,),
                    lambda a: F(-3, 2) * a, lambda a: -1.5 * a),
    "scale-series": (sym.Scale(F(5, 2), OSC), (OSC,),
                     lambda a: F(5, 2) * a, lambda a: 2.5 * a),
    "product": (sym.Product(STEP, OSC), (STEP, OSC), lambda a, b: a * b, None),
    "product-exact": (sym.Product(POLY, STEP), (POLY, STEP),
                      lambda a, b: a * b, None),
    "max": (sym.PointwiseExtreme(STEP, FRAC), (STEP, FRAC), max, np.maximum),
    "min": (sym.PointwiseExtreme(OSC, POLY, is_max=False), (OSC, POLY), min,
            np.minimum),
    "abs": (sym.AbsExpr(sym.Sum([STEP, OSC])), (STEP, OSC),
            lambda a, b: abs(a + b), None),
    "abs-exact": (sym.AbsExpr(STEP), (STEP,), abs, None),
}


@pytest.mark.parametrize("name", CASES)
def test_composite_combines_its_childrens_values(name):
    node, kids, op, array_op = CASES[name]
    for t in POINTS:
        for side in (-1, 0, 1):
            try:
                vals = [k.ev(t, side) for k in kids]
            except SecondKindLimit:
                with pytest.raises(SecondKindLimit):
                    node.ev(t, side)
                continue
            want = op(*vals)
            got = node.ev(t, side)
            assert got == want and type(got) is type(want), (t, side)
    for t in (0, F(0)):
        want = op(*[k.ev_min(t) for k in kids])
        got = node.ev_min(t)
        assert got == want and type(got) is type(want)
    got = node.ev_array(TS)
    want = (array_op or op)(*[k.ev_array(TS) for k in kids])
    assert got.dtype == float and np.array_equal(got, want)


def test_the_minimum_reads_each_childs_own_branch():
    # the step leaf keeps its base value, the series term its right limit
    # where one exists and its value where none does
    assert sym.Sum([STEP, FRAC]).ev_min(0) == F(7, 8) + FRAC.ev(0, +1)
    assert sym.Sum([STEP, OSC]).ev_min(0) == F(7, 8) + OSC.ev(0, 0)
    assert sym.Scale(2, SMOOTH).ev_min(0) == 2 * SMOOTH.ev(0, +1)


def test_product_with_a_zero_partner_has_a_zero_limit():
    half, zero = F(1, 2), sym.LeftFracTerm(2, 1)  # right limit 0 at 1/2
    assert zero.ev(half, +1) == 0.0
    with pytest.raises(SecondKindLimit):
        OSC.ev(half, +1)
    assert sym.Product(OSC, zero).ev(half, +1) == 0.0
    assert sym.Product(zero, OSC).ev(half, +1) == 0.0
    two = sym.Scale(2, sym.Monomial(0))
    for node in (sym.Product(OSC, two), sym.Product(two, OSC)):
        with pytest.raises(SecondKindLimit):
            node.ev(half, +1)


def test_empty_sum_is_zero_on_every_path():
    e = sym.Sum([])
    assert e.ev(F(1, 2), 0) == 0 and e.ev_min(0) == 0
    out = e.ev_array(TS)
    assert isinstance(out, np.ndarray) and out.dtype == float
    assert np.array_equal(out, np.zeros(len(TS)))
    assert np.array_equal(RegulatedFn(e, Interval(0, 1)).sample(TS), np.zeros(len(TS)))
    assert fs.norm(B.build_function("E47_G", m=0), "sup") == 0.0
