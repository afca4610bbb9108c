"""The expression protocol: node bounds, exact leaves inside combinations,
registered primitives inside combinations, and the declared record fields."""

import dataclasses
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from leftprim import builders as B
from leftprim import cli
from leftprim import funcspace as fs
from leftprim import symbolic as sym
from leftprim.funcspace import RegulatedFn, integrate_regulated
from leftprim.reporting import RunReport
from leftprim.solver import CauchySystem
from leftprim.stepfn import PiecewisePoly, StepFn, random_stepfn

F = Fraction
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _poly():
    rng = np.random.default_rng(5)
    p = random_stepfn(rng).cumulative()
    return p * p.cumulative()  # degree 3 cells


# one instance of every concrete node class, with the domain it is probed on
NODES = [
    (sym.StepLeaf(random_stepfn(np.random.default_rng(3))), 0, 1),
    (sym.PolyLeaf(_poly()), 0, 1),
    (sym.Monomial(3), -1, 2),
    (sym.Monomial(2), -1, 1),
    (sym.Heaviside(), -1, 1),
    (sym.OscCosTerm(3), 0, 1),
    (sym.SmoothSquareCosTerm(2), 0, 1),
    (sym.HardOscTerm(2), 0, 1),
    (sym.SmoothPhiCosTerm(3), 0, 1),
    (sym.SqrtRecipTerm(2), 0, 1),
    (sym.SqrtFloorTerm(3), 0, 1),
    (sym.LeftFracTerm(3, 2), 0, 1),
    (sym.Shape("cos", +1), 0, 1),
    (sym.Shape("sin", -1), 0, 1),
    (sym.GFactor("A"), F(1, 20), 1),
    (sym.Scale(F(-3, 2), sym.OscCosTerm(2)), 0, 1),
    (sym.Sum([sym.LeftFracTerm(2, 2), sym.Monomial(1)]), 0, 1),
    (sym.Product(sym.Monomial(1), sym.OscCosTerm(2)), 0, 1),
    (sym.PointwiseExtreme(sym.Monomial(1), sym.Shape("cos", +1)), 0, 1),
    (sym.PointwiseExtreme(sym.StepLeaf(StepFn.indicator(F(1, 3), F(2, 3), 0, 1)),
                          sym.LeftFracTerm(2, 1), is_max=False), 0, 1),
    (sym.AbsExpr(sym.Sum([sym.Monomial(1),
                          sym.Scale(-0.5, sym.Monomial(0))])), 0, 1),
    (sym.RecipT(), F(1, 10), 2),
]


def test_every_node_class_is_probed():
    concrete = {c for _, c in inspect.getmembers(sym, inspect.isclass)
                if issubclass(c, sym.Expr) and not c.__name__.startswith("_")
                and c not in (sym.Expr, sym.SeriesTerm)}
    assert concrete == {type(e) for e, _, _ in NODES}


def _cells(expr, lo, hi, rng, count=60):
    """Random cells (u, v] inside the gaps between the node's bound cuts."""
    cuts = sorted({F(lo), F(hi)}.union(c for c in expr.bound_cuts(F(lo), F(hi))
                                       if lo < c < hi))
    us, vs = [], []
    for _ in range(count):
        i = int(rng.integers(0, len(cuts) - 1))
        a, b = float(cuts[i]), float(cuts[i + 1])
        u = a + 0.5 * (b - a) * rng.uniform() if rng.uniform() < 0.7 else a
        v = u + (b - u) * (0.05 + 0.95 * rng.uniform()) if rng.uniform() < 0.7 else b
        us.append(u)
        vs.append(v)
    return np.array(us), np.array(vs)


@pytest.mark.parametrize("expr,lo,hi", NODES, ids=lambda x: type(x).__name__
                         if isinstance(x, sym.Expr) else str(x))
def test_node_bounds(expr, lo, hi):
    rng = np.random.default_rng(11)
    us, vs = _cells(expr, lo, hi, rng)
    osc = expr.osc_bound_array(us, vs)
    sup = expr.sup_bound_array(us, vs)
    assert osc.shape == sup.shape == us.shape
    # they dominate the sampled oscillation and sup on each cell
    for u, v, o, s in zip(us, vs, osc, sup):
        ts = u + (v - u) * np.linspace(1e-3, 1.0, 64)
        vals = expr.ev_array(ts)
        slack = 1e-12 * (1 + np.max(np.abs(vals)))
        assert np.ptp(vals) <= o + slack, (u, v)
        assert np.max(np.abs(vals)) <= s + slack, (u, v)


def test_shape_bounds_are_not_negative_left_of_zero():
    # t (1 + trig(1/t)) is 0 for t <= 0, so its bounds there are 0, not
    # 2 v < 0, and a product built on shape_A(-1, 1) encloses its values
    us, vs = np.array([-1.0, -0.5, -0.25]), np.array([-0.5, 0.0, 0.5])
    shape = sym.Shape("cos", +1)
    assert shape.sup_bound_array(us, vs).tolist() == [0.0, 0.0, 1.0]
    assert shape.osc_bound_array(us, vs).tolist() == [0.0, 0.0, 1.0]
    f = RegulatedFn.product_of(B.shape_A(-1, 1), B.monomial(1, -1, 1))
    us, vs = _cells(f.expr, -1, 1, np.random.default_rng(4), count=200)
    assert np.sum(vs <= 0) >= 10  # cells left of 0 are probed
    for u, v, o, s in zip(us, vs, f.osc_bound_array(us, vs), f.sup_bound_cells(us, vs)):
        vals = f.sample(u + (v - u) * np.linspace(1e-3, 1.0, 64))
        assert np.ptp(vals) <= o + 1e-12 and np.max(np.abs(vals)) <= s + 1e-12, (u, v)


# -- exact leaves and registered primitives inside combinations -------------------


def test_step_plus_poly_lincomb_stays_exact():
    s = RegulatedFn.from_step(StepFn([F(0), F(1, 2), F(1)], [F(1, 3), F(2, 5)]))
    p = RegulatedFn.from_poly(PiecewisePoly([F(0), F(1)], [(F(1, 7), F(2, 3))]))
    f = RegulatedFn.lincomb([(F(3, 2), s), (-2, p)])
    assert f.kind == "lincomb"
    poly = lambda t: F(1, 7) + F(2, 3) * t
    t = F(1, 2)
    cases = [(f.value(t), F(3, 2) * F(1, 3) - 2 * poly(t)),
             (f.left_limit(t), F(3, 2) * F(1, 3) - 2 * poly(t)),
             (f.right_limit(t), F(3, 2) * F(2, 5) - 2 * poly(t)),
             (f.value(0), F(3, 2) * F(1, 3) - 2 * poly(0)),
             (f.value(1), F(3, 2) * F(2, 5) - 2 * poly(1))]
    for got, want in cases:
        assert isinstance(got, Fraction) and got == want


def test_exact_leaves_read_an_inexact_tie_on_the_closing_cell():
    """At t = float(1/5) > 1/5 both exact leaves, and the poly leaf's
    bounds, read the cell (0, 1/5] that a bound cell (0, float(1/5)] stands
    for; only the polynomial's own sampler follows ``__call__`` there."""
    s = StepFn([F(0), F(1, 5), F(1)], [F(100), F(0)])
    p = s.as_poly()
    P, S = RegulatedFn.from_poly(p), RegulatedFn.from_step(s)
    t = np.array([float(F(1, 5))])
    assert P.expr.ev_array(t)[0] == S.expr.ev_array(t)[0] == 100.0
    sup = lambda e, u, v: e.sup_bound_array(np.array([float(u)]),
                                            np.array([float(v)]))[0]
    assert sup(P.expr, 0, F(1, 5)) >= 100
    assert sup(P.expr, F(1, 5), 1) == 0.0
    two = sym.Scale(2, sym.Monomial(0))
    assert sup(sym.Product(P.expr, two), 0, F(1, 5)) >= 200
    assert p.sample_array(t)[0] == float(p(t[0])) == 0.0


def test_poly_sup_norm_reads_the_value_at_an_inexact_break():
    # 50 t on (0, 1/5] peaks at its closing break; 0 after it
    q = RegulatedFn.from_poly(PiecewisePoly([F(0), F(1, 5), F(1)],
                                            [(F(0), F(50)), (F(0),)]))
    assert fs.norm(q, "sup") == 10.0


def test_integrate_lincomb_uses_part_primitive(monkeypatch):
    G = B.osc_series_G(3)
    c = RegulatedFn.constant(F(1, 3), G.interval)
    a, b = F(1, 5), F(7, 9)
    pv, pe = sym.primitive_difference(G.primitive, a, b)

    def no_quadrature(*args, **kw):
        raise AssertionError("quadrature used despite a registered primitive")

    monkeypatch.setattr(fs, "integrate_piecewise", no_quadrature)
    v, e = integrate_regulated(G - c, a, b, 1e-10)
    assert v == pv - float(F(1, 3) * (b - a))
    assert e == pe > 0


def test_shape_integral_keeps_no_state():
    s = sym.Shape("cos", +1)
    before = dict(vars(s))
    first = s.integral(0, 1, 1e-10)
    assert s.integral(0, 1, 1e-10) == first
    assert vars(s) == before


# -- Heaviside step data on any interval ------------------------------------------


@pytest.mark.parametrize("lo,hi,breaks,values,base", [
    (0, 1, [0, 1], [1], 0),
    (-1, 0, [-1, 0], [0], 0),
    (1, 2, [1, 2], [1], 1),
    (-1, 1, [-1, 0, 1], [0, 1], 0),
])
def test_heaviside_step_intervals(lo, hi, breaks, values, base):
    sf = B.heaviside_step(lo, hi).payload
    assert (sf.breaks, sf.values, sf.base_value) == (breaks, values, base)
    for t in np.linspace(lo, hi, 9).tolist() + [0.0]:
        if lo <= t <= hi:
            assert float(sf(F(t))) == sym.Heaviside().ev(t)  # H1, base H1(lo)


def test_cli_stieltjes_heaviside_default_domain(capsys):
    assert cli.main(["stieltjes", "E611_F", "heaviside", "--m", "3",
                     "--tol", "1e-4"]) == 0
    assert capsys.readouterr().out == "stieltjes: 0.0\n"


# -- declared fields ---------------------------------------------------------------------


def test_declared_record_fields():
    names = {f.name for f in dataclasses.fields(CauchySystem)}
    assert {"forcing_steps", "link_weights"} <= names
    names = {f.name for f in dataclasses.fields(RunReport)}
    assert {"system", "traces", "solution", "solutions"} <= names
    rep = RunReport("empty")
    assert rep.traces == () and rep.system is None


# -- the benchmark tracer's per-layer surface --------------------------------------


TRACE_SCRIPT = """
import json, sys
from fractions import Fraction as F
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import leftprim as lp
import tracer as TR
TR.install(lp)
TR.TRACER.active = True
lp.step_approximation(lp.builders.osc_series_G(2), 8)
f = lp.StepFn([F(0), F(1, 3), F(1)], [F(2), F(-1)])
g = lp.StepFn([F(0), F(1, 2), F(1)], [F(0), F(1)])
lp.stieltjes(lp.RegulatedFn.from_step(f), g, F(0), F(1))
print(json.dumps(TR.TRACER.counters))
"""


def test_tracer_installs_on_a_fresh_import():
    # tracer.install patches its functions by name: a deleted or renamed one
    # fails here with the AttributeError that names it
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    script = "import leftprim, tracer; tracer.install(leftprim)"
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         cwd=os.path.join(ROOT, "perfbench"),
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]


def test_tracer_smoke():
    out = subprocess.run(
        [sys.executable, "-c", TRACE_SCRIPT, os.path.join(ROOT, "src"),
         os.path.join(ROOT, "perfbench")],
        capture_output=True, text=True, timeout=300, check=True)
    counters = json.loads(out.stdout.strip().splitlines()[-1])
    assert counters.get("symbolic.bound.cells", 0) > 0
    assert counters.get("gauge.stieltjes_exact.cells", 0) > 0
