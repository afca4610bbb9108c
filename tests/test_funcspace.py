"""Limits, step approximation, classification, norms, integration."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate

from leftprim import builders as B
from leftprim import symbolic as sym
from leftprim.funcspace import (RegulatedFn, classify, fd_derivative_check,
                                integrate_regulated, lattice, limits,
                                local_metric, neg_fn, norm, pos_fn,
                                step_approximation)
from leftprim.intervals import DomainError, Interval
from leftprim.quadrature import IntegrabilityError
from leftprim.stepfn import StepFn, random_stepfn

F = Fraction


# -- limits ----------------------------------------------------------------------


def test_limits_heaviside():
    h = B.heaviside()
    assert limits(h, 0) == (0.0, 0.0, 1.0)


def test_limits_step_indicator():
    f = RegulatedFn.from_step(StepFn.indicator(F(1, 2), 1, 0, 1))
    left, val, right = limits(f, F(1, 2))
    assert (left, val, right) == (0, 0, 1)


def test_limits_outside_domain():
    h = B.heaviside()
    with pytest.raises(DomainError):
        limits(h, 5)


def test_limits_right_limit_absent_at_sup():
    f = RegulatedFn.from_step(StepFn.indicator(F(1, 2), 1, 0, 1))
    assert limits(f, 1)[2] is None


def test_limits_E47_left_branch_vs_sampling():
    # oracle: numeric sampling with Richardson-style shrinking offsets
    G = B.osc_series_G(3)
    left, val, right = limits(G, F(1, 2))
    samples = [G.value(0.5 - h) for h in (1e-6, 1e-7, 1e-8)]
    # extrapolate the sequence linearly in h
    extrap = samples[-1] + (samples[-1] - samples[-2]) / 9
    assert abs(left - extrap) < 1e-6
    assert val == left  # left-continuous by construction
    assert right is None  # discontinuity of the second kind


# -- step approximation --------------------------------------------------------------


def test_step_approximation_idempotent_on_steps():
    rng = np.random.default_rng(0)
    f = random_stepfn(rng)
    approx = step_approximation(RegulatedFn.from_step(f), 7)
    assert approx == f.merged()


def test_step_approximation_linear():
    f = B.monomial(1)
    sf = step_approximation(f, 10)
    ts = np.linspace(0, 1, 10_001)
    err = np.abs(RegulatedFn.from_step(sf).sample(ts) - ts)
    assert float(np.max(err)) <= 1 / 10 + 1e-12


@pytest.mark.parametrize("n", [2, 5, 20])
def test_step_approximation_E611(n):
    f = B.left_frac_series(5, p=2)
    sf = step_approximation(f, n)
    ts = np.linspace(0, 1, 10_001)
    err = np.abs(RegulatedFn.from_step(sf).sample(ts) - f.sample(ts))
    assert float(np.max(err)) <= 1 / n + 1e-12


def test_oscillation_partition_structure():
    from leftprim.funcspace import oscillation_partition
    f = B.osc_series_G(3)
    part = oscillation_partition(f, 16, Interval(F(0), F(1)))
    cuts = part.cuts
    # contiguous strictly increasing cells covering (0, 1]
    assert cuts[0] == 0.0 and cuts[-1] == 1.0
    assert all(a < b for a, b in zip(cuts, cuts[1:]))
    # declared jumps are cell boundaries
    for j in f.jumps(F(0), F(1)):
        if 0 < j < 1:
            assert float(j) in cuts
    assert not part.certified  # symbolic inputs are never certified
    # residual cells hug the second-kind discontinuities
    for u, v in part.residual:
        dist = min(abs(u - float(j)) for j in f.jumps(F(0), F(1)))
        assert dist <= 1e-9


def test_step_approximation_error_bound_across_builders():
    ts = np.linspace(0, 1, 2001)
    for name, params in [("E47_G", {"m": 3}), ("E611_F", {"m": 4}),
                         ("E48_F", {"m": 3}), ("t_G", {"m": 3}),
                         ("E409_Gm", {"m": 2}), ("E407_Gm", {"m": 2}),
                         ("shape_A", {}), ("E600_Fm", {"m": 2})]:
        f = B.build_function(name, **params)
        for n in (2, 10, 50, 100):
            sf = step_approximation(f, n)
            err = np.abs(RegulatedFn.from_step(sf).sample(ts) - f.sample(ts))
            assert float(np.max(err)) <= 1 / n + 1e-9, (name, n)


# -- lattice --------------------------------------------------------------------------


def test_lattice_indicator_join():
    f = RegulatedFn.from_step(StepFn.indicator(0, 1))
    g = RegulatedFn.lincomb([(-1, f)])
    j = lattice(f, g, "join")
    assert j.payload == f.payload


def test_lattice_meet_symbolic():
    t = B.monomial(1)
    one_minus_t = RegulatedFn(
        __import__("leftprim.symbolic", fromlist=["Sum"]).Sum(
            [__import__("leftprim.symbolic", fromlist=["Const"]).Const(1),
             __import__("leftprim.symbolic", fromlist=["Scale"]).Scale(
                 -1, __import__("leftprim.symbolic", fromlist=["Monomial"]).Monomial(1))]),
        t.interval)
    m = lattice(t, one_minus_t, "meet")
    assert m.value(0.5) == pytest.approx(0.5)
    assert m.value(0.25) == pytest.approx(0.25)
    assert m.value(0.75) == pytest.approx(0.25)


def test_pos_neg_parts_of_step_data():
    f = RegulatedFn.from_step(random_stepfn(np.random.default_rng(8)))
    p, n = pos_fn(f), neg_fn(f)
    assert p.kind == n.kind == "step"
    assert min(p.payload.values) >= 0 and min(n.payload.values) >= 0
    assert p.payload - n.payload == f.payload


def test_pos_neg_parts_of_a_symbolic_function():
    # E47_G(m=3) minus 1/4 takes both signs; its jumps sit at 1/3, 1/2, 2/3
    f = RegulatedFn.lincomb([(1, B.osc_series_G(3)), (F(-1, 4), B.monomial(0))])
    p, n = pos_fn(f), neg_fn(f)
    ts = np.linspace(0, 1, 401)
    fv, pv, nv = f.sample(ts), p.sample(ts), n.sample(ts)
    assert fv.min() < 0 < fv.max()
    assert pv.min() >= 0 and nv.min() >= 0
    assert np.array_equal(pv - nv, fv)
    for t in (0, F(1, 3), F(1, 2), 0.3, 1):
        assert p.value(t) - n.value(t) == f.value(t)


def test_lattice_mismatched_interval():
    f = RegulatedFn.from_step(StepFn.indicator(0, 1))
    g = RegulatedFn.from_step(StepFn.indicator(0, 2))
    with pytest.raises(DomainError):
        lattice(f, g, "join")


# -- norms -----------------------------------------------------------------------------


def test_alexiewicz_norm_two_bump():
    f = RegulatedFn.from_step(
        StepFn.indicator(0, 1, 0, 2) - StepFn.indicator(1, 2, 0, 2))
    assert norm(f, "alexiewicz") == 1


def test_tail_norm_identities():
    for n in range(2, 30):
        tail = B.AlternatingIndicatorTail(n)
        assert tail.alexiewicz_exact() == F(1, n + 1) - F(1, n + 2)
        assert tail.l1_exact() == F(1, n + 1)


def test_symbolic_norm_paths_against_closed_form():
    # E611-type series with m=3, p=2 is nonnegative with mean 1/2 per term:
    # integral = sum 1/(2 n^2) = 49/72; both numeric norm paths and a fine
    # step-approximation oracle must agree within their stated errors
    f = B.left_frac_series(3, p=2)
    closed = float(F(49, 72))
    a_sym = norm(f, "alexiewicz", grid=512)
    l_sym = norm(f, "l1", tol=1e-8)
    assert a_sym == pytest.approx(closed, abs=1e-6)
    assert l_sym == pytest.approx(closed, abs=1e-6)
    sf = step_approximation(f, 2000)
    assert float(sf.alexiewicz_norm()) == pytest.approx(closed, abs=1 / 2000)


def test_local_metric_symbolic_pair():
    f = B.left_frac_series(3, p=2)
    g = B.left_frac_series(2, p=2)
    d = local_metric(f, g, "sup", [Interval(F(0), F(1))])
    # the difference is the third term, with sup 1/9
    expected = (1 / 9) / (1 + 1 / 9)
    assert d == pytest.approx(expected, rel=1e-6)


def test_local_metric():
    f = RegulatedFn.from_step(StepFn.indicator(0, 1, 0, 4))
    g = RegulatedFn.from_step(StepFn.constant(0, 4, 0))
    exhaustion = [Interval(F(0), F(k)) for k in (1, 2, 3, 4)]
    d = local_metric(f, g, "sup", exhaustion)
    assert d == pytest.approx(4 * 0.5)
    d2 = local_metric(f, g, "sup", exhaustion, depth=2)
    assert d2 == pytest.approx(1.0)
    assert d2 < d  # monotone in depth
    assert local_metric(f, f, "sup", exhaustion) == 0
    with pytest.raises(ValueError):
        local_metric(f, g, "sup", [])


def test_local_metric_triangle_inequality():
    rng = np.random.default_rng(11)
    exhaustion = [Interval(F(0), F(1))]
    for _ in range(100):
        fs = [RegulatedFn.from_step(random_stepfn(rng)) for _ in range(3)]
        d = lambda a, b: local_metric(a, b, "l1", exhaustion)
        assert d(fs[0], fs[2]) <= d(fs[0], fs[1]) + d(fs[1], fs[2]) + 1e-12


# -- classification ------------------------------------------------------------------------


def test_classify_bounded_oscillatory():
    c = classify(B.t_times_G(4))
    assert c.locally_riemann and c.locally_lebesgue and c.locally_hk
    assert not c.certified


def test_classify_sqrt_singularities():
    c = classify(B.sqrt_series_Gm(2))
    assert not c.locally_riemann
    assert c.locally_lebesgue and c.locally_hk


def test_classify_conditional():
    c = classify(RegulatedFn.product_of(B.monomial(2), B.hard_series_Gm(2)))
    assert not c.locally_riemann and not c.locally_lebesgue
    assert c.locally_hk


def test_classify_divergent():
    c = classify(B.recip_t())
    assert not (c.locally_riemann or c.locally_lebesgue or c.locally_hk)


def test_sup_norm_of_unbounded_raises():
    from leftprim.quadrature import EstimationError
    with pytest.raises(EstimationError):
        norm(B.sqrt_series_Gm(2), "sup")


def test_classify_exact_data_is_certified():
    step = RegulatedFn.from_step(random_stepfn(np.random.default_rng(2)))
    poly = RegulatedFn.from_poly(step.payload.cumulative())
    for f in (step, poly):
        c = classify(f)
        assert (c.locally_riemann, c.locally_lebesgue, c.locally_hk,
                c.certified) == (True, True, True, True)


def test_classify_consistency_chain():
    for name, params in [("E47_G", {"m": 2}), ("E611_F", {"m": 3}),
                         ("E409_Gm", {"m": 2}), ("E407_Gm", {"m": 2}),
                         ("t_G", {"m": 2}), ("t2_Gm", {"m": 2}),
                         ("recip_t", {})]:
        c = classify(B.build_function(name, **params))
        assert (not c.locally_riemann) or c.locally_lebesgue
        assert (not c.locally_lebesgue) or c.locally_hk


# -- integration --------------------------------------------------------------------------


def test_integrate_step_exact():
    f = RegulatedFn.from_step(StepFn.indicator(0, 1, 0, 2))
    v, e = integrate_regulated(f, 0, 2)
    assert v == 1 and e == 0


def test_integrate_shape_A_against_transformed_oracle():
    # oracle (independent route): 1/2 + int_1^U cos(u)/u^3 du, adaptive
    # oscillatory-weight quadrature, with the tail bounded by 1/(2 U^2)
    U = 200_000.0
    o, oerr = scipy.integrate.quad(lambda u: u ** -3.0, 1.0, U,
                                   weight="cos", wvar=1.0, limit=500)
    oracle = 0.5 + o
    tail_bound = 0.5 / U ** 2
    v, e = integrate_regulated(B.shape_A(), 0, 1, tol=1e-12)
    assert abs(v - oracle) <= 1e-10 + tail_bound + oerr
    assert e <= 1e-10


def test_registry_vs_quadrature_cross_check():
    # int_0^t of the g-factor equals the registered shape primitive
    gB = B.g_factor_B()
    v, _ = integrate_regulated(gB, 0, 0.3)
    shape = B.shape_A()
    assert abs(v - shape.value(0.3)) <= 1e-8
    # registry differences match direct quadrature of the factor away from 0
    w, werr = scipy.integrate.quad(
        lambda s: math.sin(1 / s) / s + math.cos(1 / s) + 1, 0.05, 0.3,
        limit=400, epsabs=1e-12)
    r, _ = integrate_regulated(gB, 0.05, 0.3)
    assert abs(r - w) <= 1e-8 + werr


def test_g_factors_integrate_in_closed_form_inside_a_sum():
    # no registered primitive: the sum integrates term by term through each
    # factor's primitive shape, t (1 - sin(1/t)) for A and t (1 + cos(1/t)) for B
    gA, gB = sym.GFactor("A"), sym.GFactor("B")
    assert (gA.primitive_shape().trig, gA.primitive_shape().sign) == ("sin", -1)
    assert (gB.primitive_shape().trig, gB.primitive_shape().sign) == ("cos", +1)
    f = RegulatedFn(sym.Sum([sym.Scale(2, gA), gB]), Interval(0, 1))
    assert f.primitive is None
    shape_a = lambda t: t * (1 - math.sin(1 / t))
    shape_b = lambda t: t * (1 + math.cos(1 / t))
    a, b = 0.2, 0.9
    v, e = integrate_regulated(f, a, b)
    assert v == pytest.approx(2 * (shape_a(b) - shape_a(a)) + shape_b(b) - shape_b(a),
                              abs=1e-14)
    w, werr = scipy.integrate.quad(lambda s: float(f.sample(np.array([s]))[0]),
                                   a, b, epsabs=1e-12)
    assert abs(v - w) <= 1e-10 + werr and e <= 1e-14


def test_integrate_divergent_raises():
    with pytest.raises(IntegrabilityError):
        integrate_regulated(B.recip_t(), 0, 1)


# -- finite difference derivative checks ------------------------------------------------------


def test_fd_smooth():
    t2 = B.monomial(2, 0, 1)
    two_t = RegulatedFn.lincomb([(2, B.monomial(1, 0, 1))])
    rep = fd_derivative_check(t2, two_t, [0.7], h0=1e-3)
    assert rep["max_deviation"] <= 1e-8


def _low_denominator_free_points(count, m, lo=0.05, hi=0.95, min_dist=8e-3):
    """Deterministic sample points away from rationals with denominator <= m."""
    bad = sorted(set(F(i, j) for j in range(1, m + 1) for i in range(0, j + 1)))
    pts, k = [], 1
    golden = (5 ** 0.5 - 1) / 2
    while len(pts) < count:
        t = lo + ((k * golden) % 1.0) * (hi - lo)
        if min(abs(t - float(b)) for b in bad) > min_dist:
            pts.append(t)
        k += 1
    return pts


def test_fd_E48_vs_E47():
    m = 4
    Fm = B.osc_series_F(m)
    Gm = B.osc_series_G(m)
    pts = _low_denominator_free_points(20, m)
    rep = fd_derivative_check(Fm, Gm, pts, h0=1e-4)
    assert rep["max_deviation"] <= 1e-6


def test_fd_E408_vs_E407():
    m = 2
    Fm = B.hard_series_Fm(m)
    Gm = B.hard_series_Gm(m)
    rep = fd_derivative_check(Fm, Gm, [math.sqrt(2) / 2], h0=1e-4)
    assert rep["max_deviation"] <= 1e-6


def test_fd_skips_discontinuities():
    Gm = B.osc_series_G(2)
    Fm = B.osc_series_F(2)
    rep = fd_derivative_check(Fm, Gm, [0.5], min_dist=1e-3)
    assert rep["skipped"] and not rep["points"]
