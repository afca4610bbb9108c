"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from leftprim import builders as B
from leftprim import suites as SU
from leftprim import systems as SY
from leftprim.funcspace import (RegulatedFn, fd_derivative_check,
                                step_approximation)
from leftprim.integral import Distribution, hake, primitive_integral
from leftprim.intervals import Interval
from leftprim.runs import run_ex01, run_ex31
from leftprim.solver import (GridFn, SubSuperPair, as_grid, iterate_chain,
                             make_grid, reduce_higher_order, residual,
                             smallest_greatest, uniqueness_chain)
from leftprim.stepfn import random_stepfn

F = Fraction


def _announce(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_ex31_golden_values():
    t0 = time.time()
    rep = run_ex31(quad_tol=1e-10)
    elapsed = time.time() - t0
    out = rep.outputs
    ok = (out["greatest"]["component_1"]["exact"] == "arctan(2569/2500)"
          and out["greatest"]["component_2"]["exact"] == "tanh(12419/10000)"
          and out["smallest"]["component_1"]["exact"] == "-arctan(5139/5000)"
          and out["smallest"]["component_2"]["exact"] == "-tanh(12421/10000)")
    stab = rep.stabilization
    ok = ok and all(stab[k] <= 25 for k in
                    ("scalar_up", "scalar_down", "generic_up", "generic_down"))
    ok = ok and rep.residuals["smallest"] <= 1e-9 \
        and rep.residuals["greatest"] <= 1e-9
    ok = ok and out["scalar_and_generic_paths_agree"]
    ok = ok and elapsed < 60
    _announce("criterion 1 (ex31 golden values)", ok,
              f"observed stabilization {stab['generic_up']} vs reference "
              f"{stab['reference_count']}, runtime {elapsed:.1f}s")


def test_criterion_02_norm_identities_exact():
    failures = []
    for n in range(1, 51):
        tail = B.AlternatingIndicatorTail(n)
        if tail.alexiewicz_exact() != F(1, n + 1) - F(1, n + 2):
            failures.append(("A", n))
        if tail.l1_exact() != F(1, n + 1):
            failures.append(("L1", n))
    _announce("criterion 2 (norm identities, zero tolerance)", not failures,
              f"n=1..50, failures={failures}")


def test_criterion_03_step_approximation():
    from leftprim.funcspace import oscillation_partition

    ts = np.linspace(0.0, 1.0, 10_001)
    worst = 0.0
    for f in (B.osc_series_G(4), B.left_frac_series(5, p=2)):
        exact = f.sample(ts)
        for n in range(2, 65):
            sf = step_approximation(f, n)
            err = float(np.max(np.abs(
                RegulatedFn.from_step(sf).sample(ts) - exact)))
            assert err <= 1 / n + 1e-12, (f.name, n, err)
            worst = max(worst, err * n)
        # soundness, not sampling luck: every test point must sit in a cell
        # whose certified oscillation bound already enforces 1/n
        for n in (2, 16, 64):
            part = oscillation_partition(f, n, Interval(F(0), F(1)))
            us = np.array(part.cuts[:-1])
            vs = np.array(part.cuts[1:])
            osc = f.osc_bound_array(us, vs)
            idx = np.clip(np.searchsorted(part.cuts, ts, side="left") - 1,
                          0, len(osc) - 1)
            bad = osc[idx] > 1.0 / n
            bad[ts <= part.cuts[0]] = False
            assert int(np.sum(bad)) == 0, (f.name, n)
    rng = np.random.default_rng(42)
    for _ in range(50):
        s = random_stepfn(rng)
        f = RegulatedFn.from_step(s)
        exact = f.sample(ts)
        for n in range(2, 65):
            sf = step_approximation(f, n)
            err = float(np.max(np.abs(
                RegulatedFn.from_step(sf).sample(ts) - exact)))
            assert err <= 1 / n + 1e-15
    _announce("criterion 3 (step approximation <= 1/n on 10^4 points)", True,
              f"worst n*err over named builders = {worst:.3f}")


def test_criterion_04_gauge_stieltjes():
    rep = SU.gauge_suite(seed=2024, count=1000)
    _announce("criterion 4 (gauge-Stieltjes exactness and bounds)",
              rep["passed"], f"violations={rep['violations'][:3]}")


def test_criterion_05_ftc_hake_and_fd():
    f = Distribution(B.t_times_G(4))
    direct = primitive_integral(f, 0, 1)
    lim = hake(f, "left_endpoint", 1)
    ok = abs(float(direct) - float(lim)) <= 1e-8
    # numeric corroboration of the vanishing right limit at 0
    eps_vals = [abs(f.primitive.value(e)) for e in (1e-4, 1e-6, 1e-8)]
    ok = ok and eps_vals[-1] <= 1e-6

    def far_points(count, m):
        bad = sorted(set(F(i, j) for j in range(1, m + 1)
                         for i in range(0, j + 1)))
        pts, k = [], 1
        golden = (5 ** 0.5 - 1) / 2
        while len(pts) < count:
            t = 0.05 + ((k * golden) % 1.0) * 0.9
            if min(abs(t - float(b)) for b in bad) > 8e-3:
                pts.append(t)
            k += 1
        return pts

    rep1 = fd_derivative_check(B.osc_series_F(4), B.osc_series_G(4),
                               far_points(100, 4), h0=1e-4)
    rep2 = fd_derivative_check(B.hard_series_Fm(2), B.hard_series_Gm(2),
                               far_points(100, 2), h0=1e-4)
    ok = ok and rep1["max_deviation"] <= 1e-6 and rep2["max_deviation"] <= 1e-6
    _announce("criterion 5 (FTC/Hake and finite-difference checks)", ok,
              f"hake gap {abs(float(direct) - float(lim)):.2e}, "
              f"fd deviations {rep1['max_deviation']:.2e}, "
              f"{rep2['max_deviation']:.2e}")


def test_criterion_06_integration_by_parts():
    rep = SU.parts_suite(seed=7, count=200)
    _announce("criterion 6 (integration by parts, 200 cases)", rep["passed"],
              f"violations={rep['violations'][:3]}")


def test_criterion_07_algebra_lattice():
    rep = SU.lattice_suite(seed=99, count=1000)
    _announce("criterion 7 (algebra and lattice suites, 1000 pairs)",
              rep["passed"], f"violations={rep['violations'][:3]}")


def test_criterion_08_ex01():
    rep = run_ex01(T=5.0, per_unit=256, tol=1e-9)
    ok = rep.outputs["closed_form_sup_error"] <= 1e-9
    ok = ok and rep.outputs["uniqueness_certified"]
    _announce("criterion 8 (ex01 closed form and uniqueness)", ok,
              f"sup error {rep.outputs['closed_form_sup_error']:.2e}, "
              f"uniqueness omega stages {rep.outputs['uniqueness_omega_stages']}")


def test_criterion_09_solver_comparison():
    rep = SU.solver_suite(seed=5, count=50)
    _announce("criterion 9 (solver comparison across 50 ordered pairs)",
              rep["passed"], f"violations={rep['violations'][:3]}")


def test_criterion_10_higher_order():
    grid = make_grid(0, 1, 256)
    iv = Interval(0, 1 + 1e-9)
    # y'' = 0, y(0)=c1, y'(0)=c2
    S0 = reduce_higher_order(2, lambda x: GridFn(grid, np.zeros(len(grid))),
                             [1.0, 2.0], iv, grid)
    p0 = SubSuperPair([GridFn.constant(grid, -1.0), GridFn.constant(grid, -1.0)],
                      [GridFn(grid, 2.0 + 3.0 * grid), GridFn.constant(grid, 3.0)])
    y0_lo, y0_hi, _ = smallest_greatest(S0, p0, tol=1e-12, max_steps=500)
    e0 = max(float(np.max(np.abs(as_grid(y[0], grid) - (1.0 + 2.0 * grid))))
             for y in (y0_lo, y0_hi))
    # y'' = k, zero data
    k = 3.0
    Sk = reduce_higher_order(2, lambda x: GridFn(grid, k * grid),
                             [0.0, 0.0], iv, grid)
    pk = SubSuperPair([GridFn.constant(grid, -1.0), GridFn.constant(grid, -1.0)],
                      [GridFn(grid, 4.0 * grid), GridFn.constant(grid, 4.0)])
    yk_lo, yk_hi, _ = smallest_greatest(Sk, pk, tol=1e-13, max_steps=500)
    ek = max(float(np.max(np.abs(as_grid(y[0], grid) - k * grid ** 2 / 2)))
             for y in (yk_lo, yk_hi))
    ok = e0 <= 1e-9 and ek <= 1e-9
    _announce("criterion 10 (higher-order closed forms)", ok,
              f"errors {e0:.2e}, {ek:.2e}")
