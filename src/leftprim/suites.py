"""Seeded property suites behind the ``suite`` subcommand.

Each suite runs a batch of randomized or enumerated checks and returns a
result dict: name, parameters, counts, and a list of violation descriptions
(empty on success).  The acceptance tests drive these same functions, so the
CLI and the test suite cannot drift apart.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import builders as B
from .funcspace import RegulatedFn, step_approximation
from .gauge import stieltjes
from .integral import Distribution, Multiplier, parts
from .stepfn import PiecewisePoly, random_stepfn

F = Fraction


def _report(name, seed, count, violations, extra=None):
    out = {"suite": name, "seed": seed, "count": count,
           "violations": violations, "passed": not violations}
    if extra:
        out.update(extra)
    return out


def norms_suite(seed: int = 0, count: int = 50):
    """The non-completeness norm-sequence identities, exactly, for n=1..count.

    For each n the tail F - F_n must satisfy the Alexiewicz identity
    1/(n+1) - 1/(n+2) and the L1 identity 1/(n+1) in exact rationals.
    """
    violations = []
    for n in range(1, max(2, count + 1)):
        tail = B.AlternatingIndicatorTail(n)
        a = tail.alexiewicz_exact()
        l = tail.l1_exact()
        if a != F(1, n + 1) - F(1, n + 2):
            violations.append(f"alexiewicz identity fails at n={n}: {a}")
        if l != F(1, n + 1):
            violations.append(f"l1 identity fails at n={n}: {l}")
    return _report("norms", seed, count, violations)


def lattice_suite(seed: int = 0, count: int = 1000):
    """Riesz axioms and norm monotonicity on exact random step pairs."""
    rng = np.random.default_rng(seed)
    violations = []
    for k in range(count):
        f = random_stepfn(rng, max_cells=5)
        g = random_stepfn(rng, max_cells=5)
        if f.join(g) != g.join(f) or f.meet(g) != g.meet(f):
            violations.append(f"commutativity fails at case {k}")
        if f.join(f.meet(g)) != f or f.meet(f.join(g)) != f:
            violations.append(f"absorption fails at case {k}")
        if f.pos() - f.neg() != f or f.pos() + f.neg() != f.abs():
            violations.append(f"decomposition fails at case {k}")
        fa, ga = f.abs(), g.abs()
        dom = fa.join(ga)  # |f| <= dom by construction
        for kind in ("l1_norm", "sup_norm", "alexiewicz_norm"):
            if getattr(fa, kind)() > getattr(dom, kind)():
                violations.append(f"Riesz monotonicity ({kind}) fails at {k}")
        prod = f * g
        if prod.sup_norm() > f.sup_norm() * g.sup_norm():
            violations.append(f"submultiplicativity fails at case {k}")
        # absoluteness identities through the lattice on primitives
        d = lambda s: s(F(1)) - s(F(0))
        if d(f) != d(f.pos()) - d(f.neg()):
            violations.append(f"pos/neg integral identity fails at case {k}")
        if abs(d(f)) < abs(d(f.abs())):
            violations.append(f"absolute integral inequality fails at case {k}")
    return _report("lattice", seed, count, violations)


def parts_suite(seed: int = 0, count: int = 200):
    """Integration by parts for polynomial primitives against direct
    quadrature of f*g, plus the certified bound, for step densities."""
    rng = np.random.default_rng(seed)
    violations = []
    for k in range(count):
        deg = int(rng.integers(1, 6))
        coeffs = [F(int(rng.integers(-4, 5)), int(rng.integers(1, 5)))
                  for _ in range(deg + 1)]
        if all(c == 0 for c in coeffs[1:]):
            coeffs[1] = F(1)
        Fp = PiecewisePoly([F(0), F(1)], [tuple(coeffs)])
        Fp = Fp - Fp(F(0))  # normalize: vanish at the left endpoint
        prim = RegulatedFn.from_poly(Fp)
        h = random_stepfn(rng, max_cells=4)
        g = Multiplier.from_step_density(h, F(0))
        space = "LL" if rng.integers(2) else "LD"
        value, bound = parts(Distribution(prim, space), g, F(0), F(1))
        # oracle: f = F', f*g piecewise polynomial on h's cells, integrated exactly
        fprime = tuple((i + 1) * c for i, c in enumerate(coeffs[1:]))
        fpoly = PiecewisePoly(h.breaks, [fprime] * len(h.values))
        total = (fpoly * g.g_fn()).integral()
        if abs(float(value) - float(total)) > 1e-8:
            violations.append(
                f"parts mismatch at case {k}: {float(value)} vs {float(total)}")
        if abs(float(value)) > float(bound) + 1e-12:
            violations.append(f"bound violated at case {k}")
    return _report("parts", seed, count, violations)


def gauge_suite(seed: int = 0, count: int = 1000):
    """Stieltjes vs the atomic measure-sum oracle (exact), bilinearity,
    the sup*variation bound, and interval additivity on step data; the
    oracle runs on 500 pairs."""
    pairs = 500
    rng = np.random.default_rng(seed)
    violations = []
    for k in range(pairs):
        Fs = random_stepfn(rng, max_cells=5)
        g = random_stepfn(rng, max_cells=5)
        val = stieltjes(RegulatedFn.from_step(Fs), g, F(0), F(1))
        # oracle: for step g the induced measure is purely atomic, with an
        # atom g(p+) - g(p-) at every jump p (and at the base point)
        oracle = F(0)
        atoms = [(g.breaks[0], g.values[0] - g.base_value)] + \
            [(g.breaks[i], g.values[i] - g.values[i - 1])
             for i in range(1, len(g.values))]
        for p, jump in atoms:
            # mu_g((x, y]) collects the atoms in (x, y]: the base point's
            # own right-jump never enters
            if jump != 0 and F(0) < p <= F(1):
                oracle += Fs(p) * jump
        if val != oracle:
            violations.append(f"measure-sum oracle mismatch at pair {k}")
    for k in range(count):
        F1 = random_stepfn(rng, max_cells=4)
        F2 = random_stepfn(rng, max_cells=4)
        g1 = random_stepfn(rng, max_cells=4)
        g2 = random_stepfn(rng, max_cells=4)
        a1, a2, b1, b2 = (F(int(rng.integers(-3, 4))) for _ in range(4))
        lhs = stieltjes(RegulatedFn.from_step(a1 * F1 + a2 * F2),
                        b1 * g1 + b2 * g2, F(0), F(1))
        rhs = sum(aa * bb * stieltjes(RegulatedFn.from_step(Ff), gg, F(0), F(1))
                  for aa, Ff in ((a1, F1), (a2, F2))
                  for bb, gg in ((b1, g1), (b2, g2)))
        if lhs != rhs:
            violations.append(f"bilinearity fails at case {k}")
        v = stieltjes(RegulatedFn.from_step(F1), g1, F(0), F(1))
        if abs(v) > F1.sup_norm() * g1.variation():
            violations.append(f"variation bound fails at case {k}")
        # additivity splits the domain of F but keeps the ambient g, whose
        # right limits at the cut point stay those of the full function
        c = F(int(rng.integers(1, 8)), 8)
        left = stieltjes(RegulatedFn.from_step(F1), g1, F(0), c)
        right = stieltjes(RegulatedFn.from_step(F1), g1, c, F(1))
        if left + right != v:
            violations.append(f"interval additivity fails at case {k}")
    return _report("gauge", seed, count, violations,
                   extra={"pairs": pairs})


def solver_suite(seed: int = 0, count: int = 50):
    """Comparison property across ordered random monotone system pairs."""
    from . import systems as SY
    from .solver import as_grid, bounds_to_subsuper, smallest_greatest

    rng = np.random.default_rng(seed)
    violations = []
    for k in range(count):
        case_seed = int(rng.integers(0, 10 ** 9))
        r1 = np.random.default_rng(case_seed)
        r2 = np.random.default_rng(case_seed)
        S1 = SY.random_monotone_system(r1, m=int(1 + k % 3))
        S2 = SY.random_monotone_system(r2, m=int(1 + k % 3),
                                       shift=float(rng.uniform(0.1, 0.6)))
        S2.c = [ci + float(rng.uniform(0, 0.5)) for ci in S1.c]
        try:
            lo1, hi1 = SY.order_bounds_for_random(S1)
            lo2, hi2 = SY.order_bounds_for_random(S2)
            p1 = bounds_to_subsuper(S1, lo1, hi1)
            p2 = bounds_to_subsuper(S2, lo2, hi2)
            y1_lo, y1_hi, tr1 = smallest_greatest(S1, p1, tol=1e-11,
                                                  max_steps=300)
            y2_lo, y2_hi, tr2 = smallest_greatest(S2, p2, tol=1e-11,
                                                  max_steps=300)
        except Exception as exc:  # any engine failure is a violation
            violations.append(f"case {k}: {exc}")
            continue
        g = S1.grid
        for a, b in zip(y1_lo, y2_lo):
            if np.any(as_grid(a, g) > as_grid(b, g) + 1e-8):
                violations.append(f"smallest solutions unordered at case {k}")
        for a, b in zip(y1_hi, y2_hi):
            if np.any(as_grid(a, g) > as_grid(b, g) + 1e-8):
                violations.append(f"greatest solutions unordered at case {k}")
    return _report("solver", seed, count, violations)


def step_suite(seed: int = 0, count: int = 50):
    """Step-approximation error bound on named builders and random steps."""
    rng = np.random.default_rng(seed)
    violations = []
    levels, grid_points = (2, 4, 8, 16, 32, 64), 10_000
    ts = np.linspace(0.0, 1.0, grid_points + 1)
    named = [B.osc_series_G(4), B.left_frac_series(5, p=2)]
    for f in named:
        exact = f.sample(ts)
        for n in levels:
            sf = step_approximation(f, n)
            err = float(np.max(np.abs(RegulatedFn.from_step(sf).sample(ts)
                                      - exact)))
            if err > 1 / n + 1e-12:
                violations.append(f"{f.name}: error {err:.4g} > 1/{n}")
    for k in range(count):
        s = random_stepfn(rng)
        f = RegulatedFn.from_step(s)
        for n in levels:
            sf = step_approximation(f, n)
            err = float(np.max(np.abs(RegulatedFn.from_step(sf).sample(ts)
                                      - f.sample(ts))))
            if err > 1e-12:
                violations.append(f"random step {k} not reproduced at n={n}")
    return _report("step", seed, count, violations,
                   extra={"levels": list(levels), "grid_points": grid_points})


SUITES = {
    "norms": norms_suite,
    "lattice": lattice_suite,
    "parts": parts_suite,
    "gauge": gauge_suite,
    "solver": solver_suite,
    "step": step_suite,
}


def run_suite(name: str, seed: int = 0, count: int = None):
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    kwargs = {"seed": seed}
    if count is not None:
        kwargs["count"] = count
    return SUITES[name](**kwargs)
