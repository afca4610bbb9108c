"""Sampled evaluation against the scalar loops it replaces.

The Alexiewicz norm of a function with a registered primitive and the CSV
export each take one vectorised sample pass.  The scalar implementations
they replaced are kept here as references, and every comparison is ``==``
on floats or on bytes: the sampled paths must give the same bits, not
merely close ones.  The series terms have one profile kernel each, so a
scalar ``ev`` and an ``ev_array`` on the same point round identically.
"""

import csv
import io
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from leftprim import builders as B
from leftprim import symbolic as sym
from leftprim.funcspace import RegulatedFn, norm
from leftprim.intervals import DomainError, Interval
from leftprim.reporting import export_function_csv
from leftprim.stepfn import StepFn

F = Fraction


# -- the scalar references ---------------------------------------------------------


def alexiewicz_loop(F_, J, grid=4096):
    """The per-cell loop: P(b) - P(a) through ``primitive_difference`` on
    every cell of the refinement (nothing for a == b), accumulated in order."""
    lo, hi = float(J.lo), float(J.hi)
    cuts = sorted({lo, hi}.union(float(c) for c in F_.jumps(J.lo, J.hi)))
    pts = [lo]
    for a, b in zip(cuts[:-1], cuts[1:]):
        k = max(2, int(grid * (b - a) / (hi - lo)) + 1)
        pts.extend(np.linspace(a, b, k)[1:])
    acc = mn = mx = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        if a != b:
            acc += sym.primitive_difference(F_.primitive, a, b)[0]
        mn, mx = min(mn, acc), max(mx, acc)
    return mx - mn


def export_loop(f, out, grid):
    """The scalar export: one ``f.value`` per row."""
    lo, hi = float(f.interval.lo), float(f.interval.hi)
    jumps = sorted(float(j) for j in f.jumps())
    rows = []
    jset = set(jumps)
    for t in np.unique(np.concatenate([np.linspace(lo, hi, grid + 1),
                                       np.array(jumps)])):
        rows.append((repr(float(t)), repr(float(f.value(t)))))
        if t in jset and t < hi:
            r = f.right_limit(t)
            rows.append((repr(float(t)) + "+",
                         "" if r is None else repr(float(r))))
    w = csv.writer(out)
    w.writerow(["t", "value"])
    w.writerows(rows)


# -- Alexiewicz norm: one sample pass equals the per-cell loop ----------------------


PRIMITIVE_CARRIERS = ([(f"E47_G(m={m})", lambda m=m: B.osc_series_G(m))
                       for m in (3, 4, 5, 6)]
                      + [("E407_Gm", lambda: B.hard_series_Gm(2)),
                         ("E409_Gm", lambda: B.sqrt_series_Gm(2)),
                         ("g_factor_A", B.g_factor_A),
                         ("g_factor_B", B.g_factor_B)])


@pytest.mark.parametrize("label,build", PRIMITIVE_CARRIERS,
                         ids=[p[0] for p in PRIMITIVE_CARRIERS])
def test_alexiewicz_sampled_equals_loop(label, build):
    f = build()
    assert f.primitive is not None
    assert norm(f, "alexiewicz") == alexiewicz_loop(f, f.interval)
    rng = np.random.default_rng(sum(map(ord, label)))
    intervals = [Interval(*sorted(rng.uniform(0, 1, 2).tolist()))
                 for _ in range(3)]
    # ends on jumps of every series term (rationals of small denominator)
    intervals += [Interval(F(1, 3), F(3, 4)), Interval(F(1, 5), F(1, 2))]
    for J in intervals:
        got = norm(f, "alexiewicz", J, grid=1024)
        assert got == alexiewicz_loop(f, J, grid=1024), (label, J)


class _SpikeAt(sym.Expr):
    """t, except +inf at the single point c."""

    def __init__(self, c):
        self.c = c

    def ev(self, t, side=0):
        return math.inf if t == self.c else float(t)

    def ev_array(self, ts):
        ts = np.asarray(ts, dtype=float)
        return np.where(ts == self.c, np.inf, ts)


def test_alexiewicz_coincident_points_add_zero():
    # on a few-ulp interval the refinement repeats points; a repeated
    # point adds 0, as integrate_regulated does for a == b, even where the
    # primitive is infinite (inf - inf would poison the sum)
    iv = Interval(F(0), F(1))
    P = RegulatedFn(_SpikeAt(0.5), iv)
    f = RegulatedFn(sym.Scale(1.0, sym.Monomial(0)), iv, primitive=P)
    J = Interval(0.5, 0.5 + 1e-15)
    with np.errstate(invalid="ignore"):
        got = norm(f, "alexiewicz", J)
    assert got == alexiewicz_loop(f, J) == math.inf


def test_alexiewicz_outside_the_domain_raises():
    with pytest.raises(DomainError):
        norm(B.osc_series_G(3), "alexiewicz", Interval(F(1, 2), F(3, 2)))


# -- CSV export: one sample pass equals the scalar loop ------------------------------


@pytest.mark.parametrize("name", sorted(B.BUILDERS))
def test_csv_sampled_equals_loop(name):
    f = B.build_function(name)
    for grid in (256, 4096):
        fast, slow = io.StringIO(), io.StringIO()
        try:
            export_loop(f, slow, grid)
        except Exception as exc:
            with pytest.raises(type(exc)):
                export_function_csv(f, fast, grid)
            assert name == "recip_t" and isinstance(exc, sym.SecondKindLimit)
            continue
        export_function_csv(f, fast, grid)
        assert fast.getvalue().encode() == slow.getvalue().encode(), (name, grid)


def test_csv_jump_row_reads_the_left_value_where_float_b_exceeds_b():
    # float(1/5) = 0.2000000000000000111 > 1/5: the sample reads the cell
    # closing at the break, so the "0.2" row holds the left value and the
    # "0.2+" row the right limit, as for every other jump (the scalar loop
    # printed the right value in both rows)
    f = RegulatedFn.from_step(StepFn([F(0), F(1, 5), F(1)], [F(1), F(2)], F(1)))
    out = io.StringIO()
    export_function_csv(f, out, 10)
    rows = dict(csv.reader(io.StringIO(out.getvalue())))
    assert (rows["0.2"], rows["0.2+"]) == ("1.0", "2.0")


# -- one kernel per series term --------------------------------------------------------


def _series_terms():
    out, todo = [], [sym.SeriesTerm]
    while todo:
        for c in todo.pop().__subclasses__():
            out.append(c)
            todo.append(c)
    return out


def _pow_points(n, count=4000, seed=17):
    """Seeded t in (0, 1) whose phi = frac(n t) has libm pow(phi, 2) !=
    phi * phi."""
    ts = np.random.default_rng(seed + n).uniform(0, 1, count).tolist()
    phis = [sym._split(t, n)[1] for t in ts]
    return [t for t, phi in zip(ts, phis) if phi ** 2 != phi * phi]


def test_every_series_term_is_covered():
    names = {c.__name__ for c in _series_terms()}
    assert {"OscCosTerm", "SmoothSquareCosTerm", "HardOscTerm",
            "SmoothPhiCosTerm", "SqrtRecipTerm", "SqrtFloorTerm",
            "LeftFracTerm"} <= names


def test_pow_points_exist():
    # the points that tell phi ** 2 from phi * phi; a libm whose pow is
    # correctly rounded has none
    if not any(_pow_points(n) for n in range(1, 7)):
        pytest.skip("libm pow(phi, 2) equals phi * phi on every sampled phi")


@pytest.mark.parametrize("cls", _series_terms(), ids=lambda c: c.__name__)
def test_series_term_ev_equals_ev_array(cls):
    rng = np.random.default_rng(5)
    for n in range(1, 7):
        term = cls(n, 2) if cls is sym.LeftFracTerm else cls(n)
        ts = (rng.uniform(0, 1, 300).tolist() + _pow_points(n)
              + [float(F(k, n)) for k in range(n + 1)] + [0.5, 1e-9])
        arr = term.ev_array(np.array(ts))
        for t, v in zip(ts, arr.tolist()):
            got = term.ev(t)
            assert type(got) is float
            assert got == v, (cls.__name__, n, t)


def test_continuous_terms_are_zero_at_phi_zero():
    for cls in (sym.SmoothSquareCosTerm, sym.SmoothPhiCosTerm):
        for n in (1, 3):
            assert cls(n).ev(F(1, n), +1) == 0.0
    with pytest.raises(sym.SecondKindLimit):
        sym.OscCosTerm(2).ev(F(1, 2), +1)


def _near_jumps(jumps, m, seed):
    """Seeded points around each jump c: c itself, 1-4 ulps either side,
    and c +- SNAP n (n <= m) with a 1-ulp step either side of that."""
    ts = np.random.default_rng(seed).uniform(-1, 2, 40).tolist()
    for c in map(float, jumps):
        ts += [c] + [_ulps(c, k) for k in (-4, -3, -2, -1, 1, 2, 3, 4)]
        for n in range(1, m + 1):
            for d in (sym.SNAP * n, -sym.SNAP * n):
                ts += [c + d, _ulps(c + d, 1), _ulps(c + d, -1)]
    return ts


def _ulps(x, k):
    """x moved by k ulps (toward -inf for k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def _jump_leaves(m):
    out = [sym.Heaviside()]
    for n in range(1, m + 1):
        out.append(sym.LeftFracTerm(n, 2))
        out += [c(n) for c in _series_terms() if c is not sym.LeftFracTerm]
    return out


def test_jump_leaves_point_equals_array_near_jumps():
    for seed, e in enumerate(_jump_leaves(5)):
        for t in _near_jumps(e.bound_cuts(-1, 2), 5, seed):
            got, want = e.ev(t), e.ev_array(np.array([t]))[0]
            assert type(got) is float
            assert got.hex() == float(want).hex(), (type(e).__name__, seed, t)


SERIES_FAMILIES = ("E47_G", "E48_F", "E407_Gm", "E408_Fm", "E409_Gm",
                   "E600_Fm", "E611_F", "t_G", "t2_Gm")


@pytest.mark.parametrize("name", SERIES_FAMILIES + ("heaviside",))
def test_value_equals_sample_near_jumps(name):
    fs = [B.heaviside()] if name == "heaviside" else \
        [B.build_function(name, m=m) for m in range(1, 6)]
    for m, f in enumerate(fs, 1):
        lo, hi = f.interval.lo, f.interval.hi
        ts = [t for t in _near_jumps(f.expr.bound_cuts(lo, hi), m, seed=m)
              if lo <= t <= hi]
        got = [float(f.value(t)).hex() for t in ts]
        assert got == [float(v).hex() for v in f.sample(ts)], (name, m)


KERNEL_NODES = [
    (sym.Monomial(2), lambda t: t ** 2),
    (sym.Monomial(3), lambda t: t ** 3),
    (sym.Shape("sin", -1), lambda t: t * (1 - mpmath.sin(1 / t))),
    (sym.Shape("cos", +1), lambda t: t * (1 + mpmath.cos(1 / t))),
    (sym.GFactor("A"),
     lambda t: mpmath.cos(1 / t) / t - mpmath.sin(1 / t) + 1),
    (sym.GFactor("B"),
     lambda t: mpmath.sin(1 / t) / t + mpmath.cos(1 / t) + 1),
    (sym.RecipT(), lambda t: 1 / t),
]


def test_kernel_nodes_agree_on_points():
    # Monomial, Shape, GFactor and RecipT evaluate one point through their
    # array kernel too (a float's ** calls libm pow, numpy's does not), and
    # only t = 0 itself takes the value at 0: each point 2^-k reads the
    # formula, checked against mpmath there (1/t = 2^k is exact, so no
    # rounding of 1/t is amplified by the steep 1/t terms)
    small = [2.0 ** -k for k in range(20, 61)]
    ts = np.random.default_rng(11).uniform(0.01, 1, 200).tolist() + small
    for e, formula in KERNEL_NODES:
        name = type(e).__name__
        arr = e.ev_array(np.array(ts))
        assert [e.ev(t) for t in ts] == arr.tolist(), name
        assert all(e.ev(t) == e.ev_array([t])[0] for t in ts), name
        with mpmath.workdps(50):
            for t in small:
                err = abs(e.ev(t) - formula(mpmath.mpf(t)))
                assert err <= 1e-14 * (1 + 1 / t), (name, t, float(err))
    for name in ("g_factor_A", "g_factor_B", "recip_t", "shape_A", "shape_B"):
        f = B.build_function(name)
        for t in ts:
            assert f.value(t) == f.sample([t])[0] == f.value(F(t)), (name, t)


# -- work counts -------------------------------------------------------------------------


def _count(monkeypatch, cls, attr, calls):
    orig = getattr(cls, attr)

    def wrapper(*args, **kw):
        calls.append(args[0] if args else None)
        return orig(*args, **kw)
    monkeypatch.setattr(cls, attr, wrapper)


def test_alexiewicz_samples_the_primitive_once(monkeypatch):
    f = B.osc_series_G(4)
    samples, diffs = [], []
    _count(monkeypatch, RegulatedFn, "sample", samples)
    monkeypatch.setattr(sym, "primitive_difference",
                        lambda *a: diffs.append(a) or (0.0, 0.0))
    norm(f, "alexiewicz", Interval(F(1, 7), F(5, 6)))
    assert [s is f.primitive for s in samples] == [True]
    assert diffs == []


def test_csv_samples_once_and_one_right_limit_per_jump(monkeypatch):
    f = B.osc_series_G(4)
    samples, rights = [], []
    _count(monkeypatch, RegulatedFn, "sample", samples)
    _count(monkeypatch, RegulatedFn, "right_limit", rights)
    export_function_csv(f, io.StringIO(), 4096)
    assert [s is f for s in samples] == [True]
    assert 0 < len(rights) <= len(f.jumps())
