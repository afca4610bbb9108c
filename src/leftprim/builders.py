"""Catalog of named example functions.

Builder identifiers are the catalog codes used by the config format and the
``example`` CLI subcommand.  Each series builder takes an explicit truncation
depth ``m`` (there are no hidden defaults), and its declared discontinuity
set consists of the rationals with denominator at most ``m`` on the query
interval.
"""

from __future__ import annotations

from fractions import Fraction

from . import symbolic as sym
from .funcspace import RegulatedFn
from .intervals import Interval
from .quadrature import EstimationError
from .stepfn import StepDataError, StepFn


def _iv(lo, hi):
    return Interval(Fraction(lo), Fraction(hi))


def osc_series_G(m: int, lo=0, hi=1) -> RegulatedFn:
    """Bounded series with a second-kind discontinuity at every rational
    with denominator <= m; locally Riemann integrable.  Its registered
    primitive is :func:`osc_series_F`."""
    expr = sym.series(sym.OscCosTerm, m)
    F = RegulatedFn.from_expr(sym.series(sym.SmoothSquareCosTerm, m),
                              _iv(lo, hi), name=f"E48_F(m={m})")
    return RegulatedFn.from_expr(expr, _iv(lo, hi), name=f"E47_G(m={m})",
                                 primitive=F)


def osc_series_F(m: int, lo=0, hi=1) -> RegulatedFn:
    """Continuous primitive of osc_series_G (term-wise antiderivative)."""
    return RegulatedFn.from_expr(sym.series(sym.SmoothSquareCosTerm, m),
                                 _iv(lo, hi), name=f"E48_F(m={m})")


def hard_series_Gm(m: int, lo=0, hi=1) -> RegulatedFn:
    """osc_series_G plus unbounded conditionally-integrable terms; locally HK
    but neither Lebesgue nor Riemann integrable."""
    expr = sym.Sum([sym.series(sym.OscCosTerm, m),
                    sym.series(sym.HardOscTerm, m)])
    F = hard_series_Fm(m, lo, hi)
    return RegulatedFn.from_expr(expr, _iv(lo, hi), name=f"E407_Gm(m={m})",
                                 primitive=F)


def hard_series_Fm(m: int, lo=0, hi=1) -> RegulatedFn:
    return RegulatedFn.from_expr(
        sym.Sum([sym.series(sym.SmoothSquareCosTerm, m),
                 sym.series(sym.SmoothPhiCosTerm, m)]),
        _iv(lo, hi), name=f"E408_Fm(m={m})")


def sqrt_series_Gm(m: int, lo=0, hi=1) -> RegulatedFn:
    """osc_series_G plus 1/(2 sqrt(phi)) terms; locally Lebesgue but not
    Riemann integrable (unbounded, absolutely integrable singularities)."""
    expr = sym.Sum([sym.series(sym.OscCosTerm, m),
                    sym.series(sym.SqrtRecipTerm, m)])
    F = sqrt_series_Fm(m, lo, hi)
    return RegulatedFn.from_expr(expr, _iv(lo, hi), name=f"E409_Gm(m={m})",
                                 primitive=F)


def sqrt_series_Fm(m: int, lo=0, hi=1) -> RegulatedFn:
    return RegulatedFn.from_expr(
        sym.Sum([sym.series(sym.SmoothSquareCosTerm, m),
                 sym.series(sym.SqrtFloorTerm, m)]),
        _iv(lo, hi), name=f"E600_Fm(m={m})")


def left_frac_series(m: int, p=2, lo=0, hi=1) -> RegulatedFn:
    """Regulated left-continuous series of sawtooth terms (jumps of the first
    kind at every rational with denominator <= m)."""
    expr = sym.Sum([sym.LeftFracTerm(n, p) for n in range(1, m + 1)])
    return RegulatedFn.from_expr(expr, _iv(lo, hi), name=f"E611_F(m={m},p={p})")


def heaviside(lo=-1, hi=1) -> RegulatedFn:
    return RegulatedFn.from_expr(sym.Heaviside(), _iv(lo, hi), name="heaviside")


def heaviside_step(lo=-1, hi=1) -> RegulatedFn:
    """H1 as exact step data; constant (base value H1(lo)) unless lo < 0 < hi."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo < 0 < hi:
        sf = StepFn([lo, Fraction(0), hi], [Fraction(0), Fraction(1)], Fraction(0))
    else:
        sf = StepFn([lo, hi], [Fraction(int(lo >= 0))], Fraction(int(lo > 0)))
    return RegulatedFn.from_step(sf, "heaviside_step")


def monomial(k: int, lo=0, hi=1) -> RegulatedFn:
    name = "t" if k == 1 else f"t^{k}"
    return RegulatedFn.from_expr(sym.Monomial(k), _iv(lo, hi), name=name)


def t_times_G(m: int, lo=0, hi=1) -> RegulatedFn:
    """t * G(t): bounded, right continuous at 0, second-kind discontinuities
    at the rationals; locally Riemann integrable."""
    f = RegulatedFn.product_of(monomial(1, lo, hi), osc_series_G(m, lo, hi),
                               name=f"t*E47_G(m={m})")
    return f


def t2_times_Gm(m: int, lo=0, hi=1) -> RegulatedFn:
    """t^2 * Gm(t): locally HK integrable but not locally Lebesgue."""
    return RegulatedFn.product_of(monomial(2, lo, hi), hard_series_Gm(m, lo, hi),
                                  name=f"t^2*E407_Gm(m={m})")


def shape_A(lo=0, hi=1) -> RegulatedFn:
    """t (1 + cos(1/t)), extended by 0 at 0; nonnegative and continuous."""
    return RegulatedFn.from_expr(sym.Shape("cos", +1), _iv(lo, hi), name="shape_A")


def shape_B(lo=0, hi=1) -> RegulatedFn:
    """t (1 - sin(1/t)), extended by 0 at 0; nonnegative and continuous."""
    return RegulatedFn.from_expr(sym.Shape("sin", -1), _iv(lo, hi), name="shape_B")


def g_factor_A(lo=0, hi=1) -> RegulatedFn:
    """(1/t) cos(1/t) - sin(1/t) + 1 with value 0 at 0; primitive shape_B."""
    expr = sym.GFactor("A")
    return RegulatedFn.from_expr(expr, _iv(lo, hi), name="g_factor_A",
                                 primitive=shape_B(lo, hi))


def g_factor_B(lo=0, hi=1) -> RegulatedFn:
    """(1/t) sin(1/t) + cos(1/t) + 1 with value 0 at 0; primitive shape_A."""
    expr = sym.GFactor("B")
    return RegulatedFn.from_expr(expr, _iv(lo, hi), name="g_factor_B",
                                 primitive=shape_A(lo, hi))


def recip_t(lo=0, hi=1) -> RegulatedFn:
    """1/t: the canonical non-HK-integrable singularity at 0."""
    return RegulatedFn.from_expr(sym.RecipT(), _iv(lo, hi), name="1/t")


class AlternatingIndicatorTail:
    """The countably stepped sequence behind the non-completeness identities.

    ``F = sum_{m>=2} (-1)^m chi_{(-1/m, -1/(m+1)]}`` on [-1, 0] and its
    partial sums ``F_n``.  The difference ``F - F_n`` is the tail from
    ``m = n+1``; its cells tile ``(-1/(n+1), 0)`` exactly, which this class
    verifies programmatically and then exploits for exact norms.
    """

    def __init__(self, n: int):
        if n < 1:  # F_1 is the empty partial sum
            raise ValueError(f"tail index must be >= 1, got {n}")
        self.n = n

    def partial(self, upto: int) -> StepFn:
        """F_upto as exact step data on [-1, 0]."""
        breaks = [Fraction(-1)]
        values = []
        for m in range(2, upto + 1):
            x, y = Fraction(-1, m), Fraction(-1, m + 1)
            if x > breaks[-1]:
                breaks.append(x)
                values.append(Fraction(0))
            breaks.append(y)
            values.append(Fraction((-1) ** m))
        breaks.append(Fraction(0))
        values.append(Fraction(0))
        return StepFn(breaks, values, Fraction(0))

    def tail_truncation(self, depth: int = 64) -> StepFn:
        """(F - F_n) truncated after `depth` tail cells, on [-1, 0]."""
        breaks = [Fraction(-1), Fraction(-1, self.n + 1)]
        values = [Fraction(0)]
        for m in range(self.n + 1, self.n + 1 + depth):
            breaks.append(Fraction(-1, m + 1))
            values.append(Fraction((-1) ** m))
        breaks.append(Fraction(0))
        values.append(Fraction(0))
        return StepFn(breaks, values, Fraction(0))

    def abs_exact(self) -> StepFn:
        """|F - F_n| as exact step data: the tail cells tile (-1/(n+1), 0).

        Verified: consecutive cells (-1/m, -1/(m+1)] are contiguous and all
        carry |value| = 1, so |F - F_n| = chi_{(-1/(n+1), 0]} up to the single
        point 0 (measure zero, irrelevant to every norm used here).
        """
        t = self.tail_truncation(depth=8)
        cells = t.to_cells()
        inner = [c for c in cells if abs(c[2]) == 1]
        for (x1, y1, v1), (x2, y2, v2) in zip(inner, inner[1:]):
            if y1 != x2 or not abs(v1) == abs(v2) == 1:
                raise StepDataError("tail cells must tile contiguously with |value| 1")
        return StepFn.indicator(Fraction(-1, self.n + 1), Fraction(0),
                                domain_lo=Fraction(-1))

    def alexiewicz_exact(self) -> Fraction:
        """Exact Alexiewicz norm of F - F_n via cumulative extrema.

        Cell lengths 1/(m(m+1)) decrease strictly and signs alternate, so the
        cumulative extrema stabilise after finitely many cells; stability is
        asserted by comparing two truncation depths.
        """
        a1 = self.tail_truncation(48).alexiewicz_norm()
        a2 = self.tail_truncation(96).alexiewicz_norm()
        if a1 != a2:
            raise EstimationError("extrema must be attained in the early cells")
        return a1

    def l1_exact(self) -> Fraction:
        return self.abs_exact().l1_norm()


# -- registry -----------------------------------------------------------------

BUILDERS = {
    "E47_G": lambda m=4, **kw: osc_series_G(m, **kw),
    "E48_F": lambda m=4, **kw: osc_series_F(m, **kw),
    "E407_Gm": lambda m=2, **kw: hard_series_Gm(m, **kw),
    "E408_Fm": lambda m=2, **kw: hard_series_Fm(m, **kw),
    "E409_Gm": lambda m=2, **kw: sqrt_series_Gm(m, **kw),
    "E600_Fm": lambda m=2, **kw: sqrt_series_Fm(m, **kw),
    "E611_F": lambda m=5, p=2, **kw: left_frac_series(m, p, **kw),
    "heaviside": lambda **kw: heaviside(**kw),
    "heaviside_step": lambda **kw: heaviside_step(**kw),
    "t_G": lambda m=4, **kw: t_times_G(m, **kw),
    "t2_Gm": lambda m=2, **kw: t2_times_Gm(m, **kw),
    "shape_A": lambda **kw: shape_A(**kw),
    "shape_B": lambda **kw: shape_B(**kw),
    "g_factor_A": lambda **kw: g_factor_A(**kw),
    "g_factor_B": lambda **kw: g_factor_B(**kw),
    "recip_t": lambda **kw: recip_t(**kw),
    "monomial": lambda k=1, **kw: monomial(k, **kw),
}


def build_function(name: str, **params) -> RegulatedFn:
    if name not in BUILDERS:
        raise KeyError(f"unknown builder {name!r}; known: {sorted(BUILDERS)}")
    return BUILDERS[name](**params)

