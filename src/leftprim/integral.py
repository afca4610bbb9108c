"""The primitive integral of distributions and its operations.

A distribution here is represented *only* through a primitive: a
left-continuous left-regulated function F (right continuous at the domain
minimum).  The integral from a to b is the endpoint difference F(b) - F(a),
i.e. the [a, b) convention; no pointwise values of the distribution itself
are ever synthesised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import funcspace as fs
from .funcspace import RegulatedFn, integrate_regulated
from .intervals import DomainError, Interval
from .quadrature import integrate_piecewise
from .stepfn import PiecewisePoly, StepFn


class MultiplierError(ValueError):
    """The multiplier density fails a required bound, or is not of the kind
    an operation needs."""


@dataclass
class Distribution:
    """An integrable distribution, carried by its primitive.

    ``space_tag`` records the integrability class of the primitive:
    "LD" (locally HK), "LL" (locally Lebesgue), "LR" (locally Riemann).
    ``normalized`` means the primitive has vanishing right limit at inf I.
    """

    primitive: RegulatedFn
    space_tag: str = "LD"
    normalized: bool = False

    def __post_init__(self):
        if self.space_tag not in ("LD", "LL", "LR"):
            raise ValueError(f"unknown space tag {self.space_tag!r}")

    @property
    def interval(self) -> Interval:
        return self.primitive.interval


def primitive_integral(f: Distribution, a, b, endpoint_mode: str = "closed_open"):
    """int_a^b f = F(b) - F(a) with left-continuous evaluation.

    The canonical convention integrates over [a, b).  The other three
    endpoint variants of a regulated primitive are exposed through
    ``endpoint_mode`` in {"closed_open", "open_open", "closed_closed",
    "open_closed"}.
    """
    F = f.primitive
    if not (F.interval.contains(a) and F.interval.contains(b)):
        raise DomainError(f"integration endpoints outside {F.interval}")
    if endpoint_mode == "closed_open":
        return F.value(b) - F.value(a)
    amode, bmode = endpoint_mode.split("_")
    lo_val = F.value(a) if amode == "closed" else _right(F, a)
    hi_val = F.value(b) if bmode == "open" else _right(F, b)
    return hi_val - lo_val


def _right(F: RegulatedFn, t):
    if t == F.interval.hi:
        return F.value(t)  # closed-endpoint convention at the domain maximum
    r = F.right_limit(t)
    if r is None:
        raise DomainError(f"right limit of primitive does not exist at {t}")
    return r


def order_le(f: Distribution, g: Distribution, grid: int = 1024) -> bool:
    """The primitive order: f precedes g iff F <= G pointwise.

    Exact for step primitives; sampled on a grid (plus declared jumps)
    otherwise.
    """
    Fp, Gp = f.primitive, g.primitive
    if Fp.kind == "step" and Gp.kind == "step":
        return Fp.payload.le(Gp.payload)
    lo, hi = float(Fp.interval.lo), float(Fp.interval.hi)
    ts = np.unique(np.concatenate(
        [np.linspace(lo, hi, grid + 1),
         np.array([float(j) for j in Fp.jumps()] +
                  [float(j) for j in Gp.jumps()] or [lo])]))
    return bool(np.all(Fp.sample(ts) <= Gp.sample(ts) + 1e-12))


def cumulative(f: Distribution, a, c) -> RegulatedFn:
    """G(x) = c + int_a^x f; G(a) = c and G' = f by construction."""
    F = f.primitive
    if not F.interval.contains(a):
        raise DomainError(f"{a} outside {F.interval}")
    if F.kind in ("step", "poly"):  # shift the exact data, keep its leaf type
        data = F.payload + (c - F.payload(a))
        return RegulatedFn(type(F.expr)(data), data.interval)
    shift = c - F.value(a)
    return F + RegulatedFn.constant(shift, F.interval)


def hake(f: Distribution, side: str, c):
    """One-sided limit of the integral toward the named endpoint.

    left_endpoint: lim_{x -> a+} int_x^c f = F(c) - F(a+)
    right_endpoint: lim_{y -> b-} int_c^y f = F(b-) - F(c)
    """
    F = f.primitive
    if side == "left_endpoint":
        r = F.right_limit(F.interval.lo)
        if r is None:
            raise DomainError("primitive has no right limit at the left endpoint")
        return F.value(c) - r
    if side == "right_endpoint":
        return F.left_limit(F.interval.hi) - F.value(c)
    raise ValueError(f"unknown side {side!r}")


@dataclass
class Multiplier:
    """A Lipschitz multiplier g(x) = int_anchor^x h for bounded-variation h.

    g is stored exclusively through its density; Vh is exact for step
    densities, a sampled estimate with ``variation_certified=False``
    otherwise.
    """

    density: RegulatedFn
    anchor: object
    variation: object = None
    variation_certified: bool = True

    def __post_init__(self):
        if self.variation is None:
            if self.density.kind == "step":
                self.variation = self.density.payload.variation()
                self.variation_certified = True
            else:
                self.variation = _sampled_variation(self.density)
                self.variation_certified = False

    @classmethod
    def from_step_density(cls, h: StepFn, anchor) -> "Multiplier":
        return cls(RegulatedFn.from_step(h), anchor)

    @property
    def interval(self) -> Interval:
        return self.density.interval

    def g_fn(self) -> PiecewisePoly:
        """g as an exact piecewise-linear function (step densities only)."""
        if self.density.kind != "step":
            raise MultiplierError(
                f"g_fn needs a step density, not {self.density.kind!r}")
        cum = self.density.payload.cumulative()
        offset = cum(self.anchor)
        return cum + (-1 * offset)

    def g(self, x):
        if self.density.kind == "step":
            return self.g_fn()(x)
        v, _ = integrate_regulated(self.density, self.anchor, x)
        return v

    def density_sup(self):
        if self.density.kind == "step":
            return self.density.payload.sup_norm()
        return fs.norm(self.density, "sup")


def _sampled_variation(h: RegulatedFn, samples: int = 4096):
    ts = np.linspace(float(h.interval.lo), float(h.interval.hi), samples)
    vals = h.sample(ts)
    return float(np.sum(np.abs(np.diff(vals))))


@dataclass
class TestFn:
    """Smooth compactly supported bump with a closed-form derivative.

    phi(t) = exp(1 - 1/(1 - s^2)) with s = (t - center)/radius, so
    phi(center) = 1 and supp(phi) = [center - radius, center + radius].
    """

    __test__ = False  # not a pytest class

    center: float
    radius: float

    def __call__(self, t):
        s = (float(t) - self.center) / self.radius
        if abs(s) >= 1.0:
            return 0.0
        return math.exp(1.0 - 1.0 / (1.0 - s * s))

    def deriv_array(self, ts):
        ts = np.asarray(ts, dtype=float)
        s = (ts - self.center) / self.radius
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        w = 1.0 - s[inside] ** 2
        out[inside] = np.exp(1.0 - 1.0 / w) * (-2.0 * s[inside] / (w * w)) / self.radius
        return out

    @property
    def support(self):
        return (self.center - self.radius, self.center + self.radius)


def pairing(f: Distribution, phi: TestFn, tol: float = 1e-10):
    """<f, phi> = -int F(t) phi'(t) dt over the support of phi."""
    F = f.primitive
    lo, hi = phi.support
    if not (float(F.interval.lo) < lo and hi < float(F.interval.hi)):
        raise DomainError("test function support escapes the domain interior")
    if F.kind == "step":
        # exact cellwise: int F phi' = sum v_i (phi(y_i) - phi(x_i))
        total = 0.0
        for x, y, v in F.payload.to_cells():
            total += float(v) * (phi(y) - phi(x))
        return -total
    cuts = [float(c) for c in F.jumps(lo, hi)]
    val, err = integrate_piecewise(
        lambda ts: F.sample(ts) * phi.deriv_array(ts), lo, hi, cuts, tol)
    if err > tol:
        from .quadrature import EstimationError
        raise EstimationError(
            f"pairing quadrature bound {err:.2e} exceeds tol {tol:.2e}")
    return -val


def parts(f: Distribution, g: Multiplier, a, b, tol: float = 1e-10):
    """Integration by parts against a multiplier.

    The primitive is anchored to vanish at ``a`` (the zero-anchored
    representative of f on [a, b]); then
    value = F(b) g(b) - int_a^b F(t) h(t) dt, with the certified bound
    |F(b)||g(b)| + ||F||_A (||h||_inf + Vh) in the LD case and
    |F(b)||g(b)| + ||F||_1 ||h||_inf in the LL case (the Hoelder form),
    norms taken on [a, b].  Exact when both F and h are step data.
    """
    F = f.primitive
    h = g.density
    sup_h = g.density_sup()
    if not np.isfinite(float(sup_h)):
        raise MultiplierError("multiplier density is unbounded")
    gb = g.g(b)
    J = Interval(a, b)
    if F.kind in ("step", "poly") and h.kind == "step":
        Fa = F.payload(a)
        Fb = F.payload(b) - Fa
        # exact: sum over density cells of v * int (F - F(a))
        integral_part = 0
        for x, y, v in h.payload.to_cells():
            lo, hi = max(x, Fraction(a)), min(y, Fraction(b))
            if hi > lo:
                integral_part += v * (F.payload.integral(lo, hi) - Fa * (hi - lo))
        value = Fb * gb - integral_part
    else:
        Fa = F.value(a)
        Fb = F.value(b) - Fa
        cuts = [float(c) for c in F.jumps(a, b)] + [float(c) for c in h.jumps(a, b)]
        integral_part, err = integrate_piecewise(
            lambda ts: (F.sample(ts) - Fa) * h.sample(ts),
            float(a), float(b), cuts, tol)
        value = Fb * gb - integral_part
    F0 = _anchored(F, Fa, a, b)
    if f.space_tag == "LL":
        bound = abs(Fb) * abs(gb) + float(fs.norm(F0, "l1", J)) * float(sup_h)
    else:
        bound = abs(Fb) * abs(gb) + float(fs.norm(F0, "alexiewicz", J)) * (
            float(sup_h) + float(g.variation))
    assert abs(float(value)) <= float(bound) + 1e-9 * (1 + abs(float(bound)))
    return value, bound


def _anchored(F: RegulatedFn, Fa, a, b) -> RegulatedFn:
    """The zero-anchored representative of F on [a, b]."""
    if F.kind == "step":
        return RegulatedFn.from_step(
            F.payload.restrict(Fraction(a), Fraction(b)) + (-Fa))
    if F.kind == "poly":
        restricted = F.payload  # norms restrict via the interval argument
        return RegulatedFn.from_poly(restricted + (-Fa)) if Fa != 0 else F
    if Fa == 0:
        return F
    return F - RegulatedFn.constant(Fa, F.interval)


def product(f: Distribution, g: Distribution) -> Distribution:
    """The algebra product on LR distributions: primitive of the product is
    the pointwise product of primitives."""
    if f.space_tag != "LR" or g.space_tag != "LR":
        raise ValueError("product is defined on the LR algebra only")
    if not f.interval.is_compact:
        raise ValueError("product needs a compact interval")
    FG = RegulatedFn.product_of(f.primitive, g.primitive)
    return Distribution(FG, "LR", normalized=f.normalized and g.normalized)


def dirac(lo=-1, hi=1) -> Distribution:
    """The Dirac measure via its Heaviside primitive."""
    from .builders import heaviside_step
    return Distribution(heaviside_step(lo, hi), "LR", normalized=True)
