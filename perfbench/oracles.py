"""Independent references for checking leftprim's outputs.

Nothing here imports leftprim.  Exact step data is handled as plain
``(breaks, values, base)`` tuples of ``Fraction``; the catalogued symbolic
families are re-implemented from their defining formulas, with float
evaluation for pointwise checks and mpmath for integral references.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction

import mpmath
import numpy as np

mpmath.mp.dps = 30


# -- exact step data --------------------------------------------------------------


def step_eval(f, t):
    """Value of the left-continuous step function ``f`` at ``t``."""
    breaks, values, base = f
    if t == breaks[0]:
        return base
    return values[bisect_left(breaks, t, 1) - 1]


def canonical(breaks, values, base):
    """Coalesce adjacent cells with equal values."""
    out_b, out_v = [breaks[0]], []
    for i, v in enumerate(values):
        if out_v and out_v[-1] == v:
            out_b[-1] = breaks[i + 1]
        else:
            out_b.append(breaks[i + 1])
            out_v.append(v)
    return out_b, out_v, base


def zip_steps(f, g, op):
    """op(f, g) on the common refinement, by a two-pointer merge."""
    fb, fv, fbase = f
    gb, gv, gbase = g
    pts, vals = [fb[0]], []
    i = j = 1
    while i < len(fb) or j < len(gb):
        x = min(fb[i] if i < len(fb) else gb[j], gb[j] if j < len(gb) else fb[i])
        vals.append(op(fv[i - 1], gv[j - 1]))
        pts.append(x)
        if i < len(fb) and fb[i] == x:
            i += 1
        if j < len(gb) and gb[j] == x:
            j += 1
    return canonical(pts, vals, op(fbase, gbase))


def map_step(f, op):
    b, v, base = f
    return canonical(b, [op(x) for x in v], op(base))


def restrict_step(f, lo, hi):
    """Restriction to [lo, hi] on the refinement by lo, hi (no coalescing)."""
    b = f[0]
    pts = [lo] + [x for x in b if lo < x < hi] + [hi]
    vals = [step_eval(f, pts[i + 1]) for i in range(len(pts) - 1)]
    base = step_eval(f, lo) if lo > b[0] else f[2]
    return pts, vals, base


def step_integral(f):
    b, v, _ = f
    return sum((v[i] * (b[i + 1] - b[i]) for i in range(len(v))), Fraction(0))


def step_l1(f):
    b, v, _ = f
    return sum((abs(v[i]) * (b[i + 1] - b[i]) for i in range(len(v))), Fraction(0))


def step_sup(f):
    return max([abs(f[2])] + [abs(x) for x in f[1]])


def step_alexiewicz(f):
    b, v, _ = f
    acc = mn = mx = Fraction(0)
    for i in range(len(v)):
        acc += v[i] * (b[i + 1] - b[i])
        mn, mx = min(mn, acc), max(mx, acc)
    return mx - mn


def step_cumulative(f):
    """Cell coefficient pairs (c0, c1) of the running integral."""
    b, v, _ = f
    acc, out = Fraction(0), []
    for i in range(len(v)):
        out.append((acc - v[i] * b[i], v[i]))
        acc += v[i] * (b[i + 1] - b[i])
    return out


def stieltjes_atoms(F, g, a, b):
    """int_a^b F dg for step g: the atoms g(p+) - g(p) at jumps p in (a, b]."""
    gb, gv, gbase = g
    total = Fraction(0)
    jumps = [(gb[0], gv[0] - gbase)] + [(gb[i], gv[i] - gv[i - 1])
                                        for i in range(1, len(gv))]
    for p, jump in jumps:
        if jump and a < p <= b and p < gb[-1]:
            total += step_eval(F, p) * jump
    return total


def poly_int(c, x, y):
    """Exact integral of sum c[k] t^k over [x, y]."""
    return sum((ck * (y ** (k + 1) - x ** (k + 1)) / (k + 1)
                for k, ck in enumerate(c)), Fraction(0))


def parts_reference(coeffs, h):
    """int_0^1 F'(t) g(t) dt with F = sum coeffs[k] t^k and g = int_0^t h."""
    fprime = [k * c for k, c in enumerate(coeffs)][1:]
    hb, hv, _ = h
    total, g_at = Fraction(0), Fraction(0)
    for i, v in enumerate(hv):
        x, y = hb[i], hb[i + 1]
        # g(t) = g_at + v (t - x) on (x, y]
        lin = [g_at - v * x, v]
        prod = [Fraction(0)] * (len(fprime) + 1)
        for p, a in enumerate(fprime):
            for q, bq in enumerate(lin):
                prod[p + q] += a * bq
        total += poly_int(prod, x, y)
        g_at += v * (y - x)
    return total


# -- catalogued symbolic families --------------------------------------------------
#
# Each family is a sum over n = 1..m of a term in phi = frac(n t), with the
# left branch phi = 1 at the jumps t = k/n.

HALF_PI = math.pi / 2


def _phi(ts, n):
    z = np.asarray(ts, dtype=float) * n
    phi = z - np.floor(z)
    return np.where(np.abs(z - np.rint(z)) < 1e-9 * n, 1.0, phi)


def family_values(name, m, ts, p=2):
    """Float values of a catalogued family at ``ts`` (left branch at jumps)."""
    ts = np.asarray(ts, dtype=float)
    if name == "shape_A":
        out = np.zeros_like(ts)
        pos = ts > 1e-9
        out[pos] = ts[pos] * (1 + np.cos(1 / ts[pos]))
        return out
    out = np.zeros_like(ts)
    for n in range(1, m + 1):
        phi = _phi(ts, n)
        a = HALF_PI / phi
        osc = (2 * phi * np.cos(a) + HALF_PI * np.sin(a)) / n ** 2
        smooth = phi ** 2 * np.cos(a) / n ** 3
        if name == "E47_G":
            out += osc
        elif name == "E48_F":
            out += smooth
        elif name == "E409_Gm":
            out += osc + 0.5 / np.sqrt(phi)
        elif name == "E408_Fm":
            out += smooth + phi * np.cos(a) / n
        elif name == "E600_Fm":
            fl = np.rint(ts * n - phi)
            out += smooth + (fl + np.sqrt(phi)) / n
        elif name == "E611_F":
            out += phi / n ** p
        else:
            raise KeyError(name)
    return out


def family_jumps(name, m, lo, hi):
    """Rationals k/n (n <= m) in [lo, hi]: the cut points of the family."""
    if name == "shape_A":
        return []
    pts = {Fraction(k, n) for n in range(1, m + 1)
           for k in range(math.ceil(lo * n), math.floor(hi * n) + 1)}
    return sorted(pts)


def e47_sup_bound(m):
    """A bound on |E47_G|: the Lipschitz constant of its primitive E48_F."""
    return sum((2 + HALF_PI) / n ** 2 for n in range(1, m + 1))


def _tail(k, w0, trig="cos"):
    """int_{w0}^inf trig(w) / w^k dw, by parts down to the cosine and sine
    integrals Ci and Si."""
    if k == 1:
        return -mpmath.ci(w0) if trig == "cos" else mpmath.pi / 2 - mpmath.si(w0)
    head = (mpmath.cos(w0) if trig == "cos" else mpmath.sin(w0)) / ((k - 1) * w0 ** (k - 1))
    if trig == "cos":
        return head - _tail(k - 1, w0, "sin") / (k - 1)
    return head + _tail(k - 1, w0, "cos") / (k - 1)


def _int_cos_over(k, w1, w2):
    """int_{w1}^{w2} cos(w) / w^k dw, w2 may be infinite."""
    if w2 == mpmath.inf:
        return _tail(k, w1)
    return _tail(k, w1) - _tail(k, w2)


def _term_integral(name, n, u, v, p):
    """int over (u, v] of the order-n term; (u, v] free of its jumps."""
    u, v = mpmath.mpf(u), mpmath.mpf(v)
    k = mpmath.floor(n * (u + v) / 2)
    pu, pv = n * u - k, n * v - k        # phi on the cell, 0 <= pu < pv <= 1
    pi = mpmath.pi

    def sq(phi):  # phi^2 cos(pi / (2 phi)), continuous at 0
        return phi ** 2 * mpmath.cos(pi / (2 * phi)) if phi > 0 else mpmath.mpf(0)

    def w(phi):
        return pi / (2 * phi) if phi > 0 else mpmath.inf

    def smooth():  # int phi^2 cos(pi/(2 phi)) dt / n^3
        return (pi ** 3 / 8) * _int_cos_over(4, w(pv), w(pu)) / n ** 4

    if name == "E47_G":
        return (sq(pv) - sq(pu)) / n ** 3
    if name == "E48_F":
        return smooth()
    if name == "E409_Gm":
        return (sq(pv) - sq(pu)) / n ** 3 + (mpmath.sqrt(pv) - mpmath.sqrt(pu)) / n
    if name == "E408_Fm":
        return smooth() + (pi ** 2 / 4) * _int_cos_over(3, w(pv), w(pu)) / n ** 2
    if name == "E600_Fm":
        sqrt_part = (pv ** 1.5 - pu ** 1.5) * 2 / 3 / n ** 2
        return smooth() + k * (v - u) / n + sqrt_part
    if name == "E611_F":
        return (pv ** 2 - pu ** 2) / (2 * n ** (p + 1))
    raise KeyError(name)


def family_integral(name, m, a, b, p=2):
    """mpmath reference for int_a^b of a catalogued family."""
    a, b = Fraction(a), Fraction(b)
    if name == "shape_A":
        base = (mpmath.mpf(b.numerator) / b.denominator) ** 2 / 2 \
            - (mpmath.mpf(a.numerator) / a.denominator) ** 2 / 2
        lo = mpmath.mpf(b.denominator) / b.numerator
        hi = mpmath.inf if a == 0 else mpmath.mpf(a.denominator) / a.numerator
        return base + _int_cos_over(3, lo, hi)
    total = mpmath.mpf(0)
    for n in range(1, m + 1):
        cuts = [a] + [Fraction(k, n) for k in range(math.ceil(a * n),
                                                    math.floor(b * n) + 1)
                      if a < Fraction(k, n) < b] + [b]
        for u, v in zip(cuts[:-1], cuts[1:]):
            total += _term_integral(name, n, mpmath.mpf(u.numerator) / u.denominator,
                                    mpmath.mpf(v.numerator) / v.denominator, p)
    return total
