"""Numeric integration helpers.

Two engines live here: a plain adaptive Gauss rule for integrands that are
smooth between known break points, and a specialised routine for
reciprocal-oscillatory integrands of the form ``t^q * trig(1/t)`` near zero.
The latter substitutes ``u = 1/t``, splits at the zeros of the trig factor and
sums an alternating series whose tail is bounded by its first omitted term,
which gives a certified error bound even though the integrand fails to be
absolutely integrable in some uses.
"""

from __future__ import annotations

import math

import numpy as np

from .intervals import DomainError

# 15-point Gauss-Legendre nodes/weights on [-1, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(15)
_GL_X2, _GL_W2 = np.polynomial.legendre.leggauss(30)


class IntegrabilityError(ArithmeticError):
    """Divergence detected (or declared) on the requested interval."""


class EstimationError(ArithmeticError):
    """No certified bound could be produced."""


def _gauss(f, a, b, x, w):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.sum(w * f(mid + half * x)))


def adaptive_gauss(f, a, b, tol=1e-10, max_depth=48):
    """Adaptive Gauss quadrature with a 15/30-point error estimate.

    ``f`` must accept numpy arrays.  Returns ``(value, error_bound)``; the
    bound is the accumulated 15-vs-30 point discrepancy, which is a standard
    (heuristic but sharply conservative for smooth pieces) estimate.
    """
    if a == b:
        return 0.0, 0.0
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    total = 0.0
    err = 0.0
    stack = [(float(a), float(b), 0)]
    while stack:
        lo, hi, depth = stack.pop()
        coarse = _gauss(f, lo, hi, _GL_X, _GL_W)
        fine = _gauss(f, lo, hi, _GL_X2, _GL_W2)
        e = abs(fine - coarse)
        if e <= tol * max(1.0, (hi - lo) / (b - a)) * 0.5 or depth >= max_depth:
            total += fine
            err += e
        else:
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid, depth + 1))
            stack.append((mid, hi, depth + 1))
    return sign * total, err


def integrate_piecewise(f, a, b, cuts=(), tol=1e-10):
    """Adaptive integration subdividing at the given interior cut points."""
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    pts = [a] + sorted(c for c in set(float(c) for c in cuts) if a < c < b) + [b]
    total, err = 0.0, 0.0
    n = len(pts) - 1
    for i in range(n):
        v, e = adaptive_gauss(f, pts[i], pts[i + 1], tol=tol / max(n, 1))
        total += v
        err += e
    return sign * total, err


def oscillatory_reciprocal(trig, power, lower, tol=1e-12, max_pieces=2_000_000):
    """Certified ``int_lower^inf trig(u) / u**power du`` for trig in {sin, cos}.

    Splits at the zeros of ``trig``; the piece integrals alternate in sign with
    decreasing magnitude once past the first zero, so the remainder after
    truncation is bounded by the magnitude of the first omitted piece.
    Returns ``(value, certified_bound)``.
    """
    if not power > 1:
        raise ValueError(f"power {power} needs to exceed 1 for decay")
    if trig == "sin":
        fn = np.sin
        first_zero_index = math.ceil(lower / math.pi)
        zero = lambda k: k * math.pi
    elif trig == "cos":
        fn = np.cos
        first_zero_index = math.ceil(lower / math.pi - 0.5)
        zero = lambda k: (k + 0.5) * math.pi
    else:
        raise ValueError(f"unsupported trig factor {trig!r}")

    f = lambda u: fn(u) / u ** power

    total = 0.0
    # initial partial piece up to the first zero past `lower`
    k = first_zero_index
    while zero(k) <= lower:
        k += 1
    v, _ = adaptive_gauss(f, lower, zero(k), tol=tol * 0.1)
    total += v
    last = abs(v)
    for j in range(max_pieces):
        a, b = zero(k + j), zero(k + j + 1)
        piece = _gauss(f, a, b, _GL_X2, _GL_W2)
        total += piece
        last = abs(piece)
        if last < tol * 0.5 and j > 0:
            return total, last
    raise EstimationError("alternating tail did not reach tolerance")


def oscillatory_t_trig(trig, a, b, tol=1e-12):
    """Certified ``int_a^b t * trig(1/t) dt`` for 0 <= a < b, trig in {sin, cos}.

    Uses ``u = 1/t``:  ``int t*trig(1/t) dt = int_{1/b}^{1/a} trig(u)/u**3 du``.
    """
    if not 0 <= a < b:
        raise DomainError(f"need 0 <= a < b, got a={a}, b={b}")
    tail_b, err_b = oscillatory_reciprocal(trig, 3, 1.0 / b, tol=tol)
    if a == 0:
        return tail_b, err_b
    tail_a, err_a = oscillatory_reciprocal(trig, 3, 1.0 / a, tol=tol)
    return tail_b - tail_a, err_b + err_a


def richardson_limit(sampler, h0, levels=5, factor=2.0, order=1):
    """Extrapolate ``lim_{h->0+} sampler(h)`` from a geometric h-sequence.

    Standard Richardson table assuming an expansion in powers of ``h**order``.
    Returns the extrapolated limit and the last correction size.
    """
    hs = [h0 / factor ** i for i in range(levels)]
    table = [[sampler(h) for h in hs]]
    p = factor ** order
    for lvl in range(1, levels):
        prev = table[-1]
        row = []
        for i in range(len(prev) - 1):
            row.append((p ** lvl * prev[i + 1] - prev[i]) / (p ** lvl - 1))
        table.append(row)
    last = table[-1][0]
    corr = abs(table[-1][0] - table[-2][0]) if len(table) > 1 else float("inf")
    return last, corr
