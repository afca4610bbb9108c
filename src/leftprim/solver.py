"""Monotone fixed-point machinery for distributional Cauchy systems.

The engine iterates an increasing operator on vectors of functions.  Three
carrier types interoperate:

* :class:`~leftprim.funcspace.RegulatedFn` (symbolic/step/poly),
* :class:`GridFn` (values on the verification grid, piecewise linear
  semantics between nodes), and
* :class:`TaggedFn`, a RegulatedFn plus a hashable quantization tag that
  enables *exact* stabilization detection when iterates live in a
  finite-coefficient family.

Between finite iteration stages the engine forms omega-stages: the pointwise
sup/inf on the grid (which for a monotone chain is the latest iterate)
followed by a left-continuity closure at the system's declared branch
points.  The closure re-defines the value at points where the operator's
pointwise action is the identity, by quadratic extrapolation from the left
-- the grid surrogate of redefining a limit function to be left continuous.

Every chain (up/down, envelope, bracket) runs through one loop,
:func:`_monotone_chain`: it owns the step budget, the order check, the trace,
the omega-stage count and the stabilization fields; each chain supplies a
step (next iterate and grid samples), a stop rule and its omega closure.
:func:`windowed_chain` runs that loop once per window of a causal system and
stops each window on a sub/supersolution bracket around an extrapolate;
:func:`windowed_envelope` bounds a causal uniqueness envelope window by
window with a contraction certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .funcspace import RegulatedFn
from .intervals import Interval


class MonotonicityError(RuntimeError):
    """An iterate fell below (above) its predecessor on an up (down) chain."""


class OrderBoundError(ValueError):
    """Declared order bounds, or the order of computed solutions, fail on
    the grid."""


class FixedPointError(RuntimeError):
    """A chain limit is not a fixed point within the residual tolerance."""


class SublinearityError(OrderBoundError):
    """A majorant operator fails a subadditivity or homogeneity spot check."""


class SolverDataError(ValueError):
    """Malformed solver input: mismatched shapes or lengths, an unknown
    chain direction, or data a route does not accept."""


class GridFn:
    """Function known through its values on a fixed grid."""

    __slots__ = ("grid", "values")

    def __init__(self, grid, values):
        self.grid = np.asarray(grid, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.grid.shape != self.values.shape:
            raise SolverDataError(
                f"grid shape {self.grid.shape} != values shape "
                f"{self.values.shape}")

    @classmethod
    def constant(cls, grid, c):
        return cls(grid, np.full(len(grid), float(c)))

    def sample(self, ts):
        if ts is self.grid:
            return self.values
        ts = np.asarray(ts, dtype=float)
        if ts.shape == self.grid.shape and np.array_equal(ts, self.grid):
            return self.values
        return np.interp(ts, self.grid, self.values)

    def __add__(self, c):
        return GridFn(self.grid, self.values + float(c))


class TaggedFn:
    """A RegulatedFn with a hashable tag for exact iterate comparison."""

    __slots__ = ("fn", "tag")

    def __init__(self, fn: RegulatedFn, tag):
        self.fn = fn
        self.tag = tag

    def sample(self, ts):
        return self.fn.sample(ts)


def as_grid(fn, grid) -> np.ndarray:
    if isinstance(fn, np.ndarray):
        return fn
    return np.asarray(fn.sample(grid), dtype=float)


def _check_order(below, above, grid, message, eps=1e-9, error=OrderBoundError):
    """Raise ``error(message)`` unless below <= above + eps; NaN fails."""
    for a, b in zip(below, above):
        if not np.all(as_grid(a, grid) <= as_grid(b, grid) + eps):
            raise error(message)


def make_grid(a, b, per_unit: int = 4096, include=()) -> np.ndarray:
    """Grid of [a, b] through the points ``include``: one uniform linspace
    per piece [l, r] between them, of max(1, round((r - l) per_unit)) cells."""
    a, b = float(a), float(b)
    pts = [a] + sorted({float(p) for p in include if a < float(p) < b}) + [b]
    pieces = [np.linspace(l, r, max(1, int(round((r - l) * per_unit))) + 1)
              for l, r in zip(pts[:-1], pts[1:])]
    return np.concatenate([pieces[0]] + [p[1:] for p in pieces[1:]])


@dataclass
class CauchySystem:
    """First-order system y_i' = f_i(y), y_i(a) = c_i on [a, b).

    ``component_maps[i]`` maps the current iterate vector to the primitive of
    f_i evaluated on it: a function object vanishing (in right limit) at
    ``a``.  ``closure_points`` are branch points where the operator's
    pointwise action degenerates to the identity and left-continuity closure
    applies.  Random monotone systems also record their exact step forcing
    terms and the nonnegative link weight matrix, from which their order
    bounds are built.
    """

    m: int
    component_maps: list
    c: list
    interval: Interval
    grid: np.ndarray
    monotone: bool = True
    closure_points: tuple = ()
    name: str = ""
    forcing_steps: list = field(default_factory=list)
    link_weights: np.ndarray = None

    def __post_init__(self):
        if not len(self.component_maps) == self.m == len(self.c):
            raise SolverDataError(
                f"{self.m} components but {len(self.component_maps)} maps "
                f"and {len(self.c)} initial values")

    def constant_start(self, values) -> list:
        return [GridFn.constant(self.grid, v) for v in values]

    def spot_check_monotone(self, lower, upper):
        """Random ordered pairs inside [lower, upper] must map to ordered
        images; a declared-monotone operator failing this raises."""
        g = self.grid
        rng = np.random.default_rng(0)
        lo = [as_grid(f, g) for f in lower]
        hi = [as_grid(f, g) for f in upper]
        for _ in range(3):  # random ordered pairs
            w1 = rng.uniform(0, 1)
            w2 = rng.uniform(w1, 1)
            x = [GridFn(g, (1 - w1) * a + w1 * b) for a, b in zip(lo, hi)]
            y = [GridFn(g, (1 - w2) * a + w2 * b) for a, b in zip(lo, hi)]
            _check_order(apply_operator(self, x), apply_operator(self, y), g,
                         "declared-monotone operator fails an order spot check",
                         error=MonotonicityError)


def apply_operator(S: CauchySystem, x: list) -> list:
    """F(x) = (c_i + Phi_i(x))_i."""
    out = []
    for i, phi in enumerate(S.component_maps):
        p = phi(x)
        ci = S.c[i]
        if isinstance(p, TaggedFn):
            out.append(TaggedFn(_fn_plus_const(p.fn, ci), (p.tag, _num(ci))))
        elif isinstance(p, GridFn):
            out.append(p + ci)
        else:
            out.append(_fn_plus_const(p, ci))
    return out


def _num(c):
    return c if isinstance(c, (int, Fraction)) else float(c)


def _fn_plus_const(fn: RegulatedFn, c) -> RegulatedFn:
    if c == 0:
        return fn
    return fn + RegulatedFn.constant(c, fn.interval)


def closure_indices(grid: np.ndarray, closure_points) -> list:
    """Ascending grid indices of the closure points; points beyond the grid
    are ignored.

    A point matches the nearer of the grid points either side of it within
    1e-12; one strictly inside the grid's span must match.  The
    closure rule at index j reads the grid points j-3, j-2 and j-1; they
    must lie strictly inside j's own window, after the previous closure
    point.  Otherwise :class:`SolverDataError` is raised."""
    out = []
    for p in sorted({float(p) for p in closure_points}):
        j = int(np.searchsorted(grid, p))
        if j > 0 and (j == len(grid) or p - grid[j - 1] < grid[j] - p):
            j -= 1  # the nearer of the nodes either side of p
        if abs(grid[j] - p) <= 1e-12:
            inside = j - (out[-1] + 1 if out else 0)
            if inside < 3:
                raise SolverDataError(
                    f"closure point {p:g} has {inside} grid points before it "
                    "in its window; the closure rule needs 3")
            out.append(j)
        elif grid[0] < p < grid[-1]:
            raise SolverDataError(f"closure point {p!r} lies on no grid point")
    return out


def closure_repair(indices, values: np.ndarray, previous: np.ndarray = None,
                   sign: float = None) -> np.ndarray:
    """Left-continuity closure at the grid indices of declared branch points
    (:func:`closure_indices`).

    Replaces the value by a quadratic extrapolation from the three grid
    points to the left (exact for locally quadratic limit functions, in
    particular for locally constant and linear ones).  When ``previous`` and
    ``sign`` are given the repaired value is clamped so the monotone chain
    direction is preserved (+1 up, -1 down); the clamp only delays the
    transient, the converged value is the extrapolated left limit."""
    out = values.copy()
    clamp = previous is not None and sign is not None
    for j in indices:
        extrap = 3 * out[j - 1] - 3 * out[j - 2] + out[j - 3]
        if clamp:
            extrap = (max(extrap, previous[j]) if sign > 0
                      else min(extrap, previous[j]))
        out[j] = extrap
    return out


@dataclass
class IterationTrace:
    """Record of one monotone chain."""

    direction: str
    stages: list = field(default_factory=list)   # grid sample snapshots
    labels: list = field(default_factory=list)   # "start", "step k", "omega j"
    stabilized: bool = False
    stabilization_index: int = None
    omega_stages: int = 0
    residual: float = None   # grid sup-norm of F(x) - x at the returned x
    bracket_widths: list = field(default_factory=list)  # per window; inf: none

    def add(self, label, samples):
        self.labels.append(label)
        self.stages.append([np.array(s) for s in samples])


_SETTLED, _REACHED, _STALLED = "settled", "reached", "stalled"


def _monotone_chain(direction, x, xs, step, stop, close, max_steps,
                    max_omega_stages, mono_eps, record_every, order_error):
    """The one monotone-chain loop, from ``x`` with grid samples ``xs``.

    ``step(x, xs)`` gives the next iterate and samples, ``close(xs)`` the
    omega-stage ones.  ``stop(x, x_new, new, diff)``, with ``diff`` the sup
    distance of the samples, says whether the new iterate repeats the old
    one (``_SETTLED``), meets the target (``_REACHED``) or stalls
    (``_STALLED``: close now).  A move against ``direction`` by more than
    ``mono_eps`` raises ``order_error`` formatted with ``gap`` and ``step``."""
    up = direction == "up"
    trace = IterationTrace(direction)
    trace.add("start", xs)
    n = 0
    for omega in range(max_omega_stages + 1):
        for _ in range(max_steps):
            x_new, new = step(x, xs)
            n += 1
            moves, dists = [], []
            for nv, ov in zip(new, xs):
                d = nv - ov
                moves.append(float(d.min()) if up else -float(d.max()))
                dists.append(float(np.abs(d).max()))
            worst, diff = min(moves), max(dists)
            if any(map(math.isnan, dists)):  # a NaN anywhere never settles
                worst = diff = math.nan
            if worst < -mono_eps:
                raise MonotonicityError(order_error.format(gap=-worst, step=n))
            verdict = stop(x, x_new, new, diff)
            if (record_every and n % record_every == 0) or verdict is _REACHED:
                trace.add(f"step {n}", new)
            x, xs = x_new, new
            if verdict is _STALLED:
                break
            if verdict:
                trace.stabilized = True
                trace.stabilization_index = n - (verdict is _SETTLED)
                return x, xs, trace
        x, xs = close(xs)
        trace.add(f"omega {omega + 1}", xs)
        trace.omega_stages = omega + 1
    return x, xs, trace


def iterate_chain(S: CauchySystem, start: list, direction: str,
                  tol: float = 1e-10, max_steps: int = 200,
                  max_omega_stages: int = 8,
                  record_every: int = 1) -> tuple:
    """Iterate F from a sub- (up) or supersolution (down) to stabilization.

    Returns ``(final_vector, IterationTrace)``.  Stabilization requires two
    consecutive iterates equal: exactly (matching tags) for tagged iterates,
    within ``tol`` in grid sup-norm otherwise.  After ``max_steps`` without
    stabilization an omega-stage closes the chain (pointwise sup/inf on the
    grid, i.e. the latest iterate of the monotone chain, plus left-continuity
    closure) and iteration resumes, up to ``max_omega_stages`` times.
    """
    if direction not in ("up", "down"):
        raise SolverDataError(
            f"chain direction must be 'up' or 'down', not {direction!r}")
    sign = 1.0 if direction == "up" else -1.0
    grid = S.grid
    cidx = closure_indices(grid, S.closure_points)

    def repaired(vals, prev):  # the clamp keeps repaired points in order
        new = [closure_repair(cidx, v, previous=p, sign=sign)
               for v, p in zip(vals, prev)]
        return [GridFn(grid, v) for v in new], new

    def step(x, xs):
        x_new = apply_operator(S, x)
        new = [as_grid(f, grid) for f in x_new]
        return repaired(new, xs) if S.closure_points else (x_new, new)

    def stop(x, x_new, new, diff):
        if all(isinstance(f, TaggedFn) for f in x + x_new):
            return [f.tag for f in x] == [f.tag for f in x_new] and _SETTLED
        return diff <= tol and _SETTLED

    # an omega-stage takes the last iterate (the chain's sup/inf) and repairs
    x = list(start)
    x, _, trace = _monotone_chain(
        direction, x, [as_grid(f, grid) for f in x], step, stop,
        lambda xs: repaired(xs, xs), max_steps, max_omega_stages,
        1e-9 if S.monotone else np.inf, record_every,
        f"{direction}-chain violated order by {{gap:.3e}} at step {{step}}")
    return x, trace


_CORRECTIONS = 2     # residual corrections of each window's Aitken extrapolate
_BRACKET_TOL = 1e-12  # widest bracket, relative; also the fallback's step tolerance
# (on non-dyadic grids the float checks resolve brackets of about 1e-12)


def windowed_chain(S: CauchySystem, start: list, max_steps: int) -> tuple:
    """The up chain of a causal system from a subsolution, solved window by
    window and stopped by a sub/supersolution bracket.

    ``S`` must be causal (Volterra): F(x) up to a point depends only on x up
    to that point.  The windows are the grid pieces between the system's
    closure points, each ending at its closure point; they are solved in
    order and frozen.  In a window, two plain steps of
    :func:`_monotone_chain` (its order check and trace) give x0, x1, x2.
    Pointwise, with q = d2/d1 (0 where d1 = 0 or q >= 1), the Aitken
    extrapolate x = x1 + d2/(1 - q) takes two residual corrections
    x += (F(x) - x)/(1 - q), and the closure point gets the left-continuity
    repair.  The pair lo = x - delta, hi = x + delta is then widened,
    delta doubling from a few units in the last place, until F(hi) <= hi and
    F(lo) >= lo on the window's grid points off its closure point (in float
    arithmetic, as every grid check here) and the chain's iterate is below
    hi.  F is evaluated on the pair's own vectors, earlier windows included,
    so the windows' certificates compose.  A bracket wider than
    ``_BRACKET_TOL`` * max(1, sup|x|) is refused: the window then takes
    plain steps until two iterates are within ``_BRACKET_TOL`` and has
    lo = hi = x and width inf.

    ``max_steps`` bounds the plain steps of all windows together.  A chain
    that spends it returns with ``trace.stabilized`` False; the window it
    ran out in and every later one keep their last iterate, unbracketed.

    The monotone F has a fixed point between a certified pair
    (Knaster-Tarski); the pair identifies the chain limit only where that
    fixed point is unique.  Returns ``(x, SubSuperPair(lo, hi), trace)``;
    ``trace.bracket_widths`` holds each window's sup width and
    ``trace.stabilization_index`` the plain steps of all windows.
    """
    if not S.monotone:
        raise SolverDataError("a bracket certificate needs a monotone system")
    grid = S.grid
    cidx = closure_indices(grid, S.closure_points)
    ends = cidx if cidx and cidx[-1] == len(grid) - 1 else cidx + [len(grid) - 1]

    fns = lambda vs: [GridFn(grid, v) for v in vs]
    F = lambda vs: [as_grid(f, grid) for f in apply_operator(S, fns(vs))]

    xs = [as_grid(f, grid) for f in start]
    lo, hi = [v.copy() for v in xs], [v.copy() for v in xs]
    trace = IterationTrace("up")
    taken, steps, delta, a = 0, 0, 0.0, 0
    for k, b in enumerate(ends):
        w, own = slice(a, b + 1), [b] if b in cidx else []
        off = slice(a, b) if own else w

        def step(x, xs):
            nonlocal taken
            taken += 1
            new = [closure_repair(own, np.concatenate([o[:a], f[w], o[b + 1:]]),
                                  o, 1.0) for f, o in zip(F(xs), xs)]
            return fns(new), new

        def close(xs):
            new = [closure_repair(own, v, v, 1.0) for v in xs]
            return fns(new), new

        def bracket(x0, x1, x2):
            nonlocal delta
            c, den = [v.copy() for v in x2], []
            for v, u0, u1, u2 in zip(c, x0, x1, x2):
                d1, d2 = u1[w] - u0[w], u2[w] - u1[w]
                with np.errstate(divide="ignore", invalid="ignore"):
                    q = np.where(d1 != 0, d2 / d1, 0.0)
                den.append(1 - np.where(q < 1, q, 0.0))
                v[w] = u1[w] + d2 / den[-1]
            for _ in range(_CORRECTIONS):
                for v, f, dn in zip(c, F(c), den):
                    v[w] += (f[w] - v[w]) / dn
            c = [closure_repair(own, v) for v in c]
            scale = max(1.0, *(float(np.abs(v[w]).max()) for v in c))
            d = max(delta, 4 * np.finfo(float).eps * scale)
            while 2 * d <= _BRACKET_TOL * scale:
                for v, l, h in zip(c, lo, hi):
                    l[w], h[w] = v[w] - d, v[w] + d
                if (all(np.all(u[w] <= h[w]) for u, h in zip(x2, hi))
                        and all(np.all(f[off] <= h[off])
                                for f, h in zip(F(hi), hi))
                        and all(np.all(f[off] >= l[off])
                                for f, l in zip(F(lo), lo))):
                    delta = d
                    return c
                d *= 2
            return None

        hist, found = [xs], [None]

        def stop(x, x_new, new, diff):
            if hist:
                hist.append(new)
                if len(hist) < 3:
                    return False
                found[0] = bracket(*hist)
                hist.clear()
                if found[0] is not None:
                    return _REACHED
            return diff <= _BRACKET_TOL and _SETTLED

        _, xs, t = _monotone_chain(
            "up", fns(xs), xs, step, stop, close, max_steps - taken, 0, 1e-9,
            0, f"up-chain violated order by {{gap:.3e}} at step {{step}} of "
            f"window {k + 1}")
        if found[0] is not None:
            xs = found[0]
            width = max(float(np.max(h[w] - l[w])) for l, h in zip(lo, hi))
        else:
            for v, l, h in zip(xs, lo, hi):
                l[w] = h[w] = v[w]
            width = math.inf
        trace.bracket_widths.append(width)
        trace.labels += [f"window {k + 1} {lbl}" for lbl in t.labels]
        trace.stages += t.stages
        trace.omega_stages += t.omega_stages
        steps = steps + t.stabilization_index if steps is not None and \
            t.stabilized else None
        a = b + 1
    trace.stabilized = steps is not None
    trace.stabilization_index = steps
    return fns(xs), SubSuperPair(fns(lo), fns(hi)), trace


def residual(S: CauchySystem, x: list) -> float:
    """Grid sup-norm of F(x) - x."""
    fx = apply_operator(S, x)
    fs = [as_grid(f, S.grid) for f in fx]
    if S.closure_points:
        cidx = closure_indices(S.grid, S.closure_points)
        fs = [closure_repair(cidx, v) for v in fs]
    dists = [float(np.max(np.abs(a - as_grid(b, S.grid)))) for a, b in zip(fs, x)]
    return math.nan if any(map(math.isnan, dists)) else max(dists)


@dataclass
class SubSuperPair:
    lower: list
    upper: list

    def validate(self, S: CauchySystem) -> tuple:
        """Pointwise order on the grid, plus the sub/supersolution role check
        via primitive comparison: y <= F(y) for the lower, F(y) <= y upper.

        Each bound is sampled on the grid once; the samples are returned as
        ``(lower, upper)`` lists of arrays.  The operator receives the bounds
        themselves, so GridFn bounds reach it as their arrays."""
        g = S.grid
        lo = [as_grid(f, g) for f in self.lower]
        hi = [as_grid(f, g) for f in self.upper]
        _check_order(lo, hi, g, "lower exceeds upper on the grid", 1e-12)
        _check_order(lo, apply_operator(S, self.lower), g,
                     "lower bound is not a subsolution")
        _check_order(apply_operator(S, self.upper), hi, g,
                     "upper bound is not a supersolution")
        return lo, hi


def smallest_greatest(S: CauchySystem, pair: SubSuperPair, tol: float = 1e-10,
                      max_steps: int = 200, max_omega_stages: int = 8):
    """Smallest and greatest solutions between a sub/supersolution pair.

    The up-chain from the lower bound yields the smallest solution, the
    down-chain from the upper bound the greatest; both are verified as fixed
    points on the grid and bracket-ordered.  The checks share one grid
    sample of each bound; each chain starts from the bound itself (a GridFn
    bound, as from :func:`bounds_to_subsuper`, is its samples).  A grid
    residual above 50 ``tol`` raises FixedPointError.
    """
    lo, hi = pair.validate(S)
    if S.monotone:
        S.spot_check_monotone(lo, hi)
    y_lo, tr_up = iterate_chain(S, pair.lower, "up", tol, max_steps,
                                max_omega_stages)
    y_hi, tr_dn = iterate_chain(S, pair.upper, "down", tol, max_steps,
                                max_omega_stages)
    res_tol = 50 * tol
    r_lo = tr_up.residual = residual(S, y_lo)
    r_hi = tr_dn.residual = residual(S, y_hi)
    if not (r_lo <= res_tol and r_hi <= res_tol):
        raise FixedPointError(
            f"chain limits are not fixed points (residuals {r_lo:.2e}, {r_hi:.2e})")
    g = S.grid
    _check_order(y_lo, y_hi, g, "smallest solution exceeds greatest")
    _check_order(lo, y_lo, g, "lower bound exceeds the smallest solution")
    _check_order(y_hi, hi, g, "greatest solution exceeds the upper bound")
    return y_lo, y_hi, (tr_up, tr_dn)


def bounds_to_subsuper(S: CauchySystem, h_lo: list, h_hi: list) -> SubSuperPair:
    """Sub/supersolution pair from order bounds h_lo <= f_i(x) <= h_hi.

    The bounds are distributions; the pair holds the values of their
    cumulative primitives y_i = c_i + int_a^t h_i on ``S.grid`` as GridFns,
    which is all that maps reading their inputs on that grid see.  A system
    whose maps read their inputs off the grid builds its own pair, as
    ``systems.ex31_subsuper`` does.  The declared order is spot-checked by
    applying the operator to random vectors inside the pair.
    """
    from .integral import cumulative

    a, g = S.interval.lo, S.grid
    los = [as_grid(cumulative(h, a, S.c[i]), g) for i, h in enumerate(h_lo)]
    his = [as_grid(cumulative(h, a, S.c[i]), g) for i, h in enumerate(h_hi)]
    rng = np.random.default_rng(0)
    for _ in range(5):  # random vectors for the order spot check
        w = rng.uniform(0, 1, size=S.m)
        x = [GridFn(g, (1 - wi) * lo + wi * hi)
             for wi, lo, hi in zip(w, los, his)]
        fx = [as_grid(f, g) for f in apply_operator(S, x)]
        _check_order(los + fx, fx + his, g,
                     "declared order bounds fail a spot check")
    return SubSuperPair([GridFn(g, v) for v in los], [GridFn(g, v) for v in his])


@dataclass
class L1Config:
    """Growth data for the minimal/maximal solution existence route."""

    Q: object                  # nondecreasing growth function on R+


def _q_fixed_point(cfg: L1Config):
    rs = np.linspace(0.0, 100.0, 2001)  # the scan bound for R = Q(R) is 100
    qs = np.array([float(cfg.Q(r)) for r in rs])
    below = qs <= rs
    if not np.any(below[1:]):
        raise SolverDataError(
            "no R with Q(R) <= R found within the scan bound")
    j = 1 + int(np.argmax(below[1:]))  # first index with Q(r) <= r
    lo, hi = rs[j - 1], rs[j]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if cfg.Q(mid) <= mid:
            hi = mid
        else:
            lo = mid
    R = hi
    # r <= Q(r) implies r <= R on the scan samples
    viol = rs[(rs <= np.array(qs)) & (rs > R + 1e-9)]
    if len(viol):
        raise SolverDataError("growth hypothesis fails: r <= Q(r) with r > R")
    return R


def minmax_l1(S: CauchySystem, cfg: L1Config, tol: float = 1e-10,
              max_steps: int = 400):
    """Minimal and maximal solutions for zero initial values.

    Finds R with R = Q(R), verifies the L1 growth bound on sampled vectors in
    the ball of radius R, builds the bracket (down-chain of min{0, F0(y)}
    from 0 and up-chain of max{0, F0(y)} from 0), and runs the monotone
    chains of F inside the bracket.
    """
    if not all(ci == 0 for ci in S.c):
        raise SolverDataError("the L1 route needs zero initial values")
    R = _q_fixed_point(cfg)
    g = S.grid
    rng = np.random.default_rng(1)
    for _ in range(5):  # random vectors for the growth hypothesis check
        scale = rng.uniform(0, 1)
        x = [GridFn(g, scale * R * rng.uniform(-1, 1) * np.ones(len(g)))
             for _ in range(S.m)]
        xnorm = max(float(np.trapezoid(np.abs(as_grid(f, g)), g)) for f in x)
        for phi in S.component_maps:  # grid L1 norms, trapezoidal
            fnorm = float(np.trapezoid(np.abs(as_grid(phi(x), g)), g))
            if fnorm > float(cfg.Q(xnorm)) + 1e-9:
                raise SolverDataError("L1 growth hypothesis fails a spot check")

    def clipped(phi, op):
        return lambda x: GridFn(g, op(as_grid(phi(x), g), 0.0))

    bracket = []
    for op, direction in ((np.minimum, "down"), (np.maximum, "up")):
        aux = CauchySystem(S.m, [clipped(phi, op) for phi in S.component_maps],
                           S.c, S.interval, g)
        y, trace = iterate_chain(aux, S.constant_start([0.0] * S.m), direction,
                                 tol, max_steps, max_omega_stages=0,
                                 record_every=0)
        if not trace.stabilized:
            raise FixedPointError(f"{direction} bracket chain did not settle "
                                  f"within max_steps={max_steps} steps")
        bracket.append(y)
    pair = SubSuperPair(*bracket)
    y_min, y_max, traces = smallest_greatest(S, pair, tol, max_steps)
    return y_min, y_max, (pair, R, traces)


@dataclass
class MajorantOp:
    """Increasing envelope operator with its starting envelope.

    Every difference d = |x - y| of two solutions is assumed to satisfy
    0 <= d <= ``w0`` and d <= G(d).  :func:`windowed_envelope` needs G
    increasing, causal (G(w) up to a grid point depends only on w up to that
    point) and sublinear up to a nonnegative constant: G(0) >= 0, and
    S = G - G(0) is subadditive, S(u + v) <= S(u) + S(v), and positively
    homogeneous, S(lam u) = lam S(u) for lam >= 0.  A linear G (G(0) = 0,
    as ``ex01_majorant``) is the usual case; the constant covers defect
    inequalities d <= c + S(d)."""

    G: object                 # maps GridFn -> GridFn (or arrays)
    w0: object
    grid: np.ndarray
    closure_points: tuple = ()
    _SPOT_CHECKS = 5          # random envelopes per spot check; not a field

    def spot_check_increasing(self):
        rng = np.random.default_rng(0)
        for _ in range(self._SPOT_CHECKS):
            u = np.abs(rng.normal(size=len(self.grid)))
            v = u + np.abs(rng.normal(size=len(self.grid)))
            _check_order([self.G(GridFn(self.grid, u))],
                         [self.G(GridFn(self.grid, v))], self.grid,
                         "majorant operator is not increasing")

    def spot_check_sublinear(self):
        """On random nonnegative envelopes u, v: G(u) <= G(u + v), else
        :class:`OrderBoundError`; G(0) >= 0, and S = G - G(0) subadditive and
        positively homogeneous within 1e-9 relative to the images' size,
        else :class:`SublinearityError`."""
        rng = np.random.default_rng(0)
        g = self.grid
        G = lambda v: as_grid(self.G(GridFn(g, v)), g)
        zero = np.zeros(len(g))
        g0 = G(zero)
        _check_order([zero], [g0], g, "majorant operator is negative at 0",
                     1e-9, SublinearityError)
        for _ in range(self._SPOT_CHECKS):
            u = np.abs(rng.normal(size=len(g)))
            v = np.abs(rng.normal(size=len(g)))
            lam = rng.uniform(0, 4)
            su, sv, suv, slu = (G(w) - g0 for w in (u, v, u + v, lam * u))
            _check_order([su], [suv], g, "majorant operator is not increasing")
            tol = 1e-9 * max(1.0, *(float(np.max(np.abs(x)))
                                    for x in (su, sv, suv, slu)))
            _check_order([suv], [su + sv], g,
                         "majorant operator is not subadditive", tol,
                         SublinearityError)
            _check_order([slu, lam * su], [lam * su, slu], g,
                         "majorant operator is not positively homogeneous",
                         tol, SublinearityError)


def uniqueness_chain(M: MajorantOp, tol: float = 1e-9,
                     max_steps: int = 100_000, max_omega_stages: int = 8):
    """Drive the envelope chain w -> G(w) toward zero.

    Certified when the grid sup-norm of the envelope falls below ``tol``
    within the budgets.  On stagnation (successive difference below
    tol * min-grid-spacing / 8, because the
    slowest modes decay by about value*spacing per step next to a branch
    point) an omega-stage applies the pointwise-inf closure (left-continuity
    repair at declared branch points) and iteration resumes.

    The omega closure sets a branch point to the signed grid extrapolation
    3 w(b-1) - 3 w(b-2) + w(b-3) of the iterate, which can fall below an
    envelope's value there: it is a surrogate, not a bound.  The chain is
    kept as the reference; :func:`windowed_envelope` certifies the same
    envelopes with a sound closure bound.
    """
    M.spot_check_increasing()
    grid = M.grid
    stag_tol = tol * float(np.min(np.diff(grid))) / 8
    cidx = closure_indices(grid, M.closure_points)

    def step(ws, _):
        ws = [as_grid(M.G(GridFn(grid, ws[0])), grid)]
        return ws, ws

    def stop(_, __, new, diff):
        if float(new[0].max()) <= tol:
            return _REACHED
        return diff <= stag_tol and _STALLED

    def close(ws):
        ws = [np.maximum(closure_repair(cidx, ws[0], ws[0], -1.0), 0.0)]
        return ws, ws

    w0 = [as_grid(M.w0, grid)]
    _, (w,), trace = _monotone_chain(
        "down", w0, w0, step, stop, close, max_steps, max_omega_stages, 1e-9,
        0, "envelope chain is not decreasing")
    trace.stabilized = trace.stabilized or bool(float(np.max(w)) <= tol)
    return trace.stabilized, trace


def windowed_envelope(M: MajorantOp, tol: float = 1e-9,
                      max_steps: int = 10_000) -> tuple:
    """Bound every envelope d (0 <= d <= w0, d <= G(d)) window by window with
    a contraction certificate.

    ``M`` must meet the :class:`MajorantOp` contract (one spot-check pass).
    The windows are the grid pieces between the closure points, as in
    :func:`windowed_chain`, solved in order with the bound B of the earlier
    windows frozen.  On a window W (its closure point left out) two operator
    applications give the inflow c = G(B on the earlier windows, 0 after)|W
    and the linear part L(s) = G(s on W, 0 elsewhere)|W of a positive s,
    starting from w0|W (1 where w0 <= 0).
    While theta = max L(s)/s is not below 1, normalised power steps
    s <- s + L(s)/theta (positive, and theta never rises under the contract)
    try to lower it; a step that does not lower theta ends the attempt.
    With theta < 1 and gamma = max c/s, every envelope has
    d|W <= gamma s + theta max(d/s) s, so d|W <= min(w0, gamma/(1 - theta) s)
    (Collatz-Wielandt); G's pointwise action at a closure point b is not
    used, and b gets the left-continuity bound
    min(w0, 3B(b-1) + 3B(b-2) + B(b-3)), valid for the package's quadratic
    closure because d >= 0.  A window that keeps theta >= 1 (or a NaN
    theta or gamma) ends the certified horizon.

    ``max_steps`` bounds the operator applications of all windows together
    (the spot checks aside).  Returns ``(horizon, envelope, trace)``: the
    grid point ending the last certified window (the grid start when none
    is), the bound as a GridFn (inf past the horizon), and a trace whose
    ``bracket_widths`` hold each window's sup bound (inf: uncertified),
    ``stabilization_index`` the operator applications and ``stabilized``
    whether every window is certified with bound <= ``tol``.
    """
    M.spot_check_sublinear()
    grid = M.grid
    n = len(grid)
    cidx = closure_indices(grid, M.closure_points)
    ends = cidx if cidx and cidx[-1] == n - 1 else cidx + [n - 1]
    w0 = as_grid(M.w0, grid)
    env = np.full(n, math.inf)
    trace = IterationTrace("down")
    applied = 0

    def G(x, w):  # one application, read on the window w
        nonlocal applied
        applied += 1
        return as_grid(M.G(GridFn(grid, x)), grid)[w]

    def on(w, v):  # v on w, 0 elsewhere
        x = np.zeros(n)
        x[w] = v
        return x

    a = 0
    for b in ends:
        if applied + 2 > max_steps:
            break
        w = slice(a, b) if b in cidx else slice(a, b + 1)
        c = G(on(slice(0, a), env[:a]), w)
        s = np.where(w0[w] > 0, w0[w], 1.0)
        ls = G(on(w, s), w)
        theta = float(np.max(ls / s, initial=0.0))
        while math.isfinite(theta) and theta >= 1 and applied < max_steps:
            s_new = s + ls / theta
            s_new /= float(np.max(s_new))
            ls_new = G(on(w, s_new), w)
            th = float(np.max(ls_new / s_new, initial=0.0))
            if not th < theta:
                break
            s, ls, theta = s_new, ls_new, th
        gamma = float(np.max(c / s, initial=0.0))
        if not (theta < 1 and gamma < math.inf):
            break
        env[w] = np.minimum(w0[w], gamma / (1 - theta) * s)
        if w.stop == b:
            env[b] = min(w0[b], 3 * env[b - 1] + 3 * env[b - 2] + env[b - 3])
        trace.bracket_widths.append(float(np.max(env[a:b + 1])))
        a = b + 1
    trace.bracket_widths += [math.inf] * (len(ends) - len(trace.bracket_widths))
    trace.stabilization_index = applied
    trace.stabilized = max(trace.bracket_widths) <= tol
    horizon = float(grid[a - 1] if a else grid[0])
    return horizon, GridFn(grid, env), trace


def reduce_higher_order(m: int, g_map, c: list, interval: Interval,
                        grid: np.ndarray) -> CauchySystem:
    """Reduce y^(m) = g(y, y', ..., y^(m-1)) to a first-order system.

    Components 1..m-1 integrate the next component on the grid (exact for
    piecewise-linear grid semantics); component m applies the supplied
    primitive map of g.  Solving the system and reading component 1 solves
    the original problem.
    """
    if m < 1:
        raise SolverDataError(f"order must be at least 1, not {m}")

    def integ(i):
        def phi(x):
            vals = as_grid(x[i + 1], grid)
            prim = np.concatenate([[0.0], np.cumsum(
                0.5 * (vals[1:] + vals[:-1]) * np.diff(grid))])
            return GridFn(grid, prim)
        return phi

    maps = [integ(i) for i in range(m - 1)] + [g_map]
    return CauchySystem(m, maps, list(c), interval, grid,
                        name=f"order-{m} reduction")
