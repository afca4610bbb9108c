"""The three seeded workloads: op lists with an output check per op.

Each builder takes the imported ``leftprim`` package, the workload seed and
a scratch directory, builds every input up front and returns a list of
:class:`Op`.  An op is a call into leftprim's public API (or the CLI,
in-process); its check compares the output with an independent reference
from :mod:`oracles` and returns a list of failures.  A failure is a pair
``(kind, message)``; kinds starting with ``known:`` are documented defects
of the program (see ``notes.json``) and are counted, never hidden.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
from fractions import Fraction

import numpy as np

import oracles as O

F = Fraction


class Op:
    __slots__ = ("name", "fn", "check", "digest")

    def __init__(self, name, fn, check, digest=None):
        self.name = name
        self.fn = fn
        self.check = check
        self.digest = digest or digest_of


# -- output digests ------------------------------------------------------------------


def _feed(h, obj):
    if isinstance(obj, Fraction):
        h.update(f"q{obj.numerator}/{obj.denominator};".encode())
    elif isinstance(obj, bool) or obj is None or isinstance(obj, str):
        h.update(f"s{obj!r};".encode())
    elif isinstance(obj, int):
        h.update(f"i{obj};".encode())
    elif isinstance(obj, float):
        h.update(f"f{obj.hex()};".encode())
    elif isinstance(obj, (bytes, bytearray)):
        h.update(b"b")
        h.update(obj)
    elif isinstance(obj, np.ndarray):
        h.update(b"a")
        h.update(np.ascontiguousarray(obj, dtype=float).tobytes())
    elif isinstance(obj, np.generic):
        _feed(h, obj.item())
    elif isinstance(obj, dict):
        h.update(b"{")
        for k in obj:
            _feed(h, k)
            _feed(h, obj[k])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for x in obj:
            _feed(h, x)
        h.update(b"]")
    elif hasattr(obj, "coeffs"):  # PiecewisePoly
        _feed(h, ("poly", obj.breaks, obj.coeffs, obj.base_value))
    elif hasattr(obj, "breaks"):  # StepFn
        if obj.exact:
            _feed(h, ("step", obj.breaks, obj.values, obj.base_value))
        else:
            _feed(h, ("step", np.asarray(obj.breaks, dtype=float),
                      np.asarray(obj.values, dtype=float), float(obj.base_value)))
    elif hasattr(obj, "values") and hasattr(obj, "grid"):  # GridFn
        _feed(h, obj.values)
    elif hasattr(obj, "sample") and hasattr(obj, "tag"):  # TaggedFn
        _feed(h, obj.tag)
    else:
        raise TypeError(f"no digest for {type(obj).__name__}")


def digest_of(obj):
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()[:16]


def same_step(s, ref):
    return (list(s.breaks), list(s.values), s.base_value) == \
        (list(ref[0]), list(ref[1]), ref[2])


def run_cli(lp, argv):
    """leftprim.cli.main in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lp.cli.main(list(argv))
    return code, buf.getvalue()


# -- exact ------------------------------------------------------------------------------

DENOMS = (2, 3, 4, 5, 7, 8)


def _small_raw(rng, max_cells, value_range=6):
    k = int(rng.integers(1, max_cells + 1))
    cuts = set()
    while len(cuts) < k - 1:
        den = int(rng.choice(DENOMS)) * 4
        cuts.add(F(int(rng.integers(1, den)), den))
    breaks = [F(0)] + sorted(cuts) + [F(1)]
    values = [F(int(rng.integers(-value_range, value_range + 1)), int(rng.choice(DENOMS)))
              for _ in range(len(breaks) - 1)]
    return breaks, values, values[0]


def _large_raw(rng, cells):
    den = 8 * cells
    nums = np.unique(rng.integers(1, den, size=cells - 1))
    breaks = [F(0)] + [F(int(k), den) for k in nums] + [F(1)]
    values = [F(int(a), int(b)) for a, b in zip(rng.integers(-50, 51, size=len(breaks) - 1),
                                                 rng.integers(1, 9, size=len(breaks) - 1))]
    return breaks, values, values[0]


LARGE_KINDS = ("join", "meet", "add", "mul", "restrict", "alexiewicz", "l1",
               "cumulative", "stieltjes")
BINARY = {"join": max, "meet": min, "add": lambda a, b: a + b,
          "mul": lambda a, b: a * b}


SMALL_CASES = (60, 60, 30, 20)   # lattice, gauge, parts, norm-sequence cases
LARGE_CASES = 16                 # the 11th slowest op is a large case
POOL = 6                         # large step functions shared by the cases


def build_exact(lp, seed, scratch):
    """Exact step calculus: small property cases and a few large merges."""
    rng = np.random.default_rng([seed, 101])
    S = lp.StepFn
    R = lp.RegulatedFn
    mk = lambda raw: S(raw[0], raw[1], raw[2])
    ops = []

    for k in range(SMALL_CASES[0]):  # lattice cases
        rf, rg = _small_raw(rng, 5), _small_raw(rng, 5)
        f, g = mk(rf), mk(rg)

        def fn(f=f, g=g):
            return (f.join(g), f.meet(g), f + g, f - g, f * g, f.abs(), f.pos(),
                    f.neg(), f.l1_norm(), f.sup_norm(), f.alexiewicz_norm(),
                    f.integral())

        def check(out, rf=rf, rg=rg):
            refs = [O.zip_steps(rf, rg, max), O.zip_steps(rf, rg, min),
                    O.zip_steps(rf, rg, lambda a, b: a + b),
                    O.zip_steps(rf, rg, lambda a, b: a - b),
                    O.zip_steps(rf, rg, lambda a, b: a * b),
                    O.map_step(rf, abs), O.map_step(rf, lambda v: max(v, 0)),
                    O.map_step(rf, lambda v: max(-v, 0))]
            bad = [i for i, (s, r) in enumerate(zip(out, refs)) if not same_step(s, r)]
            nums = (O.step_l1(rf), O.step_sup(rf), O.step_alexiewicz(rf),
                    O.step_integral(rf))
            if bad or tuple(out[8:]) != nums:
                return [("exact", f"lattice outputs {bad} or norms differ")]
            return []

        ops.append(Op(f"lattice[{k}]", fn, check))

    for k in range(SMALL_CASES[1]):  # gauge cases
        rF, rg = _small_raw(rng, 5), _small_raw(rng, 5)
        Fs, g = R.from_step(mk(rF)), mk(rg)
        c = F(int(rng.integers(1, 8)), 8)

        def fn(Fs=Fs, g=g, c=c):
            return (lp.stieltjes(Fs, g, F(0), F(1)), lp.stieltjes(Fs, g, F(0), c),
                    lp.stieltjes(Fs, g, c, F(1)))

        def check(out, rF=rF, rg=rg, c=c):
            ref = (O.stieltjes_atoms(rF, rg, F(0), F(1)),
                   O.stieltjes_atoms(rF, rg, F(0), c),
                   O.stieltjes_atoms(rF, rg, c, F(1)))
            return [] if tuple(out) == ref else [("exact", f"stieltjes {out} != {ref}")]

        ops.append(Op(f"gauge[{k}]", fn, check))

    for k in range(SMALL_CASES[2]):  # parts cases
        deg = int(rng.integers(1, 6))
        coeffs = [F(int(rng.integers(-4, 5)), int(rng.integers(1, 5)))
                  for _ in range(deg + 1)]
        if all(c == 0 for c in coeffs[1:]):
            coeffs[1] = F(1)
        coeffs[0] = F(0)  # the primitive vanishes at the left endpoint
        prim = R.from_poly(lp.PiecewisePoly([F(0), F(1)], [tuple(coeffs)]))
        rh = _small_raw(rng, 4)
        mult = lp.Multiplier.from_step_density(mk(rh), F(0))
        dist = lp.Distribution(prim, "LL" if rng.integers(2) else "LD")

        def fn(dist=dist, mult=mult):
            try:
                return lp.parts(dist, mult, F(0), F(1))
            except AssertionError as exc:  # parts asserts its own bound
                return "AssertionError", repr(exc)

        def check(out, coeffs=coeffs, rh=rh):
            value, bound = out
            ref = O.parts_reference(coeffs, rh)
            if value == "AssertionError":
                # the certified bound uses a sampled norm of the primitive,
                # which can fall short of |value|
                return [("known:partsbound", "parts asserted value <= bound")]
            if value != ref:
                return [("exact", f"parts {value} != {ref}")]
            if abs(value) > bound:
                return [("exact", f"parts value {value} above its bound {bound}")]
            return []

        ops.append(Op(f"parts[{k}]", fn, check))

    for k in range(SMALL_CASES[3]):  # norm-sequence identities
        n = int(rng.integers(1, 51))

        def fn(n=n):
            tail = lp.builders.AlternatingIndicatorTail(n)
            return tail.alexiewicz_exact(), tail.l1_exact()

        def check(out, n=n):
            ref = (F(1, n + 1) - F(1, n + 2), F(1, n + 1))
            return [] if tuple(out) == ref else [("exact", f"norms n={n}: {out}")]

        ops.append(Op(f"norms[{k}]", fn, check))

    # large cases on a pool of step functions of 1k to 10k cells; the sizes
    # and the pairing are fixed so that the work per pass does not depend
    # on the seed, which only draws the breakpoints and values
    sizes = np.geomspace(1000, 10000, POOL).round().astype(int)
    raws = [_large_raw(rng, int(n)) for n in sizes]
    steps = [mk(r) for r in raws]
    for k in range(LARGE_CASES):
        kind = LARGE_KINDS[k % len(LARGE_KINDS)]
        i, j = k % POOL, (k + POOL // 2) % POOL
        f, g, rf, rg = steps[i], steps[j], raws[i], raws[j]
        label = f"large.{kind}[{len(rf[1])}x{len(rg[1])}]"
        if kind in BINARY:
            op = BINARY[kind]
            fn = {"join": lambda f=f, g=g: f.join(g), "meet": lambda f=f, g=g: f.meet(g),
                  "add": lambda f=f, g=g: f + g, "mul": lambda f=f, g=g: f * g}[kind]

            def check(out, rf=rf, rg=rg, op=op):
                return [] if same_step(out, O.zip_steps(rf, rg, op)) \
                    else [("exact", "merge output differs")]
        elif kind == "restrict":
            lo, hi = sorted(F(int(x), 997) for x in rng.choice(np.arange(1, 997), 2, replace=False))
            fn = lambda f=f, lo=lo, hi=hi: f.restrict(lo, hi)

            def check(out, rf=rf, lo=lo, hi=hi):
                return [] if same_step(out, O.restrict_step(rf, lo, hi)) \
                    else [("exact", "restriction differs")]
        elif kind in ("alexiewicz", "l1"):
            Rf = R.from_step(f)
            fn = lambda Rf=Rf, kind=kind: lp.norm(Rf, kind)
            ref = O.step_alexiewicz if kind == "alexiewicz" else O.step_l1

            def check(out, rf=rf, ref=ref):
                return [] if out == ref(rf) else [("exact", f"norm {out}")]
        elif kind == "cumulative":
            fn = lambda f=f: f.cumulative()

            def check(out, rf=rf):
                ok = (list(out.breaks) == rf[0] and out.base_value == 0
                      and [tuple(c) for c in out.coeffs] == O.step_cumulative(rf))
                return [] if ok else [("exact", "cumulative differs")]
        else:
            Rf = R.from_step(f)
            fn = lambda Rf=Rf, g=g: lp.stieltjes(Rf, g, F(0), F(1))

            def check(out, rf=rf, rg=rg):
                ref = O.stieltjes_atoms(rf, rg, F(0), F(1))
                return [] if out == ref else [("exact", "stieltjes differs")]
        ops.append(Op(label, fn, check))

    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


# -- approx -----------------------------------------------------------------------------

# Every op slot has a fixed family, depth and cost class; the seed draws the
# intervals and the check points within the slot, so the work per pass, and
# the rank of each op by latency, hardly depend on the seed.
STEP_SLOTS = (("E611_F", 3), ("shape_A", None), ("E600_Fm", 2), ("E48_F", 2),
              ("E408_Fm", 2), ("E47_G", 2), ("E611_F", 5), ("E409_Gm", 2),
              ("E48_F", 3), ("E47_G", 3), ("shape_A", None), ("E47_G", 4))
SUP_SLOTS = (("E47_G", 3), ("E48_F", 3), ("E611_F", 5), ("E408_Fm", 2),
             ("E600_Fm", 2), ("shape_A", None)) * 4
INT_SLOTS = (("E47_G", 3), ("E409_Gm", 2), ("E611_F", 4), ("shape_A", None),
             ("E48_F", 3), ("E408_Fm", 2), ("E600_Fm", 2))
PROBES = 40_000          # oscillation_partition's default probe lattice
OFF_LATTICE_POINTS = 50_000


def _interval(rng, length, lo=F(0), hi=F(1)):
    """A seeded [a, a + length] in [lo, hi] whose ends are no jump of any
    catalogued family (odd multiples of 1/128)."""
    k = int(rng.integers(0, int((hi - lo - length) * 64)))
    a = lo + F(2 * k + 1, 128)
    return a, a + length


def _build(lp, name, m, **kw):
    if m is not None:
        kw["m"] = m
    return lp.builders.build_function(name, **kw)


def _label(name, m):
    return name if m is None else f"{name}(m={m})"


def _step_eval_float(sf, ts):
    breaks = np.asarray(sf.breaks, dtype=float)
    vals = np.asarray(sf.values, dtype=float)
    idx = np.clip(np.searchsorted(breaks, ts, side="left") - 1, 0, len(vals) - 1)
    out = vals[idx]
    out[ts <= breaks[0]] = float(sf.base_value)
    return out


def _check_step_approx(lp, name, m, n, sf, rng_seed):
    """|F_n - f| <= 1/n on the probe lattice (the certified set) and at
    seeded points off it, outside the partition's reported residual cells."""
    failures = []
    f = _build(lp, name, m)
    residual = sorted(lp.funcspace.oscillation_partition(f, n, f.interval).residual)

    def outside_residual(ts):
        if not residual:
            return np.ones(ts.shape, dtype=bool)
        us = np.array([u for u, _ in residual])
        vs = np.array([v for _, v in residual])
        i = np.searchsorted(us, ts, side="left") - 1
        return ~((i >= 0) & (ts <= vs[np.maximum(i, 0)]))

    lattice = np.linspace(0.0, 1.0, PROBES + 1)[1:]  # t = 0 takes the right branch
    lattice = lattice[outside_residual(lattice)]
    err = np.abs(_step_eval_float(sf, lattice) - O.family_values(name, m, lattice))
    if np.any(err > 1.0 / n + 1e-12):
        failures.append(("approx", f"lattice error {err.max():.3g} > 1/{n}"))
    rng = np.random.default_rng(rng_seed)
    k = rng.integers(0, PROBES, size=OFF_LATTICE_POINTS)
    ts = (k + rng.uniform(0.1, 0.9, size=k.size)) / PROBES
    jumps = np.array([float(j) for j in O.family_jumps(name, m, 0, 1)] or [-1.0])
    keep = np.abs(ts[:, None] - jumps[None, :]).min(axis=1) >= 1e-7
    ts = ts[keep & outside_residual(ts)]
    err = np.abs(_step_eval_float(sf, ts) - O.family_values(name, m, ts))
    above = int(np.sum(err > 1.0 / n + 1e-12))
    if above:
        failures.append(("known:offlattice",
                         f"{above}/{ts.size} off-lattice points above 1/{n}, max {err.max():.3g}"))
    return failures


CONTINUOUS = ("E48_F", "E408_Fm", "E600_Fm", "shape_A")  # no declared jumps


def _sup_reference(name, m, lo=0, hi=1, grid=4096):
    """max |f| over the norm's sample set: a uniform grid plus the jumps."""
    ts = np.linspace(float(lo), float(hi), grid + 1)
    if name not in CONTINUOUS:
        ts = np.concatenate([ts, [float(j) for j in O.family_jumps(name, m, lo, hi)]])
    return float(np.max(np.abs(O.family_values(name, m, ts))))


def _close(a, b, tol):
    return abs(float(a) - float(b)) <= tol


def build_approx(lp, seed, scratch):
    """Symbolic families: step approximation, norms, quadrature, Stieltjes."""
    rng = np.random.default_rng([seed, 202])
    ops = []

    # levels n from 8 to 512 on a fixed geometric ladder; the seed draws the
    # points the approximation is checked at
    ladder = np.geomspace(8, 512, len(STEP_SLOTS)).round().astype(int)
    for (name, m), n in zip(STEP_SLOTS, ladder.tolist()):
        check_seed = int(rng.integers(0, 2 ** 31))

        def fn(name=name, m=m, n=n):
            return lp.step_approximation(_build(lp, name, m), n)

        def check(out, name=name, m=m, n=n, check_seed=check_seed):
            return _check_step_approx(lp, name, m, n, out, check_seed)

        ops.append(Op(f"stepapprox[{_label(name, m)},n={n}]", fn, check))

    for name, m in SUP_SLOTS:
        a, b = _interval(rng, F(1, 2))

        def fn(name=name, m=m, a=a, b=b):
            return lp.norm(_build(lp, name, m), "sup", lp.Interval(a, b))

        def check(out, name=name, m=m, a=a, b=b):
            ref = _sup_reference(name, m, a, b)
            return [] if _close(out, ref, 1e-12 * (1 + ref)) \
                else [("approx", f"sup {out!r} vs {ref!r}")]

        ops.append(Op(f"norm.sup[{_label(name, m)},{a},{b}]", fn, check))

    for m in (3, 4):
        a, b = _interval(rng, F(1, 2))

        def fn(m=m, a=a, b=b):
            return lp.norm(_build(lp, "E47_G", m), "alexiewicz", lp.Interval(a, b))

        def check(out, m=m, a=a, b=b):
            # the primitive E48_F is continuous; the norm is its range on [a, b]
            ts = np.concatenate([np.linspace(float(a), float(b), 200_001),
                                 [float(j) for j in O.family_jumps("E47_G", m, a, b)]])
            P = O.family_values("E48_F", m, ts)  # the registered primitive
            dense = float(P.max() - P.min())
            L, width = O.e47_sup_bound(m), float(b - a)
            lo = dense - L * 2.0 * width / 4096 - 1e-9
            hi = dense + L * width / 200_000 + 1e-9
            return [] if lo <= out <= hi else \
                [("approx", f"alexiewicz {out!r} outside [{lo!r}, {hi!r}]")]

        ops.append(Op(f"norm.alexiewicz[E47_G(m={m}),{a},{b}]", fn, check))

    for m in (3, 5):
        a, b = _interval(rng, F(1, 2))

        def fn(m=m, a=a, b=b):
            return lp.norm(_build(lp, "E611_F", m), "l1", lp.Interval(a, b))

        def check(out, m=m, a=a, b=b):
            ref = O.family_integral("E611_F", m, a, b)  # E611_F >= 0
            return [] if _close(out, ref, 1e-9) else [("approx", f"l1 {out!r} vs {ref}")]

        ops.append(Op(f"norm.l1[E611_F(m={m}),{a},{b}]", fn, check))

    for name, m in INT_SLOTS:
        a, b = _interval(rng, F(1, 2))
        tol = 1e-8

        def fn(name=name, m=m, a=a, b=b, tol=tol):
            return lp.integrate_regulated(_build(lp, name, m), a, b, tol)

        def check(out, name=name, m=m, a=a, b=b, tol=tol):
            v, e = out
            ref = O.family_integral(name, m, a, b)
            dev, claimed = abs(float(v) - float(ref)), tol + float(e)
            if dev <= claimed + 1e-15 * abs(float(ref)):
                return []
            # a small miss is the documented under-reported quadrature bound
            kind = "known:quadbound" if dev <= 100 * claimed else "approx"
            return [(kind, f"integral {v!r} +- {e!r} vs {float(ref)!r}")]

        ops.append(Op(f"integrate[{_label(name, m)},{a},{b}]", fn, check))

    # The two Stieltjes ops take fixed inputs: their cost depends on where
    # the interval sits in the families' period, and they dominate wall_s.
    # Against the identity on [1/4, 1/2]:
    def fn():
        g = lp.PiecewisePoly([F(0), F(1)], [(F(0), F(1))])
        return lp.stieltjes(_build(lp, "E611_F", 4), g, F(1, 4), F(1, 2), tol=1e-4)

    def check(out):
        ref = O.family_integral("E611_F", 4, F(1, 4), F(1, 2))
        return [] if _close(out, ref, 1e-4) else [("approx", f"stieltjes {out!r} vs {float(ref)!r}")]

    ops.append(Op("stieltjes.identity[E611_F(m=4),1/4,1/2]", fn, check))

    # against a Heaviside step on [-1/4, 1/4]: the atom at 0 picks out f(0)
    def fn():
        lo, hi = F(-1, 4), F(1, 4)
        f = _build(lp, "E48_F", 3, lo=lo, hi=hi)
        return lp.stieltjes(f, lp.builders.heaviside_step(lo, hi).payload, lo, hi, tol=1e-4)

    def check(out):
        ref = float(O.family_values("E48_F", 3, np.array([0.0]))[0])
        return [] if _close(out, ref, 1e-4) else [("approx", f"stieltjes {out!r} vs {ref!r}")]

    ops.append(Op("stieltjes.heaviside[E48_F(m=3),-1/4,1/4]", fn, check))

    # the README command lines, in-process
    csv_path = os.path.join(scratch, "E47_G.csv")
    readme = [
        ("cli.integrate[shape_A]", ["integrate", "shape_A", "0", "1", "--tol", "1e-12"]),
        ("cli.norm[E611_F,sup]", ["norm", "E611_F", "sup", "--m", "5"]),
        ("cli.stieltjes[E611_F,identity]",
         ["stieltjes", "E611_F", "identity", "--m", "3", "--tol", "1e-4"]),
        ("cli.example[E47_G,csv]",
         ["example", "E47_G", "--m", "4", "--format", "csv", "--out", csv_path]),
    ]
    for label, argv in readme:
        if label == "cli.example[E47_G,csv]":
            def fn(argv=argv):
                code, text = run_cli(lp, argv)
                with open(csv_path, "rb") as fh:
                    data = fh.read()
                os.remove(csv_path)
                return code, text, data
        else:
            fn = lambda argv=argv: run_cli(lp, argv)
        ops.append(Op(label, fn, _readme_check(label)))
    return ops


def _fields(text):
    out = {}
    for line in text.splitlines():
        key, _, val = line.partition(":")
        out[key.strip()] = val.strip()
    return out


def _readme_check(label):
    def check(out):
        code, text = out[0], out[1]
        if code != 0:
            return [("approx", f"{label} exit code {code}")]
        kv = _fields(text)
        if label == "cli.integrate[shape_A]":
            v, e = float(kv["integral"]), float(kv["error_bound"])
            ref = O.family_integral("shape_A", None, 0, 1)
            ok = _close(v, ref, e + 1e-12)
        elif label == "cli.norm[E611_F,sup]":
            ref = _sup_reference("E611_F", 5)
            ok = _close(kv["norm"], ref, 1e-12) and kv["tag"] == "numeric(grid=4096)"
        elif label == "cli.stieltjes[E611_F,identity]":
            ref = O.family_integral("E611_F", 3, 0, 1)
            ok = _close(kv["stieltjes"], ref, 1e-4)
        else:
            return _check_csv(out[2])
        return [] if ok else [("approx", f"{label}: {text.strip()!r} vs {float(ref)!r}")]
    return check


def _check_csv(data):
    rows = list(csv.reader(io.StringIO(data.decode())))
    if rows[0] != ["t", "value"]:
        return [("approx", f"csv header {rows[0]}")]
    jumps = {float(j) for j in O.family_jumps("E47_G", 4, 0, 1)}
    plain = [(float(t), v) for t, v in rows[1:] if not t.endswith("+")]
    plus = [(float(t[:-1]), v) for t, v in rows[1:] if t.endswith("+")]
    ts = np.array([t for t, _ in plain])
    want = np.unique(np.concatenate([np.linspace(0, 1, 4097), sorted(jumps)]))
    if ts.size != want.size or np.any(ts != want):
        return [("approx", "csv sample points differ")]
    ref = O.family_values("E47_G", 4, ts)
    got = np.array([float(v) for _, v in plain])
    bad = np.abs(got - ref) > 1e-9 * (1 + np.abs(ref))
    if np.any(bad):
        return [("approx", f"csv values differ at {int(bad.sum())} rows")]
    if sorted(t for t, _ in plus) != sorted(j for j in jumps if j < 1) or \
            any(v != "" for _, v in plus):
        return [("approx", "csv right-limit rows differ")]
    return []


# -- solve ------------------------------------------------------------------------------

EX31_GOLDEN = {"greatest": ("arctan(2569/2500)", "tanh(12419/10000)"),
               "smallest": ("-arctan(5139/5000)", "-tanh(12421/10000)")}

README_CONFIG = """system: random_monotone
dimension: 2
seed: 7
grid: 128
tol: 1.0e-9
initial_values: [0.0, 0.5]
"""


def _ex31_failures(outputs):
    out = []
    for side, (c1, c2) in EX31_GOLDEN.items():
        got = (outputs[side]["component_1"]["exact"], outputs[side]["component_2"]["exact"])
        if got != (c1, c2):
            out.append(("solve", f"ex31 {side} {got} != {(c1, c2)}"))
    if outputs.get("scalar_and_generic_paths_agree") is not True:
        out.append(("solve", "ex31 scalar and generic paths disagree"))
    return out


def _random_residual(S, ys):
    """sup |y - (c + forcing primitive + int sum_j A_ij tanh y_j)| on the grid."""
    grid = S.grid
    Y = np.array([np.asarray(y.sample(grid), dtype=float) for y in ys])
    worst = 0.0
    for i in range(S.m):
        sf = S.forcing_steps[i]
        raw = (list(sf.breaks), list(sf.values), sf.base_value)
        prim = np.array([float(_cum_at(raw, F(t))) for t in grid.tolist()])
        links = np.sum(S.link_weights[i][:, None] * np.tanh(Y), axis=0)
        integ = np.concatenate([[0.0], np.cumsum(0.5 * (links[1:] + links[:-1])
                                                 * np.diff(grid))])
        worst = max(worst, float(np.max(np.abs(S.c[i] + prim + integ - Y[i]))))
    return worst


def _cum_at(raw, t):
    b, v, _ = raw
    acc = F(0)
    for i in range(len(v)):
        if t <= b[i]:
            break
        acc += v[i] * (min(t, b[i + 1]) - b[i])
    return acc


RANDOM_SYSTEMS = 24


def build_solve(lp, seed, scratch):
    """Monotone chains: ex01, ex31, the README solve lines, random systems."""
    rng = np.random.default_rng([seed, 303])
    SY, runs = lp.systems, lp.runs
    ops = []

    def ex01():
        rep = runs.run_ex01()
        return rep.outputs, np.asarray(rep.solution[0].sample(rep.system.grid)), \
            np.asarray(rep.system.grid)

    def ex01_check(out):
        outputs, y, grid = out
        closed = np.where(grid < 1.0, -grid, -1.0)
        for i in range(1, int(grid[-1]) + 1):
            closed = np.where(grid > i + 1e-15, -1.0 + i * (i + 1) / 2, closed)
        fails = []
        if not outputs["closed_form_sup_error"] <= 1e-9:
            fails.append(("solve", f"ex01 reported error {outputs['closed_form_sup_error']}"))
        if float(np.max(np.abs(y - closed))) > 1e-9:
            fails.append(("solve", f"ex01 off the closed form by {np.max(np.abs(y - closed)):.3g}"))
        if outputs["uniqueness_certified"] is not True:
            fails.append(("solve", "ex01 uniqueness not certified"))
        return fails

    ops.append(Op("run_ex01", ex01, ex01_check,
                  digest=lambda out: digest_of((out[1], out[0]["uniqueness_omega_stages"]))))

    def ex31():
        rep = runs.run_ex31()
        return rep.outputs, rep.residuals

    def ex31_check(out):
        fails = _ex31_failures(out[0])
        if not (out[1]["smallest"] <= 1e-9 and out[1]["greatest"] <= 1e-9):
            fails.append(("solve", f"ex31 residuals {out[1]}"))
        return fails

    ops.append(Op("run_ex31", ex31, ex31_check,
                  digest=lambda out: digest_of((out[0], out[1]))))

    def cli_ex31():
        return run_cli(lp, ["example", "ex31", "--tol", "1e-10"])

    def cli_ex31_check(out):
        import yaml
        code, text = out
        if code != 0:
            return [("solve", f"example ex31 exit code {code}")]
        return _ex31_failures(yaml.safe_load(text)["outputs"])

    ops.append(Op("cli.example[ex31]", cli_ex31, cli_ex31_check,
                  digest=lambda out: digest_of([l for l in out[1].splitlines()
                                                if not l.startswith("timing_s")])))

    cfg = os.path.join(scratch, "system.yaml")
    with open(cfg, "w") as fh:
        fh.write(README_CONFIG)

    def cli_solve():
        return run_cli(lp, ["solve", cfg])

    def cli_solve_check(out):
        import yaml
        code, text = out
        if code != 0:
            return [("solve", f"solve exit code {code}")]
        doc = yaml.safe_load(text)
        lo, hi = doc["outputs"]["smallest_at_T"], doc["outputs"]["greatest_at_T"]
        res = doc["residuals"]
        ok = all(a <= b + 1e-9 for a, b in zip(lo, hi)) and \
            res["smallest"] <= 5e-8 and res["greatest"] <= 5e-8
        return [] if ok else [("solve", f"solve config: {doc['outputs']} {res}")]

    ops.append(Op("cli.solve[random_monotone]", cli_solve, cli_solve_check,
                  digest=lambda out: digest_of([l for l in out[1].splitlines()
                                                if not l.startswith("timing_s")])))

    for k in range(RANDOM_SYSTEMS):
        case_seed = int(rng.integers(0, 10 ** 9))
        dim = 1 + k % 3

        def fn(case_seed=case_seed, dim=dim):
            S = SY.random_monotone_system(np.random.default_rng(case_seed), m=dim)
            lo, hi = SY.order_bounds_for_random(S)
            pair = lp.solver.bounds_to_subsuper(S, lo, hi)
            y_lo, y_hi, _ = lp.solver.smallest_greatest(S, pair, tol=1e-11, max_steps=300)
            return S, y_lo, y_hi

        def check(out):
            S, y_lo, y_hi = out
            fails = []
            for label, ys in (("smallest", y_lo), ("greatest", y_hi)):
                r = _random_residual(S, ys)
                if r > 1e-8:
                    fails.append(("solve", f"{label} solution residual {r:.3g}"))
            for a, b in zip(y_lo, y_hi):
                if np.any(a.sample(S.grid) > b.sample(S.grid) + 1e-9):
                    fails.append(("solve", "smallest above greatest"))
            return fails

        def digest(out):
            S, y_lo, y_hi = out
            return digest_of([np.asarray(y.sample(S.grid)) for y in y_lo + y_hi])

        ops.append(Op(f"random_monotone[m={dim},{case_seed}]", fn, check, digest))

    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


WORKLOADS = {"exact": build_exact, "approx": build_approx, "solve": build_solve}
