"""The exact step algebra pinned bit for bit on large seeded steps, and the
int path of its value lattice against the generic op path."""

import hashlib
from fractions import Fraction
from math import lcm
from operator import add, is_, mul, sub

import numpy as np
import pytest

from leftprim.funcspace import RegulatedFn
from leftprim.gauge import stieltjes
from leftprim.stepfn import LATTICE_BITS, PiecewisePoly, StepFn, random_stepfn

F = Fraction


def large_step(seed, cells, spread=50, base=None):
    """Exact step on [0, 1] with breaks k/(8 cells) and values p/q, |p| <=
    spread, 1 <= q <= 8 (``spread=1`` gives many equal neighbours)."""
    rng = np.random.default_rng(seed)
    den = 8 * cells
    nums = np.unique(rng.integers(1, den, size=cells - 1))
    breaks = [F(0)] + [F(int(k), den) for k in nums] + [F(1)]
    n = len(breaks) - 1
    values = [F(int(a), int(b)) for a, b in zip(rng.integers(-spread, spread + 1, size=n),
                                                 rng.integers(1, 9, size=n))]
    return StepFn(breaks, values, values[0] if base is None else base)


def enc(x):
    """A number as its type and exact value."""
    if isinstance(x, (Fraction, int)):
        return f"{type(x).__name__}:{x.numerator}/{x.denominator}"
    return f"{type(x).__name__}:{x!r}"


def digest(out):
    """blake2b-64 of the breaks, each value's type and exact value, the base
    value, den, keys and exact of a step or piecewise polynomial, or of one
    number."""
    if isinstance(out, StepFn):
        values = map(enc, out.values)
    elif isinstance(out, PiecewisePoly):
        values = (",".join(map(enc, c)) for c in out.coeffs)
    else:
        return hashlib.blake2b(enc(out).encode(), digest_size=8).hexdigest()
    text = "|".join([" ".join(map(enc, out.breaks)), " ".join(values),
                     enc(out.base_value), repr(out.den), " ".join(map(enc, out.keys)),
                     repr(out.exact)])
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


STEPS = {  # name -> (seed, cells, spread, base)
    "a": (11, 1000, 50, F(7, 3)),
    "b": (12, 2500, 50, None),
    "c": (13, 10000, 50, F(-1, 5)),
    "flat": (14, 4000, 1, None),  # values in {0, +-1/q}: long runs to coalesce
}
PAIRS = (("a", "b"), ("b", "c"), ("c", "flat"), ("flat", "a"))
LO, HI = F(123, 997), F(871, 997)

# output name -> blake2b-64 of :func:`digest`, recorded on the Fraction path
PINNED = {
    "a+b": "2ab8bd48713bb5a0",
    "a-b": "4e29723e0b513dec",
    "a*b": "81ff329383393d4a",
    "ajoinb": "95fe5a177d10c683",
    "ameetb": "f0b8a7cc987bceee",
    "stieltjes a db": "fd533bc52ed20feb",
    "stieltjes a db on [lo, hi]": "fd1c85ba1ce4cc92",
    "b+c": "a9ca623d4339457f",
    "b-c": "e2f803b0ac11de27",
    "b*c": "809ec3ee00c52356",
    "bjoinc": "cdcaea74345825fd",
    "bmeetc": "3f9a88e5e2664835",
    "stieltjes b dc": "5a29547ccbe9921f",
    "stieltjes b dc on [lo, hi]": "f6a2d0eb1222b8c7",
    "c+flat": "2bb881d95d9aff70",
    "c-flat": "9d4dd5a6a76b3984",
    "c*flat": "89cdb82122bc5abf",
    "cjoinflat": "f34e5282b33943d9",
    "cmeetflat": "e52feff4318ad276",
    "stieltjes c dflat": "841456aebd7e7181",
    "stieltjes c dflat on [lo, hi]": "9e4db5f429745b1b",
    "flat+a": "0f7e51699342247c",
    "flat-a": "e0a5180acb2193db",
    "flat*a": "2e7ec3f56c49bb00",
    "flatjoina": "a5fe7ba9ecde64ef",
    "flatmeeta": "2774511972345ef7",
    "stieltjes flat da": "359d81e94d3f905b",
    "stieltjes flat da on [lo, hi]": "a664371039c00f0e",
    "a.merged": "04a749686a644d1c",
    "a.restrict": "9bff88ddf4394717",
    "a.restrict on breaks": "82bbfca59ec2f1b5",
    "a.cumulative": "fac375f74e3cebe3",
    "a.integral": "6801927066acd9c4",
    "a.integral on [lo, hi]": "3f40808c8f2920cb",
    "a.l1_norm": "429e9eb2455e1baa",
    "a.l1_norm on [lo, hi]": "0f401db7387f339d",
    "a.alexiewicz_norm": "af48ce90c8b24a90",
    "a.variation": "89e48b1183bba9c9",
    "b.merged": "2073d79ae1c67bc5",
    "b.restrict": "2cec85e000f0437f",
    "b.restrict on breaks": "29b760ab4d00f83e",
    "b.cumulative": "c4593f21280a6de2",
    "b.integral": "dc07fab4d8f58237",
    "b.integral on [lo, hi]": "0941cce367bccf62",
    "b.l1_norm": "06281e580f67c16b",
    "b.l1_norm on [lo, hi]": "a17a9dfb61c847c5",
    "b.alexiewicz_norm": "596934c4cc03e4b0",
    "b.variation": "d5ad807b76775936",
    "c.merged": "8254d5290960fa79",
    "c.restrict": "3761e56638189384",
    "c.restrict on breaks": "1e2797004845f068",
    "c.cumulative": "5bdb3dbbe3428ca3",
    "c.integral": "16571072f09072af",
    "c.integral on [lo, hi]": "3d50f9f8d172b5d9",
    "c.l1_norm": "9f051846008ab735",
    "c.l1_norm on [lo, hi]": "a916af32581e2246",
    "c.alexiewicz_norm": "16f415af3bea51e9",
    "c.variation": "2dd07fc6cc34ded6",
    "flat.merged": "aa1dd5fe4b1afe4e",
    "flat.restrict": "c07fab158a786a85",
    "flat.restrict on breaks": "7f85fe1cace316cc",
    "flat.cumulative": "0a8dc095b5c2cd49",
    "flat.integral": "f4a29a23d3deeb94",
    "flat.integral on [lo, hi]": "8866677ee3dbe4ea",
    "flat.l1_norm": "4389bf7c0d684b30",
    "flat.l1_norm on [lo, hi]": "7ff6ebc43a808154",
    "flat.alexiewicz_norm": "f6d19e02774b12eb",
    "flat.variation": "c0a12622f88877b2",
}


def outputs():
    steps = {name: large_step(*args) for name, args in STEPS.items()}
    out = {}
    for x, y in PAIRS:
        f, g = steps[x], steps[y]
        for op, fn in (("+", f.__add__), ("-", f.__sub__), ("*", f.__mul__),
                       ("join", f.join), ("meet", f.meet)):
            out[f"{x}{op}{y}"] = fn(g)
        out[f"stieltjes {x} d{y}"] = stieltjes(RegulatedFn.from_step(f), g, 0, 1)
        out[f"stieltjes {x} d{y} on [lo, hi]"] = stieltjes(RegulatedFn.from_step(f),
                                                           g, LO, HI)
    for x, f in steps.items():
        br = f.breaks
        out[f"{x}.merged"] = f.merged()
        out[f"{x}.restrict"] = f.restrict(LO, HI)
        out[f"{x}.restrict on breaks"] = f.restrict(br[3], br[-4])
        out[f"{x}.cumulative"] = f.cumulative()
        out[f"{x}.integral"] = f.integral()
        out[f"{x}.integral on [lo, hi]"] = f.integral(LO, HI)
        out[f"{x}.l1_norm"] = f.l1_norm()
        out[f"{x}.l1_norm on [lo, hi]"] = f.l1_norm(LO, HI)
        out[f"{x}.alexiewicz_norm"] = f.alexiewicz_norm()
        out[f"{x}.variation"] = f.variation()
    return out


def test_large_step_outputs_are_pinned_bit_for_bit():
    got = {name: digest(out) for name, out in outputs().items()}
    assert got == PINNED


# -- the int path against the generic one -------------------------------------

OPS = {"add": add, "sub": sub, "mul": mul, "join": max, "meet": min}


def snap(f):
    """Breaks, values and base value with their types, den, keys and exact."""
    return (list(map(enc, f.breaks)), list(map(enc, f.values)), enc(f.base_value),
            f.den, list(map(enc, f.keys)), f.exact)


def on_its_lattice(f):
    """vnums are the values times vden, and vden covers the base value."""
    if f.vden is None:
        return f.vnums is None
    return ((f.base_value * f.vden).denominator == 1
            and f.vnums == [int(v * f.vden) for v in f.values])


def generic(f, g, op):
    """``zip_with`` on the op path: an op it does not know."""
    return f.zip_with(g, lambda a, b: op(a, b))


def step(breaks, values, base=None):
    return StepFn([F(b) for b in breaks], values, base)


BREAKS_F = [0, F(1, 3), F(1, 2), F(3, 4), 1]
BREAKS_G = [0, F(1, 4), F(1, 2), F(2, 3), 1]
BIG = F(1, 2 ** 200 * 3), F(1, 2 ** 200 * 5)  # lcm within LATTICE_BITS, product past
CASES = {
    "fractions": (step(BREAKS_F, [F(1, 2), F(-2, 3), F(5, 7), F(1)], F(3, 8)),
                  step(BREAKS_G, [F(-1, 5), F(2, 3), F(5, 7), F(0)])),
    "ints": (step(BREAKS_F, [1, -2, 5, 5], 0), step(BREAKS_G, [3, 2, -5, 5])),
    "mixed": (step(BREAKS_F, [1, F(-2, 3), 5, F(5, 2)], 0),
              step(BREAKS_G, [F(3, 4), 2, F(-5, 6), 5])),
    "floats": (step(BREAKS_F, [0.5, -2.25, 5.0, 0.1], 0.0),
               step(BREAKS_G, [0.75, 2.0, -5.5, 0.1])),
    "float_and_fractions": (step(BREAKS_F, [0.5, -2.25, 5.0, 0.1], 0.0),
                            step(BREAKS_G, [F(3, 4), F(2), F(-5, 6), F(1, 10)])),
    "past_the_bound": (step(BREAKS_F, [F(1, 2 ** 300), F(1), F(1, 3), F(1)]),
                       step(BREAKS_G, [F(1, 3), F(1, 2 ** 299), F(1), F(2)])),
    "product_past_the_bound": (step(BREAKS_F, [BIG[0], F(1), 2 * BIG[0], F(1, 7)]),
                               step(BREAKS_G, [BIG[1], F(1, 9), F(1), -BIG[1]])),
    "equal_neighbours": (step(BREAKS_F, [F(1, 2), F(1, 2), F(1, 3), F(1, 3)], F(1, 2)),
                         step(BREAKS_G, [F(1, 4), F(1, 4), F(1, 4), F(5, 12)])),
    "ties": (step(BREAKS_F, [F(1, 2), F(2, 3), F(-1, 3), F(1, 4)], F(1, 5)),
             step(BREAKS_G, [F(1, 2), F(2, 3), F(-1, 3), F(1, 4)], F(1, 5))),
}


@pytest.mark.parametrize("op", sorted(OPS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_int_path_equals_the_op_path(case, op):
    f, g = CASES[case]
    want = generic(f, g, OPS[op])
    for x, y, ref in ((f, g, want), (g, f, generic(g, f, OPS[op]))):
        got = {"add": x + y, "sub": x - y, "mul": x * y, "join": x.join(y),
               "meet": x.meet(y)}[op]
        assert snap(got) == snap(ref)
        assert on_its_lattice(got) and on_its_lattice(ref)
        if op in ("join", "meet"):  # each cell keeps an operand's own object
            assert all(map(is_, got.values, ref.values))
            assert got.base_value is ref.base_value


def test_the_cases_reach_each_path():
    lattices = {case: (f.vden is not None, g.vden is not None)
                for case, (f, g) in CASES.items()}
    assert lattices == {"fractions": (True, True), "ints": (False, False),
                        "mixed": (False, False), "floats": (False, False),
                        "float_and_fractions": (False, True),
                        "past_the_bound": (False, False),
                        "product_past_the_bound": (True, True),
                        "equal_neighbours": (True, True), "ties": (True, True)}
    f, g = CASES["product_past_the_bound"]
    assert lcm(f.vden, g.vden).bit_length() <= LATTICE_BITS < (f.vden * g.vden).bit_length()
    assert (f * g).vden is None and (f + g).vden is not None
    f, g = CASES["equal_neighbours"]
    assert len(f.merged().values) == 2 and len((f + g).values) < 5
    f, g = CASES["ties"]
    assert f.join(g).values[0] is f.values[0] and g.meet(f).values[0] is g.values[0]


@pytest.mark.parametrize("seed", range(4))
def test_int_path_equals_the_op_path_on_random_steps(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        f, g = random_stepfn(rng, max_cells=12), random_stepfn(rng, max_cells=12)
        for op in OPS.values():
            got, want = f.zip_with(g, op), generic(f, g, op)
            assert snap(got) == snap(want) and on_its_lattice(got)
            if op in (max, min):
                assert all(map(is_, got.values, want.values))


def test_structural_outputs_keep_their_lattice():
    f = large_step(5, 300, spread=2, base=F(1, 9))
    lo, hi = f.breaks[17], F(2, 3)
    for out in (f.merged(), f.restrict(lo, hi), f.restrict(F(1, 7), f.breaks[-3]),
                f.refined([F(1, 11), F(1, 2)]), f.abs(), 3 * f):
        assert out.vden is not None and on_its_lattice(out)


def test_sums_off_the_value_lattice_keep_the_types_of_their_data():
    ints, mixed = StepFn([0, 1, 3], [2, -1], 0), StepFn([0, 1, 3], [2, F(-1, 2)], 0)
    floats = StepFn([0, 1, 3], [2.0, -0.5], 0.0)
    assert (ints.vden, mixed.vden, floats.vden) == (None, None, None)
    for f, kinds in ((ints, (int, int, Fraction, int)), (mixed, (Fraction,) * 4),
                     (floats, (float,) * 4)):  # the Alexiewicz norm starts at Fraction(0)
        sums = (f.integral(), f.l1_norm(), f.alexiewicz_norm(), f.variation())
        assert tuple(map(type, sums)) == kinds
    assert (ints.integral(), mixed.integral(), floats.integral()) == (0, 1, 1.0)
    assert (ints.variation(), mixed.variation(), floats.variation()) == (5, F(9, 2), 4.5)
