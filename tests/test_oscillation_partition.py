"""``oscillation_partition`` pinned bit for bit, its first-probe index against
a binary search of the probe lattice, and its cell cap."""

import hashlib

import numpy as np
import pytest

from leftprim import builders as B
from leftprim import funcspace as FS
from leftprim.quadrature import EstimationError

# (family, m, n) -> blake2b-64 of the float64 bytes of cuts, values and
# residual.  The first four are the slowest stepapprox slots of the approx
# bench; E407_Gm(m=2) at n = 64 is the one case with a non-empty residual
# (10 cells at the width floor).
# Recorded with numpy 2.4 on x86-64; the sin/cos kernels of another numpy
# build may round differently and move them.
EMPTY = "e4a6a0577479b2b4"  # no residual cells
PINNED = {
    ("E47_G", 4, 512): ("6194a2a07812ed22", "49f657ae936354d9", EMPTY),
    ("E47_G", 3, 240): ("30c9d7903afb7d15", "23655475c8b1b9ba", EMPTY),
    ("E409_Gm", 2, 113): ("26af0d452543c719", "314319d24c17891f", EMPTY),
    ("E47_G", 2, 53): ("862c7ab103f18f3f", "27f76139154cde79", EMPTY),
    ("E407_Gm", 2, 64): ("2caebccee7a7c1d0", "bdf0d0ed1f187388", "14311c86270dc38a"),
    ("E48_F", 3, 165): ("5e2849796721f118", "3c375299f0f2399a", EMPTY),
    ("E611_F", 5, 77): ("7995a0649104dc14", "6eb0c2a698d59803", EMPTY),
    ("E408_Fm", 2, 36): ("9cb90a66254472f6", "8677bb44a99d72c1", EMPTY),
    ("E600_Fm", 2, 17): ("5f06b04a321f74e9", "2fcb82855594d4b9", EMPTY),
}


def _digests(part):
    residual = np.asarray(part.residual, dtype=float).reshape(-1, 2)
    return tuple(hashlib.blake2b(np.asarray(a, dtype=float).tobytes(),
                                 digest_size=8).hexdigest()
                 for a in (part.cuts, part.values, residual))


@pytest.mark.parametrize("name, m, n", sorted(PINNED))
def test_partition_is_pinned_bit_for_bit(name, m, n):
    f = B.build_function(name, m=m)
    part = FS.oscillation_partition(f, n, f.interval)
    assert _digests(part) == PINNED[name, m, n]
    assert (len(part.residual) > 0) == ((name, m, n) == ("E407_Gm", 2, 64))


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-0.25, 0.25), (1 / 3, 7 / 5)])
def test_first_probe_equals_a_binary_search_of_the_lattice(lo, hi):
    grid = np.linspace(lo, hi, FS._PROBES + 1)
    rng = np.random.default_rng(24)
    us = np.concatenate([grid, np.nextafter(grid, -np.inf),
                         np.nextafter(grid, np.inf), [lo, hi],
                         rng.uniform(lo, hi, 100_000)])
    k = FS._first_probe(grid, us)
    assert k.dtype == np.intp
    np.testing.assert_array_equal(k, np.searchsorted(grid, us, side="right"))


def test_the_cell_cap_raises(monkeypatch):
    monkeypatch.setattr(FS, "_MAX_CELLS", 1000)
    f = B.build_function("E47_G", m=3)  # 13,603 cells at n = 16
    with pytest.raises(EstimationError, match="exceeded 1000 cells at n=16"):
        FS.oscillation_partition(f, 16, f.interval)
