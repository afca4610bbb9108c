"""Real intervals with extended endpoints."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Interval:
    """An interval with extended-real endpoints.

    An unbounded endpoint is never closed; ``lo < hi`` always holds.
    """

    lo: object
    hi: object
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        if not lo < hi:
            raise DomainError(
                f"interval endpoints must satisfy lo < hi, not {self.lo}, {self.hi}")
        if math.isinf(lo):
            object.__setattr__(self, "lo_closed", False)
        if math.isinf(hi):
            object.__setattr__(self, "hi_closed", False)

    @property
    def is_compact(self) -> bool:
        return (
            self.lo_closed
            and self.hi_closed
            and not math.isinf(float(self.lo))
            and not math.isinf(float(self.hi))
        )

    def contains(self, t) -> bool:
        lo, hi, t = float(self.lo), float(self.hi), float(t)
        if t < lo or t > hi:
            return False
        if t == lo and not self.lo_closed:
            return False
        if t == hi and not self.hi_closed:
            return False
        return True

    def clamp(self, other: "Interval") -> "Interval":
        """Intersection, assuming the result is nonempty."""
        lo = max(self.lo, other.lo, key=float)
        hi = min(self.hi, other.hi, key=float)
        lo_closed = self.contains(lo) and other.contains(lo)
        hi_closed = self.contains(hi) and other.contains(hi)
        return Interval(lo, hi, lo_closed, hi_closed)

    def __repr__(self):
        l = "[" if self.lo_closed else "("
        r = "]" if self.hi_closed else ")"
        return f"{l}{self.lo}, {self.hi}{r}"


def compact(lo, hi) -> Interval:
    return Interval(Fraction(lo) if not isinstance(lo, float) else lo,
                    Fraction(hi) if not isinstance(hi, float) else hi)


class DomainError(ValueError):
    """A point or subinterval falls outside a function's domain."""
