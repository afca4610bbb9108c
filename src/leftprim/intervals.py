"""Real intervals with extended endpoints."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Interval:
    """The closed interval ``[lo, hi]``, ``lo < hi``; an infinite endpoint
    (shown open) makes it non-compact."""

    lo: object
    hi: object

    def __post_init__(self):
        if not float(self.lo) < float(self.hi):
            raise DomainError(
                f"interval endpoints must satisfy lo < hi, not {self.lo}, {self.hi}")

    @property
    def is_compact(self) -> bool:
        return math.isfinite(float(self.lo)) and math.isfinite(float(self.hi))

    def contains(self, t) -> bool:
        return float(self.lo) <= float(t) <= float(self.hi)

    def __repr__(self):
        l = "(" if math.isinf(float(self.lo)) else "["
        r = ")" if math.isinf(float(self.hi)) else "]"
        return f"{l}{self.lo}, {self.hi}{r}"


class DomainError(ValueError):
    """A point or subinterval falls outside a function's domain."""
