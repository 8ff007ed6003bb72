"""Closed-interval quantities.

A point value is represented as the degenerate interval ``[v, v]`` so the
rest of the pipeline (extraction, accounting, metrics) can treat points
and ranges uniformly. Bounds are inclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Quantity:
    lower: float
    upper: float

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("quantity bounds must be finite")
        if self.lower > self.upper:
            raise ValueError(
                f"lower bound {self.lower} exceeds upper bound {self.upper}"
            )

    @classmethod
    def point(cls, value: float) -> "Quantity":
        return cls(float(value), float(value))

    @classmethod
    def range(cls, lower: float, upper: float) -> "Quantity":
        return cls(float(lower), float(upper))

    @property
    def is_point(self) -> bool:
        return self.lower == self.upper

    def __add__(self, other: "Quantity") -> "Quantity":
        if not isinstance(other, Quantity):
            return NotImplemented
        return Quantity(self.lower + other.lower, self.upper + other.upper)

    def scale(self, factor: float) -> "Quantity":
        """Multiply both bounds by a nonnegative factor."""
        if factor < 0:
            raise ValueError(f"scale factor must be nonnegative, got {factor}")
        return Quantity(self.lower * factor, self.upper * factor)

    def as_json_value(self):
        """Scalar for points, ``{"lower", "upper"}`` for proper ranges."""
        if self.is_point:
            return self.lower
        return {"lower": self.lower, "upper": self.upper}

    @classmethod
    def from_json_value(cls, obj) -> "Quantity":
        if isinstance(obj, bool):
            raise ValueError("boolean is not a quantity")
        if isinstance(obj, (int, float)):
            lower = upper = obj
        elif isinstance(obj, dict):
            if set(obj) != {"lower", "upper"}:
                raise ValueError(f"range object must have exactly lower/upper, got {sorted(obj)}")
            lower, upper = obj["lower"], obj["upper"]
            for bound in (lower, upper):
                if isinstance(bound, bool) or not isinstance(bound, (int, float)):
                    raise ValueError("range bounds must be numbers")
        else:
            raise ValueError(f"cannot interpret {obj!r} as a quantity")
        try:
            return cls.range(lower, upper)
        except OverflowError:  # an integer beyond the float range
            raise ValueError("quantity bounds must be finite") from None

    def __str__(self) -> str:
        if self.is_point:
            return f"{self.lower:g}"
        return f"[{self.lower:g}, {self.upper:g}]"
