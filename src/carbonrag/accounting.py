"""Rule-based carbon accounting: inventory times emission factors.

The calculation is deliberately plain: convert each inventory quantity to
the factor's canonical unit, multiply, and sum. Ranges propagate bound-wise,
which is sound because factors are nonnegative. Missing factors abort the
whole computation; a silent zero would understate the footprint, and that is
the costlier mistake.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from ._files import write_file
from .errors import AccountingError, FormatError, UnitError
from .quantity import Quantity

FACTOR_CSV_HEADER = ["activity", "factor_kgco2e", "canonical_unit", "source_note"]


class LifecycleStage(enum.Enum):
    RAW_MATERIAL = "raw_material"
    MANUFACTURING = "manufacturing"
    DISTRIBUTION = "distribution"
    USE = "use"
    END_OF_LIFE = "end_of_life"


class Scope(enum.Enum):
    CRADLE_TO_GATE = "cradle_to_gate"
    CRADLE_TO_GRAVE = "cradle_to_grave"


_GATE_STAGES = frozenset(
    {LifecycleStage.RAW_MATERIAL, LifecycleStage.MANUFACTURING, LifecycleStage.DISTRIBUTION}
)


# Each unit's dimension and its scale to that dimension's base unit;
# converting within a dimension multiplies by the ratio of the scales.
_UNITS = {
    "kWh": ("energy", 1.0),
    "MWh": ("energy", 1000.0),
    "GJ": ("energy", 1000.0 / 3.6),
    "kg": ("mass", 1.0),
    "t": ("mass", 1000.0),
    "g": ("mass", 0.001),
    "L": ("volume", 1.0),
    "m3": ("volume", 1000.0),
    "km": ("distance", 1.0),
    "piece": ("count", 1.0),
}
_ALIASES = {
    "m³": "m3",
    "l": "L",
    "litre": "L",
    "liter": "L",
    "tonne": "t",
    "ton": "t",
    "kwh": "kWh",
    "mwh": "MWh",
    "pieces": "piece",
    "pc": "piece",
}


def convert_unit(quantity: Quantity, from_unit: str, to_unit: str) -> Quantity:
    """Convert a quantity between units of the same dimension, bound-wise.

    Identical unit strings convert as the identity even when the unit is
    unknown, so free-form units (percentages, ratios, temperatures) pass
    through untouched as long as both sides agree; the identity returns
    ``quantity`` itself.
    """
    src, dst = (_ALIASES.get(unit.strip(), unit.strip()) for unit in (from_unit, to_unit))
    factor = 1.0
    if src != dst:
        if src not in _UNITS:
            raise UnitError(f"unknown unit {from_unit!r} (converting to {to_unit!r})")
        if dst not in _UNITS:
            raise UnitError(f"unknown unit {to_unit!r} (converting from {from_unit!r})")
        (src_dim, src_scale), (dst_dim, dst_scale) = _UNITS[src], _UNITS[dst]
        if src_dim != dst_dim:
            raise UnitError(
                f"units {from_unit!r} ({src_dim}) and {to_unit!r} ({dst_dim}) "
                "measure different dimensions"
            )
        factor = src_scale / dst_scale
    if factor == 1.0:
        return quantity
    return Quantity(quantity.lower * factor, quantity.upper * factor)


@dataclass(frozen=True)
class InventoryItem:
    activity: str
    quantity: Quantity
    unit: str
    lifecycle_stage: LifecycleStage = LifecycleStage.RAW_MATERIAL

    def __post_init__(self):
        if self.quantity.lower < 0:
            raise ValueError(
                f"inventory quantity for {self.activity!r} must be nonnegative, "
                f"got {self.quantity}"
            )


@dataclass(frozen=True)
class EmissionFactor:
    activity: str
    factor: float
    canonical_unit: str

    def __post_init__(self):
        if not math.isfinite(self.factor) or self.factor < 0:
            raise ValueError(
                f"emission factor for {self.activity!r} must be finite and nonnegative, "
                f"got {self.factor}"
            )


class EmissionFactorDb:
    """One emission factor per activity, loadable from a versioned CSV."""

    def __init__(self, factors: Iterable[EmissionFactor] = ()):
        self._factors: dict[str, EmissionFactor] = {}
        for f in factors:
            self.add(f)

    def add(self, factor: EmissionFactor) -> None:
        if factor.activity in self._factors:
            raise FormatError(f"duplicate emission factor for activity {factor.activity!r}")
        self._factors[factor.activity] = factor

    def get(self, activity: str) -> EmissionFactor | None:
        return self._factors.get(activity)

    def __contains__(self, activity: str) -> bool:
        return activity in self._factors

    @classmethod
    def from_csv(cls, path: str | Path) -> "EmissionFactorDb":
        path = Path(path)
        try:
            rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise FormatError(f"cannot read factor database {path}: {exc}") from None
        if not rows or rows[0] != FACTOR_CSV_HEADER:
            raise FormatError(
                f"factor database {path} must start with header "
                f"{','.join(FACTOR_CSV_HEADER)!r}"
            )
        db = cls()
        for lineno, row in enumerate(rows[1:], start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 4:
                raise FormatError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
            # The fourth column, source_note, is for people reading the file.
            activity, factor_text, unit = (cell.strip() for cell in row[:3])
            try:
                factor = float(factor_text)
            except ValueError:
                raise FormatError(
                    f"{path}:{lineno}: factor {factor_text!r} is not a number"
                ) from None
            try:
                db.add(EmissionFactor(activity, factor, unit))
            except (ValueError, FormatError) as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
        return db


@dataclass(frozen=True)
class ItemContribution:
    activity: str
    contribution: Quantity
    lifecycle_stage: LifecycleStage


@dataclass(frozen=True)
class FootprintResult:
    total: Quantity
    per_item: tuple[ItemContribution, ...]
    functional_unit: str
    scope: Scope

    def to_json_obj(self) -> dict:
        return {
            "total_kgco2e": self.total.as_json_value(),
            "functional_unit": self.functional_unit,
            "scope": self.scope.value,
            "per_item": [
                {
                    "activity": c.activity,
                    "contribution_kgco2e": c.contribution.as_json_value(),
                    "lifecycle_stage": c.lifecycle_stage.value,
                }
                for c in self.per_item
            ],
        }

    def write_csv(self, path: str | Path) -> None:
        def write(fh):
            writer = csv.writer(fh)
            writer.writerow(
                ["activity", "lifecycle_stage", "contribution_lower_kgco2e", "contribution_upper_kgco2e"]
            )
            for c in self.per_item:
                writer.writerow(
                    [
                        c.activity,
                        c.lifecycle_stage.value,
                        repr(c.contribution.lower),
                        repr(c.contribution.upper),
                    ]
                )
            writer.writerow(["TOTAL", self.scope.value, repr(self.total.lower), repr(self.total.upper)])
        write_file(path, "footprint CSV", write)


def check_inventory(
    stages: Iterable[tuple[str, LifecycleStage]],
    factors: EmissionFactorDb,
    scope: Scope = Scope.CRADLE_TO_GATE,
) -> None:
    """Refuse an inventory, as (activity, stage) pairs, that cannot be priced.

    Every activity needs a factor; any that lack one are named in full,
    never priced as a partial total. A cradle-to-gate scope admits no use or
    end-of-life item.
    """
    stages = list(stages)
    missing = sorted({activity for activity, _ in stages if activity not in factors})
    if missing:
        raise AccountingError(
            "no emission factor for: " + ", ".join(missing),
            missing_activities=missing,
        )
    if scope is Scope.CRADLE_TO_GATE:
        out_of_scope = sorted({activity for activity, stage in stages if stage not in _GATE_STAGES})
        if out_of_scope:
            raise AccountingError(
                "cradle-to-gate scope excludes use/end-of-life items: "
                + ", ".join(out_of_scope)
            )


def compute_footprint(
    items: Sequence[InventoryItem],
    factors: EmissionFactorDb,
    scope: Scope = Scope.CRADLE_TO_GATE,
    functional_unit: str = "unit",
) -> FootprintResult:
    """Aggregate inventory items into a footprint with interval propagation.

    ``check_inventory`` runs first, so an item without a factor or outside
    the scope aborts the whole run, never yielding a partial total.
    """
    check_inventory(((i.activity, i.lifecycle_stage) for i in items), factors, scope)

    contributions: list[ItemContribution] = []
    total = Quantity.point(0.0)
    for item in items:
        factor = factors.get(item.activity)
        assert factor is not None
        try:
            converted = convert_unit(item.quantity, item.unit, factor.canonical_unit)
            contribution = converted.scale(factor.factor)
            total = total + contribution
        except ValueError as exc:  # a bound overflowed to infinity
            raise AccountingError(f"footprint of {item.activity!r} overflows: {exc}") from None
        contributions.append(
            ItemContribution(item.activity, contribution, item.lifecycle_stage)
        )
    return FootprintResult(
        total=total,
        per_item=tuple(contributions),
        functional_unit=functional_unit,
        scope=scope,
    )
