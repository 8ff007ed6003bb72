"""Unit conversion, factor databases, and footprint aggregation."""

import csv
import json

import pytest

from carbonrag._json import write_json
from carbonrag.accounting import (
    EmissionFactor,
    EmissionFactorDb,
    FootprintResult,
    InventoryItem,
    LifecycleStage,
    Scope,
    compute_footprint,
    convert_unit,
)
from carbonrag.errors import AccountingError, FormatError, UnitError
from carbonrag.quantity import Quantity

FACTOR_CSV_HEADER = "activity,factor_kgco2e,canonical_unit,source_note"


def _convert(value, from_unit, to_unit):
    """The converted point value."""
    converted = convert_unit(Quantity.point(value), from_unit, to_unit)
    assert converted.is_point
    return converted.lower


class TestUnitConversion:
    def test_energy_conversions(self):
        assert _convert(5, "MWh", "kWh") == 5000.0
        assert _convert(3.6, "GJ", "kWh") == pytest.approx(1000.0)

    def test_mass_conversions(self):
        assert _convert(2, "t", "kg") == 2000.0
        assert _convert(500, "g", "kg") == 0.5

    def test_aliases_resolve_before_converting(self):
        assert _convert(1, "tonne", "kg") == 1000.0
        assert _convert(1, "kwh", "kWh") == 1.0
        assert _convert(2, "m³", "L") == 2000.0
        assert _convert(1, "litre", "L") == 1.0

    def test_round_trip_is_stable(self):
        there = _convert(13500.0, "kWh", "MWh")
        assert _convert(there, "MWh", "kWh") == pytest.approx(13500.0, rel=1e-12)

    def test_quantities_convert_bound_wise(self):
        q = convert_unit(Quantity.range(1.0, 2.0), "t", "kg")
        assert q == Quantity.range(1000.0, 2000.0)

    def test_identity_conversion_returns_the_same_quantity(self):
        q = Quantity.point(4.0)
        assert convert_unit(q, "kWh", "kWh") is q

    def test_matching_strings_pass_through_even_when_unknown(self):
        assert _convert(94.0, "%", "%") == 94.0
        assert _convert(960.0, "C", "C") == 960.0

    def test_cross_dimension_conversion_names_both_units(self):
        with pytest.raises(UnitError, match="kWh.*kg|kg.*kWh"):
            _convert(1, "kWh", "kg")

    def test_unknown_unit_is_an_error(self):
        with pytest.raises(UnitError, match="furlong"):
            _convert(1, "furlong", "km")

    def test_unknown_target_unit_is_an_error(self):
        with pytest.raises(UnitError, match=r"^unknown unit 'furlong' \(converting from 'km'\)$"):
            _convert(1, "km", "furlong")


class TestInventoryValidation:
    def test_negative_quantity_rejected(self):
        with pytest.raises(AccountingError, match=r"^inventory quantity for 'electricity'"):
            InventoryItem("electricity", Quantity.point(-1.0), "kWh")

    def test_negative_factor_rejected(self):
        for factor in (-0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                EmissionFactor("electricity", factor, "kWh")

    def test_default_stage_is_raw_material(self):
        item = InventoryItem("electricity", Quantity.point(1.0), "kWh")
        assert item.lifecycle_stage is LifecycleStage.RAW_MATERIAL


class TestFactorDb:
    def test_duplicate_activity_rejected(self):
        db = EmissionFactorDb([EmissionFactor("electricity", 0.5, "kWh")])
        with pytest.raises(FormatError, match="duplicate"):
            db.add(EmissionFactor("electricity", 0.6, "kWh"))

    def test_lookup_and_membership(self):
        db = EmissionFactorDb([EmissionFactor("alumina", 1.5, "kg")])
        assert "alumina" in db
        assert db.get("alumina").factor == 1.5
        assert db.get("nothing") is None

    def test_from_csv_happy_path(self, tmp_path):
        path = tmp_path / "factors.csv"
        path.write_text(
            FACTOR_CSV_HEADER + "\nelectricity,0.5,kWh,grid average\n\n",
            encoding="utf-8",
        )
        db = EmissionFactorDb.from_csv(path)
        assert "electricity" in db and "" not in db
        assert db.get("electricity") == EmissionFactor("electricity", 0.5, "kWh")

    def test_from_csv_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "factors.csv"
        path.write_text("a,b,c,d\nelectricity,0.5,kWh,x\n", encoding="utf-8")
        with pytest.raises(FormatError, match="header"):
            EmissionFactorDb.from_csv(path)

    def test_from_csv_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "factors.csv"
        path.write_text(FACTOR_CSV_HEADER + "\nelectricity,0.5,kWh\n", encoding="utf-8")
        with pytest.raises(FormatError, match=":2:"):
            EmissionFactorDb.from_csv(path)
        path.write_text(FACTOR_CSV_HEADER + "\nelectricity,cheap,kWh,x\n", encoding="utf-8")
        with pytest.raises(FormatError, match=":2:.*cheap"):
            EmissionFactorDb.from_csv(path)
        path.write_text(FACTOR_CSV_HEADER + "\nelectricity,-1,kWh,x\n", encoding="utf-8")
        with pytest.raises(FormatError, match=":2:"):
            EmissionFactorDb.from_csv(path)

        path.write_text(FACTOR_CSV_HEADER + '\nelectricity,0.5,kWh,"a\nb"\nsteel,x,kg,y\n', encoding="utf-8")
        with pytest.raises(FormatError, match=":4:.*'x'"):
            EmissionFactorDb.from_csv(path)

    @pytest.mark.parametrize("brk", list("\u2028\u2029\x85\x0b\x0c\x1c\x1d\x1e"))
    @pytest.mark.parametrize("quoted", [False, True], ids=["unquoted", "quoted"])
    def test_a_unicode_line_break_in_a_note_stays_in_its_row(self, tmp_path, brk, quoted):
        note = f'"a{brk}b"' if quoted else f"a{brk}b"
        path = tmp_path / "factors.csv"
        path.write_text(f"{FACTOR_CSV_HEADER}\nelectricity,0.5,kWh,{note}\nsteel,2,kg,x\n", encoding="utf-8")
        db = EmissionFactorDb.from_csv(path)
        assert db.get("electricity") == EmissionFactor("electricity", 0.5, "kWh")
        assert db.get("steel") == EmissionFactor("steel", 2.0, "kg")


_DB = EmissionFactorDb(
    [
        EmissionFactor("electricity", 0.5, "kWh"),
        EmissionFactor("alumina", 2.0, "kg"),
        EmissionFactor("transport", 0.125, "km"),
        EmissionFactor("disposal", 1.0, "kg"),
    ]
)


def _item(activity, value, unit, stage=LifecycleStage.RAW_MATERIAL):
    q = value if isinstance(value, Quantity) else Quantity.point(value)
    return InventoryItem(activity, q, unit, stage)


class TestComputeFootprint:
    def test_hand_checked_total(self):
        # electricity 8 kWh * 0.5 + alumina 3.2 kg * 2.0 = 4.0 + 6.4
        result = compute_footprint(
            [_item("electricity", 8.0, "kWh"), _item("alumina", 3.2, "kg")], _DB
        )
        assert result.total.is_point
        assert result.total.lower == pytest.approx(10.4, rel=1e-12)
        assert [c.activity for c in result.per_item] == ["electricity", "alumina"]

    def test_quantities_convert_to_the_factor_unit(self):
        result = compute_footprint([_item("electricity", 1.0, "MWh")], _DB)
        assert result.total == Quantity.point(500.0)

    def test_ranges_propagate_bound_wise(self):
        result = compute_footprint(
            [_item("electricity", Quantity.range(9.0, 11.0), "kWh")], _DB
        )
        assert result.total == Quantity.range(4.5, 5.5)

    def test_empty_inventory_is_zero(self):
        result = compute_footprint([], _DB)
        assert result.total == Quantity.point(0.0)
        assert result.per_item == ()

    def test_missing_factors_abort_with_the_full_list(self):
        items = [
            _item("electricity", 1.0, "kWh"),
            _item("mystery_a", 1.0, "kg"),
            _item("mystery_b", 1.0, "kg"),
        ]
        with pytest.raises(AccountingError) as err:
            compute_footprint(items, _DB)
        assert err.value.missing_activities == ["mystery_a", "mystery_b"]

    def test_gate_scope_rejects_use_and_disposal_items(self):
        items = [_item("disposal", 1.0, "kg", LifecycleStage.END_OF_LIFE)]
        with pytest.raises(AccountingError, match="cradle-to-gate"):
            compute_footprint(items, _DB, scope=Scope.CRADLE_TO_GATE)

    def test_grave_scope_accepts_the_whole_lifecycle(self):
        items = [
            _item("electricity", 2.0, "kWh", LifecycleStage.MANUFACTURING),
            _item("disposal", 3.0, "kg", LifecycleStage.END_OF_LIFE),
        ]
        result = compute_footprint(items, _DB, scope=Scope.CRADLE_TO_GRAVE)
        assert result.total == Quantity.point(4.0)

    def test_additivity_over_inventories(self):
        a = [_item("electricity", 4.0, "kWh")]
        b = [_item("alumina", 3.0, "kg"), _item("transport", 8.0, "km")]
        combined = compute_footprint(a + b, _DB).total
        split = compute_footprint(a, _DB).total + compute_footprint(b, _DB).total
        assert combined.lower == pytest.approx(split.lower, rel=1e-12)
        assert combined.upper == pytest.approx(split.upper, rel=1e-12)

    def test_homogeneity_under_scaling(self):
        items = [_item("electricity", 4.0, "kWh"), _item("alumina", 3.0, "kg")]
        scaled = [
            InventoryItem(i.activity, i.quantity.scale(2.5), i.unit, i.lifecycle_stage)
            for i in items
        ]
        base = compute_footprint(items, _DB).total
        doubled = compute_footprint(scaled, _DB).total
        assert doubled.lower == pytest.approx(2.5 * base.lower, rel=1e-12)
        assert doubled.upper == pytest.approx(2.5 * base.upper, rel=1e-12)

    def test_point_inventory_lies_inside_its_own_range(self):
        ranged = [_item("electricity", Quantity.range(9.0, 11.0), "kWh")]
        pointed = [_item("electricity", 10.0, "kWh")]
        wide = compute_footprint(ranged, _DB).total
        mid = compute_footprint(pointed, _DB).total
        assert wide.lower <= mid.lower and mid.upper <= wide.upper


class TestFootprintReports:
    def _result(self):
        return compute_footprint(
            [
                _item("electricity", Quantity.range(9.0, 11.0), "kWh"),
                _item("alumina", 2.0, "kg", LifecycleStage.MANUFACTURING),
            ],
            _DB,
            functional_unit="1 t aluminum ingot",
        )

    def test_json_report_round_trips(self, tmp_path):
        path = tmp_path / "footprint.json"
        write_json(path, "footprint", self._result().to_json_obj())
        obj = json.loads(path.read_text(encoding="utf-8"))
        assert obj["total_kgco2e"] == {"lower": 8.5, "upper": 9.5}
        assert obj["functional_unit"] == "1 t aluminum ingot"
        assert obj["scope"] == "cradle_to_gate"
        assert obj["per_item"][1] == {
            "activity": "alumina",
            "contribution_kgco2e": 4.0,
            "lifecycle_stage": "manufacturing",
        }

    def test_csv_report_lists_items_then_total(self, tmp_path):
        path = tmp_path / "footprint.csv"
        self._result().write_csv(path)
        rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
        assert rows[0] == [
            "activity",
            "lifecycle_stage",
            "contribution_lower_kgco2e",
            "contribution_upper_kgco2e",
        ]
        assert rows[1][0] == "electricity"
        assert rows[-1][0] == "TOTAL"
        assert float(rows[-1][2]) == 8.5

    def test_result_type_is_reusable(self):
        result = self._result()
        assert isinstance(result, FootprintResult)
        assert result.scope is Scope.CRADLE_TO_GATE
