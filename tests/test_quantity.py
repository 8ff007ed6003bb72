"""Interval quantity arithmetic and JSON mapping."""

import pytest

from carbonrag.quantity import Quantity


class TestConstruction:
    def test_point_has_equal_bounds(self):
        q = Quantity.point(3.5)
        assert q.lower == q.upper == 3.5
        assert q.is_point

    def test_range_keeps_bounds(self):
        q = Quantity.range(2.0, 5.0)
        assert (q.lower, q.upper) == (2.0, 5.0)
        assert not q.is_point

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError, match="exceeds upper"):
            Quantity(5.0, 2.0)

    def test_nonfinite_bounds_rejected(self):
        with pytest.raises(ValueError):
            Quantity(float("nan"), 1.0)
        with pytest.raises(ValueError):
            Quantity(0.0, float("inf"))


class TestArithmetic:
    def test_addition_is_boundwise(self):
        total = Quantity.range(1.0, 2.0) + Quantity.range(10.0, 20.0)
        assert (total.lower, total.upper) == (11.0, 22.0)

    def test_point_plus_point_is_point(self):
        assert (Quantity.point(1.5) + Quantity.point(2.5)).is_point

    def test_scale_multiplies_both_bounds(self):
        q = Quantity.range(9.0, 11.0).scale(0.5)
        assert (q.lower, q.upper) == (4.5, 5.5)

    def test_scale_rejects_negative_factor(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Quantity.point(1.0).scale(-2.0)


class TestJsonMapping:
    def test_point_maps_to_scalar(self):
        assert Quantity.point(13.5).as_json_value() == 13.5

    def test_range_maps_to_bounds_object(self):
        assert Quantity.range(1.0, 2.0).as_json_value() == {"lower": 1.0, "upper": 2.0}

    def test_scalar_round_trip(self):
        q = Quantity.from_json_value(13.5)
        assert q == Quantity.point(13.5)

    def test_range_round_trip(self):
        q = Quantity.from_json_value({"lower": 12500, "upper": 14000})
        assert (q.lower, q.upper) == (12500.0, 14000.0)

    def test_bool_is_not_a_quantity(self):
        with pytest.raises(ValueError):
            Quantity.from_json_value(True)
        with pytest.raises(ValueError):
            Quantity.from_json_value({"lower": False, "upper": 1})

    def test_range_object_must_have_exactly_lower_upper(self):
        with pytest.raises(ValueError):
            Quantity.from_json_value({"lower": 1})
        with pytest.raises(ValueError):
            Quantity.from_json_value({"lower": 1, "upper": 2, "unit": "kg"})

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError, match="exceeds upper"):
            Quantity.from_json_value({"lower": 5, "upper": 2})

    def test_integer_beyond_the_float_range_rejected(self):
        for obj in (10**400, {"lower": 0, "upper": 10**400}):
            with pytest.raises(ValueError, match="^quantity bounds must be finite$"):
                Quantity.from_json_value(obj)

    def test_string_rejected(self):
        with pytest.raises(ValueError):
            Quantity.from_json_value("12")


class TestFormatting:
    def test_point_str(self):
        assert str(Quantity.point(4.5)) == "4.5"

    def test_range_str(self):
        assert str(Quantity.range(4.5, 5.5)) == "[4.5, 5.5]"
