from datetime import datetime, timezone

import pytest

from geocausal.errors import InvariantViolation, OrderViolation, ParseError
from geocausal.model import (
    BBox,
    GeoEvent,
    GeoObject,
    GeoSituation,
    Measurement,
    Point,
    SpatioTemporalRegion,
    format_timestamp,
    interval_envelope,
    make_interval,
    parse_timestamp,
)

from support import iv, q


class TestTimestamps:
    def test_z_suffix(self):
        dt = parse_timestamp("2005-08-23T00:00:00Z")
        assert dt == datetime(2005, 8, 23, tzinfo=timezone.utc)

    def test_offset_normalized_to_utc(self):
        dt = parse_timestamp("2005-08-23T01:30:00-05:00")
        assert format_timestamp(dt) == "2005-08-23T06:30:00Z"

    def test_date_only_is_midnight_utc(self):
        assert format_timestamp(parse_timestamp("2005-09-01")) == "2005-09-01T00:00:00Z"

    def test_naive_treated_as_utc(self):
        assert format_timestamp(parse_timestamp("2005-08-23 12:00:00")) == "2005-08-23T12:00:00Z"

    def test_subsecond_truncated(self):
        assert format_timestamp(parse_timestamp("2005-08-23T12:00:00.75Z")) == "2005-08-23T12:00:00Z"

    @pytest.mark.parametrize(
        "bad",
        ["not-a-date", "2005-13-01", "2005-08-23T25:00:00Z", "",
         "0001-01-01T00:00:00+05:00", "9999-12-31T23:00:00-05:00"],
    )
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_timestamp(bad)


class TestMakeInterval:
    def test_valid(self):
        interval = make_interval("2005-08-23T00:00:00Z", "2005-08-31T00:00:00Z")
        assert interval.start < interval.end

    def test_point_interval(self):
        interval = make_interval("2005-08-23T00:00:00Z", "2005-08-23T00:00:00Z")
        assert interval.is_instant()

    def test_order_violation(self):
        with pytest.raises(OrderViolation):
            make_interval("2005-09-01", "2005-08-01")

    def test_envelope(self):
        env = interval_envelope([iv(2, 5), iv(0, 3), iv(4, 9)])
        assert env == iv(0, 9)


class TestGeometry:
    def test_point_range_checks(self):
        Point(90, 180)
        with pytest.raises(InvariantViolation):
            Point(91, 0)
        with pytest.raises(InvariantViolation):
            Point(0, -181)

    def test_bbox_corner_order(self):
        BBox(29, -91, 31, -89)
        with pytest.raises(InvariantViolation):
            BBox(31, -91, 29, -89)


class TestEntities:
    def test_entity_id_rules(self):
        with pytest.raises(InvariantViolation):
            GeoEvent("", "Hurricane")
        with pytest.raises(InvariantViolation):
            GeoEvent("ev: katrina", "Hurricane")
        with pytest.raises(InvariantViolation):
            GeoEvent("ev:\x01", "Hurricane")

    def test_lone_surrogates_rejected(self):
        # They cannot be encoded as UTF-8, so a workspace holding one would not save.
        for bad in ("ev:\ud800", "ev:\udcff", "\udfff"):
            with pytest.raises(InvariantViolation):
                GeoEvent(bad, "Hurricane")
            with pytest.raises(InvariantViolation):
                GeoEvent("ev:x", bad)
        assert GeoEvent("ev:\ud7ff\ue000", "Hurricane").id == "ev:\ud7ff\ue000"

    def test_kind_required(self):
        with pytest.raises(InvariantViolation):
            GeoEvent("ev:x", "")
        with pytest.raises(InvariantViolation):
            GeoObject("obj:x", "two words")

    def test_duplicate_attribute_names_rejected(self):
        with pytest.raises(InvariantViolation):
            GeoObject("obj:x", "Dam", (Measurement("A", q(1, "m")), Measurement("A", q(2, "m"))))
        with pytest.raises(InvariantViolation):
            GeoSituation(
                "sit:x", iv(0, 1), (Measurement("A", q(1, "m")), Measurement("A", q(2, "m")))
            )

    def test_attributes_sorted_canonically(self):
        obj = GeoObject(
            "obj:x", "Dam", (Measurement("B", q(2, "m")), Measurement("A", q(1, "m")))
        )
        assert [m.attribute for m in obj.attributes] == ["A", "B"]
        assert obj.attribute("B") == q(2, "m")
        assert obj.attribute("missing") is None

    def test_situation_lookup(self):
        situation = GeoSituation("sit:x", iv(0, 2), (Measurement("WaterLevel", q(12, "m")),))
        assert situation.observation("WaterLevel") == q(12, "m")
        assert situation.observation("Temp") is None

    def test_attribute_name_shape(self):
        with pytest.raises(InvariantViolation):
            Measurement("9lives", q(1, "m"))
        with pytest.raises(InvariantViolation):
            Measurement("wind speed", q(1, "m"))

    def test_region_needs_both_components(self):
        with pytest.raises(InvariantViolation):
            SpatioTemporalRegion("reg:x", None, iv(0, 1))
        with pytest.raises(InvariantViolation):
            SpatioTemporalRegion("reg:x", Point(0, 0), None)

    def test_interval_field_type_checked(self):
        with pytest.raises(InvariantViolation):
            GeoSituation("sit:x", "2005-08-23", ())
