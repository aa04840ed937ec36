import re
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from geocausal.errors import InvariantViolation, OrderViolation, ParseError
from geocausal.model import (
    BBox,
    GeoEvent,
    GeoObject,
    GeoSituation,
    Measurement,
    Point,
    SpatioTemporalRegion,
    TimeInterval,
    format_timestamp,
    interval_envelope,
    is_attribute_name,
    parse_timestamp,
    validate_entity_id,
)

from support import UNLISTED_TIMESTAMPS, iv, q


# The timestamp forms docs/file-formats.md lists, each with the instant it reads as.
LISTED_TIMESTAMPS = [
    ("2005-08-29", "2005-08-29T00:00:00Z"),
    ("2005-08-29T06", "2005-08-29T06:00:00Z"),
    ("2005-08-29 06:10", "2005-08-29T06:10:00Z"),
    ("2005-08-29T06:10:00", "2005-08-29T06:10:00Z"),
    ("2005-08-29/06:10:00", "2005-08-29T06:10:00Z"),
    ("2005-08-29\u00e906:10:00", "2005-08-29T06:10:00Z"),
    ("2005-08-29T06:10:00.75", "2005-08-29T06:10:00Z"),
    ("2005-08-29T06:10:00Z", "2005-08-29T06:10:00Z"),
    ("2005-08-29T06:10:00.123456789z", "2005-08-29T06:10:00Z"),
    ("2005-08-29T06Z", "2005-08-29T06:00:00Z"),
    ("2005-08-29T06:10+05:30", "2005-08-29T00:40:00Z"),
    ("2005-08-29T06:10:00-05:30:15", "2005-08-29T11:40:15Z"),
    ("2005-08-29T06:10:00.5+05:30:00.500000", "2005-08-29T00:39:59Z"),
]


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

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(
        st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59, 999999)),
        st.integers(-(24 * 60 - 1), 24 * 60 - 1),
    )
    @example(datetime(1, 1, 1, 23, 59, 59, 1), 0)
    @example(datetime(999, 12, 31, 23, 30, 0, 999999), -60)
    @example(datetime(1000, 1, 1, 0, 30, 0, 500000), 60)
    @example(datetime(1, 1, 1, 0, 0, 0, 1), 24 * 60 - 1)
    @example(datetime(9999, 12, 31, 23, 59, 59, 999999), -(24 * 60 - 1))
    def test_format_matches_strftime(self, naive, offset_minutes):
        """``format_timestamp`` agrees with a strftime reference: the UTC
        time to the second, years before 1000 zero-padded."""
        dt = naive.replace(tzinfo=timezone(timedelta(minutes=offset_minutes)))
        try:
            utc = dt.astimezone(timezone.utc)
        except OverflowError:
            with pytest.raises(OverflowError):
                format_timestamp(dt)
        else:
            assert format_timestamp(dt) == f"{utc.year:04d}-{utc:%m-%dT%H:%M:%S}Z"

    @pytest.mark.parametrize(
        "bad",
        ["not-a-date", "2005-13-01", "2005-08-23T25:00:00Z", "",
         "0001-01-01T00:00:00+05:00", "9999-12-31T23:00:00-05:00",
         # forms docs/file-formats.md does not list, which Python 3.11 and later read
         *UNLISTED_TIMESTAMPS, 20200101, "2005-08-29T06:10:00.\u0665", "\uff12005-08-29", "2005-08-29T",
         "2005-08-29T06:10:00.5+05:30:00.12345"],
    )
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_timestamp(bad)

    @pytest.mark.parametrize("text, instant", LISTED_TIMESTAMPS)
    def test_every_listed_form_is_read(self, text, instant):
        assert format_timestamp(parse_timestamp(text)) == instant


# The shapes the timestamp check accepts, as a pattern: "." is any one character.
_ISO_SHAPE = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}(?:.[0-9]{2}(?::[0-9]{2}(?::[0-9]{2})?)?"
    r"(?:[+-][0-9]{2}:[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{6})?)?)?)?",
    re.DOTALL,
)
_STAMP_PIECES = st.sampled_from([
    *"0123456789-:+ T", ",", "W", "Z", "\u0663", "\uff10", "\u00e9", "\ud800", "2005", "-08-29", "2005-08-29",
    "T06", ":10", ":00", "+05:30", "-00:00", "0530", "2005-08-29T06:10:00",
])


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(st.tuples(st.sampled_from(["", "2005-08-29", "2005-08-29T06:10"]),
                 st.lists(_STAMP_PIECES, max_size=6).map("".join)).map("".join))
def test_the_timestamp_check_agrees_with_its_pattern(text):
    """Text that parse_timestamp reads unchanged (no edge whitespace, no
    trailing Z, no fraction) is read exactly when the pattern matches it and
    datetime.fromisoformat reads it, as the same instant."""
    assume(text == text.strip() and text[-1:] not in ("Z", "z"))
    expected = None
    if _ISO_SHAPE.fullmatch(text):
        try:
            expected = datetime.fromisoformat(text)
            expected = expected.replace(tzinfo=timezone.utc) if expected.tzinfo is None else expected.astimezone(timezone.utc)
        except (ValueError, OverflowError):
            expected = None
    try:
        got = parse_timestamp(text)
    except ParseError:
        got = None
    assert got == expected


# The character-class checks as patterns: each check of the model, which
# compiles no pattern, must agree with its pattern on any text.
_FORBIDDEN_IN_ID = re.compile(r'[\s\x00-\x1f\x7f"\ud800-\udfff]')
_ATTRIBUTE_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_TRICKY = st.sampled_from(["", " ", "\t", "\x00", "\x1f", "\x7f", "\x85", "\u00a0", "\u00ad", "\u2028", "\ud800",
                           "\udfff", '"', "_", "-", "a", "Z", "0", "9", "\u0663", "\u00b2", "\uff10", "\u00e9"])
_TEXT = st.lists(_TRICKY | st.characters(), max_size=12).map("".join)


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(_TEXT)
def test_the_id_and_attribute_name_checks_agree_with_their_patterns(text):
    try:
        validate_entity_id(text)
        accepted = True
    except InvariantViolation:
        accepted = False
    assert accepted == (text != "" and not _FORBIDDEN_IN_ID.search(text))
    assert is_attribute_name(text) == bool(_ATTRIBUTE_NAME.fullmatch(text))


class TestMakeInterval:
    def test_valid(self):
        interval = TimeInterval("2005-08-23T00:00:00Z", "2005-08-31T00:00:00Z")
        assert interval.start < interval.end

    def test_point_interval(self):
        interval = TimeInterval("2005-08-23T00:00:00Z", "2005-08-23T00:00:00Z")
        assert interval.start == interval.end

    def test_order_violation(self):
        with pytest.raises(OrderViolation):
            TimeInterval("2005-09-01", "2005-08-01")

    def test_envelope(self):
        env = interval_envelope([iv(2, 5), iv(0, 3), iv(4, 9)])
        assert env == iv(0, 9)

    def test_envelope_of_nothing(self):
        with pytest.raises(InvariantViolation, match="^cannot take the envelope of zero intervals$"):
            interval_envelope([])


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

    @pytest.mark.parametrize("foreign", [("x", 1), None, "A"])
    def test_foreign_measurement_items_rejected(self, foreign):
        measurement = Measurement("A", q(1, "m"))
        with pytest.raises(InvariantViolation, match="attribute must be Measurement instances"):
            GeoObject("ev:a", "Dam", attributes=[measurement, foreign])
        with pytest.raises(InvariantViolation, match="observation must be Measurement instances"):
            GeoSituation("sit:x", iv(0, 1), observations=[foreign])

    def test_attributes_sorted_canonically(self):
        obj = GeoObject(
            "obj:x", "Dam", (Measurement("B", q(2, "m")), Measurement("A", q(1, "m")))
        )
        assert obj.attributes == (Measurement("A", q(1, "m")), Measurement("B", q(2, "m")))

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
