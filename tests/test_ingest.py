import contextlib
import gc
import io
import json
import string
import sys
from datetime import datetime

import pytest
from hypothesis import given, settings, strategies as st

import geocausal.ingest
from geocausal.errors import IngestError, InvariantViolation, MissingColumn
from geocausal.graph import KnowledgeGraph, RelationKind, Role
from geocausal.ingest import (
    Strictness,
    _parse_local_timestamp,
    ingest_observations_csv,
    ingest_storm_csv,
    parse_damage,
    sanitize_kind,
)
from geocausal.model import BBox, GeoEvent, GeoObject, Point, SpatioTemporalRegion, TimeInterval, format_timestamp
from geocausal.units import Categorical

from support import UNLISTED_TIMESTAMPS, q, schema_violations


def storm(text, graph=None, strictness=Strictness.LENIENT, **kwargs):
    graph = graph if graph is not None else KnowledgeGraph()
    report = ingest_storm_csv(graph, io.StringIO(text), strictness, **kwargs)
    return graph, report


def obs(text, graph=None, strictness=Strictness.LENIENT, **kwargs):
    graph = graph if graph is not None else KnowledgeGraph()
    report = ingest_observations_csv(graph, io.StringIO(text), strictness, **kwargs)
    return graph, report


STORM_HEADER = (
    "EPISODE_ID,EVENT_ID,EVENT_TYPE,BEGIN_DATE_TIME,END_DATE_TIME,CZ_TIMEZONE,"
    "BEGIN_LAT,BEGIN_LON,END_LAT,END_LON,DAMAGE_PROPERTY,DEATHS_DIRECT,MAGNITUDE,MAGNITUDE_TYPE\n"
)

OBS_HEADER = "SITUATION_ID,TIMESTAMP_START,TIMESTAMP_END,ATTRIBUTE,VALUE,UNIT,LAT,LON\n"


class TestSanitizers:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Flash Flood", "FlashFlood"),
            ("FLASH FLOOD", "FlashFlood"),
            ("Thunderstorm Wind", "ThunderstormWind"),
            ("Storm Surge/Tide", "StormSurgeTide"),
            ("TropicalStorm", "TropicalStorm"),
            ("heavy rain", "HeavyRain"),
        ],
    )
    def test_kind(self, raw, expected):
        assert sanitize_kind(raw) == expected

    @pytest.mark.parametrize(
        "raw,expected",
        [("10.00K", 10_000.0), ("2.5M", 2_500_000.0), ("1B", 1e9), ("5000", 5000.0), ("0.00K", 0.0)],
    )
    def test_damage(self, raw, expected):
        assert parse_damage(raw) == expected

    def test_damage_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_damage("lots")


class TestStormIngestion:
    def test_katrina_episode_structure(self, katrina_csv_text):
        graph, report = storm(katrina_csv_text)
        assert report.rows_read == 23
        assert report.entities_created == 23
        assert report.errors == []
        episode = graph.entity("ev:episode-1")
        assert episode.kind == "Episode"
        part_of = graph.match(predicate=RelationKind.PART_OF, object="ev:episode-1")
        assert len(part_of) == 23
        child_regions = [graph.region_of(t.subject) for t in part_of]
        assert all(r is not None for r in child_regions)
        assert len({r.id for r in child_regions}) == 23

    def test_episode_region_is_envelope(self, katrina_csv_text):
        graph, _ = storm(katrina_csv_text)
        part_of = graph.match(predicate=RelationKind.PART_OF, object="ev:episode-1")
        envelope = graph.region_of("ev:episode-1")
        assert envelope is not None
        for t in part_of:
            child = graph.region_of(t.subject)
            assert envelope.interval.start <= child.interval.start
            assert child.interval.end <= envelope.interval.end

    def test_later_child_outside_the_envelope_is_warned_about(self):
        graph, _ = storm(STORM_HEADER + "1,10,Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,30,-90,,,,,,\n")
        envelope = graph.region_of("ev:episode-1")
        inside = "1,11,Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,30,-90,,,,,,\n"
        outside = "1,12,Flood,2005-09-01 00:00:00,2005-09-01 01:00:00,UTC,40,-80,,,,,,\n"
        _, report = storm(STORM_HEADER + inside + outside, graph)
        # regions are immutable: the envelope stays as the first ingest built it
        assert graph.region_of("ev:episode-1") == envelope
        assert report.errors == []
        assert report.warnings == [
            (3, "event lies outside episode envelope 'ev:region-episode-1' from an earlier ingest; "
                "envelopes are not widened")
        ]

    def test_a_later_child_outside_the_envelope_in_time_alone_is_warned_about(self):
        graph, _ = storm(STORM_HEADER + "1,10,Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,30,-90,,,,,,\n")
        rows = (
            "1,11,Flood,2005-08-01 01:00:00,2005-08-01 01:00:00,UTC,30,-90,,,,,,\n"  # an instant at the end
            "1,12,Flood,2005-07-31 23:59:59,2005-08-01 01:00:00,UTC,30,-90,,,,,,\n"
            "1,13,Flood,2005-08-01 00:00:00,2005-08-01 01:00:01,UTC,30,-90,,,,,,\n"
        )
        _, report = storm(STORM_HEADER + rows, graph)
        outside = ("event lies outside episode envelope 'ev:region-episode-1' from an earlier ingest; "
                   "envelopes are not widened")
        assert report.warnings == [(3, outside), (4, outside)]

    def test_a_later_child_outside_the_envelope_in_space_alone_is_warned_about(self):
        graph, _ = storm(STORM_HEADER
                         + "1,10,Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,30,-90,,,,,,\n"
                         + "1,11,Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,32,-88,,,,,,\n")
        assert graph.region_of("ev:episode-1").geometry == BBox(30, -90, 32, -88)
        rows = "".join(
            f"1,{event},Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,{corners},,,,\n" for event, corners in (
                (12, "31,-90,,"),  # a point on the west edge
                (13, "32,-88,,"),  # a point on the north-east corner
                (14, "32.001,-89,,"),  # a point just north of the north edge
                (15, "31,-89,33,-88.5"),  # a box straddling the north edge
                (16, "30,-90,32,-88"),  # the envelope's own box
            )
        )
        _, report = storm(STORM_HEADER + rows, graph)
        outside = ("event lies outside episode envelope 'ev:region-episode-1' from an earlier ingest; "
                   "envelopes are not widened")
        assert report.errors == []
        assert report.warnings == [(4, outside), (5, outside)]

    def test_impact_records(self, katrina_csv_text):
        graph, _ = storm(katrina_csv_text)
        impacts = graph.entities(Role.OBJECT)
        assert impacts, "damage rows must produce impact records"
        for impact in impacts:
            assert impact.kind == "ImpactRecord"
            participations = graph.match(subject=impact.id, predicate=RelationKind.PARTICIPANT_IN)
            assert len(participations) == 1
            # impact shares its event's region
            event_id = participations[0].object
            assert graph.region_of(impact.id) is graph.region_of(event_id)
        record = graph.entity("ev:impact-100")
        attributes = {m.attribute: m.value for m in record.attributes}
        assert attributes["DamageProperty"] == q(10_000, "1")
        assert attributes["DeathsDirect"] == q(2, "1")

    def test_header_only(self):
        graph, report = storm(STORM_HEADER)
        assert report.rows_read == 0
        assert graph.entity_count == 0

    def test_missing_column(self):
        with pytest.raises(MissingColumn):
            storm("EPISODE_ID,EVENT_ID\n1,2\n")

    @pytest.mark.parametrize("episode_id, event_id", [("", "101"), ("1", "")], ids=["episode", "event"])
    def test_empty_id_cell_is_a_bad_row(self, episode_id, event_id):
        text = STORM_HEADER + f"{episode_id},{event_id},Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,30,-90,,,,,,\n"
        graph, report = storm(text)
        assert report.errors == [(2, "EPISODE_ID and EVENT_ID must be non-empty")]
        assert graph.entity_count == 0

    def test_end_before_begin_lenient(self):
        text = STORM_HEADER + "1,101,Flood,2005-08-02 12:00:00,2005-08-01 12:00:00,UTC,30,-90,,,,,,\n"
        graph, report = storm(text)
        assert report.errors and report.errors[0][0] == 2
        assert graph.entity_count == 0

    def test_end_before_begin_strict(self):
        text = STORM_HEADER + "1,101,Flood,2005-08-02 12:00:00,2005-08-01 12:00:00,UTC,30,-90,,,,,,\n"
        with pytest.raises(IngestError) as exc:
            storm(text, strictness=Strictness.STRICT)
        assert exc.value.line == 2

    def test_malformed_csv_names_its_physical_line(self):
        text = STORM_HEADER + '1,101,"Flood\nTwo",2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,30,-90,,,,,,\n'
        text += "1,102," + "x" * 131073 + "\n"
        for strictness in Strictness:
            with pytest.raises(IngestError) as exc:
                storm(text, strictness=strictness)
            assert exc.value.line == 4
            assert "field larger than field limit" in str(exc.value)

    def test_bad_row_names_the_physical_line_it_starts_on(self):
        # Row 1 spans lines 2-3 (a quoted line break), line 4 is blank, and
        # the bad row starts on line 5.
        text = STORM_HEADER + '1,101,"Flash\nFlood",2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,30,-90,,,,,,\n'
        text += "\n1,102,Flood,bad,2005-08-01 01:00:00,UTC,30,-90,,,,,,\n"
        graph, report = storm(text)
        assert report.errors == [(5, "invalid timestamp 'bad'")]
        with pytest.raises(IngestError) as exc:
            storm(text, strictness=Strictness.STRICT)
        assert exc.value.line == 5

    def test_strict_abort_leaves_graph_untouched(self):
        text = (
            STORM_HEADER
            + "1,101,Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,30,-90,,,,,,\n"
            + "1,102,Flood,2005-08-02 12:00:00,2005-08-01 12:00:00,UTC,30,-90,,,,,,\n"
        )
        graph = KnowledgeGraph()
        with pytest.raises(IngestError):
            ingest_storm_csv(graph, io.StringIO(text), Strictness.STRICT)
        assert graph.entity_count == 0 and graph.triple_count == 0

    @pytest.mark.parametrize(
        "episode_id, event_id, bad_id",
        [("1", "10 1", "ev:event-10 1"), ("2 x", "102", "ev:episode-2 x")],
        ids=["event-id", "episode-id"],
    )
    def test_id_cell_that_makes_an_invalid_entity_id_is_a_bad_row(self, episode_id, event_id, bad_id):
        text = (
            STORM_HEADER
            + "1,101,Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,30,-90,,,,,,\n"
            + f"{episode_id},{event_id},Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,30,-90,,,1,,\n"
        )
        reason = f"entity id {bad_id!r} must not contain whitespace, control, quote or surrogate characters"
        graph, report = storm(text)
        assert report.errors == [(3, reason)]
        assert report.entities_created == 1 and graph.has_entity("ev:event-101")
        assert schema_violations(graph) == []
        graph = KnowledgeGraph()
        with pytest.raises(IngestError) as exc:
            storm(text, graph=graph, strictness=Strictness.STRICT)
        assert str(exc.value) == f"line 3: {reason}"
        assert graph.entity_count == 0 and graph.triple_count == 0

    def test_episode_id_that_names_a_non_event_is_a_bad_row(self):
        text = (
            STORM_HEADER
            + "1,101,Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,30,-90,,,,,,\n"
            + "2,102,Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,30,-90,,,,,,\n"
        )
        reason = "episode id 'ev:episode-2' names an entity that is not an event"

        def with_object():
            graph = KnowledgeGraph()
            graph.add_entity(GeoObject("ev:episode-2", "Dam"))
            return graph

        graph = with_object()
        with pytest.raises(IngestError) as exc:
            storm(text, graph=graph, strictness=Strictness.STRICT)
        assert str(exc.value) == f"line 3: {reason}"
        assert (graph.entity_count, graph.triple_count) == (1, 0)
        graph, report = storm(text, graph=with_object())
        assert report.errors == [(3, reason)]
        assert report.entities_created == 1 and graph.has_entity("ev:event-101")
        assert not graph.has_entity("ev:event-102") and schema_violations(graph) == []

    @pytest.mark.parametrize("strictness", list(Strictness))
    def test_invalid_prefix_fails_the_whole_ingest(self, strictness):
        text = STORM_HEADER + "1,101,Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,30,-90,,,,,,\n"
        graph = KnowledgeGraph()
        with pytest.raises(InvariantViolation) as exc:
            storm(text, graph=graph, strictness=strictness, id_prefix="a b:")
        assert str(exc.value) == (
            "id prefix 'a b:' must not contain whitespace, control, quote or surrogate characters"
        )
        assert graph.entity_count == 0

    def test_timezone_normalization(self):
        text = (
            STORM_HEADER
            + "1,101,Flood,2005-08-01 00:30:00,2005-08-01 02:30:00,CST,30,-90,,,,,,\n"
            + "1,102,Flood,2005-08-01 01:30:00,2005-08-01 03:30:00,EST,30,-90,,,,,,\n"
        )
        graph, _ = storm(text)
        r1 = graph.region_of("ev:event-101")
        r2 = graph.region_of("ev:event-102")
        assert r1.interval.start == r2.interval.start
        assert format_timestamp(r1.interval.start) == "2005-08-01T06:30:00Z"

    def test_unknown_timezone_is_row_error(self):
        text = STORM_HEADER + "1,101,Flood,2005-08-01 00:30:00,2005-08-01 02:30:00,XST,30,-90,,,,,,\n"
        _, report = storm(text)
        assert report.errors and "timezone" in report.errors[0][1]

    def test_each_timezone_text_is_resolved_once_known_or_not(self, monkeypatch):
        calls = []
        zone = geocausal.ingest._zone

        def counting(token):
            calls.append(token)
            return zone(token)

        monkeypatch.setattr(geocausal.ingest, "_zone", counting)
        rows = "".join(
            f"1,{100 + i},Flood,2005-08-01 00:30:00,2005-08-01 02:30:00,{'CST' if i % 2 == 0 else 'XYZ'},30,-90,,,,,,\n"
            for i in range(10)
        )
        _, report = storm(STORM_HEADER + rows)
        assert sorted(calls) == ["CST", "XYZ"]
        assert report.errors == [(line, "unknown timezone token 'XYZ'") for line in (3, 5, 7, 9, 11)]

    def test_blank_timezone_falls_back_to_utc(self):
        text = STORM_HEADER + "1,101,Flood,2005-08-01 00:30:00,2005-08-01 02:30:00,,30,-90,,,,,,\n"
        graph, report = storm(text)
        assert report.errors == []
        assert format_timestamp(graph.region_of("ev:event-101").interval.start) == "2005-08-01T00:30:00Z"

    def test_bbox_from_begin_and_end_coords(self):
        text = STORM_HEADER + "1,101,Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,30,-90,31,-89,,,,\n"
        graph, _ = storm(text)
        geometry = graph.region_of("ev:event-101").geometry
        assert isinstance(geometry, BBox)
        assert (geometry.min_lat, geometry.max_lat) == (30.0, 31.0)

    def test_missing_coordinates_use_default_bbox(self):
        text = (
            STORM_HEADER
            + "1,101,Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,30,-90,,,,,,\n"
            + "1,102,Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,,,,,,,,\n"
        )
        graph, report = storm(text)
        assert report.warnings and report.warnings[0][0] == 3
        defaulted = graph.region_of("ev:event-102").geometry
        # the file-level default is the envelope of rows that have coordinates
        assert isinstance(defaulted, BBox) or defaulted == graph.region_of("ev:event-101").geometry

    def test_event_type_that_sanitizes_to_nothing_is_a_bad_row(self):
        graph, report = storm(STORM_HEADER + "1,101,/,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,30,-90,,,,,,\n")
        assert report.errors == [(2, "EVENT_TYPE '/' yields an empty kind")]
        assert graph.entity_count == 0

    def test_envelope_id_already_taken_is_warned_about(self):
        graph = KnowledgeGraph()
        graph.add_entity(GeoEvent("ev:region-episode-1", "Other"))
        row = "1,101,Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,30,-90,,,,,,\n"
        _, report = storm(STORM_HEADER + row, graph)
        assert graph.region_of("ev:episode-1") is None
        assert report.warnings == [(2, "cannot attach envelope region: id 'ev:region-episode-1' already taken")]
        assert report.render().splitlines() == [
            "rows read:        1",
            "entities created: 1",
            "triples created:  2",
            "errors:           0",
            "warnings:         1",
            "  line 2: cannot attach envelope region: id 'ev:region-episode-1' already taken",
        ]
        assert json.loads(report.to_json())["warnings"] == [
            {"line": 2, "reason": "cannot attach envelope region: id 'ev:region-episode-1' already taken"}
        ]

    def test_an_episode_without_an_envelope_gets_one_over_its_earlier_children_too(self):
        graph = KnowledgeGraph()
        graph.add_entity(GeoEvent("ev:episode-1", "Episode"))
        graph.add_entity(GeoEvent("ev:old", "Flood"))
        graph.add_entity(SpatioTemporalRegion("reg:old", Point(20.0, -80.0), TimeInterval("2005-07-01", "2005-07-02")))
        graph.assert_triple("ev:old", RelationKind.SPATIO_TEMPORALLY_PRESENT, "reg:old")
        graph.assert_triple("ev:old", RelationKind.PART_OF, "ev:episode-1")
        _, report = storm(STORM_HEADER + "1,101,Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,30,-90,,,,,,\n", graph)
        assert (report.errors, report.warnings, report.triples_created) == ([], [], 3)
        envelope = graph.region_of("ev:episode-1")
        assert envelope.geometry == BBox(20.0, -90.0, 30.0, -80.0)
        assert (format_timestamp(envelope.interval.start), format_timestamp(envelope.interval.end)) == (
            "2005-07-01T00:00:00Z", "2005-08-01T01:00:00Z")

    def test_envelope_warning_names_the_episodes_first_accepted_row(self):
        graph = KnowledgeGraph()
        graph.add_entity(GeoEvent("ev:region-episode-1", "Other"))
        rows = (
            "1,101,Flood,2005-08-01 02:00:00,2005-08-01 01:00:00,UTC,30,-90,,,,,,\n"
            "2,201,Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,30,-90,,,,,,\n"
            "1,102,Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,30,-90,,,,,,\n"
            "1,103,Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,30,-90,,,,,,\n"
        )
        _, report = storm(STORM_HEADER + rows, graph)
        assert report.errors == [(2, "event ends before it begins")]
        assert report.warnings == [(4, "cannot attach envelope region: id 'ev:region-episode-1' already taken")]

    def test_noaa_style_datetime(self):
        text = STORM_HEADER + "1,101,Flood,28-AUG-05 06:00:00,29-AUG-05 06:00:00,CST,30,-90,,,,,,\n"
        graph, report = storm(text)
        assert report.errors == []
        assert format_timestamp(graph.region_of("ev:event-101").interval.start) == "2005-08-28T12:00:00Z"

    def test_idempotence_reports_duplicates(self, katrina_csv_text):
        graph, first = storm(katrina_csv_text)
        entities_before = graph.entity_count
        report = ingest_storm_csv(graph, io.StringIO(katrina_csv_text), Strictness.LENIENT)
        assert graph.entity_count == entities_before
        assert len(report.errors) == 23
        assert all("already present" in reason for _, reason in report.errors)

    def test_counts_match_the_graph(self, katrina_csv_text):
        graph, report = storm(katrina_csv_text)
        events = graph.match(predicate=RelationKind.PART_OF, object="ev:episode-1")
        assert (report.entities_created, report.triples_created) == (len(events), graph.triple_count)
        before = graph.triple_count
        _, appended = storm(STORM_HEADER + "2,9,Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,30,-90,,,1K,,,\n", graph)
        # event presence, part-of, two impact triples and the new episode's envelope
        assert (appended.entities_created, appended.triples_created) == (1, 5) == (1, graph.triple_count - before)

    def test_count_conservation(self, katrina_csv_text):
        bad_row = "1,9999,Flood,2005-08-02 12:00:00,2005-08-01 12:00:00,CST,30,-90,,,,,,\n"
        graph, report = storm(katrina_csv_text + bad_row)
        assert report.entities_created + len(report.errors) == report.rows_read

    def test_duplicate_event_id_within_file(self):
        text = (
            STORM_HEADER
            + "1,101,Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,30,-90,,,,,,\n"
            + "1,101,Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,30,-90,,,,,,\n"
        )
        _, report = storm(text)
        assert len(report.errors) == 1

    def test_a_kelvin_sign_damage_suffix_is_a_bad_row(self):
        kelvin = "1,101,Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,30,-90,,,10\u212a,,,\n"
        valid = "1,102,Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,30,-90,,,10k,,,\n"
        graph, report = storm(STORM_HEADER + kelvin + valid)
        assert report.errors == [(2, "invalid damage value '10\u212a'")]
        assert graph.has_entity("ev:event-102") and not graph.has_entity("ev:event-101")
        assert graph.entity("ev:impact-102").attributes[0].value == q(10_000.0, "1")
        with pytest.raises(IngestError) as exc:
            storm(STORM_HEADER + kelvin + valid, strictness=Strictness.STRICT)
        assert exc.value.line == 2

    def test_report_json(self, katrina_csv_text):
        _, report = storm(katrina_csv_text)
        doc = json.loads(report.to_json())
        assert doc["rows_read"] == 23
        assert doc["strictness"] == "lenient"

    def test_every_triple_passes_schema(self, katrina_csv_text):
        graph, _ = storm(katrina_csv_text)
        assert schema_violations(graph) == []


#: Storm rows whose one cell read without regard to case holds the code point
#: ``c``: as the damage suffix, as a letter of the timezone token, or as a
#: letter of the DD-Mon-YY month name.
CASED_CELLS = {
    "damage-suffix": "1,101,Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,30,-90,,,10{c},,,\n",
    "zone-first": "1,101,Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,{c}ST,30,-90,,,,,,\n",
    "zone-middle": "1,101,Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,C{c}T,30,-90,,,,,,\n",
    "zone-last": "1,101,Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,CS{c},30,-90,,,,,,\n",
    "month-first": "1,101,Flood,01-{c}ug-05 00:00:00,2005-12-31 23:00:00,UTC,30,-90,,,,,,\n",
    "month-middle": "1,101,Flood,01-A{c}g-05 00:00:00,2005-12-31 23:00:00,UTC,30,-90,,,,,,\n",
    "month-last": "1,101,Flood,01-Au{c}-05 00:00:00,2005-12-31 23:00:00,UTC,30,-90,,,,,,\n",
}


@pytest.fixture(scope="module")
def ascii_case_partners():
    """Every code point whose upper, lower or casefold form holds an ASCII
    letter, by the running Python's Unicode tables."""
    letters = frozenset(string.ascii_letters)
    return [c for c in map(chr, range(sys.maxunicode + 1))
            if not letters.isdisjoint(c.upper() + c.lower() + c.casefold())]


@pytest.mark.parametrize("row", CASED_CELLS.values(), ids=CASED_CELLS)
def test_a_cased_cell_is_read_or_a_bad_row_at_every_code_point(row, ascii_case_partners):
    """Lenient ingest accepts the row or reports it as a bad row; strict ingest
    raises IngestError for that same row, and nothing else."""
    faults = []
    for c in ascii_case_partners:
        text, point = STORM_HEADER + row.format(c=c), f"U+{ord(c):04X}"
        try:
            _, report = storm(text)
        except Exception as exc:
            faults.append((point, "lenient", repr(exc)))
            continue
        if report.entities_created + len(report.errors) != 1:
            faults.append((point, "lenient", report.render()))
        reported = [f"line {line}: {reason}" for line, reason in report.errors]
        try:
            storm(text, strictness=Strictness.STRICT)
            raised = []
        except IngestError as exc:
            raised = [str(exc)]
        except Exception as exc:
            raised = [repr(exc)]
        if raised != reported:
            faults.append((point, "strict", raised))
    assert faults == []


class TestObservationIngestion:
    def test_two_rows_one_situation(self):
        text = (
            OBS_HEADER
            + "s1,2005-08-23T00:00:00Z,2005-08-23T06:00:00Z,SeaSurfaceTemp,83,degF,,\n"
            + "s1,2005-08-23T03:00:00Z,2005-08-23T09:00:00Z,WindShear,12,m/s,,\n"
        )
        graph, report = obs(text)
        assert report.entities_created == 1
        situation = graph.entity("ev:situation-s1")
        assert situation.observation("SeaSurfaceTemp") == q(83, "degF")
        assert situation.observation("WindShear") == q(12, "m/s")
        # envelope of both rows
        assert format_timestamp(situation.holds_during.start) == "2005-08-23T00:00:00Z"
        assert format_timestamp(situation.holds_during.end) == "2005-08-23T09:00:00Z"

    def test_categorical_value(self):
        text = OBS_HEADER + "s1,2005-08-23,2005-08-24,CoriolisForce,present,,,\n"
        graph, _ = obs(text)
        assert graph.entity("ev:situation-s1").observation("CoriolisForce") == Categorical("present")

    def test_duplicate_attribute_keeps_first(self):
        text = (
            OBS_HEADER
            + "s1,2005-08-23,2005-08-24,Temp,10,degC,,\n"
            + "s1,2005-08-23,2005-08-24,Temp,20,degC,,\n"
        )
        graph, report = obs(text)
        assert graph.entity("ev:situation-s1").observation("Temp") == q(10, "degC")
        assert len(report.errors) == 1

    def test_unknown_unit(self):
        text = OBS_HEADER + "s1,2005-08-23,2005-08-24,Speed,3,furlongs/fortnight,,\n"
        _, report = obs(text)
        assert report.errors and "unknown unit" in report.errors[0][1]

    def test_unknown_unit_strict(self):
        text = OBS_HEADER + "s1,2005-08-23,2005-08-24,Speed,3,furlongs/fortnight,,\n"
        with pytest.raises(IngestError):
            obs(text, strictness=Strictness.STRICT)

    def test_missing_column(self):
        with pytest.raises(MissingColumn):
            obs("SITUATION_ID,VALUE\ns1,3\n")

    def test_situation_id_that_makes_an_invalid_entity_id_is_a_bad_row(self):
        text = OBS_HEADER + "a,2005-08-23,2005-08-24,Temp,10,degC,,\nb c,2005-08-23,2005-08-24,Temp,10,degC,,\n"
        reason = ("entity id 'ev:situation-b c' must not contain whitespace, control, quote or "
                  "surrogate characters")
        graph, report = obs(text)
        assert report.errors == [(3, reason)]
        assert [e.id for e in graph.entities(Role.SITUATION)] == ["ev:situation-a"]
        graph = KnowledgeGraph()
        with pytest.raises(IngestError) as exc:
            obs(text, graph=graph, strictness=Strictness.STRICT)
        assert str(exc.value) == f"line 3: {reason}"
        assert graph.entity_count == 0

    BAD_ROWS = [
        (",2005-08-23,2005-08-24,Temp,10,degC,,\n", "SITUATION_ID must be non-empty"),
        ("s1,2005-08-24,2005-08-23,Temp,10,degC,,\n", "observation ends before it starts"),
        ("s1,2005-08-23,2005-08-24,Temp,,degC,,\n", "VALUE must be non-empty"),
        ("s1,2005-08-23,2005-08-24,Temp,hot,degC,,\n", "non-numeric VALUE 'hot' with a unit"),
    ]

    def test_bad_rows_lenient(self):
        graph, report = obs(OBS_HEADER + "".join(row for row, _ in self.BAD_ROWS))
        assert report.errors == [(line, reason) for line, (_, reason) in enumerate(self.BAD_ROWS, 2)]
        assert report.render().splitlines()[-1] == "  line 5: non-numeric VALUE 'hot' with a unit"
        assert graph.entity_count == 0

    @pytest.mark.parametrize("index", range(len(BAD_ROWS)))
    def test_bad_rows_strict(self, index):
        good = "".join(f"g{i},2005-08-23,2005-08-24,Temp,10,degC,,\n" for i in range(index))
        row, reason = self.BAD_ROWS[index]
        with pytest.raises(IngestError) as exc:
            obs(OBS_HEADER + good + row, strictness=Strictness.STRICT)
        assert exc.value.line == index + 2
        assert str(exc.value) == f"line {index + 2}: {reason}"

    @pytest.mark.parametrize("stamp", UNLISTED_TIMESTAMPS)
    @pytest.mark.parametrize("column", [1, 2])
    def test_an_unlisted_timestamp_form_is_a_bad_row(self, column, stamp):
        cells = ["s2", "2005-08-23", "2005-08-24", "Temp", "10", "degC", "", ""]
        cells[column] = f'"{stamp}"'
        text = OBS_HEADER + "s1,2005-08-23,2005-08-24,Temp,10,degC,,\n" + ",".join(cells) + "\n"
        graph, report = obs(text)
        assert report.errors == [(3, f"invalid timestamp {stamp!r}")]
        assert [e.id for e in graph.entities(Role.SITUATION)] == ["ev:situation-s1"]
        with pytest.raises(IngestError) as exc:
            obs(text, strictness=Strictness.STRICT)
        assert str(exc.value) == f"line 3: invalid timestamp {stamp!r}"

    def test_reingest_is_flagged(self):
        text = OBS_HEADER + "s1,2005-08-23,2005-08-24,Temp,10,degC,,\n"
        graph, _ = obs(text)
        _, report = obs(text, graph=graph)
        assert report.errors and "already present" in report.errors[0][1]


class TestReader:
    """How cells are found: the last of a repeated column's cells within the
    row, blank for a cell the row lacks, and nothing from cells past the header."""

    STORM_ROW = "1,101,Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,30,-90,,,10K,,,"
    OBS_ROW = "s1,2005-08-23,2005-08-24,Temp,10,degC,,"

    def test_a_repeated_storm_column_reads_its_last_cell_in_the_row(self):
        header = STORM_HEADER.replace("\n", ",EVENT_TYPE\n")
        rows = (
            f"{self.STORM_ROW},Heavy Rain\n"
            + self.STORM_ROW.replace("101", "102") + "\n"  # the second EVENT_TYPE cell is missing
            + f"{self.STORM_ROW.replace('101', '103')}, \n"
        )
        graph, report = storm(header + rows)
        assert report.errors == [(4, "EVENT_TYPE '' yields an empty kind")]
        assert [graph.entity(f"ev:event-{n}").kind for n in (101, 102)] == ["HeavyRain", "Flood"]

    def test_a_short_storm_row_reads_its_missing_cells_as_blank(self):
        rows = (
            "1,101,Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC\n"
            "1,102,Flood,2005-08-01 00:00:00\n"
            "1,103,Flood,bad\n"
            "1,104\n"
        )
        graph, report = storm(STORM_HEADER + rows)
        assert report.errors == [
            (3, "invalid timestamp ''"),
            (4, "invalid timestamp 'bad'"),
            (5, "EVENT_TYPE '' yields an empty kind"),
        ]
        assert report.warnings == [(2, "no coordinates; using file-level default bbox")]
        assert graph.entity("ev:event-101").kind == "Flood"
        with pytest.raises(IngestError) as exc:
            storm(STORM_HEADER + rows, strictness=Strictness.STRICT)
        assert str(exc.value) == "line 3: invalid timestamp ''"

    def test_storm_cells_past_the_header_are_ignored(self):
        graph, report = storm(STORM_HEADER + self.STORM_ROW + ",x,,2005-13-01,\n")
        expected, expected_report = storm(STORM_HEADER + self.STORM_ROW + "\n")
        assert (report.errors, report.warnings) == ([], [])
        assert report.render() == expected_report.render()
        assert graph.entities() == expected.entities() and graph.triples() == expected.triples()

    def test_a_repeated_observation_column_reads_its_last_cell_in_the_row(self):
        header = OBS_HEADER.replace("\n", ",UNIT\n")
        rows = f"{self.OBS_ROW},degF\n" + self.OBS_ROW.replace("s1", "s2") + "\n"
        graph, report = obs(header + rows)
        assert report.errors == []
        assert graph.entity("ev:situation-s1").observation("Temp") == q(10, "degF")
        assert graph.entity("ev:situation-s2").observation("Temp") == q(10, "degC")

    def test_a_short_observation_row_reads_its_missing_cells_as_blank(self):
        rows = "s1,2005-08-23,2005-08-24,Temp,10\ns2,2005-08-23\ns3,bad\n,bad\n"
        graph, report = obs(OBS_HEADER + rows)
        assert report.errors == [
            (3, "invalid timestamp ''"),
            (4, "invalid timestamp 'bad'"),
            (5, "SITUATION_ID must be non-empty"),
        ]
        assert graph.entity("ev:situation-s1").observation("Temp") == Categorical("10")

    def test_observation_cells_past_the_header_are_ignored(self):
        graph, report = obs(OBS_HEADER + self.OBS_ROW + ",x,bad,\n")
        assert report.errors == []
        assert graph.entity("ev:situation-s1").observation("Temp") == q(10, "degC")


# --------------------------------------------------------------------------
# Local storm timestamps
# --------------------------------------------------------------------------

#: The strptime formats whose accepted set the storm reader keeps, tried in this order.
STRPTIME_FORMATS = ("%Y-%m-%d %H:%M:%S", "%Y-%m-%dT%H:%M:%S", "%d-%b-%y %H:%M:%S")
MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
#: The zero digits of three scripts beside ASCII: Arabic-Indic, Devanagari, fullwidth.
OTHER_ZEROS = ("\u0660", "\u0966", "\uff10")


def strptime_outcome(text):
    text = text.strip()
    for fmt in STRPTIME_FORMATS:
        with contextlib.suppress(ValueError):
            return datetime.strptime(text, fmt)
    return f"invalid timestamp {text!r}"


def parsed_outcome(text):
    try:
        return _parse_local_timestamp(text)
    except ValueError as exc:
        return str(exc)


@st.composite
def near_local_timestamps(draw):
    """Strings in the three shapes, most near-valid, some a character off."""

    def number(n, width=2):
        text = draw(st.sampled_from([str(n), str(n).zfill(width)]))  # one- or two-digit fields
        if draw(st.integers(0, 3)) < 3:
            return text
        zero = draw(st.sampled_from(OTHER_ZEROS))
        return "".join(chr(ord(zero) + int(c)) if draw(st.booleans()) else c for c in text)

    noaa = draw(st.booleans())
    if draw(st.integers(0, 3)) == 0:  # 29 February in leap and non-leap years
        year = draw(st.sampled_from([1900, 1969, 2000, 2004, 2005, 2068, 2100]))
        fields = (year, 2, 29, 0, 0, 0)
    else:
        moment = draw(st.datetimes(datetime(1969, 1, 1) if noaa else datetime.min,
                                   datetime(2068, 12, 31) if noaa else datetime.max))
        fields = (moment.year, moment.month, moment.day, moment.hour, moment.minute, moment.second)
    year, month, day, hour, minute, second = fields
    second = draw(st.sampled_from([second] * 4 + [60, 61]))
    day_text = draw(st.sampled_from(["", "", " "])) + number(day)  # " 5" is a day
    time = f"{number(hour)}:{number(minute)}:{number(second)}"
    blank = st.text(" \t\n\u00a0\u2003", min_size=1, max_size=3)
    if noaa:
        name = draw(st.sampled_from([MONTHS[month - 1]] * 6 + ["Sept", "ſep"]))
        name = "".join(draw(st.sampled_from([c.lower(), c.upper()])) for c in name)
        text = f"{day_text}-{name}-{number(year % 100)}{draw(blank | st.just('T'))}{time}"
    else:
        separator = draw(st.sampled_from(["T", "t"]) | blank)
        text = f"{number(year, 4)}-{number(month)}-{day_text}{separator}{time}"
    if draw(st.integers(0, 3)) == 0:  # one character changed, dropped or added
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + draw(st.sampled_from(["", "0", "1", "9", " ", "-", ":", "\u0661"])) + text[cut + 1:]
    return draw(st.sampled_from(["", " ", "\t"])) + text + draw(st.sampled_from(["", " ", "\n"]))


class TestLocalTimestamps:
    @settings(max_examples=1000, derandomize=True, deadline=None)
    @given(near_local_timestamps())
    def test_the_reader_accepts_what_strptime_accepted(self, text):
        assert parsed_outcome(text) == strptime_outcome(text)

    @pytest.mark.parametrize("text, expected", [
        ("2005-08-29 06:10:00", datetime(2005, 8, 29, 6, 10)),
        ("2005-08-29t06:10:00", datetime(2005, 8, 29, 6, 10)),
        ("2005-8- 5 \t 6:1:0", datetime(2005, 8, 5, 6, 1)),
        # any digit where strptime has \d, an ASCII one where it has a range
        ("\u0662\u0660\u0660\u0665-8-2\u0669 \u0666:1\u0660:\u0665", datetime(2005, 8, 29, 6, 10, 5)),
        ("29-aUg-05 06:10:00", datetime(2005, 8, 29, 6, 10)),
        ("1-JAN-69 00:00:00", datetime(1969, 1, 1)),
        ("31-Dec-68 23:59:59", datetime(2068, 12, 31, 23, 59, 59)),
        ("29-Feb-04 00:00:00", datetime(2004, 2, 29)),
        ("2000-02-29 00:00:00", datetime(2000, 2, 29)),
    ])
    def test_accepted_shapes(self, text, expected):
        assert _parse_local_timestamp(text) == expected

    @pytest.mark.parametrize("text", [
        "29-Feb-05 00:00:00", "1900-02-29 00:00:00", "2005-08-29 06:10:60", "2005-08-29 06:10:61",
        "2005-08-29 06:10:62", "2005-08-29T 06:10:00", "29-Aug-05T06:10:00", "29-ſep-05 06:10:00",
        "0000-01-01 00:00:00", "2005-\u0660\u0668-29 06:10:00", "2005-08-29", "",
    ])
    def test_rejected_shapes(self, text):
        with pytest.raises(ValueError, match=r"\Ainvalid timestamp "):
            _parse_local_timestamp(text)

    def test_a_row_reports_its_first_fault(self):
        bad_begin = "1,101,Flood,bad,2005-08-01 01:00:00,XST,30,-90,,,,,,\n"
        bad_zone = "1,102,Flood,2005-08-01 00:00:00,bad,XST,30,-90,,,,,,\n"
        bad_end = "1,103,Flood,9999-12-31 23:00:00,bad,EST,30,-90,,,,,,\n"
        _, report = storm(STORM_HEADER + bad_begin + bad_zone + bad_end)
        assert report.errors == [
            (2, "invalid timestamp 'bad'"),
            (3, "unknown timezone token 'XST'"),
            (4, "timestamp 9999-12-31T23:00:00-05:00 is outside years 1-9999 UTC"),
        ]


# --------------------------------------------------------------------------
# The cyclic collector
# --------------------------------------------------------------------------

STORM_ROWS = (
    STORM_HEADER
    + "1,101,Flood,2005-08-01 00:00:00,2005-08-01 01:00:00,UTC,30,-90,,,10K,1,,\n"
    + "1,102,Flood,bad,2005-08-01 01:00:00,UTC,30,-90,,,,,,\n"
)
OBS_ROWS = (
    OBS_HEADER
    + "s1,2005-08-23,2005-08-24,Temp,10,degC,,\n"
    + "s2,2005-08-23,2005-08-24,Speed,3,furlongs/fortnight,,\n"
)

#: Ingests that succeed with rejected rows, abort in strict mode, or miss a column.
INGESTS = {
    "storm-lenient": lambda: storm(STORM_ROWS),
    "storm-strict": lambda: storm(STORM_ROWS, strictness=Strictness.STRICT),
    "storm-missing-column": lambda: storm("EPISODE_ID,EVENT_ID\n1,2\n"),
    "obs-lenient": lambda: obs(OBS_ROWS),
    "obs-strict": lambda: obs(OBS_ROWS, strictness=Strictness.STRICT),
    "obs-missing-column": lambda: obs("SITUATION_ID,VALUE\ns1,3\n"),
}


class TestCollectorPause:
    """An ingest pauses the cyclic collector and restores it as it was."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("run", INGESTS.values(), ids=list(INGESTS))
    def test_collector_state_is_restored(self, enabled, run):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with contextlib.suppress(IngestError, MissingColumn):
                run()
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_collector_is_paused_while_rows_are_read(self, monkeypatch):
        seen = []
        open_rows = geocausal.ingest._open_rows

        def recording(*args):
            seen.append(gc.isenabled())
            return open_rows(*args)

        monkeypatch.setattr(geocausal.ingest, "_open_rows", recording)
        was = gc.isenabled()
        gc.enable()
        try:
            storm(STORM_ROWS)
            obs(OBS_ROWS)
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False, False]

    def test_ingested_values_hold_no_cycles(self, katrina_csv_text):
        was = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            done = [storm(katrina_csv_text + STORM_ROWS.removeprefix(STORM_HEADER))]
            assert done[0][1].errors  # some rows were rejected
            for run in INGESTS.values():
                with contextlib.suppress(IngestError, MissingColumn):
                    done.append(run())
            del done
            assert gc.collect() == 0
        finally:
            if was:
                gc.enable()
