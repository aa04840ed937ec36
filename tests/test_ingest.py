import io
import json

import pytest

from geocausal.errors import IngestError, InvariantViolation, MissingColumn
from geocausal.graph import KnowledgeGraph, RelationKind, Role
from geocausal.ingest import (
    Strictness,
    ingest_observations_csv,
    ingest_storm_csv,
    parse_damage,
    sanitize_kind,
)
from geocausal.model import BBox, GeoObject, format_timestamp
from geocausal.units import Categorical

from support import q, schema_violations


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
        assert record.attribute("DamageProperty") == q(10_000, "1")
        assert record.attribute("DeathsDirect") == q(2, "1")

    def test_header_only(self):
        graph, report = storm(STORM_HEADER)
        assert report.rows_read == 0
        assert graph.entity_count == 0

    def test_missing_column(self):
        with pytest.raises(MissingColumn):
            storm("EPISODE_ID,EVENT_ID\n1,2\n")

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

    def test_report_json(self, katrina_csv_text):
        _, report = storm(katrina_csv_text)
        doc = json.loads(report.to_json())
        assert doc["rows_read"] == 23
        assert doc["strictness"] == "lenient"

    def test_every_triple_passes_schema(self, katrina_csv_text):
        graph, _ = storm(katrina_csv_text)
        assert schema_violations(graph) == []


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

    def test_reingest_is_flagged(self):
        text = OBS_HEADER + "s1,2005-08-23,2005-08-24,Temp,10,degC,,\n"
        graph, _ = obs(text)
        _, report = obs(text, graph=graph)
        assert report.errors and "already present" in report.errors[0][1]
