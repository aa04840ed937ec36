"""CSV ingestion: storm-event files and observation files.

Storm files follow the public Storm Events bulk-CSV column convention.
Required columns: EPISODE_ID, EVENT_ID, EVENT_TYPE, BEGIN_DATE_TIME,
END_DATE_TIME, CZ_TIMEZONE. Recognized optional columns: BEGIN_LAT,
BEGIN_LON, END_LAT, END_LON, DAMAGE_PROPERTY, DEATHS_DIRECT, MAGNITUDE,
MAGNITUDE_TYPE. Timestamps are local time in the row's timezone column
(fixed-offset tokens; blank falls back to UTC) and are normalized to UTC.

Each row becomes a geo-event of its sanitized type ("Flash Flood" ->
"FlashFlood") with a part-of edge to a per-episode parent event; every
event gets a region built from the row coordinates (rows without
coordinates fall back to a file-level default box and are flagged in the
report warnings). Damage / fatality / magnitude cells become measurements
on a companion "ImpactRecord" object that participates in the event and
shares its region.

Observation files (SITUATION_ID, TIMESTAMP_START, TIMESTAMP_END,
ATTRIBUTE, VALUE, UNIT and optional LAT, LON) group rows by situation id
into geo-situations holding one measurement per row; the situation's
interval is the envelope of its rows. LAT/LON are accepted but unused:
situations carry no geometry of their own.

An ingest runs in two phases: the first decodes and checks every row
into the entities it adds, and the second adds them to the graph. Strict
mode aborts on the first bad row, in the first phase, so the graph is left
untouched; lenient mode skips bad rows and records them in the report.
A row whose id cells make an invalid entity id is a bad row.
"""

from __future__ import annotations

import csv
import io
import re
from datetime import datetime, timedelta, timezone
from enum import Enum
from pathlib import Path
from typing import IO

from .errors import GeoCausalError, IngestError, MissingColumn
from .graph import KnowledgeGraph, RelationKind
from .model import (
    BBox,
    GeoEvent,
    GeoObject,
    GeoSituation,
    Geometry,
    Measurement,
    Point,
    SpatioTemporalRegion,
    TimeInterval,
    interval_envelope,
    parse_timestamp,
    validate_entity_id,
)
from .slotted import Slotted
from .spatiotemporal import as_bbox, bbox_union
from .storage import collector_paused, read_text
from .units import Categorical, Quantity, get_unit

#: Fixed UTC offsets, in hours, for the supported timezone tokens.
TIMEZONES = {
    "UTC": 0,
    "EST": -5,
    "EDT": -4,
    "CST": -6,
    "CDT": -5,
    "MST": -7,
    "MDT": -6,
    "PST": -8,
    "PDT": -7,
}

STORM_REQUIRED = (
    "EPISODE_ID",
    "EVENT_ID",
    "EVENT_TYPE",
    "BEGIN_DATE_TIME",
    "END_DATE_TIME",
    "CZ_TIMEZONE",
)

OBSERVATION_REQUIRED = (
    "SITUATION_ID",
    "TIMESTAMP_START",
    "TIMESTAMP_END",
    "ATTRIBUTE",
    "VALUE",
    "UNIT",
)

WORLD_BBOX = BBox(-90.0, -180.0, 90.0, 180.0)

_DAMAGE_RE = re.compile(r"(?P<number>\d+(?:\.\d+)?)\s*(?P<suffix>[KMB]?)\Z", re.I)
_DAMAGE_MULTIPLIER = {"": 1.0, "K": 1e3, "M": 1e6, "B": 1e9}

_ZONES = {token: timezone(timedelta(hours=hours)) for token, hours in TIMEZONES.items()}
_ZONE_PREFIX = re.compile(r"[A-Z]+")

# Local timestamps: "%Y-%m-%d %H:%M:%S", "%Y-%m-%dT%H:%M:%S" and
# "%d-%b-%y %H:%M:%S", with the fields strptime accepts for them: Unicode
# digits, one- or two-digit fields, " 5" days, a run of whitespace before the
# time, seconds to 61 (which datetime then refuses), and letters in any case.
# Under strptime's IGNORECASE, "T" matches only "T" and "t", and a month name
# only its ASCII case variants and "ſ" for "s", which the name lookup refused.
_TIME = r"(?P<H>2[0-3]|[0-1]\d|\d):(?P<M>[0-5]\d|\d):(?P<S>6[0-1]|[0-5]\d|\d)"
_DAY = r"(?P<d>3[0-1]|[1-2]\d|0[1-9]|[1-9]| [1-9])"
_ISO_LOCAL = re.compile(rf"(?P<Y>\d\d\d\d)-(?P<m>1[0-2]|0[1-9]|[1-9])-{_DAY}(?:\s+|[Tt]){_TIME}")
_NOAA_LOCAL = re.compile(rf"{_DAY}-(?P<b>[A-Za-z]{{3}})-(?P<y>\d\d)\s+{_TIME}")
_MONTHS = {name: number for number, name in enumerate(
    ("jan", "feb", "mar", "apr", "may", "jun", "jul", "aug", "sep", "oct", "nov", "dec"), 1)}
_KIND_SEPARATOR = re.compile(r"[^A-Za-z0-9]+")


class Strictness(Enum):
    STRICT = "strict"
    LENIENT = "lenient"


class IngestReport(Slotted):
    """Counts plus per-line problems. ``entities_created`` counts the
    primary entities (one per accepted storm row / one per situation);
    parents, regions and impact objects are auxiliary."""

    __slots__ = (
        "rows_read", "entities_created", "triples_created", "errors", "warnings", "strictness",
    )

    def __init__(
        self,
        rows_read: int = 0,
        entities_created: int = 0,
        triples_created: int = 0,
        errors: list[tuple[int, str]] | None = None,
        warnings: list[tuple[int, str]] | None = None,
        strictness: Strictness = Strictness.LENIENT,
    ):
        self.rows_read = rows_read
        self.entities_created = entities_created
        self.triples_created = triples_created
        self.errors = [] if errors is None else errors
        self.warnings = [] if warnings is None else warnings
        self.strictness = strictness

    def render(self) -> str:
        lines = [
            f"rows read:        {self.rows_read}",
            f"entities created: {self.entities_created}",
            f"triples created:  {self.triples_created}",
            f"errors:           {len(self.errors)}",
        ]
        lines.extend(f"  line {line}: {reason}" for line, reason in self.errors)
        if self.warnings:
            lines.append(f"warnings:         {len(self.warnings)}")
            lines.extend(f"  line {line}: {reason}" for line, reason in self.warnings)
        return "\n".join(lines)

    def to_json(self) -> str:
        import json  # here, so that an ingest without --json does not import it

        return json.dumps(
            {
                "rows_read": self.rows_read,
                "entities_created": self.entities_created,
                "triples_created": self.triples_created,
                "strictness": self.strictness.value,
                "errors": [{"line": line, "reason": reason} for line, reason in self.errors],
                "warnings": [{"line": line, "reason": reason} for line, reason in self.warnings],
            },
            indent=2,
        )


def sanitize_kind(text: str) -> str:
    """Turn a free-form type string into a CamelCase kind label."""
    parts = [p for p in _KIND_SEPARATOR.split(text.strip()) if p]
    out = []
    for part in parts:
        if part.isupper() or part.islower():
            out.append(part[:1].upper() + part[1:].lower())
        else:
            out.append(part[:1].upper() + part[1:])
    return "".join(out)


def parse_damage(text: str) -> float:
    """Parse damage strings like "10.00K" or "2.5M" into plain numbers."""
    m = _DAMAGE_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"invalid damage value {text!r}")
    return float(m.group("number")) * _DAMAGE_MULTIPLIER[m.group("suffix").upper()]


def _parse_local_timestamp(text: str) -> datetime:
    """The naive local time a storm timestamp cell gives."""
    text = text.strip()
    try:
        if m := _ISO_LOCAL.fullmatch(text):
            year, month = int(m["Y"]), int(m["m"])
        elif m := _NOAA_LOCAL.fullmatch(text):
            year, month = int(m["y"]), _MONTHS[m["b"].lower()]
            year += 2000 if year <= 68 else 1900
        else:
            raise ValueError
        return datetime(year, month, int(m["d"]), int(m["H"]), int(m["M"]), int(m["S"]))
    except (ValueError, KeyError):
        raise ValueError(f"invalid timestamp {text!r}") from None


def _zone(tz_token: str) -> timezone:
    """The fixed offset a timezone cell names by its leading letters; blank is UTC."""
    token = tz_token.strip().upper()
    if not token:
        return _ZONES["UTC"]
    m = _ZONE_PREFIX.match(token)
    if not m or m.group() not in _ZONES:
        raise ValueError(f"unknown timezone token {tz_token!r}")
    return _ZONES[m.group()]


def _open_rows(source: str | Path | IO[str], required: tuple[str, ...]):
    handle = source if hasattr(source, "read") else io.StringIO(read_text(source), newline="")
    reader = csv.reader(handle)
    try:
        header = next(reader, [])
        missing = [c for c in required if c not in header]
        if missing:
            raise MissingColumn(f"missing required column(s): {', '.join(missing)}")
        # Each row is numbered by the physical line it starts on: a quoted
        # field may hold line breaks, and a blank line holds no row.
        rows = []
        lines_read = reader.line_num
        for fields in reader:
            if fields:
                rows.append((lines_read + 1, dict(zip(header, fields))))
            lines_read = reader.line_num
        return rows
    except csv.Error as exc:
        # line_num counts the lines read, up to the one the reader stopped in
        raise IngestError(f"malformed CSV: {exc}", reader.line_num) from None


def _cell(row: dict, column: str) -> str:
    return (row.get(column) or "").strip()


def _check_prefix(id_prefix: str) -> None:
    """A bad prefix fails every row, so it fails the whole ingest instead."""
    if id_prefix:
        validate_entity_id(id_prefix, "id prefix")


def _row_error(report: IngestReport, strictness: Strictness, line: int, reason: str) -> None:
    if strictness is Strictness.STRICT:
        raise IngestError(reason, line)
    report.errors.append((line, reason))


# --------------------------------------------------------------------------
# Storm CSV
# --------------------------------------------------------------------------


def _parse_storm_row(
    row: dict,
) -> tuple[str, str, str, TimeInterval, Geometry | None, tuple[Measurement, ...]]:
    """A storm row's episode and event cells, kind, interval, geometry and impacts."""
    episode_id = _cell(row, "EPISODE_ID")
    event_id = _cell(row, "EVENT_ID")
    event_type = _cell(row, "EVENT_TYPE")
    if not episode_id or not event_id:
        raise ValueError("EPISODE_ID and EVENT_ID must be non-empty")
    kind = sanitize_kind(event_type)
    if not kind:
        raise ValueError(f"EVENT_TYPE {event_type!r} yields an empty kind")
    # Read in this order: a row with more than one bad cell here reports the first.
    begin = _parse_local_timestamp(_cell(row, "BEGIN_DATE_TIME"))
    zone = _zone(_cell(row, "CZ_TIMEZONE"))
    begin = parse_timestamp(begin.replace(tzinfo=zone))
    end = parse_timestamp(_parse_local_timestamp(_cell(row, "END_DATE_TIME")).replace(tzinfo=zone))
    if begin > end:
        raise ValueError("event ends before it begins")
    interval = TimeInterval(begin, end)

    def coord(column: str) -> float | None:
        text = _cell(row, column)
        return float(text) if text else None

    b_lat, b_lon = coord("BEGIN_LAT"), coord("BEGIN_LON")
    e_lat, e_lon = coord("END_LAT"), coord("END_LON")
    geometry: Geometry | None = None
    if b_lat is not None and b_lon is not None:
        if e_lat is not None and e_lon is not None and (e_lat, e_lon) != (b_lat, b_lon):
            geometry = BBox(
                min(b_lat, e_lat), min(b_lon, e_lon), max(b_lat, e_lat), max(b_lon, e_lon)
            )
        else:
            geometry = Point(b_lat, b_lon)

    impacts: list[Measurement] = []
    damage = _cell(row, "DAMAGE_PROPERTY")
    if damage:
        impacts.append(
            Measurement("DamageProperty", Quantity(parse_damage(damage), get_unit("1")))
        )
    deaths = _cell(row, "DEATHS_DIRECT")
    if deaths:
        impacts.append(Measurement("DeathsDirect", Quantity(float(deaths), get_unit("1"))))
    magnitude = _cell(row, "MAGNITUDE")
    if magnitude:
        name = sanitize_kind("Magnitude " + _cell(row, "MAGNITUDE_TYPE"))
        impacts.append(Measurement(name, Quantity(float(magnitude), get_unit("1"))))

    return episode_id, event_id, kind, interval, geometry, tuple(impacts)


@collector_paused()
def ingest_storm_csv(
    graph: KnowledgeGraph,
    source: str | Path | IO[str],
    strictness: Strictness = Strictness.LENIENT,
    id_prefix: str = "ev:",
) -> IngestReport:
    _check_prefix(id_prefix)
    report = IngestReport(strictness=strictness)
    raw_rows = _open_rows(source, STORM_REQUIRED)
    report.rows_read = len(raw_rows)

    # Phase 1: decode and check every row into the values phase 2 adds, so a
    # strict abort leaves the graph untouched. Each episode keeps the line of
    # its first accepted row and the envelope it had before this ingest.
    parsed = []
    episodes: dict[str, tuple[int, SpatioTemporalRegion | None]] = {}
    seen_event_ids: set[str] = set()
    with_coords: list[Geometry] = []
    for lineno, row in raw_rows:
        try:
            episode_cell, event_cell, kind, interval, geometry, impacts = _parse_storm_row(row)
            if event_cell in seen_event_ids:
                raise ValueError(f"EVENT_ID {event_cell!r} occurs twice in this file")
            episode_id = validate_entity_id(f"{id_prefix}episode-{episode_cell}")
            if graph.has_entity(episode_id) and not isinstance(graph.entity(episode_id), GeoEvent):
                raise ValueError(f"episode id {episode_id!r} names an entity that is not an event")
            # The event id checks the cell; the region and impact ids share it.
            event = GeoEvent(f"{id_prefix}event-{event_cell}", kind)
            region_id = f"{id_prefix}region-{event_cell}"
            impact_id = f"{id_prefix}impact-{event_cell}"
            for entity_id in (event.id, region_id, impact_id):
                if graph.has_entity(entity_id):
                    raise ValueError(f"entity id {entity_id!r} already present")
            impact = GeoObject(impact_id, "ImpactRecord", impacts) if impacts else None
        except (ValueError, GeoCausalError) as exc:
            _row_error(report, strictness, lineno, str(exc))
            continue
        seen_event_ids.add(event_cell)
        if episode_id not in episodes:
            envelope = graph.region_of(episode_id) if graph.has_entity(episode_id) else None
            episodes[episode_id] = (lineno, envelope)
        parsed.append((lineno, episode_id, event, region_id, geometry, interval, impact))
        if geometry is not None:
            with_coords.append(geometry)

    default_bbox = bbox_union(with_coords) if with_coords else WORLD_BBOX

    # Phase 2: apply.
    report.entities_created = len(parsed)
    triples_before = graph.triple_count
    for lineno, episode_id, event, region_id, geometry, interval, impact in parsed:
        first_line, envelope = episodes[episode_id]
        if lineno == first_line and not graph.has_entity(episode_id):
            graph.add_entity(GeoEvent(episode_id, "Episode"))
        graph.add_entity(event)
        if geometry is None:
            geometry = default_bbox
            report.warnings.append((lineno, "no coordinates; using file-level default bbox"))
        if envelope is not None and (
            bbox_union((envelope.geometry, geometry)) != as_bbox(envelope.geometry)
            or interval_envelope((envelope.interval, interval)) != envelope.interval
        ):
            report.warnings.append((lineno, (
                f"event lies outside episode envelope {envelope.id!r} from an earlier ingest; "
                "envelopes are not widened"
            )))
        graph.add_entity(SpatioTemporalRegion(region_id, geometry, interval))
        graph.assert_triple(event.id, RelationKind.SPATIO_TEMPORALLY_PRESENT, region_id)
        graph.assert_triple(event.id, RelationKind.PART_OF, episode_id)
        if impact is not None:
            graph.add_entity(impact)
            graph.assert_triple(impact.id, RelationKind.PARTICIPANT_IN, event.id)
            # Participants share their event's region.
            graph.assert_triple(impact.id, RelationKind.SPATIO_TEMPORALLY_PRESENT, region_id)

    # Envelopes for the episodes that had none, over all their children present
    # now; this ingest gave each such episode a child. Regions are immutable, so
    # an envelope is never widened.
    for episode_id in sorted(episodes):
        first_line, envelope = episodes[episode_id]
        if envelope is not None:
            continue
        children = graph.match(predicate=RelationKind.PART_OF, object=episode_id)
        child_regions = [r for t in children if (r := graph.region_of(t.subject)) is not None]
        region_id = f"{id_prefix}region-{episode_id.removeprefix(id_prefix)}"
        if graph.has_entity(region_id):
            report.warnings.append(
                (first_line, f"cannot attach envelope region: id {region_id!r} already taken")
            )
            continue
        graph.add_entity(
            SpatioTemporalRegion(
                region_id,
                bbox_union(r.geometry for r in child_regions),
                interval_envelope(r.interval for r in child_regions),
            )
        )
        graph.assert_triple(episode_id, RelationKind.SPATIO_TEMPORALLY_PRESENT, region_id)
    report.triples_created = graph.triple_count - triples_before
    return report


# --------------------------------------------------------------------------
# Observation CSV
# --------------------------------------------------------------------------


def _parse_observation_row(row: dict) -> tuple[str, TimeInterval, Measurement]:
    """An observation row's situation cell, interval and measurement."""
    situation_id = _cell(row, "SITUATION_ID")
    if not situation_id:
        raise ValueError("SITUATION_ID must be non-empty")
    start = parse_timestamp(_cell(row, "TIMESTAMP_START"))
    end = parse_timestamp(_cell(row, "TIMESTAMP_END"))
    if start > end:
        raise ValueError("observation ends before it starts")
    attribute = _cell(row, "ATTRIBUTE")
    value_text = _cell(row, "VALUE")
    unit_text = _cell(row, "UNIT")
    if not value_text:
        raise ValueError("VALUE must be non-empty")
    if unit_text:
        unit = get_unit(unit_text)  # raises UnknownUnit
        try:
            magnitude = float(value_text)
        except ValueError:
            raise ValueError(f"non-numeric VALUE {value_text!r} with a unit") from None
        value = Quantity(magnitude, unit)
    else:
        value = Categorical(value_text)
    return situation_id, TimeInterval(start, end), Measurement(attribute, value)


@collector_paused()
def ingest_observations_csv(
    graph: KnowledgeGraph,
    source: str | Path | IO[str],
    strictness: Strictness = Strictness.LENIENT,
    id_prefix: str = "ev:",
) -> IngestReport:
    _check_prefix(id_prefix)
    report = IngestReport(strictness=strictness)
    raw_rows = _open_rows(source, OBSERVATION_REQUIRED)
    report.rows_read = len(raw_rows)

    # Situation entity id -> the (interval, measurement) of each accepted row.
    grouped: dict[str, list[tuple[TimeInterval, Measurement]]] = {}
    for lineno, row in raw_rows:
        try:
            situation_cell, interval, measurement = _parse_observation_row(row)
            situation_id = f"{id_prefix}situation-{situation_cell}"
            if graph.has_entity(validate_entity_id(situation_id)):
                raise ValueError(f"entity id {situation_id!r} already present")
            previous = grouped.get(situation_id, [])
            if any(m.attribute == measurement.attribute for _, m in previous):
                raise ValueError(
                    f"duplicate attribute {measurement.attribute!r} "
                    f"for situation {situation_cell!r}; keeping the first"
                )
        except (ValueError, GeoCausalError) as exc:
            _row_error(report, strictness, lineno, str(exc))
            continue
        grouped.setdefault(situation_id, []).append((interval, measurement))

    for situation_id in sorted(grouped):
        intervals, observations = zip(*grouped[situation_id])
        graph.add_entity(GeoSituation(situation_id, interval_envelope(intervals), observations))
    report.entities_created = len(grouped)
    return report
