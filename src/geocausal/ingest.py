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

An ingest reads each row's cells by column index, then runs in two
phases: the first decodes and checks every row into the entities it adds
(each distinct event type and timezone text is resolved once, and each
episode id checked once), and the second adds them to the graph. Strict
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
from operator import itemgetter
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
from .spatiotemporal import bbox_union, spatially_nested, temporally_nested
from .storage import collector_paused, read_text
from .units import Categorical, Quantity, get_unit

#: Fixed UTC offsets, in hours, for the supported timezone tokens.
TIMEZONES = {"UTC": 0, "EST": -5, "EDT": -4, "CST": -6, "CDT": -5, "MST": -7, "MDT": -6, "PST": -8, "PDT": -7}

STORM_REQUIRED = ("EPISODE_ID", "EVENT_ID", "EVENT_TYPE", "BEGIN_DATE_TIME", "END_DATE_TIME", "CZ_TIMEZONE")
#: The optional storm columns read, in the order ``_parse_storm_row`` takes them.
STORM_OPTIONAL = (
    "BEGIN_LAT", "BEGIN_LON", "END_LAT", "END_LON", "DAMAGE_PROPERTY", "DEATHS_DIRECT", "MAGNITUDE", "MAGNITUDE_TYPE",
)

OBSERVATION_REQUIRED = ("SITUATION_ID", "TIMESTAMP_START", "TIMESTAMP_END", "ATTRIBUTE", "VALUE", "UNIT")

WORLD_BBOX = BBox(-90.0, -180.0, 90.0, 180.0)

_DAMAGE_RE = re.compile(r"(?P<number>\d+(?:\.\d+)?)\s*(?P<suffix>[KMBkmb]?)\Z")
_DAMAGE_MULTIPLIER = {"": 1.0, "K": 1e3, "M": 1e6, "B": 1e9}
_COUNT = get_unit("1")

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


def _parse_local_timestamp(text: str, zone: timezone | None = None) -> datetime:
    """The local time a storm timestamp cell gives, in ``zone`` (naive if None)."""
    text = text.strip()
    try:
        if m := _ISO_LOCAL.fullmatch(text):
            year, month, day, hour, minute, second = m.groups()
            year, month = int(year), int(month)
        elif m := _NOAA_LOCAL.fullmatch(text):
            day, name, year, hour, minute, second = m.groups()
            year, month = int(year), _MONTHS[name.lower()]
            year += 2000 if year <= 68 else 1900
        else:
            raise ValueError
        return datetime(year, month, int(day), int(hour), int(minute), int(second), tzinfo=zone)
    except (ValueError, KeyError):
        raise ValueError(f"invalid timestamp {text!r}") from None


def _zone(token: str) -> timezone | None:
    """The fixed offset a stripped timezone cell names by its leading
    letters, None if it names none; blank is UTC."""
    if not token:
        return _ZONES["UTC"]
    m = _ZONE_PREFIX.match(token.upper())
    return _ZONES.get(m.group()) if m else None


def _open_rows(source: str | Path | IO[str], required: tuple[str, ...], optional: tuple[str, ...] = ()):
    """Each row's physical line and its cells of the ``required`` and then the
    ``optional`` columns, stripped. A repeated column reads its last cell in
    the row; a cell the row lacks, or a column the header lacks, reads blank;
    cells past the header are ignored."""
    reader = csv.reader(io.StringIO(read_text(source), newline=""))
    try:
        header = next(reader, [])
        missing = [c for c in required if c not in header]
        if missing:
            raise MissingColumn(f"missing required column(s): {', '.join(missing)}")
        index = {name: i for i, name in enumerate(header)}  # a repeated name keeps its last
        cells = itemgetter(*(index.get(name, -1) for name in required + optional))  # -1: a blank
        # Each row is numbered by the physical line it starts on: a quoted
        # field may hold line breaks, and a blank line holds no row.
        rows = []
        lines_read = reader.line_num
        for fields in reader:
            if fields:
                if len(fields) < len(header):  # so a repeated column reads its last cell in the row
                    named = dict(zip(header, fields))
                    fields = [named.get(name, "") for name in header]
                fields.append("")
                rows.append((lines_read + 1, tuple(map(str.strip, cells(fields)))))
            lines_read = reader.line_num
        return rows
    except csv.Error as exc:
        # line_num counts the lines read, up to the one the reader stopped in
        raise IngestError(f"malformed CSV: {exc}", reader.line_num) from None


def _check_prefix(id_prefix: str) -> None:
    """A bad prefix fails every row, so it fails the whole ingest instead."""
    if id_prefix:
        validate_entity_id(id_prefix, "id prefix")


def _row_error(report: IngestReport, line: int, reason: str) -> None:
    if report.strictness is Strictness.STRICT:
        raise IngestError(reason, line)
    report.errors.append((line, reason))


# --------------------------------------------------------------------------
# Storm CSV
# --------------------------------------------------------------------------


def _parse_storm_row(
    cells: tuple[str, ...], kinds: dict[str, str], zones: dict[str, timezone | None],
) -> tuple[str, str, str, TimeInterval, Geometry | None, tuple[Measurement, ...]]:
    """A storm row's episode and event cells, kind, interval, geometry and
    impacts. ``kinds`` maps each type text sanitized so far (event and
    magnitude types) to its kind, and ``zones`` each timezone text to its offset."""
    (episode_id, event_id, event_type, begin, end, zone_text,
     b_lat, b_lon, e_lat, e_lon, damage, deaths, magnitude, magnitude_type) = cells
    if not episode_id or not event_id:
        raise ValueError("EPISODE_ID and EVENT_ID must be non-empty")
    if (kind := kinds.get(event_type)) is None:
        kind = kinds[event_type] = sanitize_kind(event_type)
    if not kind:
        raise ValueError(f"EVENT_TYPE {event_type!r} yields an empty kind")
    # Read in this order: a row with more than one bad cell here reports the first.
    if zone_text not in zones:  # an unknown token is kept too, as None
        zones[zone_text] = _zone(zone_text)
    zone = zones[zone_text]
    begin = _parse_local_timestamp(begin, zone)
    if zone is None:
        raise ValueError(f"unknown timezone token {zone_text!r}")
    begin = parse_timestamp(begin)
    end = parse_timestamp(_parse_local_timestamp(end, zone))
    if begin > end:
        raise ValueError("event ends before it begins")
    interval = TimeInterval(begin, end)

    b_lat = float(b_lat) if b_lat else None
    b_lon = float(b_lon) if b_lon else None
    e_lat = float(e_lat) if e_lat else None
    e_lon = float(e_lon) if e_lon else None
    geometry: Geometry | None = None
    if b_lat is not None and b_lon is not None:
        if e_lat is not None and e_lon is not None and (e_lat, e_lon) != (b_lat, b_lon):
            geometry = BBox(
                min(b_lat, e_lat), min(b_lon, e_lon), max(b_lat, e_lat), max(b_lon, e_lon)
            )
        else:
            geometry = Point(b_lat, b_lon)

    impacts: list[Measurement] = []
    if damage:
        impacts.append(Measurement("DamageProperty", Quantity(parse_damage(damage), _COUNT)))
    if deaths:
        impacts.append(Measurement("DeathsDirect", Quantity(float(deaths), _COUNT)))
    if magnitude:
        magnitude_type = "Magnitude " + magnitude_type
        if (name := kinds.get(magnitude_type)) is None:
            name = kinds[magnitude_type] = sanitize_kind(magnitude_type)
        impacts.append(Measurement(name, Quantity(float(magnitude), _COUNT)))

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
    raw_rows = _open_rows(source, STORM_REQUIRED, STORM_OPTIONAL)
    report.rows_read = len(raw_rows)

    # Phase 1: decode and check every row into the values phase 2 adds, so a
    # strict abort leaves the graph untouched. Each episode keeps the line of
    # its first accepted row and the envelope it had before this ingest.
    parsed = []
    episodes: dict[str, tuple[int, SpatioTemporalRegion | None]] = {}
    episode_ids: dict[str, str] = {}  # episode cell -> its checked id
    kinds: dict[str, str] = {}
    zones: dict[str, timezone | None] = {}
    seen_event_ids: set[str] = set()
    with_coords: list[Geometry] = []
    has_entity = graph.has_entity
    for lineno, cells in raw_rows:
        try:
            episode_cell, event_cell, kind, interval, geometry, impacts = _parse_storm_row(cells, kinds, zones)
            if event_cell in seen_event_ids:
                raise ValueError(f"EVENT_ID {event_cell!r} occurs twice in this file")
            if (episode_id := episode_ids.get(episode_cell)) is None:
                episode_id = validate_entity_id(f"{id_prefix}episode-{episode_cell}")
                if has_entity(episode_id) and not isinstance(graph.entity(episode_id), GeoEvent):
                    raise ValueError(f"episode id {episode_id!r} names an entity that is not an event")
                episode_ids[episode_cell] = episode_id
            # The event id checks the cell; the region and impact ids share it.
            event = GeoEvent(f"{id_prefix}event-{event_cell}", kind)
            region_id = f"{id_prefix}region-{event_cell}"
            impact_id = f"{id_prefix}impact-{event_cell}"
            for entity_id in (event.id, region_id, impact_id):
                if has_entity(entity_id):
                    raise ValueError(f"entity id {entity_id!r} already present")
            impact = GeoObject(impact_id, "ImpactRecord", impacts) if impacts else None
        except (ValueError, GeoCausalError) as exc:
            _row_error(report, lineno, str(exc))
            continue
        seen_event_ids.add(event_cell)
        if episode_id not in episodes:
            episodes[episode_id] = (lineno, graph.region_of(episode_id) if has_entity(episode_id) else None)
        parsed.append((lineno, episode_id, event, region_id, geometry, interval, impact))
        if geometry is not None:
            with_coords.append(geometry)

    default_bbox = bbox_union(with_coords) if with_coords else WORLD_BBOX

    # Phase 2: apply.
    report.entities_created = len(parsed)
    triples_before = graph.triple_count
    add_entity, assert_triple = graph.add_entity, graph.assert_triple
    present, part_of, participant_in = (
        RelationKind.SPATIO_TEMPORALLY_PRESENT, RelationKind.PART_OF, RelationKind.PARTICIPANT_IN
    )
    for lineno, episode_id, event, region_id, geometry, interval, impact in parsed:
        if not has_entity(episode_id):  # at its first accepted row: no other id added is an episode's
            add_entity(GeoEvent(episode_id, "Episode"))
        add_entity(event)
        if geometry is None:
            geometry = default_bbox
            report.warnings.append((lineno, "no coordinates; using file-level default bbox"))
        envelope = episodes[episode_id][1]
        if envelope is not None and not (
            spatially_nested(geometry, envelope.geometry) and temporally_nested(interval, envelope.interval)
        ):
            report.warnings.append((lineno, (
                f"event lies outside episode envelope {envelope.id!r} from an earlier ingest; "
                "envelopes are not widened"
            )))
        add_entity(SpatioTemporalRegion(region_id, geometry, interval))
        assert_triple(event.id, present, region_id)
        assert_triple(event.id, part_of, episode_id)
        if impact is not None:
            add_entity(impact)
            assert_triple(impact.id, participant_in, event.id)
            # Participants share their event's region.
            assert_triple(impact.id, present, region_id)

    # Envelopes for the episodes that had none, over all their children present
    # now; this ingest gave each such episode a child. Regions are immutable, so
    # an envelope is never widened.
    for episode_id in sorted(episodes):
        first_line, envelope = episodes[episode_id]
        if envelope is not None:
            continue
        region_id = f"{id_prefix}region-{episode_id.removeprefix(id_prefix)}"
        if has_entity(region_id):
            report.warnings.append(
                (first_line, f"cannot attach envelope region: id {region_id!r} already taken")
            )
            continue
        children = [r for t in graph.match(predicate=part_of, object=episode_id)
                    if (r := graph.region_of(t.subject)) is not None]
        geometry = bbox_union(r.geometry for r in children)
        add_entity(SpatioTemporalRegion(region_id, geometry, interval_envelope(r.interval for r in children)))
        assert_triple(episode_id, present, region_id)
    report.triples_created = graph.triple_count - triples_before
    return report


# --------------------------------------------------------------------------
# Observation CSV
# --------------------------------------------------------------------------


def _parse_observation_row(cells: tuple[str, ...]) -> tuple[str, TimeInterval, Measurement]:
    """An observation row's situation cell, interval and measurement."""
    situation_id, start, end, attribute, value_text, unit_text = cells
    if not situation_id:
        raise ValueError("SITUATION_ID must be non-empty")
    start = parse_timestamp(start)
    end = parse_timestamp(end)
    if start > end:
        raise ValueError("observation ends before it starts")
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
    for lineno, cells in raw_rows:
        try:
            situation_cell, interval, measurement = _parse_observation_row(cells)
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
            _row_error(report, lineno, str(exc))
            continue
        grouped.setdefault(situation_id, []).append((interval, measurement))

    for situation_id in sorted(grouped):
        intervals, observations = zip(*grouped[situation_id])
        graph.add_entity(GeoSituation(situation_id, interval_envelope(intervals), observations))
    report.entities_created = len(grouped)
    return report
