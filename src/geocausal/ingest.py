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

Strict mode aborts on the first bad row, before anything is applied to
the graph; lenient mode skips bad rows and records them in the report.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
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
)
from .spatiotemporal import bbox_union
from .storage import read_text
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

_LOCAL_FORMATS = ("%Y-%m-%d %H:%M:%S", "%Y-%m-%dT%H:%M:%S", "%d-%b-%y %H:%M:%S")


class Strictness(Enum):
    STRICT = "strict"
    LENIENT = "lenient"


@dataclass
class IngestReport:
    """Counts plus per-line problems. ``entities_created`` counts the
    primary entities (one per accepted storm row / one per situation);
    parents, regions and impact objects are auxiliary."""

    rows_read: int = 0
    entities_created: int = 0
    triples_created: int = 0
    errors: list[tuple[int, str]] = field(default_factory=list)
    warnings: list[tuple[int, str]] = field(default_factory=list)
    strictness: Strictness = Strictness.LENIENT

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


@dataclass(frozen=True)
class StormEventRow:
    """One storm CSV row after parsing and normalization."""

    line: int
    episode_id: str
    event_id: str
    event_type: str
    kind: str
    interval: TimeInterval
    geometry: Geometry | None
    impacts: tuple[Measurement, ...]


@dataclass(frozen=True)
class ObservationRow:
    line: int
    situation_id: str
    interval: TimeInterval
    measurement: Measurement


def sanitize_kind(text: str) -> str:
    """Turn a free-form type string into a CamelCase kind label."""
    parts = [p for p in re.split(r"[^A-Za-z0-9]+", text.strip()) if p]
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


def _parse_local_timestamp(text: str, tz_token: str) -> datetime:
    text = text.strip()
    naive = None
    for fmt in _LOCAL_FORMATS:
        try:
            naive = datetime.strptime(text, fmt)
            break
        except ValueError:
            continue
    if naive is None:
        raise ValueError(f"invalid timestamp {text!r}")
    token = tz_token.strip().upper()
    if not token:
        offset = 0
    else:
        m = re.match(r"[A-Z]+", token)
        if not m or m.group() not in TIMEZONES:
            raise ValueError(f"unknown timezone token {tz_token!r}")
        offset = TIMEZONES[m.group()]
    return parse_timestamp(naive.replace(tzinfo=timezone(timedelta(hours=offset))))


def _open_rows(source: str | Path | IO[str], required: tuple[str, ...]):
    handle = source if hasattr(source, "read") else io.StringIO(read_text(source), newline="")
    reader = csv.DictReader(handle)
    try:
        header = reader.fieldnames or []
        missing = [c for c in required if c not in header]
        if missing:
            raise MissingColumn(f"missing required column(s): {', '.join(missing)}")
        return [(lineno, row) for lineno, row in enumerate(reader, 2)]
    except csv.Error as exc:
        # DictReader.line_num stops at the last record read whole
        raise IngestError(f"malformed CSV: {exc}", reader.reader.line_num) from None


def _cell(row: dict, column: str) -> str:
    return (row.get(column) or "").strip()


def _row_error(report: IngestReport, strictness: Strictness, line: int, reason: str) -> None:
    if strictness is Strictness.STRICT:
        raise IngestError(reason, line)
    report.errors.append((line, reason))


# --------------------------------------------------------------------------
# Storm CSV
# --------------------------------------------------------------------------


def _parse_storm_row(lineno: int, row: dict) -> StormEventRow:
    episode_id = _cell(row, "EPISODE_ID")
    event_id = _cell(row, "EVENT_ID")
    event_type = _cell(row, "EVENT_TYPE")
    if not episode_id or not event_id:
        raise ValueError("EPISODE_ID and EVENT_ID must be non-empty")
    kind = sanitize_kind(event_type)
    if not kind:
        raise ValueError(f"EVENT_TYPE {event_type!r} yields an empty kind")
    tz = _cell(row, "CZ_TIMEZONE")
    begin = _parse_local_timestamp(_cell(row, "BEGIN_DATE_TIME"), tz)
    end = _parse_local_timestamp(_cell(row, "END_DATE_TIME"), tz)
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

    return StormEventRow(
        lineno, episode_id, event_id, event_type, kind, interval, geometry, tuple(impacts)
    )


def ingest_storm_csv(
    graph: KnowledgeGraph,
    source: str | Path | IO[str],
    strictness: Strictness = Strictness.LENIENT,
    id_prefix: str = "ev:",
) -> IngestReport:
    report = IngestReport(strictness=strictness)
    raw_rows = _open_rows(source, STORM_REQUIRED)
    report.rows_read = len(raw_rows)

    # Phase 1: parse and validate everything so a strict abort leaves the
    # graph untouched.
    parsed: list[StormEventRow] = []
    seen_event_ids: set[str] = set()
    for lineno, row in raw_rows:
        try:
            storm_row = _parse_storm_row(lineno, row)
            if storm_row.event_id in seen_event_ids:
                raise ValueError(f"EVENT_ID {storm_row.event_id!r} occurs twice in this file")
            for entity_id in (
                f"{id_prefix}event-{storm_row.event_id}",
                f"{id_prefix}region-{storm_row.event_id}",
                f"{id_prefix}impact-{storm_row.event_id}",
            ):
                if graph.has_entity(entity_id):
                    raise ValueError(f"entity id {entity_id!r} already present")
        except (ValueError, GeoCausalError) as exc:
            _row_error(report, strictness, lineno, str(exc))
            continue
        seen_event_ids.add(storm_row.event_id)
        parsed.append(storm_row)

    with_coords = [r.geometry for r in parsed if r.geometry is not None]
    default_bbox = bbox_union(with_coords) if with_coords else WORLD_BBOX

    # Phase 2: apply.
    episodes: dict[str, str] = {}
    for storm_row in parsed:
        episode_entity_id = f"{id_prefix}episode-{storm_row.episode_id}"
        if storm_row.episode_id not in episodes:
            if not graph.has_entity(episode_entity_id):
                graph.add_entity(GeoEvent(episode_entity_id, "Episode"))
            episodes[storm_row.episode_id] = episode_entity_id

        event_id = f"{id_prefix}event-{storm_row.event_id}"
        region_id = f"{id_prefix}region-{storm_row.event_id}"
        graph.add_entity(GeoEvent(event_id, storm_row.kind))
        report.entities_created += 1
        geometry = storm_row.geometry
        if geometry is None:
            geometry = default_bbox
            report.warnings.append(
                (storm_row.line, "no coordinates; using file-level default bbox")
            )
        graph.add_entity(SpatioTemporalRegion(region_id, geometry, storm_row.interval))
        graph.assert_triple(event_id, RelationKind.SPATIO_TEMPORALLY_PRESENT, region_id)
        graph.assert_triple(event_id, RelationKind.PART_OF, episode_entity_id)
        report.triples_created += 2
        if storm_row.impacts:
            impact_id = f"{id_prefix}impact-{storm_row.event_id}"
            graph.add_entity(GeoObject(impact_id, "ImpactRecord", storm_row.impacts))
            graph.assert_triple(impact_id, RelationKind.PARTICIPANT_IN, event_id)
            # Participants share their event's region.
            graph.assert_triple(impact_id, RelationKind.SPATIO_TEMPORALLY_PRESENT, region_id)
            report.triples_created += 2

    # Episode envelopes, computed over all children present after this pass.
    for episode_entity_id in sorted(set(episodes.values())):
        if graph.region_of(episode_entity_id) is not None:
            continue
        children = graph.match(predicate=RelationKind.PART_OF, object=episode_entity_id)
        child_regions = [graph.region_of(t.subject) for t in children]
        child_regions = [r for r in child_regions if r is not None]
        if not child_regions:
            continue
        region_id = f"{id_prefix}region-{episode_entity_id.removeprefix(id_prefix)}"
        if graph.has_entity(region_id):
            report.warnings.append(
                (0, f"cannot attach envelope region: id {region_id!r} already taken")
            )
            continue
        graph.add_entity(
            SpatioTemporalRegion(
                region_id,
                bbox_union(r.geometry for r in child_regions),
                interval_envelope(r.interval for r in child_regions),
            )
        )
        graph.assert_triple(
            episode_entity_id, RelationKind.SPATIO_TEMPORALLY_PRESENT, region_id
        )
        report.triples_created += 1

    return report


# --------------------------------------------------------------------------
# Observation CSV
# --------------------------------------------------------------------------


def _parse_observation_row(lineno: int, row: dict) -> ObservationRow:
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
    return ObservationRow(lineno, situation_id, TimeInterval(start, end), Measurement(attribute, value))


def ingest_observations_csv(
    graph: KnowledgeGraph,
    source: str | Path | IO[str],
    strictness: Strictness = Strictness.LENIENT,
    id_prefix: str = "ev:",
) -> IngestReport:
    report = IngestReport(strictness=strictness)
    raw_rows = _open_rows(source, OBSERVATION_REQUIRED)
    report.rows_read = len(raw_rows)

    grouped: dict[str, list[ObservationRow]] = {}
    for lineno, row in raw_rows:
        try:
            obs = _parse_observation_row(lineno, row)
            situation_entity_id = f"{id_prefix}situation-{obs.situation_id}"
            if graph.has_entity(situation_entity_id):
                raise ValueError(f"entity id {situation_entity_id!r} already present")
            previous = grouped.get(obs.situation_id, [])
            if any(p.measurement.attribute == obs.measurement.attribute for p in previous):
                raise ValueError(
                    f"duplicate attribute {obs.measurement.attribute!r} "
                    f"for situation {obs.situation_id!r}; keeping the first"
                )
        except (ValueError, GeoCausalError) as exc:
            _row_error(report, strictness, lineno, str(exc))
            continue
        grouped.setdefault(obs.situation_id, []).append(obs)

    for situation_id in sorted(grouped):
        rows = grouped[situation_id]
        interval = interval_envelope(r.interval for r in rows)
        graph.add_entity(
            GeoSituation(
                f"{id_prefix}situation-{situation_id}",
                interval,
                tuple(r.measurement for r in rows),
            )
        )
        report.entities_created += 1
    return report
