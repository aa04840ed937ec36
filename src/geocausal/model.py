"""Core domain vocabulary: identifiers, time intervals, geometry, entities.

All types are immutable values; constructors reject invariant violations
outright, so an instance that exists is always well-formed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable

from .errors import InvariantViolation, OrderViolation, ParseError
from .units import Value

_ID_FORBIDDEN = re.compile(r'[\s\x00-\x1f\x7f"\ud800-\udfff]')
ATTR_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_DATE_ONLY = re.compile(r"\d{4}-\d{2}-\d{2}\Z")

#: Entity identifiers are IRI-like opaque strings, e.g. "ev:Katrina".
EntityId = str


def validate_entity_id(value: str, what: str = "entity id") -> str:
    """Check an entity id, kind or rule id: a non-empty token without
    whitespace, control or surrogate characters or ``"``, so it persists unescaped."""
    if not isinstance(value, str) or not value:
        raise InvariantViolation(f"{what} must be a non-empty string")
    if _ID_FORBIDDEN.search(value):
        raise InvariantViolation(
            f"{what} {value!r} must not contain whitespace, control, quote or surrogate characters"
        )
    return value


def parse_timestamp(value: str | datetime) -> datetime:
    """Parse an RFC-3339-style timestamp into a UTC instant at second resolution.

    Date-only strings mean midnight UTC; naive timestamps are taken as UTC;
    fractional seconds are truncated. An instant outside years 1-9999 UTC
    raises ParseError.
    """
    if isinstance(value, datetime):
        dt = value
    else:
        text = str(value).strip()
        if _DATE_ONLY.fullmatch(text):
            text += "T00:00:00+00:00"
        elif text.endswith(("Z", "z")):
            text = text[:-1] + "+00:00"
        # fractional seconds are truncated, so drop them before parsing
        text = re.sub(r"(:\d{2})\.\d+", r"\1", text, count=1)
        try:
            dt = datetime.fromisoformat(text)
        except ValueError:
            raise ParseError(f"invalid timestamp {value!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    try:
        return dt.astimezone(timezone.utc).replace(microsecond=0)
    except OverflowError:
        raise ParseError(f"timestamp {dt.isoformat()} is outside years 1-9999 UTC") from None


def format_timestamp(dt: datetime) -> str:
    dt = dt.astimezone(timezone.utc)
    return f"{dt.year:04d}-{dt:%m-%dT%H:%M:%S}Z"  # %Y does not zero-pad years before 1000


@dataclass(frozen=True, order=True)
class TimeInterval:
    """A closed UTC interval; point instants are allowed (start == end)."""

    start: datetime
    end: datetime

    def __post_init__(self):
        object.__setattr__(self, "start", parse_timestamp(self.start))
        object.__setattr__(self, "end", parse_timestamp(self.end))
        if self.start > self.end:
            raise OrderViolation(
                f"interval start {format_timestamp(self.start)} is after end "
                f"{format_timestamp(self.end)}"
            )

    @property
    def duration(self):
        return self.end - self.start

    def is_instant(self) -> bool:
        return self.start == self.end


def make_interval(start: str | datetime, end: str | datetime) -> TimeInterval:
    """Build an interval from timestamps or parseable timestamp strings."""
    return TimeInterval(parse_timestamp(start), parse_timestamp(end))


def interval_envelope(intervals: Iterable[TimeInterval]) -> TimeInterval:
    items = list(intervals)
    if not items:
        raise InvariantViolation("cannot take the envelope of zero intervals")
    return TimeInterval(min(i.start for i in items), max(i.end for i in items))


def _check_lat(lat: float) -> float:
    lat = float(lat)
    if not -90.0 <= lat <= 90.0:
        raise InvariantViolation(f"latitude {lat} outside [-90, 90]")
    return lat


def _check_lon(lon: float) -> float:
    lon = float(lon)
    if not -180.0 <= lon <= 180.0:
        raise InvariantViolation(f"longitude {lon} outside [-180, 180]")
    return lon


@dataclass(frozen=True)
class Point:
    lat: float
    lon: float

    def __post_init__(self):
        object.__setattr__(self, "lat", _check_lat(self.lat))
        object.__setattr__(self, "lon", _check_lon(self.lon))


@dataclass(frozen=True)
class BBox:
    """An axis-aligned WGS-84 rectangle; no antimeridian wrap."""

    min_lat: float
    min_lon: float
    max_lat: float
    max_lon: float

    def __post_init__(self):
        object.__setattr__(self, "min_lat", _check_lat(self.min_lat))
        object.__setattr__(self, "max_lat", _check_lat(self.max_lat))
        object.__setattr__(self, "min_lon", _check_lon(self.min_lon))
        object.__setattr__(self, "max_lon", _check_lon(self.max_lon))
        if self.min_lat > self.max_lat or self.min_lon > self.max_lon:
            raise InvariantViolation("bbox min corner must not exceed max corner")


Geometry = Point | BBox


@dataclass(frozen=True)
class Measurement:
    """A named observation: attribute plus a quantity or categorical value."""

    attribute: str
    value: Value

    def __post_init__(self):
        if not ATTR_NAME.fullmatch(self.attribute or ""):
            raise InvariantViolation(
                f"attribute name {self.attribute!r} must match [A-Za-z][A-Za-z0-9_]*"
            )


def _measurement_tuple(items: Iterable[Measurement], what: str) -> tuple[Measurement, ...]:
    ordered = tuple(sorted(items, key=lambda m: m.attribute))
    seen: set[str] = set()
    for m in ordered:
        if not isinstance(m, Measurement):
            raise InvariantViolation(f"{what} must be Measurement instances")
        if m.attribute in seen:
            raise InvariantViolation(f"duplicate {what} attribute {m.attribute!r}")
        seen.add(m.attribute)
    return ordered


@dataclass(frozen=True)
class GeoObject:
    """An endurant geographic entity (dam, atmosphere snapshot, ...)."""

    id: EntityId
    kind: str
    attributes: tuple[Measurement, ...] = ()

    def __post_init__(self):
        validate_entity_id(self.id)
        validate_entity_id(self.kind, "kind")
        object.__setattr__(self, "attributes", _measurement_tuple(self.attributes, "attribute"))

    def attribute(self, name: str) -> Value | None:
        for m in self.attributes:
            if m.attribute == name:
                return m.value
        return None


@dataclass(frozen=True)
class GeoEvent:
    """A perdurant geographic occurrence (hurricane, flash flood, ...)."""

    id: EntityId
    kind: str

    def __post_init__(self):
        validate_entity_id(self.id)
        validate_entity_id(self.kind, "kind")


@dataclass(frozen=True)
class GeoSituation:
    """A state of the world over an interval, characterized by observations."""

    id: EntityId
    holds_during: TimeInterval
    observations: tuple[Measurement, ...] = ()

    def __post_init__(self):
        validate_entity_id(self.id)
        if not isinstance(self.holds_during, TimeInterval):
            raise InvariantViolation("holds_during must be a TimeInterval")
        object.__setattr__(
            self, "observations", _measurement_tuple(self.observations, "observation")
        )

    def observation(self, name: str) -> Value | None:
        for m in self.observations:
            if m.attribute == name:
                return m.value
        return None


@dataclass(frozen=True)
class SpatioTemporalRegion:
    """A paired spatial and temporal footprint; never one without the other."""

    id: EntityId
    geometry: Geometry
    interval: TimeInterval

    def __post_init__(self):
        validate_entity_id(self.id)
        if not isinstance(self.geometry, (Point, BBox)):
            raise InvariantViolation("region geometry must be a Point or BBox")
        if not isinstance(self.interval, TimeInterval):
            raise InvariantViolation("region interval must be a TimeInterval")


Entity = GeoObject | GeoEvent | GeoSituation | SpatioTemporalRegion
