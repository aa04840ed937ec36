"""Core domain vocabulary: identifiers, time intervals, geometry, entities.

All types are immutable values: slotted classes (``geocausal.slotted``),
not dataclasses, equal and hashed by their fields. Each constructor
rejects invariant violations outright, so an instance that exists is
always well-formed.
"""

from __future__ import annotations

import re
from datetime import datetime, timezone
from enum import Enum
from typing import Iterable

from .errors import InvariantViolation, OrderViolation, ParseError
from .slotted import Frozen, Ordered, store
from .units import Value, to_float

_ID_FORBIDDEN = re.compile(r'[\s\x00-\x1f\x7f"\ud800-\udfff]')
ATTR_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_DATE_ONLY = re.compile(r"\d{4}-\d{2}-\d{2}\Z")
_FRACTION = re.compile(r"(:\d{2})\.\d+")

#: Entity identifiers are IRI-like opaque strings, e.g. "ev:Katrina".
EntityId = str


class Role(Enum):
    """The part an entity plays in the graph; each entity class has one."""

    OBJECT = "object"
    EVENT = "event"
    SITUATION = "situation"
    REGION = "region"
    __hash__ = object.__hash__  # members are singletons: hash them by identity, in C


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
        if "." in text:  # fractional seconds are truncated, so drop them before parsing
            text = _FRACTION.sub(r"\1", text, count=1)
        try:
            dt = datetime.fromisoformat(text)
        except ValueError:
            raise ParseError(f"invalid timestamp {value!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    try:
        dt = dt.astimezone(timezone.utc)
    except OverflowError:
        raise ParseError(f"timestamp {dt.isoformat()} is outside years 1-9999 UTC") from None
    return dt.replace(microsecond=0) if dt.microsecond else dt


def format_timestamp(dt: datetime) -> str:
    return dt.astimezone(timezone.utc).replace(microsecond=0, tzinfo=None).isoformat() + "Z"


class TimeInterval(Ordered):
    """A closed UTC interval; point instants are allowed (start == end)."""

    __slots__ = ("start", "end")

    def __init__(self, start: datetime | str, end: datetime | str):
        start = parse_timestamp(start)
        end = parse_timestamp(end)
        if start > end:
            raise OrderViolation(
                f"interval start {format_timestamp(start)} is after end {format_timestamp(end)}"
            )
        store(self, "start", start)
        store(self, "end", end)

    @property
    def duration(self):
        return self.end - self.start

    def is_instant(self) -> bool:
        return self.start == self.end


def interval_envelope(intervals: Iterable[TimeInterval]) -> TimeInterval:
    items = list(intervals)
    if not items:
        raise InvariantViolation("cannot take the envelope of zero intervals")
    return TimeInterval(min(i.start for i in items), max(i.end for i in items))


def _check_lat(lat: float) -> float:
    lat = to_float(lat, "latitude")
    if not -90.0 <= lat <= 90.0:
        raise InvariantViolation(f"latitude {lat} outside [-90, 90]")
    return lat


def _check_lon(lon: float) -> float:
    lon = to_float(lon, "longitude")
    if not -180.0 <= lon <= 180.0:
        raise InvariantViolation(f"longitude {lon} outside [-180, 180]")
    return lon


class Point(Frozen):
    __slots__ = ("lat", "lon")

    def __init__(self, lat: float, lon: float):
        store(self, "lat", _check_lat(lat))
        store(self, "lon", _check_lon(lon))


class BBox(Frozen):
    """An axis-aligned WGS-84 rectangle; no antimeridian wrap."""

    __slots__ = ("min_lat", "min_lon", "max_lat", "max_lon")

    def __init__(self, min_lat: float, min_lon: float, max_lat: float, max_lon: float):
        min_lat = _check_lat(min_lat)
        max_lat = _check_lat(max_lat)
        min_lon = _check_lon(min_lon)
        max_lon = _check_lon(max_lon)
        if min_lat > max_lat or min_lon > max_lon:
            raise InvariantViolation("bbox min corner must not exceed max corner")
        store(self, "min_lat", min_lat)
        store(self, "min_lon", min_lon)
        store(self, "max_lat", max_lat)
        store(self, "max_lon", max_lon)


Geometry = Point | BBox


class Measurement(Frozen):
    """A named observation: attribute plus a quantity or categorical value."""

    __slots__ = ("attribute", "value")

    def __init__(self, attribute: str, value: Value):
        if not isinstance(attribute, str) or not ATTR_NAME.fullmatch(attribute):
            raise InvariantViolation(
                f"attribute name {attribute!r} must match [A-Za-z][A-Za-z0-9_]*"
            )
        if not isinstance(value, Value):
            raise InvariantViolation(f"measurement value must be a Quantity or Categorical, got {value!r}")
        store(self, "attribute", attribute)
        store(self, "value", value)


def _measurement_tuple(items: Iterable[Measurement], what: str) -> tuple[Measurement, ...]:
    try:
        ordered = list(items)
    except TypeError:
        ordered = None
    if ordered is None or not all(isinstance(m, Measurement) for m in ordered):
        raise InvariantViolation(f"{what} must be Measurement instances")
    ordered.sort(key=lambda m: m.attribute)
    for before, m in zip(ordered, ordered[1:]):
        if m.attribute == before.attribute:
            raise InvariantViolation(f"duplicate {what} attribute {m.attribute!r}")
    return tuple(ordered)


class GeoObject(Frozen):
    """An endurant geographic entity (dam, atmosphere snapshot, ...)."""

    __slots__ = ("id", "kind", "attributes")
    role = Role.OBJECT

    def __init__(self, id: EntityId, kind: str, attributes: Iterable[Measurement] = ()):
        store(self, "id", validate_entity_id(id))
        store(self, "kind", validate_entity_id(kind, "kind"))
        store(self, "attributes", _measurement_tuple(attributes, "attribute"))

    def attribute(self, name: str) -> Value | None:
        for m in self.attributes:
            if m.attribute == name:
                return m.value
        return None


class GeoEvent(Frozen):
    """A perdurant geographic occurrence (hurricane, flash flood, ...)."""

    __slots__ = ("id", "kind")
    role = Role.EVENT

    def __init__(self, id: EntityId, kind: str):
        store(self, "id", validate_entity_id(id))
        store(self, "kind", validate_entity_id(kind, "kind"))


class GeoSituation(Frozen):
    """A state of the world over an interval, characterized by observations."""

    __slots__ = ("id", "holds_during", "observations")
    role = Role.SITUATION

    def __init__(
        self, id: EntityId, holds_during: TimeInterval, observations: Iterable[Measurement] = ()
    ):
        validate_entity_id(id)
        if not isinstance(holds_during, TimeInterval):
            raise InvariantViolation("holds_during must be a TimeInterval")
        store(self, "id", id)
        store(self, "holds_during", holds_during)
        store(self, "observations", _measurement_tuple(observations, "observation"))

    def observation(self, name: str) -> Value | None:
        for m in self.observations:
            if m.attribute == name:
                return m.value
        return None


class SpatioTemporalRegion(Frozen):
    """A paired spatial and temporal footprint; never one without the other."""

    __slots__ = ("id", "geometry", "interval")
    role = Role.REGION

    def __init__(self, id: EntityId, geometry: Geometry, interval: TimeInterval):
        validate_entity_id(id)
        if not isinstance(geometry, (Point, BBox)):
            raise InvariantViolation("region geometry must be a Point or BBox")
        if not isinstance(interval, TimeInterval):
            raise InvariantViolation("region interval must be a TimeInterval")
        store(self, "id", id)
        store(self, "geometry", geometry)
        store(self, "interval", interval)


Entity = GeoObject | GeoEvent | GeoSituation | SpatioTemporalRegion
