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
from operator import attrgetter
from typing import Iterable

from .errors import InvariantViolation, OrderViolation, ParseError
from .slotted import Frozen, Ordered, setters, store
from .units import Value, to_float

_UTC, _fromisoformat = timezone.utc, datetime.fromisoformat
# The timestamp shapes datetime.fromisoformat reads alike on every supported
# Python, as 3.10 documents them, each ASCII digit written as 9: a date, alone
# or then "T" (or any one character in its place) and a time with an offset or none.
_NINES = bytes.maketrans(b"012345678", b"999999999")
_SHAPES = frozenset(
    f"9999-99-99{time}{offset}".encode()
    for time in ("", "T99", "T99:99", "T99:99:99")
    for offset in ("", "+99:99", "+99:99:99", "+99:99:99.999999", "-99:99", "-99:99:99", "-99:99:99.999999")
    if time or not offset
)

#: Entity identifiers are IRI-like opaque strings, e.g. "ev:Katrina".
EntityId = str


class Role(Enum):
    """The part an entity plays in the graph; each entity class has one."""

    OBJECT = "object"
    EVENT = "event"
    SITUATION = "situation"
    REGION = "region"
    __hash__ = object.__hash__  # members are singletons: hash them by identity, in C


# The checks here compile no pattern, as every command imports this module;
# tests/test_model.py holds the id and attribute name checks to their patterns.


def is_attribute_name(name: str) -> bool:
    """Whether ``name`` matches ``[A-Za-z][A-Za-z0-9_]*``."""
    return name.isascii() and name.isidentifier() and name[0] != "_"


def validate_entity_id(value: str, what: str = "entity id") -> str:
    """Check an entity id, kind or rule id: a non-empty token without
    whitespace, control or surrogate characters or ``"``, so it persists unescaped."""
    if not isinstance(value, str) or not value:
        raise InvariantViolation(f"{what} must be a non-empty string")
    # Printable text holds no forbidden character but the space and the quote,
    # so only other text needs the scan.
    if not (value.isprintable() and " " not in value and '"' not in value) and any(
        c.isspace() or c < " " or c in '\x7f"' or "\ud800" <= c <= "\udfff" for c in value
    ):
        raise InvariantViolation(
            f"{what} {value!r} must not contain whitespace, control, quote or surrogate characters"
        )
    return value


def parse_timestamp(value: str | datetime) -> datetime:
    """Parse an RFC-3339-style timestamp into a UTC instant at second resolution.

    Date-only strings mean midnight UTC; naive timestamps are taken as UTC;
    fractional seconds are truncated. Only the forms docs/file-formats.md
    lists are read, the same on every supported Python. Any other text, or
    an instant outside years 1-9999 UTC, raises ParseError.
    """
    if isinstance(value, datetime):
        dt = value
    else:
        text = str(value).strip()
        if text[-1:] in ("Z", "z"):
            text = text[:-1] + "+00:00"
        if "." in text:  # fractional seconds are truncated, so drop them before parsing
            text = re.sub(r"(:[0-9]{2})\.[0-9]+", r"\1", text, count=1)
        shape = text.encode("ascii", "replace").translate(_NINES)  # a non-ASCII character as "?"
        try:
            if shape not in _SHAPES and shape[:10] + b"T" + shape[11:] not in _SHAPES:
                raise ValueError
            dt = _fromisoformat(text)
        except ValueError:
            raise ParseError(f"invalid timestamp {value!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=_UTC)
    elif dt.tzinfo is not _UTC:
        try:
            dt = dt.astimezone(_UTC)
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
        _interval_start(self, start)
        _interval_end(self, end)


_interval_start, _interval_end = setters(TimeInterval, "start", "end")


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
        _bbox_min_lat(self, min_lat)
        _bbox_min_lon(self, min_lon)
        _bbox_max_lat(self, max_lat)
        _bbox_max_lon(self, max_lon)


_bbox_min_lat, _bbox_min_lon, _bbox_max_lat, _bbox_max_lon = setters(
    BBox, "min_lat", "min_lon", "max_lat", "max_lon"
)


Geometry = Point | BBox


class Measurement(Frozen):
    """A named observation: attribute plus a quantity or categorical value."""

    __slots__ = ("attribute", "value")

    def __init__(self, attribute: str, value: Value):
        if not isinstance(attribute, str) or not is_attribute_name(attribute):
            raise InvariantViolation(
                f"attribute name {attribute!r} must match [A-Za-z][A-Za-z0-9_]*"
            )
        if not isinstance(value, Value):
            raise InvariantViolation(f"measurement value must be a Quantity or Categorical, got {value!r}")
        _measurement_attribute(self, attribute)
        _measurement_value(self, value)


_measurement_attribute, _measurement_value = setters(Measurement, "attribute", "value")


_ATTRIBUTE = attrgetter("attribute")


def _measurement_tuple(items: Iterable[Measurement], what: str) -> tuple[Measurement, ...]:
    try:
        ordered = list(items)
    except TypeError:
        ordered = [None]  # not iterable
    for m in ordered:
        if not isinstance(m, Measurement):
            raise InvariantViolation(f"{what} must be Measurement instances")
    ordered.sort(key=_ATTRIBUTE)
    before = None
    for m in ordered:
        if m.attribute == before:
            raise InvariantViolation(f"duplicate {what} attribute {before!r}")
        before = m.attribute
    return tuple(ordered)


class GeoObject(Frozen):
    """An endurant geographic entity (dam, atmosphere snapshot, ...)."""

    __slots__ = ("id", "kind", "attributes")
    role = Role.OBJECT

    def __init__(self, id: EntityId, kind: str, attributes: Iterable[Measurement] = ()):
        _object_id(self, validate_entity_id(id))
        _object_kind(self, validate_entity_id(kind, "kind"))
        _object_attributes(self, _measurement_tuple(attributes, "attribute"))


_object_id, _object_kind, _object_attributes = setters(GeoObject, "id", "kind", "attributes")


class GeoEvent(Frozen):
    """A perdurant geographic occurrence (hurricane, flash flood, ...)."""

    __slots__ = ("id", "kind")
    role = Role.EVENT

    def __init__(self, id: EntityId, kind: str):
        _event_id(self, validate_entity_id(id))
        _event_kind(self, validate_entity_id(kind, "kind"))


_event_id, _event_kind = setters(GeoEvent, "id", "kind")


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
        _situation_id(self, id)
        _situation_holds_during(self, holds_during)
        _situation_observations(self, _measurement_tuple(observations, "observation"))

    def observation(self, name: str) -> Value | None:
        for m in self.observations:
            if m.attribute == name:
                return m.value
        return None


_situation_id, _situation_holds_during, _situation_observations = setters(
    GeoSituation, "id", "holds_during", "observations"
)


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
        _region_id(self, id)
        _region_geometry(self, geometry)
        _region_interval(self, interval)


_region_id, _region_geometry, _region_interval = setters(
    SpatioTemporalRegion, "id", "geometry", "interval"
)


Entity = GeoObject | GeoEvent | GeoSituation | SpatioTemporalRegion
