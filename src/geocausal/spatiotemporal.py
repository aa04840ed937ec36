"""Interval algebra and bounding-box overlap tests.

The thirteen Allen relations are mutually exclusive and jointly
exhaustive over closed intervals, including point intervals: equal
endpoints are classified by the equality relations (equals, starts,
finishes and their inverses) before the touching relations, so a point
at the start of an interval starts it rather than meeting it.
"""

from __future__ import annotations

from datetime import timedelta
from enum import Enum

from .model import BBox, Geometry, Point, SpatioTemporalRegion, TimeInterval


class IntervalRelation(Enum):
    BEFORE = "before"
    MEETS = "meets"
    OVERLAPS = "overlaps"
    STARTS = "starts"
    DURING = "during"
    FINISHES = "finishes"
    EQUALS = "equals"
    AFTER = "after"
    MET_BY = "met-by"
    OVERLAPPED_BY = "overlapped-by"
    STARTED_BY = "started-by"
    CONTAINS = "contains"
    FINISHED_BY = "finished-by"


def interval_relation(a: TimeInterval, b: TimeInterval) -> IntervalRelation:
    """Classify two intervals into the unique Allen relation that holds."""
    s1, e1, s2, e2 = a.start, a.end, b.start, b.end
    if e1 < s2:
        return IntervalRelation.BEFORE
    if e2 < s1:
        return IntervalRelation.AFTER
    if s1 == s2 and e1 == e2:
        return IntervalRelation.EQUALS
    if s1 == s2:
        return IntervalRelation.STARTS if e1 < e2 else IntervalRelation.STARTED_BY
    if e1 == e2:
        return IntervalRelation.FINISHES if s1 > s2 else IntervalRelation.FINISHED_BY
    if e1 == s2:
        return IntervalRelation.MEETS
    if e2 == s1:
        return IntervalRelation.MET_BY
    if s1 < s2:
        return IntervalRelation.OVERLAPS if e1 < e2 else IntervalRelation.CONTAINS
    return IntervalRelation.DURING if e1 < e2 else IntervalRelation.OVERLAPPED_BY


_PRECEDING = {IntervalRelation.BEFORE, IntervalRelation.MEETS}

_NESTED = {
    IntervalRelation.DURING,
    IntervalRelation.STARTS,
    IntervalRelation.FINISHES,
    IntervalRelation.EQUALS,
}

# Relations with no shared duration beyond a single touching instant.
_TEMPORALLY_DISJOINT = {
    IntervalRelation.BEFORE,
    IntervalRelation.AFTER,
    IntervalRelation.MEETS,
    IntervalRelation.MET_BY,
}


def precedes(a: TimeInterval, b: TimeInterval) -> bool:
    """True when a is before or meets b: a ends before b starts, or ends
    where b starts and neither is a point. A point a at b's start starts b,
    and a point b at a's end finishes a; neither counts."""
    return interval_relation(a, b) in _PRECEDING


def gap_between(a: TimeInterval, b: TimeInterval) -> timedelta:
    """Time from a's end to b's start (meaningful when a precedes b)."""
    return b.start - a.end


def temporally_nested(inner: TimeInterval, outer: TimeInterval) -> bool:
    """True when inner lies within outer (either endpoint may coincide)."""
    return interval_relation(inner, outer) in _NESTED


def as_bbox(geometry: Geometry) -> BBox:
    """View any geometry as a bounding box; a point becomes a degenerate box."""
    if isinstance(geometry, Point):
        return BBox(geometry.lat, geometry.lon, geometry.lat, geometry.lon)
    return geometry


def spatial_overlap(a: Geometry, b: Geometry) -> bool:
    """Closed-rectangle intersection test; a shared edge counts as overlap."""
    ba, bb = as_bbox(a), as_bbox(b)
    return (
        ba.min_lat <= bb.max_lat
        and bb.min_lat <= ba.max_lat
        and ba.min_lon <= bb.max_lon
        and bb.min_lon <= ba.max_lon
    )


def co_occurs(a: SpatioTemporalRegion, b: SpatioTemporalRegion) -> bool:
    """True when two regions overlap in space and share some duration.

    Merely touching in time (meets / met-by) does not count as co-occurrence.
    """
    if not spatial_overlap(a.geometry, b.geometry):
        return False
    return interval_relation(a.interval, b.interval) not in _TEMPORALLY_DISJOINT


def bbox_union(geometries) -> BBox:
    """The smallest box covering every geometry in a non-empty iterable."""
    # Each geometry's (min_lat, min_lon, max_lat, max_lon); a point's is its (lat, lon) twice.
    corners = [g._key(g) * 2 if isinstance(g, Point) else g._key(g) for g in geometries]
    if not corners:
        raise ValueError("cannot take the union of zero geometries")
    min_lats, min_lons, max_lats, max_lons = zip(*corners)
    return BBox(min(min_lats), min(min_lons), max(max_lats), max(max_lons))
