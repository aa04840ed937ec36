"""Interval algebra and bounding-box overlap and containment tests.

A point is a degenerate box, one whose corners coincide: the box tests
read each geometry by its four bounds.

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


def _bounds(geometry: Geometry) -> tuple[float, float, float, float]:
    """A geometry's (min_lat, min_lon, max_lat, max_lon); a point's is its (lat, lon) twice."""
    key = geometry._key(geometry)
    return key * 2 if isinstance(geometry, Point) else key


def spatially_nested(inner: Geometry, outer: Geometry) -> bool:
    """True when inner lies within outer's closed box (an edge or corner may coincide)."""
    in_lat0, in_lon0, in_lat1, in_lon1 = _bounds(inner)
    out_lat0, out_lon0, out_lat1, out_lon1 = _bounds(outer)
    return out_lat0 <= in_lat0 and out_lon0 <= in_lon0 and in_lat1 <= out_lat1 and in_lon1 <= out_lon1


def spatial_overlap(a: Geometry, b: Geometry) -> bool:
    """Closed-rectangle intersection test; a shared edge counts as overlap."""
    a_lat0, a_lon0, a_lat1, a_lon1 = _bounds(a)
    b_lat0, b_lon0, b_lat1, b_lon1 = _bounds(b)
    return a_lat0 <= b_lat1 and b_lat0 <= a_lat1 and a_lon0 <= b_lon1 and b_lon0 <= a_lon1


def co_occurs(a: SpatioTemporalRegion, b: SpatioTemporalRegion) -> bool:
    """True when two regions overlap in space and share some duration.

    Merely touching in time (meets / met-by) does not count as co-occurrence.
    """
    if not spatial_overlap(a.geometry, b.geometry):
        return False
    return interval_relation(a.interval, b.interval) not in _TEMPORALLY_DISJOINT


def bbox_union(geometries) -> BBox:
    """The smallest box covering every geometry in a non-empty iterable."""
    corners = [_bounds(g) for g in geometries]
    if not corners:
        raise ValueError("cannot take the union of zero geometries")
    min_lats, min_lons, max_lats, max_lons = zip(*corners)
    return BBox(min(min_lats), min(min_lons), max(max_lats), max(max_lons))
