import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from geocausal.model import BBox, Point, SpatioTemporalRegion
from geocausal.spatiotemporal import (
    IntervalRelation,
    bbox_union,
    co_occurs,
    interval_relation,
    precedes,
    spatial_overlap,
    spatially_nested,
    temporally_nested,
)

from support import INVERSE, iv, rectangles_meet, spans

R = IntervalRelation


def allen_oracle(a, b):
    """Standalone endpoint-order definitions of all 13 relations.

    Independent of the decision tree in the implementation: every
    predicate is evaluated on its own, so the oracle also checks that the
    definitions partition the space (exactly one holds per pair).
    """
    s1, e1, s2, e2 = a.start, a.end, b.start, b.end
    checks = {
        R.BEFORE: e1 < s2,
        R.AFTER: s1 > e2,
        R.MEETS: e1 == s2 and s1 < s2 and e1 < e2,
        R.MET_BY: s1 == e2 and s2 < s1 and e2 < e1,
        R.OVERLAPS: s1 < s2 < e1 and e1 < e2,
        R.OVERLAPPED_BY: s2 < s1 < e2 and e2 < e1,
        R.STARTS: s1 == s2 and e1 < e2,
        R.STARTED_BY: s1 == s2 and e1 > e2,
        R.DURING: s1 > s2 and e1 < e2,
        R.CONTAINS: s1 < s2 and e1 > e2,
        R.FINISHES: e1 == e2 and s1 > s2,
        R.FINISHED_BY: e1 == e2 and s1 < s2,
        R.EQUALS: s1 == s2 and e1 == e2,
    }
    return [rel for rel, holds in checks.items() if holds]


def all_intervals(limit):
    return [iv(s, e) for s, e in combinations_with_replacement(range(limit + 1), 2)]


class TestAllenRelations:
    def test_meets(self):
        assert interval_relation(iv(0, 5), iv(5, 9)) is R.MEETS

    def test_equals(self):
        assert interval_relation(iv(1, 3), iv(1, 3)) is R.EQUALS

    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ((0, 5), (6, 9), R.BEFORE),
            ((6, 9), (0, 5), R.AFTER),
            ((0, 5), (3, 9), R.OVERLAPS),
            ((3, 9), (0, 5), R.OVERLAPPED_BY),
            ((0, 3), (0, 5), R.STARTS),
            ((0, 5), (0, 3), R.STARTED_BY),
            ((2, 3), (0, 5), R.DURING),
            ((0, 5), (2, 3), R.CONTAINS),
            ((3, 5), (0, 5), R.FINISHES),
            ((0, 5), (3, 5), R.FINISHED_BY),
            ((5, 9), (0, 5), R.MET_BY),
        ],
    )
    def test_each_relation(self, a, b, expected):
        assert interval_relation(iv(*a), iv(*b)) is expected

    def test_point_interval_conventions(self):
        # a point at the start of an interval starts it (not meets)
        assert interval_relation(iv(2, 2), iv(2, 5)) is R.STARTS
        # a point at the end finishes it (not met-by)
        assert interval_relation(iv(5, 5), iv(2, 5)) is R.FINISHES
        assert interval_relation(iv(2, 5), iv(5, 5)) is R.FINISHED_BY
        assert interval_relation(iv(3, 3), iv(2, 5)) is R.DURING
        assert interval_relation(iv(3, 3), iv(3, 3)) is R.EQUALS

    def test_exhaustive_small_endpoints_match_oracle(self):
        # every pair over endpoints 0..4: exactly one definition holds and
        # the implementation agrees with it
        intervals = all_intervals(4)
        for a in intervals:
            for b in intervals:
                holding = allen_oracle(a, b)
                assert len(holding) == 1, (a, b, holding)
                assert interval_relation(a, b) is holding[0]

    def test_random_pairs_exclusive_and_exhaustive(self):
        rng = random.Random(20050823)
        for _ in range(10_000):
            a = sorted((rng.randint(0, 50), rng.randint(0, 50)))
            b = sorted((rng.randint(0, 50), rng.randint(0, 50)))
            holding = allen_oracle(iv(*a), iv(*b))
            assert len(holding) == 1

    @given(
        s1=st.integers(0, 30), d1=st.integers(0, 30),
        s2=st.integers(0, 30), d2=st.integers(0, 30),
    )
    def test_inverse_symmetry(self, s1, d1, s2, d2):
        a, b = iv(s1, s1 + d1), iv(s2, s2 + d2)
        assert INVERSE[interval_relation(a, b)] is interval_relation(b, a)


class TestPrecedes:
    def test_meets_counts_as_preceding(self):
        assert precedes(iv(0, 5), iv(5, 9))

    def test_overlap_does_not(self):
        assert not precedes(iv(0, 5), iv(3, 9))

    def test_before(self):
        assert precedes(iv(0, 5), iv(6, 9))

    def test_irreflexive(self):
        assert not precedes(iv(2, 4), iv(2, 4))
        assert not precedes(iv(3, 3), iv(3, 3))

    def test_transitive_on_random_triples(self):
        rng = random.Random(7)
        intervals = [
            iv(*sorted((rng.randint(0, 20), rng.randint(0, 20)))) for _ in range(40)
        ]
        for a in intervals:
            for b in intervals:
                if not precedes(a, b):
                    continue
                for c in intervals:
                    if precedes(b, c):
                        assert precedes(a, c)


class TestNesting:
    @pytest.mark.parametrize(
        "inner,outer,expected",
        [
            ((2, 3), (0, 5), True),
            ((0, 5), (0, 5), True),
            ((0, 3), (0, 5), True),
            ((3, 5), (0, 5), True),
            ((4, 7), (0, 5), False),
            ((0, 5), (2, 3), False),
        ],
    )
    def test_cases(self, inner, outer, expected):
        assert temporally_nested(iv(*inner), iv(*outer)) is expected


class TestSpatialOverlap:
    def test_identical_points(self):
        assert spatial_overlap(Point(30, -90), Point(30, -90))

    def test_point_in_bbox(self):
        assert spatial_overlap(BBox(29, -91, 31, -89), Point(30, -90))

    def test_shared_edge_counts(self):
        assert spatial_overlap(BBox(0, 0, 10, 10), BBox(10, 10, 20, 20))

    def test_disjoint(self):
        assert not spatial_overlap(BBox(0, 0, 10, 10), BBox(11, 11, 20, 20))
        assert not spatial_overlap(Point(0, 0), Point(1, 1))

    @given(
        coords=st.lists(st.tuples(st.integers(-80, 80), st.integers(-170, 170)), min_size=2, max_size=2),
        sizes=st.lists(st.integers(0, 10), min_size=2, max_size=2),
    )
    def test_symmetric(self, coords, sizes):
        boxes = [
            BBox(lat, lon, min(lat + s, 90), min(lon + s, 180))
            for (lat, lon), s in zip(coords, sizes)
        ]
        assert spatial_overlap(boxes[0], boxes[1]) == spatial_overlap(boxes[1], boxes[0])

    def test_bbox_union(self):
        box = bbox_union([Point(1, 2), BBox(0, 0, 3, 1), Point(-1, 5)])
        assert (box.min_lat, box.min_lon, box.max_lat, box.max_lon) == (-1, 0, 3, 5)

    def test_bbox_union_of_nothing(self):
        with pytest.raises(ValueError, match="^cannot take the union of zero geometries$"):
            bbox_union([])


# Five values per axis, different on the two, so that shared edges, shared
# corners and degenerate boxes are common, and a lat read as a lon shows.
_LATS = st.sampled_from((-90.0, -30.0, 0.0, 30.0, 90.0))
_LONS = st.sampled_from((-180.0, -60.0, 15.0, 60.0, 180.0))


@st.composite
def geometries(draw):
    if draw(st.booleans()):
        return Point(draw(_LATS), draw(_LONS))
    lat0, lat1 = sorted((draw(_LATS), draw(_LATS)))
    lon0, lon1 = sorted((draw(_LONS), draw(_LONS)))
    return BBox(lat0, lon0, lat1, lon1)


class TestPointsAndBoxes:
    """The box tests against definitions over each axis's span, with a
    point's span on each axis a single value."""

    @given(a=geometries(), b=geometries())
    def test_overlap_is_a_shared_value_on_each_axis(self, a, b):
        assert spatial_overlap(a, b) is rectangles_meet(a, b)

    @given(inner=geometries(), outer=geometries())
    def test_nested_is_every_inner_bound_within_the_outer_span(self, inner, outer):
        expected = all(lo <= bound <= hi for (lo, hi), bounds in zip(spans(outer), spans(inner)) for bound in bounds)
        assert spatially_nested(inner, outer) is expected

    @given(items=st.lists(geometries(), min_size=1, max_size=4))
    def test_union_is_the_minima_and_maxima(self, items):
        (lat0, lat1), (lon0, lon1) = [
            (min(lo for lo, _ in axis), max(hi for _, hi in axis)) for axis in zip(*map(spans, items))
        ]
        assert bbox_union(items) == BBox(lat0, lon0, lat1, lon1)


class TestCoOccurs:
    def region(self, name, geometry, interval):
        return SpatioTemporalRegion(name, geometry, interval)

    def test_identical_regions(self):
        a = self.region("reg:a", Point(30, -90), iv(0, 5))
        assert co_occurs(a, a)

    def test_meets_in_time_is_not_co_occurrence(self):
        a = self.region("reg:a", BBox(29, -91, 31, -89), iv(0, 5))
        b = self.region("reg:b", BBox(29, -91, 31, -89), iv(5, 9))
        assert not co_occurs(a, b)

    def test_storm_and_flood_traces(self):
        storm = self.region("reg:storm", BBox(28, -92, 31, -88), iv(0, 48))
        flood = self.region("reg:flood", Point(30, -90), iv(24, 60))
        assert co_occurs(storm, flood)

    def test_spatially_disjoint(self):
        a = self.region("reg:a", Point(0, 0), iv(0, 5))
        b = self.region("reg:b", Point(40, 40), iv(0, 5))
        assert not co_occurs(a, b)

    def test_symmetric(self):
        rng = random.Random(3)
        for _ in range(200):
            a = self.region(
                "reg:a",
                Point(rng.randint(-80, 80), rng.randint(-170, 170)),
                iv(*sorted((rng.randint(0, 10), rng.randint(0, 10)))),
            )
            b = self.region(
                "reg:b",
                BBox(-10, -10, rng.randint(-5, 80), rng.randint(-5, 170)),
                iv(*sorted((rng.randint(0, 10), rng.randint(0, 10)))),
            )
            assert co_occurs(a, b) == co_occurs(b, a)
