"""Tests for repro.geo.geometry."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.geometry import (
    LineString,
    angle_between_deg,
    crossing_angle_deg,
    point_segment_distance,
    project_point_to_segment,
    segment_intersection,
)

coord = st.floats(min_value=-1e4, max_value=1e4)


class TestSegmentOps:
    def test_project_inside(self):
        p, t = project_point_to_segment((5.0, 3.0), (0.0, 0.0), (10.0, 0.0))
        assert p == pytest.approx((5.0, 0.0))
        assert t == pytest.approx(0.5)

    def test_project_clamps_before_start(self):
        p, t = project_point_to_segment((-5.0, 3.0), (0.0, 0.0), (10.0, 0.0))
        assert p == (0.0, 0.0)
        assert t == 0.0

    def test_project_clamps_after_end(self):
        p, t = project_point_to_segment((15.0, 3.0), (0.0, 0.0), (10.0, 0.0))
        assert p == (10.0, 0.0)
        assert t == 1.0

    def test_degenerate_segment(self):
        p, t = project_point_to_segment((1.0, 1.0), (2.0, 2.0), (2.0, 2.0))
        assert p == (2.0, 2.0)
        assert t == 0.0

    def test_point_segment_distance(self):
        assert point_segment_distance((5.0, 3.0), (0.0, 0.0), (10.0, 0.0)) == pytest.approx(3.0)

    def test_intersection_crossing(self):
        hit = segment_intersection((0, 0), (10, 10), (0, 10), (10, 0))
        assert hit == pytest.approx((5.0, 5.0))

    def test_intersection_none_parallel(self):
        assert segment_intersection((0, 0), (10, 0), (0, 1), (10, 1)) is None

    def test_intersection_none_disjoint(self):
        assert segment_intersection((0, 0), (1, 1), (5, 5), (6, 4)) is None

    def test_intersection_at_shared_endpoint(self):
        hit = segment_intersection((0, 0), (5, 0), (5, 0), (5, 5))
        assert hit == pytest.approx((5.0, 0.0))

    def test_collinear_overlap_returns_none(self):
        assert segment_intersection((0, 0), (10, 0), (5, 0), (15, 0)) is None


class TestAngles:
    def test_perpendicular(self):
        assert angle_between_deg((1, 0), (0, 1)) == pytest.approx(90.0)

    def test_opposite(self):
        assert angle_between_deg((1, 0), (-1, 0)) == pytest.approx(180.0)

    def test_crossing_angle_folds_to_90(self):
        assert crossing_angle_deg((1, 0), (-1, 0)) == pytest.approx(0.0)
        assert crossing_angle_deg((1, 0), (-1, 1)) == pytest.approx(45.0)

    def test_zero_vector(self):
        assert angle_between_deg((0, 0), (1, 0)) == 0.0


class TestLineString:
    def setup_method(self):
        self.ls = LineString([(0, 0), (100, 0), (100, 100)])

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            LineString([(0, 0)])

    def test_length(self):
        assert self.ls.length == pytest.approx(200.0)

    def test_interpolate_midpoints(self):
        assert self.ls.interpolate(50.0) == pytest.approx((50.0, 0.0))
        assert self.ls.interpolate(150.0) == pytest.approx((100.0, 50.0))

    def test_interpolate_clamps(self):
        assert self.ls.interpolate(-10.0) == pytest.approx((0.0, 0.0))
        assert self.ls.interpolate(500.0) == pytest.approx((100.0, 100.0))

    def test_heading(self):
        assert self.ls.heading_at(50.0) == pytest.approx((1.0, 0.0))
        assert self.ls.heading_at(150.0) == pytest.approx((0.0, 1.0))

    def test_project_on_first_leg(self):
        snapped, arc, dist = self.ls.project((50.0, 10.0))
        assert snapped == pytest.approx((50.0, 0.0))
        assert arc == pytest.approx(50.0)
        assert dist == pytest.approx(10.0)

    def test_project_on_second_leg(self):
        snapped, arc, dist = self.ls.project((90.0, 50.0))
        assert snapped == pytest.approx((100.0, 50.0))
        assert arc == pytest.approx(150.0)
        assert dist == pytest.approx(10.0)

    def test_reversed(self):
        rev = self.ls.reversed()
        assert rev.start() == self.ls.end()
        assert rev.length == pytest.approx(self.ls.length)

    def test_crossings(self):
        hits = self.ls.crossings((50.0, -10.0), (50.0, 10.0))
        assert len(hits) == 1
        point, arc = hits[0]
        assert point == pytest.approx((50.0, 0.0))
        assert arc == pytest.approx(50.0)

    def test_no_crossing(self):
        assert self.ls.crossings((0.0, 50.0), (50.0, 50.0)) == []

    def test_substring(self):
        sub = self.ls.substring(50.0, 150.0)
        assert sub.length == pytest.approx(100.0)
        assert sub.start() == pytest.approx((50.0, 0.0))
        assert sub.end() == pytest.approx((100.0, 50.0))

    def test_substring_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            self.ls.substring(150.0, 50.0)

    def test_concat_drops_duplicate_joint(self):
        a = LineString([(0, 0), (10, 0)])
        b = LineString([(10, 0), (20, 0)])
        joined = LineString.concat([a, b])
        assert len(joined) == 3
        assert joined.length == pytest.approx(20.0)

    def test_iteration_yields_tuples(self):
        points = list(self.ls)
        assert points[0] == (0.0, 0.0)
        assert len(points) == 3

    @given(arc=st.floats(min_value=0.0, max_value=200.0))
    @settings(max_examples=50, deadline=None)
    def test_interpolated_point_is_on_line(self, arc):
        p = self.ls.interpolate(arc)
        __, __, dist = self.ls.project(p)
        assert dist < 1e-9

    @given(x=coord, y=coord)
    @settings(max_examples=50, deadline=None)
    def test_project_distance_is_minimum_over_vertices(self, x, y):
        __, __, dist = self.ls.project((x, y))
        vertex_dist = min(
            math.hypot(x - vx, y - vy) for vx, vy in self.ls
        )
        assert dist <= vertex_dist + 1e-9


class TestSimplify:
    def test_straight_line_collapses(self):
        dense = LineString([(x, 0.0) for x in range(0, 101, 10)])
        simple = dense.simplify(0.5)
        assert len(simple) == 2
        assert simple.length == pytest.approx(dense.length)

    def test_corner_preserved(self):
        ls = LineString([(0, 0), (50, 0.1), (100, 0), (100, 100)])
        simple = ls.simplify(1.0)
        assert (100.0, 0.0) in [tuple(c) for c in simple.coords]

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            LineString([(0, 0), (1, 1)]).simplify(0.0)

    def test_all_points_within_tolerance(self):
        import random

        rng = random.Random(4)
        pts = [(float(x * 10), rng.uniform(-3.0, 3.0)) for x in range(40)]
        original = LineString(pts)
        simple = original.simplify(5.0)
        assert len(simple) <= len(original)
        for p in pts:
            assert simple.distance_to(p) <= 5.0 + 1e-9

    def test_endpoints_kept(self):
        ls = LineString([(0, 0), (5, 5), (10, 0)])
        simple = ls.simplify(100.0)
        assert simple.start() == ls.start()
        assert simple.end() == ls.end()
