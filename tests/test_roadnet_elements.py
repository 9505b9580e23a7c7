"""Tests for repro.roadnet.elements and repro.roadnet.digiroad."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.geometry import LineString
from repro.roadnet.digiroad import MapDatabase
from repro.roadnet.elements import (
    FlowDirection,
    PointObject,
    PointObjectKind,
    SegmentedAttribute,
    TrafficElement,
)


def element(eid=1, coords=((0, 0), (100, 0)), **kwargs):
    return TrafficElement(element_id=eid, geometry=LineString(coords), **kwargs)


class TestTrafficElement:
    def test_length(self):
        assert element().length_m == pytest.approx(100.0)

    def test_endpoints(self):
        e = element()
        assert e.start() == (0.0, 0.0)
        assert e.end() == (100.0, 0.0)

    def test_positive_speed_limit_required(self):
        with pytest.raises(ValueError):
            element(speed_limit_kmh=0.0)

    def test_flow_reversal(self):
        assert FlowDirection.FORWARD.reversed() is FlowDirection.BACKWARD
        assert FlowDirection.BACKWARD.reversed() is FlowDirection.FORWARD
        assert FlowDirection.BOTH.reversed() is FlowDirection.BOTH


class TestSegmentedAttribute:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            SegmentedAttribute(1, "speed_limit", 50.0, 50.0, 30)

    def test_covers(self):
        attr = SegmentedAttribute(1, "speed_limit", 10.0, 20.0, 30)
        assert attr.covers(15.0)
        assert attr.covers(10.0)
        assert not attr.covers(25.0)


class TestPointObject:
    def test_attribute_lookup(self):
        obj = PointObject(
            1, PointObjectKind.BUS_STOP, (0.0, 0.0),
            attributes=(("route", "20A"),),
        )
        assert obj.attribute("route") == "20A"
        assert obj.attribute("missing", "dflt") == "dflt"


class TestMapDatabase:
    def setup_method(self):
        self.db = MapDatabase()
        self.db.add_element(element(1, ((0, 0), (100, 0)), speed_limit_kmh=40.0))
        self.db.add_element(element(2, ((100, 0), (200, 0)), speed_limit_kmh=50.0))

    def test_element_lookup(self):
        assert self.db.element(1).speed_limit_kmh == 40.0
        assert self.db.element_count() == 2

    def test_duplicate_element_rejected(self):
        with pytest.raises(ValueError):
            self.db.add_element(element(1))

    def test_duplicate_object_rejected(self):
        self.db.add_point_object(PointObject(1, PointObjectKind.BUS_STOP, (0.0, 0.0)))
        with pytest.raises(ValueError):
            self.db.add_point_object(PointObject(1, PointObjectKind.TRAFFIC_LIGHT, (5.0, 0.0)))

    def test_elements_near(self):
        found = self.db.elements_near((50.0, 5.0), 10.0)
        assert [e.element_id for e in found] == [1]

    def test_elements_near_refines_by_line_distance(self):
        # The L-shaped element's bounding box covers the query point, but
        # the line itself is 100 m away.
        self.db.add_element(element(3, ((300, 0), (500, 0), (500, 200))))
        assert self.db.elements_near((400.0, 100.0), 50.0) == []
        found = self.db.elements_near((400.0, 100.0), 100.0)
        assert [e.element_id for e in found] == [3]

    def test_nearest_element(self):
        e = self.db.nearest_element((150.0, 30.0))
        assert e.element_id == 2

    def test_nearest_element_respects_radius(self):
        assert self.db.nearest_element((50.0, 900.0), max_radius=100.0) is None

    def test_nearest_element_across_empty_cells(self):
        # 900 m is six empty 150 m cells away from the elements.
        e = self.db.nearest_element((50.0, 900.0), max_radius=1000.0)
        assert e.element_id == 1

    def test_nearest_element_behind_far_bounding_box_hit(self):
        # Element 1's box holds the query point, its line is 1000 m away;
        # element 2 is 200 m away, inside the default 500 m.
        db = MapDatabase()
        db.add_element(element(1, ((-1000, 1000), (1000, 1000), (1000, -1000))))
        db.add_element(element(2, ((-50, 200), (50, 200))))
        assert db.nearest_element((0.0, 0.0)).element_id == 2

    def test_nearest_element_prefers_nearer_line_outside_first_disc(self):
        # Element 1 (400 m) is a box hit in the first disc; element 2
        # (200 m) only comes in when the search widens.
        db = MapDatabase()
        db.add_element(element(1, ((-1000, 400), (1000, 400), (1000, -1000))))
        db.add_element(element(2, ((-50, 200), (50, 200))))
        assert db.nearest_element((0.0, 0.0)).element_id == 2

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_nearest_element_matches_brute_force(self, seed):
        rng = random.Random(seed)
        db = MapDatabase(spatial_cell_m=60.0)
        for eid in range(25):
            x, y = rng.uniform(-400, 400), rng.uniform(-400, 400)
            coords = [(x, y)]
            for _ in range(rng.randint(1, 3)):
                x += rng.uniform(-300, 300)
                y += rng.uniform(-300, 300)
                coords.append((x, y))
            db.add_element(element(eid, coords))
        q = (rng.uniform(-600, 600), rng.uniform(-600, 600))
        max_radius = rng.uniform(20.0, 500.0)
        dist = {e.element_id: e.geometry.distance_to(q) for e in db.elements()}
        best_d = min(dist.values())
        got = db.nearest_element(q, max_radius)
        if best_d > max_radius:
            assert got is None
        else:
            assert dist[got.element_id] == best_d

    def test_point_objects_by_kind(self):
        self.db.add_point_object(
            PointObject(1, PointObjectKind.TRAFFIC_LIGHT, (50.0, 0.0), element_id=1)
        )
        self.db.add_point_object(
            PointObject(2, PointObjectKind.BUS_STOP, (150.0, 0.0), element_id=2)
        )
        assert self.db.count_objects(PointObjectKind.TRAFFIC_LIGHT) == 1
        assert len(self.db.point_objects()) == 2
        assert len(self.db.point_objects(PointObjectKind.BUS_STOP)) == 1

    def test_objects_near_with_kind(self):
        self.db.add_point_object(
            PointObject(1, PointObjectKind.TRAFFIC_LIGHT, (50.0, 0.0))
        )
        self.db.add_point_object(
            PointObject(2, PointObjectKind.BUS_STOP, (52.0, 0.0))
        )
        lights = self.db.objects_near((50.0, 0.0), 10.0, PointObjectKind.TRAFFIC_LIGHT)
        assert [o.object_id for o in lights] == [1]

    def test_objects_near_refines_by_exact_distance(self):
        self.db.add_point_object(PointObject(1, PointObjectKind.BUS_STOP, (0.0, 0.0)))
        self.db.add_point_object(PointObject(2, PointObjectKind.BUS_STOP, (30.0, 40.0)))
        # Inside the query box, but 56.6 m away.
        self.db.add_point_object(PointObject(3, PointObjectKind.BUS_STOP, (40.0, 40.0)))
        found = self.db.objects_near((0.0, 0.0), 50.0)
        assert [o.object_id for o in found] == [1, 2]

    def test_speed_limit_default(self):
        assert self.db.speed_limit_at(1, 50.0) == 40.0

    def test_segmented_restriction_overrides(self):
        self.db.add_segmented_attribute(
            SegmentedAttribute(1, "speed_limit", 20.0, 80.0, 30.0)
        )
        assert self.db.speed_limit_at(1, 50.0) == 30.0
        assert self.db.speed_limit_at(1, 10.0) == 40.0

    def test_most_restrictive_wins(self):
        self.db.add_segmented_attribute(
            SegmentedAttribute(1, "speed_limit", 0.0, 100.0, 30.0)
        )
        self.db.add_segmented_attribute(
            SegmentedAttribute(1, "speed_limit", 40.0, 60.0, 20.0)
        )
        assert self.db.speed_limit_at(1, 50.0) == 20.0

    def test_segmented_attribute_requires_known_element(self):
        with pytest.raises(KeyError):
            self.db.add_segmented_attribute(
                SegmentedAttribute(99, "speed_limit", 0.0, 10.0, 30.0)
            )

    def test_feature_census(self):
        self.db.add_point_object(
            PointObject(1, PointObjectKind.TRAFFIC_LIGHT, (50.0, 0.0))
        )
        census = self.db.feature_census()
        assert census["traffic_light"] == 1
        assert census["bus_stop"] == 0
