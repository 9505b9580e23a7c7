"""Tests for repro.cleaning.segmentation — the Table 2 rules."""

import numpy as np
import pytest

from repro.cleaning.segmentation import (
    SegmentationConfig,
    TripSegment,
    _stop_rules,
    segment_trip,
)
from repro.geo.distance import destination_point, haversine_m
from repro.traces.model import RoutePoint, Trip
from tests.oracles.cleaning import _stop_rule


class TrackBuilder:
    """Builds trips from (move_metres, elapsed_seconds) legs."""

    def __init__(self):
        self.lat, self.lon = 65.0, 25.0
        self.t = 0.0
        self.i = 1
        self.points = [RoutePoint(point_id=1, trip_id=1, lat=self.lat,
                                  lon=self.lon, time_s=0.0, speed_kmh=30.0)]

    def leg(self, move_m, dt_s, speed=30.0):
        self.lat, self.lon = destination_point(self.lat, self.lon, 0.0, move_m)
        self.t += dt_s
        self.i += 1
        self.points.append(RoutePoint(point_id=self.i, trip_id=1, lat=self.lat,
                                      lon=self.lon, time_s=self.t, speed_kmh=speed))
        return self

    def drive(self, n=6, move_m=150.0, dt_s=20.0):
        for __ in range(n):
            self.leg(move_m, dt_s)
        return self

    def trip(self):
        return Trip(trip_id=1, car_id=1, points=self.points)


class TestRules:
    def test_rule1_stationary_gap_splits(self):
        trip = TrackBuilder().drive().leg(5.0, 400.0).drive().trip()
        segments, report = segment_trip(trip)
        assert len(segments) == 2
        assert report.rule_hits[1] == 1

    def test_rule2_slow_crawl_gap_splits(self):
        # 500 m in 8 minutes: not rule 1 (moved), rule 2 fires.
        trip = TrackBuilder().drive().leg(500.0, 480.0).drive().trip()
        segments, report = segment_trip(trip)
        assert len(segments) == 2
        assert report.rule_hits[2] == 1
        assert report.rule_hits[1] == 0

    def test_rule3_near_zero_speed(self):
        # 0.2 m in 150 s: 0.0013 m/s, below the 0.002 m/s floor, and past
        # the two-minute minimum window (but short of rule 1's 3 minutes).
        trip = TrackBuilder().drive().leg(0.2, 150.0).drive().trip()
        segments, report = segment_trip(trip)
        assert len(segments) == 2
        assert report.rule_hits[3] == 1

    def test_traffic_light_wait_does_not_split(self):
        # Two fixes at the same spot 60 s apart: an ordinary red light.
        trip = TrackBuilder().drive().leg(0.0, 60.0).drive().trip()
        segments, report = segment_trip(trip)
        assert len(segments) == 1
        assert all(v == 0 for v in report.rule_hits.values())

    def test_no_split_on_continuous_driving(self):
        trip = TrackBuilder().drive(n=20).trip()
        segments, report = segment_trip(trip)
        assert len(segments) == 1
        assert all(v == 0 for v in report.rule_hits.values())

    def test_rule5_resplits_long_segments(self):
        # A >40 km drive with 100 s pauses: invisible to the 3-minute
        # rule 1, split by the 1.5-minute second round.
        builder = TrackBuilder()
        for __ in range(5):
            builder.drive(n=30, move_m=300.0, dt_s=25.0)  # 9 km bursts
            builder.leg(10.0, 100.0)                      # 100 s pause
        segments, report = segment_trip(builder.trip())
        assert report.rule_hits[5] >= 1
        assert len(segments) >= 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_gap_matches_the_one_gap_rule(self):
        """1 m over a 5e-324 s gap: ``dist / dt`` is inf with no overflow
        warning, and the mask kernel's codes equal the one-gap rule's."""
        points = (
            TrackBuilder().leg(1.0, 5e-324).leg(0.2, 150.0).leg(500.0, 480.0)
            .leg(5.0, 400.0).leg(0.0, 60.0).points
        )
        assert points[1].time_s - points[0].time_s == 5e-324
        config = SegmentationConfig()
        window = config.rule1_window_s
        gaps = list(zip(points, points[1:]))
        dist = np.array([haversine_m(a.lat, a.lon, b.lat, b.lon) for a, b in gaps])
        dt = np.array([b.time_s - a.time_s for a, b in gaps])
        codes = _stop_rules(dist, dt, config, window).tolist()
        assert codes == [_stop_rule(a, b, config, window) for a, b in gaps]
        assert codes == [0, 3, 2, 1, 0]

    def test_segment_ids_sequential(self):
        trip = TrackBuilder().drive().leg(5.0, 400.0).drive().trip()
        segments, __ = segment_trip(trip, first_segment_id=10)
        assert [s.segment_id for s in segments] == [10, 11]
        assert [s.index for s in segments] == [0, 1]

    def test_boundary_point_starts_next_segment(self):
        trip = TrackBuilder().drive(n=4).leg(5.0, 400.0).drive(n=4).trip()
        segments, __ = segment_trip(trip)
        first, second = segments
        assert first.points[-1].time_s < second.points[0].time_s
        # The post-gap point opens the second segment.
        assert second.points[0].point_id == first.points[-1].point_id + 1


class TestTripSegment:
    def test_properties(self):
        trip = TrackBuilder().drive(n=5, move_m=200.0, dt_s=30.0).trip()
        seg = TripSegment(segment_id=1, trip_id=1, car_id=2, index=0,
                          points=trip.points)
        assert seg.duration_s == pytest.approx(150.0)
        assert seg.distance_m == pytest.approx(1000.0, rel=1e-3)
        assert len(seg) == 6

    def test_empty_segment(self):
        seg = TripSegment(segment_id=1, trip_id=1, car_id=1, index=0, points=[])
        assert seg.duration_s == 0.0
        assert seg.fuel_ml == 0.0


class TestConfig:
    def test_custom_thresholds(self):
        config = SegmentationConfig(rule1_window_s=60.0)
        trip = TrackBuilder().drive().leg(5.0, 90.0).drive().trip()
        segments, report = segment_trip(trip, config)
        assert report.rule_hits[1] == 1
        assert len(segments) == 2

    def test_report_merge(self):
        trip = TrackBuilder().drive().leg(5.0, 400.0).drive().trip()
        __, r1 = segment_trip(trip)
        __, r2 = segment_trip(trip)
        r1.merge(r2)
        assert r1.rule_hits[1] == 2
        assert r1.trips_processed == 2
