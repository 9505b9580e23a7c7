"""Tests for repro.traces.model."""

import pytest

from repro.geo.distance import haversine_m
from repro.traces.model import FleetData, RoutePoint, Trip, trip_distance_m


def pt(i, lat, lon, t, speed=30.0, fuel=0.0):
    return RoutePoint(point_id=i, trip_id=1, lat=lat, lon=lon, time_s=t,
                      speed_kmh=speed, fuel_ml=fuel)


class TestRoutePoint:
    def test_position(self):
        p = pt(1, 65.0, 25.0, 0.0)
        assert p.position() == (65.0, 25.0)


class TestTrip:
    def make_trip(self):
        return Trip(trip_id=1, car_id=2, points=[
            pt(1, 65.000, 25.000, 0.0, fuel=0.0),
            pt(2, 65.001, 25.000, 30.0, fuel=50.0),
            pt(3, 65.002, 25.000, 60.0, fuel=100.0),
        ])

    def test_times(self):
        trip = self.make_trip()
        assert trip.start_time_s == 0.0
        assert trip.end_time_s == 60.0
        assert trip.total_time_s == 60.0

    def test_distance(self):
        trip = self.make_trip()
        expected = haversine_m(65.000, 25.0, 65.001, 25.0) * 2
        assert trip.total_distance_m == pytest.approx(expected, rel=1e-6)

    def test_fuel(self):
        assert self.make_trip().total_fuel_ml == pytest.approx(100.0)

    def test_len(self):
        assert len(self.make_trip()) == 3

    def test_empty_trip(self):
        trip = Trip(trip_id=1, car_id=1)
        assert trip.total_time_s == 0.0
        assert trip.total_distance_m == 0.0
        assert trip.total_fuel_ml == 0.0

    def test_summary(self):
        s = self.make_trip().summary()
        assert s.trip_id == 1
        assert s.car_id == 2
        assert s.point_count == 3
        assert s.start_point == (65.000, 25.000)
        assert s.end_point == (65.002, 25.000)
        assert s.total_distance_m == pytest.approx(self.make_trip().total_distance_m)

    def test_with_points_copies(self):
        trip = self.make_trip()
        shorter = trip.with_points(trip.points[:2])
        assert len(shorter) == 2
        assert len(trip) == 3
        assert shorter.trip_id == trip.trip_id


class TestFleetData:
    def test_grouping(self):
        fleet = FleetData(trips=[
            Trip(trip_id=1, car_id=1, points=[pt(1, 65.0, 25.0, 0.0)]),
            Trip(trip_id=2, car_id=2),
            Trip(trip_id=3, car_id=1),
        ])
        assert len(fleet) == 3
        assert fleet.car_ids() == [1, 2]
        assert fleet.point_count == 1


class TestTripDistance:
    def test_empty_and_single(self):
        assert trip_distance_m([]) == 0.0
        assert trip_distance_m([pt(1, 65.0, 25.0, 0.0)]) == 0.0

    def test_zigzag_longer_than_straight(self):
        straight = [
            pt(1, 65.000, 25.0, 0.0),
            pt(2, 65.001, 25.0, 1.0),
            pt(3, 65.002, 25.0, 2.0),
        ]
        zigzag = [straight[0], straight[2], straight[1]]
        assert trip_distance_m(zigzag) > trip_distance_m(straight)
