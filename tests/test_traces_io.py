"""Tests for repro.traces.io."""

import json

import pytest

from repro.traces.io import (
    read_points_csv,
    write_points_csv,
    write_trips_jsonl,
)
from repro.traces.model import FleetData, RoutePoint, Trip


@pytest.fixture()
def small_fleet():
    trips = []
    for trip_id in (1, 2):
        points = [
            RoutePoint(point_id=i + trip_id * 100, trip_id=trip_id,
                       lat=65.0 + i * 1e-4, lon=25.4 + i * 1e-4,
                       time_s=1000.0 * trip_id + i, speed_kmh=20.0 + i,
                       fuel_ml=float(i) * 3.3)
            for i in range(5)
        ]
        trips.append(Trip(trip_id=trip_id, car_id=trip_id, points=points))
    return FleetData(trips=trips)


class TestPointsCsv:
    def test_roundtrip_lossless(self, small_fleet, tmp_path):
        path = tmp_path / "points.csv"
        n = write_points_csv(small_fleet, path)
        assert n == 10
        back = read_points_csv(path)
        assert len(back) == 2
        for orig, new in zip(small_fleet.trips, back.trips):
            assert new.car_id == orig.car_id
            for a, b in zip(orig.points, new.points):
                assert a == b

    def test_empty_fleet(self, tmp_path):
        path = tmp_path / "empty.csv"
        assert write_points_csv(FleetData(), path) == 0
        assert len(read_points_csv(path)) == 0


class TestTripsJsonl:
    def test_roundtrip_summaries(self, small_fleet, tmp_path):
        path = tmp_path / "trips.jsonl"
        n = write_trips_jsonl(small_fleet, path)
        assert n == 2
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 2
        assert records[0]["trip_id"] == 1
        assert records[0]["point_count"] == 5
        assert records[0]["total_fuel_ml"] == pytest.approx(4 * 3.3)


class TestFleetRoundtrip:
    def test_simulated_fleet_roundtrips(self, fleet, tmp_path):
        path = tmp_path / "sim.csv"
        write_points_csv(fleet, path)
        back = read_points_csv(path)
        assert len(back) == len(fleet)
        assert back.point_count == fleet.point_count
