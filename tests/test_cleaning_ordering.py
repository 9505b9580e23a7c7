"""Tests for repro.cleaning.ordering — the paper's shorter-length rule."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cleaning.ordering import repair_ordering
from repro.traces.model import RoutePoint, Trip, trip_distance_m
from repro.traces.noise import NoiseSpec, apply_noise


def straight_trip(n=12):
    points = [
        RoutePoint(point_id=i, trip_id=1, lat=65.0 + i * 2e-3, lon=25.0,
                   time_s=float(i * 60), speed_kmh=30.0, fuel_ml=float(i))
        for i in range(1, n + 1)
    ]
    return Trip(trip_id=1, car_id=1, points=points)


def corrupt_ids(trip, swaps, seed=0):
    """Swap ids of adjacent (true-order) pairs, then store in id order."""
    rng = random.Random(seed)
    pts = list(trip.points)
    for __ in range(swaps):
        i = rng.randrange(0, len(pts) - 1)
        a, b = pts[i], pts[i + 1]
        pts[i] = replace(a, point_id=b.point_id)
        pts[i + 1] = replace(b, point_id=a.point_id)
    pts.sort(key=lambda p: p.point_id)
    return trip.with_points(pts)


def corrupt_times(trip, swaps, seed=0):
    rng = random.Random(seed)
    pts = list(trip.points)
    for __ in range(swaps):
        i = rng.randrange(0, len(pts) - 1)
        a, b = pts[i], pts[i + 1]
        pts[i] = replace(a, time_s=b.time_s)
        pts[i + 1] = replace(b, time_s=a.time_s)
    return trip.with_points(pts)


class TestRepairOrdering:
    def test_consistent_trip_unchanged(self):
        trip = straight_trip()
        repaired, report = repair_ordering(trip)
        assert report.was_consistent
        assert report.chosen == "point_id"
        assert [p.lat for p in repaired.points] == [p.lat for p in trip.points]

    def test_corrupted_ids_recovered_via_timestamps(self):
        trip = corrupt_ids(straight_trip(), swaps=3, seed=1)
        repaired, report = repair_ordering(trip)
        assert report.chosen == "time_s"
        assert repaired.total_distance_m == pytest.approx(
            straight_trip().total_distance_m, rel=1e-9
        )

    def test_corrupted_times_recovered_via_ids(self):
        trip = corrupt_times(straight_trip(), swaps=3, seed=2)
        repaired, report = repair_ordering(trip)
        assert report.chosen == "point_id"
        assert repaired.total_distance_m == pytest.approx(
            straight_trip().total_distance_m, rel=1e-9
        )

    def test_report_distances(self):
        trip = corrupt_ids(straight_trip(), swaps=3, seed=3)
        __, report = repair_ordering(trip)
        assert report.distance_by_time_m < report.distance_by_id_m
        assert report.saved_m > 0
        # Batched sums may differ from a point-by-point walk in the last ulp.
        by_id = sorted(trip.points, key=lambda p: p.point_id)
        by_time = sorted(trip.points, key=lambda p: p.time_s)
        assert report.distance_by_id_m == pytest.approx(trip_distance_m(by_id), rel=1e-12)
        assert report.distance_by_time_m == pytest.approx(trip_distance_m(by_time), rel=1e-12)

    def test_output_monotonic_in_both_keys(self):
        trip = corrupt_ids(straight_trip(), swaps=4, seed=4)
        repaired, __ = repair_ordering(trip)
        ids = [p.point_id for p in repaired.points]
        times = [p.time_s for p in repaired.points]
        assert ids == sorted(ids)
        assert times == sorted(times)

    def test_value_multisets_preserved(self):
        trip = corrupt_ids(straight_trip(), swaps=4, seed=5)
        repaired, __ = repair_ordering(trip)
        assert sorted(p.point_id for p in repaired.points) == sorted(
            p.point_id for p in trip.points
        )
        assert sorted(p.time_s for p in repaired.points) == sorted(
            p.time_s for p in trip.points
        )

    def test_idempotent(self):
        trip = corrupt_ids(straight_trip(), swaps=3, seed=6)
        once, __ = repair_ordering(trip)
        twice, report = repair_ordering(once)
        assert report.was_consistent
        assert [p.lat for p in twice.points] == [p.lat for p in once.points]

    @given(seed=st.integers(min_value=0, max_value=500),
           swaps=st.integers(min_value=1, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_repair_never_increases_distance(self, seed, swaps):
        trip = corrupt_ids(straight_trip(), swaps=swaps, seed=seed)
        repaired, __ = repair_ordering(trip)
        assert repaired.total_distance_m <= trip_distance_m(
            sorted(trip.points, key=lambda p: p.point_id)
        ) + 1e-9

    @given(seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_recovers_simulated_noise(self, seed):
        spec = NoiseSpec(gps_sigma_m=0.0, reorder_prob=1.0, reorder_swaps=3,
                         glitch_prob=0.0, duplicate_prob=0.0)
        noisy = apply_noise(straight_trip(), spec, random.Random(seed))
        repaired, __ = repair_ordering(noisy)
        assert repaired.total_distance_m == pytest.approx(
            straight_trip().total_distance_m, rel=1e-6
        )
