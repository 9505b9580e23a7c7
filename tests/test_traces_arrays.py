"""Tests for repro.traces.arrays — the struct-of-arrays batch of trips."""

import numpy as np
import pytest

from repro.traces.arrays import FleetArrays
from repro.traces.model import RoutePoint, Trip, trip_distance_m


def _trip(n: int = 6, trip_id: int = 9, car_id: int = 3, lat0: float = 65.0) -> Trip:
    points = [
        RoutePoint(
            point_id=i + 1,
            trip_id=trip_id,
            lat=lat0 + 0.001 * i,
            lon=25.4 + 0.002 * i,
            time_s=10.0 * i,
            speed_kmh=30.0 + i,
            fuel_ml=100.0 * i,
        )
        for i in range(n)
    ]
    return Trip(trip_id=trip_id, car_id=car_id, points=points)


def _fleet() -> list[Trip]:
    """Trips of 4, 0, 1 and 6 points."""
    return [
        _trip(4, trip_id=1, car_id=2),
        _trip(0, trip_id=2, car_id=2),
        _trip(1, trip_id=5, car_id=4, lat0=65.1),
        _trip(6, trip_id=7, car_id=4, lat0=65.2),
    ]


class TestRoundTrip:
    def test_columns_hold_every_point_exactly(self):
        trips = _fleet()
        arrays = FleetArrays.from_trips(trips)
        points = [p for t in trips for p in t.points]
        for name in FleetArrays.COLUMN_NAMES:
            assert getattr(arrays, name).tolist() == [getattr(p, name) for p in points]
        assert arrays.offsets.tolist() == [0, 4, 4, 5, 11]
        assert arrays.trip_ids.tolist() == [1, 2, 5, 7]
        assert arrays.car_ids.tolist() == [2, 2, 4, 4]

    def test_len_and_dtypes(self):
        arrays = FleetArrays.from_trip(_trip(4))
        assert len(arrays) == 4
        assert arrays.n_trips == 1
        assert arrays.point_id.dtype == np.int64
        for col in (arrays.lat, arrays.lon, arrays.time_s, arrays.speed_kmh, arrays.fuel_ml):
            assert col.dtype == np.float64

    def test_empty_trip(self):
        arrays = FleetArrays.from_points([])
        assert len(arrays) == 0
        assert arrays.n_trips == 1
        assert arrays.offsets.tolist() == [0, 0]
        assert arrays.path_lengths_m() == [0.0]


class TestBatch:
    def test_trip_index_follows_offsets(self):
        arrays = FleetArrays.from_trips(_fleet())
        assert arrays.trip_index().tolist() == [0] * 4 + [2] + [3] * 6

    def test_inner_gaps_mask_trip_boundaries(self):
        arrays = FleetArrays.from_trips(_fleet())
        inner = arrays.inner_gaps()
        assert inner.shape == (10,)
        # Gaps 3 (trip 1 -> trip 5) and 4 (trip 5 -> trip 7) join trips.
        assert np.flatnonzero(~inner).tolist() == [3, 4]

    def test_take_filters_and_recounts(self):
        arrays = FleetArrays.from_trips(_fleet())
        rows = np.array([0, 2, 4, 6, 7])
        taken = arrays.take(rows)
        assert taken.offsets.tolist() == [0, 2, 2, 3, 5]
        assert taken.lat.tolist() == arrays.lat[rows].tolist()
        assert taken.trip_ids is arrays.trip_ids

    def test_take_replaces_named_columns(self):
        arrays = FleetArrays.from_trip(_trip(3))
        rows = np.array([2, 1, 0])
        times = np.array([0.0, 1.0, 2.0])
        taken = arrays.take(rows, time_s=times)
        assert taken.time_s is times
        assert taken.point_id.tolist() == [3, 2, 1]

    def test_path_lengths_match_one_trip_batches_bitwise(self):
        trips = _fleet()
        batch = FleetArrays.from_trips(trips).path_lengths_m()
        alone = [FleetArrays.from_trip(t).path_lengths_m()[0] for t in trips]
        assert [x.hex() for x in batch] == [x.hex() for x in alone]


class TestGaps:
    def test_gap_arrays_shapes(self):
        arrays = FleetArrays.from_trip(_trip(5))
        dist, dt = arrays.gaps()
        assert dist.shape == (4,) and dt.shape == (4,)

    def test_gaps_cached_single_instance(self):
        arrays = FleetArrays.from_trip(_trip())
        assert arrays.gaps()[0] is arrays.gaps()[0]

    def test_total_distance_matches_scalar_walk(self):
        trip = _trip(8)
        arrays = FleetArrays.from_trip(trip)
        assert arrays.path_lengths_m()[0] == pytest.approx(
            trip_distance_m(trip.points), rel=1e-12
        )

    def test_distance_under_identity_order(self):
        arrays = FleetArrays.from_trip(_trip(6))
        assert arrays.path_lengths_m(np.arange(6)) == arrays.path_lengths_m()

    def test_distance_under_reversal_is_symmetric(self):
        arrays = FleetArrays.from_trip(_trip(6))
        (fwd,) = arrays.path_lengths_m(np.arange(6))
        (rev,) = arrays.path_lengths_m(np.arange(5, -1, -1))
        assert fwd == pytest.approx(rev, rel=1e-12)

    def test_distance_under_short_column_is_zero(self):
        arrays = FleetArrays.from_trip(_trip(1))
        assert arrays.path_lengths_m(np.array([0])) == [0.0]
