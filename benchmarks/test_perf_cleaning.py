"""Engineering benches: the columnar cleaning kernels.

The array kernels earn their keep on long traces — a year-scale corpus
replays whole days of points through segmentation at once — so these
benches run on dense synthetic trips (thousands of points), where array
construction amortises.
"""

import random

from repro.cleaning.ordering import repair_ordering
from repro.cleaning.segmentation import segment_trip
from repro.traces.model import RoutePoint, Trip

import pytest

from tests.oracles import cleaning as oracle

#: Dense-trace workload: a handful of long trips rather than many short
#: ones — the regime the columnar kernels target.
N_TRIPS = 8
POINTS_PER_TRIP = 4000


def _dense_trip(trip_id: int, n: int, seed: int) -> Trip:
    rng = random.Random(seed)
    lat, lon, t = 65.0, 25.4, 0.0
    points = []
    for i in range(n):
        lat += rng.gauss(0.0, 0.0004)
        lon += rng.gauss(0.0, 0.0008)
        t += rng.uniform(2.0, 12.0)
        points.append(
            RoutePoint(
                point_id=i + 1,
                trip_id=trip_id,
                lat=lat,
                lon=lon,
                time_s=t,
                speed_kmh=rng.uniform(0.0, 80.0),
                fuel_ml=10.0 * i,
            )
        )
    return Trip(trip_id=trip_id, car_id=1 + trip_id % 7, points=points)


@pytest.fixture(scope="module")
def dense_trips():
    return [
        _dense_trip(trip_id=k + 1, n=POINTS_PER_TRIP, seed=100 + k)
        for k in range(N_TRIPS)
    ]


def _segment_all(trips):
    total = 0
    for trip in trips:
        segments, __ = segment_trip(trip)
        total += len(segments)
    return total


def _order_all(trips):
    consistent = 0
    for trip in trips:
        __, report = repair_ordering(trip)
        consistent += report.was_consistent
    return consistent


def test_perf_segmentation(benchmark, dense_trips):
    total = benchmark(lambda: _segment_all(dense_trips))
    assert total >= N_TRIPS  # every trip yields at least one segment


def test_perf_ordering(benchmark, dense_trips):
    consistent = benchmark(lambda: _order_all(dense_trips))
    assert consistent == N_TRIPS  # the dense trips arrive in order


def test_results_match_scalar_oracle_on_bench_workload(dense_trips):
    # The perf workload itself doubles as an equivalence witness.
    for trip in dense_trips:
        scalar_segments, scalar_report = oracle.segment_trip(trip)
        segments, report = segment_trip(trip)
        assert scalar_report.rule_hits == report.rule_hits
        assert [s.points for s in scalar_segments] == [s.points for s in segments]
