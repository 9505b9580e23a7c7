"""Batch cleaning and gating kernels vs the per-trip bodies they replaced.

:func:`repro.cleaning.pipeline.clean_batch` cleans a whole batch of trips
as one set of array passes, and
:meth:`repro.od.TransitionExtractor.extract_segments` gates a whole
batch of segments.  Their contract is byte identity with the per-trip
references in :mod:`tests.oracles.pertrip`: ``repr``-equal segments,
bit-equal seeded lengths and reports, equal crossing events — for every
trip, whether it is cleaned alone, inside one batch, or in any chunking.

The trip strategy aims at the kernels' exactness hazards: duplicate
chains, glitched first points, reversed and tied ids and timestamps,
zero-dt gaps, 0-, 1- and 2-point trips, and gaps one ulp either side of
each filter and Table 2 threshold — where the array haversine may
differ from the scalar one and the kernels must fall back to the
sequential rules.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cleaning import CleaningPipeline
from repro.cleaning import pipeline as pipeline_module
from repro.cleaning.filters import (
    FilterConfig,
    drop_duplicates,
    remove_position_outliers,
    within_bounds,
)
from repro.cleaning.ordering import repair_ordering
from repro.cleaning.pipeline import clean_batch
from repro.cleaning.segmentation import SegmentationConfig, segment_trip
from repro.geo.distance import destination_point, haversine_m
from repro.geo.vector import haversine_m_vec
from repro.obs import MetricsRegistry, use_registry
from repro.od import TransitionExtractor
from repro.od.gates import crossing_events
from repro.parallel import study_gates
from repro.traces.model import RoutePoint, Trip
from tests.oracles import pertrip

BASE_LAT, BASE_LON = 65.01, 25.47


def _straddle_lat(target_m: float) -> tuple[float, float]:
    """Adjacent floats ``lat`` such that the gap from the base point
    north to ``lat`` is just under / just over ``target_m``."""
    lo, hi = BASE_LAT, BASE_LAT + 1e-3
    while np.nextafter(lo, math.inf) < hi:
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):
            break
        if haversine_m(BASE_LAT, BASE_LON, mid, BASE_LON) <= target_m:
            lo = mid
        else:
            hi = mid
    return lo, float(np.nextafter(lo, math.inf))


#: Latitudes whose gap from the base point straddles the duplicate
#: radius (1.0 m) and the rule 1 "does not change" radius (30 m).
EDGE_LATS = (*_straddle_lat(1.0), *_straddle_lat(30.0))


def _ulps(x: float, k: int) -> float:
    for __ in range(abs(k)):
        x = float(np.nextafter(x, math.inf if k > 0 else -math.inf))
    return x


#: Gap durations at and one ulp around each time threshold: the
#: duplicate window, the Table 2 windows (rules 1-5).
EDGE_DTS = tuple(
    _ulps(t, k)
    for t in (0.5, 90.0, 120.0, 180.0, 420.0, 900.0)
    for k in (-1, 0, 1)
)


@st.composite
def moves(draw):
    """One step of a synthetic trace: ``(kind, distance_m, dt_s, bearing)``."""
    kind = draw(st.sampled_from(
        ["drive", "drive", "drive", "dup", "stop", "glitch", "edge_speed",
         "edge_place", "zero_dt", "long"]
    ))
    bearing = draw(st.floats(0.0, 359.0))
    if kind == "drive":
        return kind, draw(st.floats(5.0, 400.0)), draw(st.floats(1.0, 60.0)), bearing
    if kind == "dup":
        return kind, 0.0, draw(st.sampled_from([0.0, 0.1, *EDGE_DTS[:3]])), bearing
    if kind == "stop":
        return (kind, draw(st.sampled_from([0.0, 10.0, 29.9, 30.1, 2_999.0])),
                draw(st.sampled_from([*EDGE_DTS, 2_000.0])), bearing)
    if kind == "glitch":
        return kind, draw(st.floats(3_000.0, 8_000.0)), draw(st.floats(5.0, 30.0)), bearing
    if kind == "edge_speed":
        # Implied speed a few ulps either side of the 38 m/s limit.
        dist = draw(st.floats(50.0, 500.0))
        return kind, dist, _ulps(dist / 38.0, draw(st.integers(-2, 2))), bearing
    if kind == "edge_place":
        return kind, float(draw(st.sampled_from(EDGE_LATS))), draw(
            st.sampled_from([0.0, 0.2, *EDGE_DTS])), bearing
    if kind == "zero_dt":
        return kind, draw(st.floats(0.0, 5.0)), 0.0, bearing
    return kind, draw(st.floats(4_000.0, 6_000.0)), draw(st.floats(140.0, 200.0)), bearing


@st.composite
def trips(draw, trip_id: int):
    steps = draw(st.lists(moves(), max_size=24))
    lat, lon, t = BASE_LAT, BASE_LON, draw(st.floats(0.0, 1e5))
    rows = [(lat, lon, t)]
    for kind, dist, dt, bearing in steps:
        if kind == "edge_place":
            # Base point, then the straddling latitude ``dist``.
            rows.append((BASE_LAT, BASE_LON, t + 1.0))
            lat, lon, t = dist, BASE_LON, t + 1.0 + dt
        else:
            lat, lon = destination_point(lat, lon, bearing, dist)
            t += dt
        rows.append((lat, lon, t))
    rows = rows[: draw(st.integers(0, len(rows)))]
    if rows and draw(st.booleans()):
        # A glitched first point.
        glat, glon = destination_point(rows[0][0], rows[0][1], 90.0, 4_000.0)
        rows[0] = (glat, glon, rows[0][2])
    ids = list(range(1, len(rows) + 1))
    times = [r[2] for r in rows]
    n = len(rows)
    for __ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        i = draw(st.integers(0, n - 2))
        how = draw(st.sampled_from(["swap_ids", "swap_times", "tie_ids", "tie_times",
                                    "reverse_ids"]))
        if how == "swap_ids":
            ids[i], ids[i + 1] = ids[i + 1], ids[i]
        elif how == "swap_times":
            times[i], times[i + 1] = times[i + 1], times[i]
        elif how == "tie_ids":
            ids[i + 1] = ids[i]
        elif how == "tie_times":
            times[i + 1] = times[i]
        else:
            j = draw(st.integers(i + 1, n - 1))
            ids[i : j + 1] = ids[i : j + 1][::-1]
    points = [
        RoutePoint(pid, trip_id, lat, lon, ts, speed_kmh=float(k), fuel_ml=2.5 * k)
        for k, (pid, (lat, lon, __), ts) in enumerate(zip(ids, rows, times))
    ]
    return Trip(trip_id=trip_id, car_id=1 + trip_id % 3, points=points)


@st.composite
def batches(draw):
    n = draw(st.integers(1, 6))
    return [draw(trips(trip_id=10 + k)) for k in range(n)]


@st.composite
def configs(draw):
    repair = draw(st.booleans())
    bounds = None
    if draw(st.booleans()):
        bounds = (BASE_LAT - 0.02, BASE_LON - 0.05, BASE_LAT + 0.03, BASE_LON + 0.08)
    return FilterConfig(bounds=bounds), SegmentationConfig(), repair


def fingerprint(result) -> tuple:
    """Every deterministic field of a TripCleanResult, floats exact."""
    return (
        repr(result.segments),
        [s._distance_m.hex() for s in result.segments],
        result.reordered,
        result.reordering_saved_m.hex(),
        result.duplicates_removed,
        result.outliers_removed,
        result.out_of_bounds_removed,
        sorted(result.segmentation.rule_hits.items()),
        result.segmentation.segments_created,
        result.segmentation.trips_processed,
    )


class TestCleanBatch:
    @given(batch=batches(), config=configs())
    @settings(max_examples=250, deadline=None)
    def test_batch_matches_per_trip_bodies(self, batch, config):
        expected = [fingerprint(r) for r in pertrip.clean_batch(batch, *config)]
        assert [fingerprint(r) for r in clean_batch(batch, *config)] == expected

    @given(batch=batches(), config=configs(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_chunking_gives_the_same_results(self, batch, config, data):
        whole = [fingerprint(r) for r in clean_batch(batch, *config)]
        alone = [fingerprint(clean_batch([t], *config)[0]) for t in batch]
        cuts = sorted(data.draw(st.sets(st.integers(1, max(1, len(batch) - 1)))))
        bounds = [0, *cuts, len(batch)]
        chunked = [
            fingerprint(r)
            for lo, hi in zip(bounds, bounds[1:])
            for r in clean_batch(batch[lo:hi], *config)
        ]
        assert whole == alone == chunked

    def test_signed_zero_timestamps_keep_their_sign(self):
        # -0.0 == 0.0, so only a stable, bit-exact realignment of the
        # timestamps along the chosen (id) sequence keeps each zero
        # where the per-trip body puts it.
        points = [
            RoutePoint(2, 1, BASE_LAT + 1e-3, BASE_LON, 0.0),
            RoutePoint(1, 1, BASE_LAT, BASE_LON, -0.0),
            RoutePoint(3, 1, BASE_LAT + 2e-3, BASE_LON, 30.0),
            RoutePoint(4, 1, BASE_LAT + 3e-3, BASE_LON, 60.0),
        ]
        trip = Trip(trip_id=1, car_id=1, points=points)
        config = (FilterConfig(), SegmentationConfig(), True)
        assert fingerprint(clean_batch([trip], *config)[0]) == fingerprint(
            pertrip.clean_trip(trip, *config)
        )

    def test_empty_batch(self):
        assert clean_batch([], FilterConfig(), SegmentationConfig()) == []

    def test_pipeline_run_matches_per_trip_fold(self, fleet, monkeypatch):
        batch = CleaningPipeline().run(fleet)
        monkeypatch.setattr(pipeline_module, "clean_batch", pertrip.clean_batch)
        reference = CleaningPipeline().run(fleet)
        assert repr(batch.segments) == repr(reference.segments)
        assert [s._distance_m for s in batch.segments] == [
            s._distance_m for s in reference.segments
        ]
        assert batch.report.reordering_saved_m.hex() == \
            reference.report.reordering_saved_m.hex()


def _disagreeing_gap(forward: bool, array_larger: bool):
    """Two fixes on which the array haversine (as the kernels compute a
    one-gap trip, earlier fix first) exceeds (or falls short of) the
    scalar one (forward: earlier fix first; else later first) — or
    ``None`` if no pair tried disagrees that way."""
    rng = np.random.default_rng(7)
    n = 50_000
    lat1 = BASE_LAT + 0.05 * rng.random(n)
    lon1 = BASE_LON + 0.1 * rng.random(n)
    lat2 = lat1 + rng.normal(0, 1e-5, n)
    lon2 = lon1 + rng.normal(0, 2e-5, n)
    for i in range(n):
        a, b = (lat1[i], lon1[i]), (lat2[i], lon2[i])
        (vec,) = haversine_m_vec([a[0]], [a[1]], [b[0]], [b[1]])
        scalar = haversine_m(*a, *b) if forward else haversine_m(*b, *a)
        if (float(vec) > scalar) if array_larger else (float(vec) < scalar):
            return a, b, float(vec), scalar
    return None


class TestGuardBand:
    """Thresholds set at the scalar distance (speed) of a gap whose array
    value lies on the side the array pass would clear: only the guard
    band's scalar fallback keeps the per-trip result."""

    def _trip(self, a, b, dt):
        points = [
            RoutePoint(1, 1, a[0], a[1], 100.0),
            RoutePoint(2, 1, b[0], b[1], 100.0 + dt),
            RoutePoint(3, 1, b[0], b[1] + 0.01, 5_000.0),
        ]
        return Trip(trip_id=1, car_id=1, points=points)

    def test_duplicate_radius(self):
        found = _disagreeing_gap(forward=False, array_larger=True)
        if found is None:
            pytest.skip("array and scalar haversine agreed on every pair tried")
        a, b, vec, scalar = found
        config = FilterConfig(duplicate_epsilon_m=scalar)
        trip = self._trip(a, b, 0.1)
        assert fingerprint(clean_batch([trip], config, SegmentationConfig())[0]) == \
            fingerprint(pertrip.clean_trip(trip, config, SegmentationConfig()))

    def test_implied_speed_limit(self):
        found = _disagreeing_gap(forward=True, array_larger=False)
        if found is None:
            pytest.skip("array and scalar haversine agreed on every pair tried")
        a, b, vec, scalar = found
        config = FilterConfig(max_implied_speed_mps=vec)
        trip = self._trip(a, b, 1.0)
        assert fingerprint(clean_batch([trip], config, SegmentationConfig())[0]) == \
            fingerprint(pertrip.clean_trip(trip, config, SegmentationConfig()))


class TestPerTripNames:
    """The public per-trip functions are one-trip calls of the kernels."""

    @given(trip=trips(trip_id=3))
    @settings(max_examples=150, deadline=None)
    def test_repair_ordering(self, trip):
        repaired, report = repair_ordering(trip)
        expected, expected_report = pertrip.repair_ordering(trip)
        assert repr(repaired.points) == repr(expected.points)
        assert report == expected_report

    @given(trip=trips(trip_id=3))
    @settings(max_examples=150, deadline=None)
    def test_point_filters(self, trip):
        config = FilterConfig(bounds=(BASE_LAT - 0.01, BASE_LON - 0.03,
                                      BASE_LAT + 0.02, BASE_LON + 0.05))
        for kernel, oracle in (
            (drop_duplicates, pertrip.drop_duplicates),
            (remove_position_outliers, pertrip.remove_position_outliers),
            (within_bounds, pertrip.within_bounds),
        ):
            assert kernel(trip.points, config) == oracle(trip.points, config)

    @given(trip=trips(trip_id=3))
    @settings(max_examples=150, deadline=None)
    def test_segment_trip(self, trip):
        segments, report = segment_trip(trip, first_segment_id=4)
        expected, expected_report = pertrip.segment_trip(trip, first_segment_id=4)
        assert repr(segments) == repr(expected)
        assert [s._distance_m.hex() for s in segments] == [
            s._distance_m.hex() for s in expected
        ]
        assert report == expected_report


def _walks(rng: random.Random, bounds, n_walks: int):
    x0, y0, x1, y1 = bounds
    walks = []
    for __ in range(n_walks):
        n = rng.choice([0, 1, 2, rng.randint(3, 60)])
        x, y, t = rng.uniform(x0, x1), rng.uniform(y0, y1), 0.0
        xys, times = [], []
        for __ in range(n):
            x += rng.gauss(0, 150)
            y += rng.gauss(0, 150)
            t += rng.choice([0.0, rng.uniform(1, 30)])
            xys.append((x, y))
            times.append(t)
        walks.append((xys, times))
    return walks


class TestCrossingBatch:
    @pytest.mark.parametrize("seed", range(6))
    def test_batch_events_match_per_sequence_bodies(self, city, seed):
        gates = study_gates(city)
        walks = _walks(random.Random(seed), city.graph.bounds(), 40)
        offsets = [0]
        for xys, __ in walks:
            offsets.append(offsets[-1] + len(xys))
        per_walk, batch = MetricsRegistry(), MetricsRegistry()
        with use_registry(per_walk):
            expected = [pertrip.find_crossings(xys, t, gates) for xys, t in walks]
        with use_registry(batch):
            events = crossing_events(
                np.array([xy for xys, __ in walks for xy in xys]).reshape(-1, 2),
                [ts for __, times in walks for ts in times],
                offsets,
                gates,
            )
        assert events == expected
        assert any(expected), "the walks must cross some gate"
        assert batch.counter("od.crossings_detected").value == \
            per_walk.counter("od.crossings_detected").value

    def test_extract_segments_matches_per_segment_bodies(
        self, city, clean_result, to_xy
    ):
        extractor = TransitionExtractor(study_gates(city), city.central_area)
        segments = clean_result.segments
        expected = pertrip.extract_segments(extractor, segments, to_xy)
        assert any(e.transition for e in expected)
        assert extractor.extract_segments(segments, to_xy) == expected
        rng = random.Random(5)
        lo = 0
        while lo < len(segments):
            hi = lo + rng.randint(1, 40)
            assert extractor.extract_segments(segments[lo:hi], to_xy) == expected[lo:hi]
            lo = hi
