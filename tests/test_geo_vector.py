"""Tests for repro.geo.vector — batch kernels vs their scalar references."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.distance import (
    EARTH_RADIUS_M,
    destination_point,
    haversine_m,
)
from repro.geo.geometry import project_point_to_segment
from repro.geo.vector import (
    gap_metrics,
    haversine_m_vec,
    project_onto_segments,
)

lat_st = st.floats(min_value=-85.0, max_value=85.0)
lon_st = st.floats(min_value=-180.0, max_value=180.0)
xy_st = st.floats(min_value=-1e5, max_value=1e5)


class TestHaversineVec:
    @given(lat1=lat_st, lon1=lon_st, lat2=lat_st, lon2=lon_st)
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_scalar_to_1e9_relative(self, lat1, lon1, lat2, lon2):
        scalar = haversine_m(lat1, lon1, lat2, lon2)
        batch = float(haversine_m_vec(lat1, lon1, lat2, lon2))
        assert batch == pytest.approx(scalar, rel=1e-9, abs=1e-6)

    def test_batch_over_column(self):
        lats = np.array([65.0, 65.01, 65.02])
        lons = np.array([25.4, 25.41, 25.42])
        batch = haversine_m_vec(lats[:-1], lons[:-1], lats[1:], lons[1:])
        for i in range(2):
            scalar = haversine_m(lats[i], lons[i], lats[i + 1], lons[i + 1])
            assert float(batch[i]) == pytest.approx(scalar, rel=1e-12)

    def test_antipodal_clamp_no_nan(self):
        # The haversine term can round a hair above 1 near antipodes; both
        # implementations clamp so arcsin stays defined.
        d = float(haversine_m_vec(0.0, 0.0, 0.0, 180.0))
        assert not math.isnan(d)
        assert d == pytest.approx(math.pi * EARTH_RADIUS_M, rel=1e-9)

    @given(lat=lat_st, lon=lon_st)
    @settings(max_examples=100, deadline=None)
    def test_near_antipode_never_nan(self, lat, lon):
        anti_lat = -lat
        anti_lon = lon + 180.0 if lon <= 0.0 else lon - 180.0
        d = float(haversine_m_vec(lat, lon, anti_lat, anti_lon))
        assert not math.isnan(d)
        assert d <= math.pi * EARTH_RADIUS_M * (1.0 + 1e-12)

    def test_zero_distance(self):
        assert float(haversine_m_vec(65.0, 25.4, 65.0, 25.4)) == 0.0


class TestDestinationPointNormalization:
    """Longitude normalisation near the antimeridian (satellite coverage)."""

    @given(
        lat=st.floats(min_value=-60.0, max_value=60.0),
        bearing=st.floats(min_value=0.0, max_value=360.0),
        dist=st.floats(min_value=0.0, max_value=2_000_000.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_longitude_always_in_range_near_antimeridian(self, lat, bearing, dist):
        for lon in (179.999, -179.999, 180.0, -180.0):
            __, out_lon = destination_point(lat, lon, bearing, dist)
            assert -180.0 <= out_lon < 180.0

    def test_eastward_across_antimeridian_wraps_negative(self):
        __, lon = destination_point(0.0, 179.9, 90.0, 50_000.0)
        assert -180.0 < lon < -179.5

    def test_westward_across_antimeridian_wraps_positive(self):
        __, lon = destination_point(0.0, -179.9, 270.0, 50_000.0)
        assert 179.5 < lon < 180.0

    def test_round_trip_distance_consistency_across_antimeridian(self):
        start = (10.0, 179.95)
        dest = destination_point(*start, 90.0, 30_000.0)
        assert haversine_m(*start, *dest) == pytest.approx(30_000.0, rel=1e-6)


class TestGapMetrics:
    def test_empty_and_single_point(self):
        for n in (0, 1):
            dist, dt = gap_metrics(np.zeros(n), np.zeros(n), np.zeros(n))
            assert dist.shape == (0,) and dt.shape == (0,)

    def test_matches_scalar_pairs(self):
        lat = np.array([65.0, 65.001, 65.003, 65.0031])
        lon = np.array([25.4, 25.402, 25.401, 25.405])
        t = np.array([0.0, 10.0, 40.0, 41.5])
        dist, dt = gap_metrics(lat, lon, t)
        assert dist.shape == (3,) and dt.shape == (3,)
        for i in range(3):
            assert float(dist[i]) == pytest.approx(
                haversine_m(lat[i], lon[i], lat[i + 1], lon[i + 1]), rel=1e-12
            )
            assert float(dt[i]) == t[i + 1] - t[i]


class TestProjectOntoSegments:
    @given(px=xy_st, py=xy_st, ax=xy_st, ay=xy_st, bx=xy_st, by=xy_st)
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_projection(self, px, py, ax, ay, bx, by):
        cx, cy, t = project_onto_segments(px, py, ax, ay, bx, by)
        (sx, sy), st_ = project_point_to_segment((px, py), (ax, ay), (bx, by))
        assert float(t) == pytest.approx(st_, abs=1e-12)
        assert float(cx) == pytest.approx(sx, abs=1e-6)
        assert float(cy) == pytest.approx(sy, abs=1e-6)

    def test_degenerate_segment_projects_to_start(self):
        cx, cy, t = project_onto_segments(
            np.array([5.0]), np.array([5.0]),
            np.array([1.0]), np.array([2.0]),
            np.array([1.0]), np.array([2.0]),
        )
        assert (cx.item(), cy.item(), t.item()) == (1.0, 2.0, 0.0)

    def test_t_clamped_to_unit_interval(self):
        cx, cy, t = project_onto_segments(
            np.array([-10.0, 10.0]), np.array([0.0, 0.0]),
            np.array([0.0, 0.0]), np.array([0.0, 0.0]),
            np.array([1.0, 1.0]), np.array([0.0, 0.0]),
        )
        assert list(t) == [0.0, 1.0]
        assert list(cx) == [0.0, 1.0]
