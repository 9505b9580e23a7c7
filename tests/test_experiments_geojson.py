"""Tests for repro.experiments.geojson."""

import json

import pytest

from repro.experiments.geojson import (
    matched_route_geojson,
    road_network_geojson,
    study_geojson,
)
from repro.matching.types import MatchedRoute


def assert_valid_collection(obj):
    assert obj["type"] == "FeatureCollection"
    for f in obj["features"]:
        assert f["type"] == "Feature"
        assert "geometry" in f and "properties" in f


class TestRoadNetwork:
    def test_collection_structure(self, city):
        fc = road_network_geojson(city.graph, city.projector)
        assert_valid_collection(fc)
        assert len(fc["features"]) == city.graph.edge_count

    def test_coordinates_are_wgs84(self, city):
        fc = road_network_geojson(city.graph, city.projector)
        lon, lat = fc["features"][0]["geometry"]["coordinates"][0]
        assert 25.0 < lon < 26.0
        assert 64.9 < lat < 65.1

    def test_serialisable(self, city):
        fc = road_network_geojson(city.graph, city.projector)
        text = json.dumps(fc)
        assert json.loads(text) == fc


class TestTripsAndRoutes:
    def test_matched_route_feature(self, study_result):
        __, route = study_result.kept()[0]
        f = matched_route_geojson(route, study_result.city.graph,
                                  study_result.city.projector)
        assert f["geometry"]["type"] == "LineString"
        assert f["properties"]["length_m"] > 1000.0
        assert len(f["geometry"]["coordinates"]) >= 2

    def test_simplification_reduces_vertices(self, study_result):
        __, route = study_result.kept()[0]
        graph = study_result.city.graph
        projector = study_result.city.projector
        dense = matched_route_geojson(route, graph, projector, simplify_m=None)
        coarse = matched_route_geojson(route, graph, projector, simplify_m=50.0)
        assert len(coarse["geometry"]["coordinates"]) <= len(
            dense["geometry"]["coordinates"]
        )

    def test_empty_route_rejected(self, study_result):
        empty = MatchedRoute(segment_id=1, car_id=1)
        with pytest.raises(ValueError):
            matched_route_geojson(empty, study_result.city.graph,
                                  study_result.city.projector)


class TestHotspotsAndStudy:
    def test_study_bundle(self, study_result):
        bundle = study_geojson(study_result, max_routes=5)
        assert set(bundle) == {"roads", "gates", "routes", "cells"}
        for fc in bundle.values():
            assert_valid_collection(fc)
        assert len(bundle["gates"]["features"]) == 3
        assert len(bundle["routes"]["features"]) <= 5
        assert len(bundle["cells"]["features"]) == len(study_result.mixed.groups)
        # Cells are polygons with closed rings.
        ring = bundle["cells"]["features"][0]["geometry"]["coordinates"][0]
        assert ring[0] == ring[-1]
