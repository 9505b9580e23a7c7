"""GeoJSON export of pipeline artefacts.

Everything the paper visualises in QGIS can be exported as standard
GeoJSON FeatureCollections (WGS84, RFC 7946): the road network, gates,
matched routes and per-cell values — ready for any GIS or web map.
Pure-dict output; serialise with ``json.dumps``.
"""

from __future__ import annotations

from typing import Any

from repro.experiments.study import StudyResult
from repro.geo.geometry import LineString
from repro.geo.projection import LocalProjector
from repro.matching.types import MatchedRoute
from repro.roadnet.graph import RoadGraph


def feature(geometry: dict, properties: dict | None = None) -> dict:
    """A GeoJSON Feature."""
    return {
        "type": "Feature",
        "geometry": geometry,
        "properties": properties or {},
    }


def collection(features: list[dict]) -> dict:
    """A GeoJSON FeatureCollection."""
    return {"type": "FeatureCollection", "features": features}


def _line_coords(line: LineString, projector: LocalProjector) -> list[list[float]]:
    out = []
    for x, y in line:
        lat, lon = projector.to_latlon(x, y)
        out.append([round(lon, 6), round(lat, 6)])
    return out


def road_network_geojson(graph: RoadGraph, projector: LocalProjector) -> dict:
    """The road graph as LineString features with edge attributes."""
    features = []
    for edge in graph.edges():
        features.append(
            feature(
                {
                    "type": "LineString",
                    "coordinates": _line_coords(edge.geometry, projector),
                },
                {
                    "edge_id": edge.edge_id,
                    "length_m": round(edge.length, 1),
                    "speed_limit_kmh": round(edge.speed_limit_kmh, 1),
                    "oneway": edge.forward_allowed != edge.backward_allowed,
                    "elements": list(edge.element_ids),
                },
            )
        )
    return collection(features)


def matched_route_geojson(
    route: MatchedRoute, graph: RoadGraph, projector: LocalProjector,
    simplify_m: float | None = 2.0,
) -> dict:
    """A matched route's driven geometry as a LineString feature."""
    parts = []
    for edge_id, from_node in route.edge_sequence:
        parts.append(graph.edge(edge_id).geometry_from(from_node))
    if not parts:
        raise ValueError("route has no edge sequence")
    geometry = LineString.concat(parts)
    if simplify_m is not None:
        geometry = geometry.simplify(simplify_m)
    return feature(
        {"type": "LineString", "coordinates": _line_coords(geometry, projector)},
        {
            "segment_id": route.segment_id,
            "car_id": route.car_id,
            "length_m": round(route.length_m(graph), 1),
            "n_points": len(route.matched),
            "gaps_filled": route.gaps_filled,
        },
    )


def study_geojson(result: StudyResult, max_routes: int = 50) -> dict[str, Any]:
    """A bundle of FeatureCollections for one study run.

    Returns ``{"roads": ..., "gates": ..., "routes": ..., "cells": ...}``.
    """
    projector = result.city.projector
    gates = collection([
        feature(
            {"type": "LineString", "coordinates": _line_coords(road, projector)},
            {"gate": name},
        )
        for name, road in result.city.gate_roads.items()
    ])
    routes = collection([
        matched_route_geojson(route, result.city.graph, projector)
        for __, route in result.kept()[:max_routes]
    ])
    cell_features = []
    if result.mixed is not None:
        half = result.config.grid.cell_size_m / 2.0
        for key in result.mixed.groups:
            cx, cy = result.config.grid.cell_centre(key)
            ring = [
                (cx - half, cy - half), (cx + half, cy - half),
                (cx + half, cy + half), (cx - half, cy + half),
                (cx - half, cy - half),
            ]
            coords = []
            for x, y in ring:
                lat, lon = projector.to_latlon(x, y)
                coords.append([round(lon, 6), round(lat, 6)])
            cell_features.append(
                feature(
                    {"type": "Polygon", "coordinates": [coords]},
                    {
                        "cell": list(key),
                        "intercept_kmh": round(result.mixed.blup[key], 2),
                        "n_points": result.mixed.group_sizes[key],
                    },
                )
            )
    return {
        "roads": road_network_geojson(result.city.graph, projector),
        "gates": gates,
        "routes": routes,
        "cells": collection(cell_features),
    }
