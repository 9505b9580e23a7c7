"""Road network substrate — the Digiroad substitute.

Digiroad models the Finnish road network as *traffic elements* (smallest
units of centre-line geometry) carrying attributes, plus point objects of
the transportation system (traffic lights, bus stops, pedestrian
crossings) and segmented line-like attribute data (speed limits, road
addresses).  This package reproduces that structure and the paper's map
preparation step:

* :mod:`repro.roadnet.elements` — traffic elements, point objects and
  segmented attributes;
* :mod:`repro.roadnet.digiroad` — the map database (storage + spatial
  queries over elements and point objects);
* :mod:`repro.roadnet.graphbuild` — Sec. IV.A: classify element endpoints
  as junctions/intermediate points and merge element chains into graph
  edges (Table 1);
* :mod:`repro.roadnet.graph` — the resulting road graph;
* :mod:`repro.roadnet.routing` — Dijkstra shortest paths (the pgRouting
  substitute), the route cache and the batch query planner;
* :mod:`repro.roadnet.synthcity` — a deterministic synthetic downtown-Oulu
  generator used in place of the proprietary extract.
"""

from repro.roadnet.digiroad import MapDatabase
from repro.roadnet.elements import (
    FlowDirection,
    FunctionalClass,
    PointObject,
    PointObjectKind,
    SegmentedAttribute,
    TrafficElement,
)
from repro.roadnet.graph import RoadEdge, RoadGraph, RoadNode
from repro.roadnet.graphbuild import JunctionPair, build_road_graph, classify_endpoints
from repro.roadnet.routing import (
    PathResult,
    RouteBatch,
    RouteCache,
    cached_shortest_path,
    dijkstra,
    path_travel_time_s,
    shortest_path,
    shortest_path_geometry,
)
from repro.roadnet.synthcity import CitySpec, SyntheticCity, build_synthetic_oulu
from repro.roadnet.validate import MapIssue, MapValidationReport, validate_map

__all__ = [
    "CitySpec",
    "FlowDirection",
    "FunctionalClass",
    "JunctionPair",
    "MapDatabase",
    "MapIssue",
    "MapValidationReport",
    "PathResult",
    "PointObject",
    "RouteBatch",
    "RouteCache",
    "PointObjectKind",
    "RoadEdge",
    "RoadGraph",
    "RoadNode",
    "SegmentedAttribute",
    "SyntheticCity",
    "TrafficElement",
    "build_road_graph",
    "build_synthetic_oulu",
    "cached_shortest_path",
    "classify_endpoints",
    "dijkstra",
    "path_travel_time_s",
    "shortest_path",
    "shortest_path_geometry",
    "validate_map",
]
