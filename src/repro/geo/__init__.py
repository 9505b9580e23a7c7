"""Geodesy and planar geometry substrate.

The paper stores road geometry in EPSG:4326 (WGS84 lon/lat) and relies on
PostGIS for metric operations.  This package provides the equivalent pure
Python machinery:

* great-circle and fast equirectangular distances on the ellipsoid/sphere
  (:mod:`repro.geo.distance`),
* a local transverse-Mercator projection so city-scale work happens on a
  metric plane (:mod:`repro.geo.projection`),
* polyline geometry: lengths, interpolation, nearest-point projection and
  crossing angles (:mod:`repro.geo.geometry`),
* polygons and the "thick geometry" capsule used for origin/destination
  gates (:mod:`repro.geo.polygon`),
* a uniform grid spatial index for points and segments
  (:mod:`repro.geo.index`),
* batched NumPy counterparts of the scalar kernels for the pipeline's
  array stages (:mod:`repro.geo.vector`).
"""

from repro.geo.distance import (
    EARTH_RADIUS_M,
    bearing_deg,
    destination_point,
    equirectangular_m,
    haversine_m,
)
from repro.geo.geometry import (
    LineString,
    angle_between_deg,
    point_segment_distance,
    project_point_to_segment,
    segment_intersection,
)
from repro.geo.index import GridIndex
from repro.geo.polygon import Polygon, ThickLine
from repro.geo.projection import LocalProjector, TransverseMercator
from repro.geo.vector import (
    gap_metrics,
    haversine_m_vec,
    project_onto_segments,
)

__all__ = [
    "EARTH_RADIUS_M",
    "GridIndex",
    "LineString",
    "LocalProjector",
    "Polygon",
    "ThickLine",
    "TransverseMercator",
    "angle_between_deg",
    "bearing_deg",
    "destination_point",
    "equirectangular_m",
    "gap_metrics",
    "haversine_m",
    "haversine_m_vec",
    "point_segment_distance",
    "project_onto_segments",
    "project_point_to_segment",
    "segment_intersection",
]
