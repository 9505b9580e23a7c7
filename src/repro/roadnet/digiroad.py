"""The map database — storage and spatial queries over Digiroad-style data.

:class:`MapDatabase` keeps traffic elements, point objects and segmented
attributes in insertion-ordered dicts, with a
:class:`~repro.geo.index.GridIndex` over element and object geometry, and
answers the queries the pipeline issues against PostGIS in the paper:
elements near a point, the nearest element, point objects within a
radius, and the speed limit at an arc position (segmented restrictions
override the element default).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable

from repro.geo.geometry import Point
from repro.geo.index import GridIndex
from repro.roadnet.elements import (
    PointObject,
    PointObjectKind,
    SegmentedAttribute,
    TrafficElement,
)


class MapDatabase:
    """Digiroad substitute: elements + point objects + segmented attributes."""

    def __init__(self, spatial_cell_m: float = 150.0) -> None:
        self._elements: dict[int, TrafficElement] = {}
        self._objects: dict[int, PointObject] = {}
        self._attrs: dict[int, list[SegmentedAttribute]] = {}
        self._element_index: GridIndex[int] = GridIndex(spatial_cell_m)
        self._object_index: GridIndex[int] = GridIndex(spatial_cell_m)

    # -- loading -------------------------------------------------------------

    def add_element(self, element: TrafficElement) -> None:
        """Register one traffic element (unique ``element_id``)."""
        if element.element_id in self._elements:
            raise ValueError(f"duplicate element_id {element.element_id}")
        self._elements[element.element_id] = element
        coords = element.geometry.coords
        self._element_index.insert(
            element.element_id,
            float(coords[:, 0].min()),
            float(coords[:, 1].min()),
            float(coords[:, 0].max()),
            float(coords[:, 1].max()),
        )

    def add_elements(self, elements: Iterable[TrafficElement]) -> None:
        for element in elements:
            self.add_element(element)

    def add_point_object(self, obj: PointObject) -> None:
        """Register one point object (light / bus stop / crossing)."""
        if obj.object_id in self._objects:
            raise ValueError(f"duplicate object_id {obj.object_id}")
        self._objects[obj.object_id] = obj
        x, y = float(obj.position[0]), float(obj.position[1])
        self._object_index.insert(obj.object_id, x, y, x, y)

    def add_segmented_attribute(self, attr: SegmentedAttribute) -> None:
        """Register a segmented line-like attribute row."""
        self.element(attr.element_id)  # validate the element exists
        self._attrs.setdefault(attr.element_id, []).append(attr)

    # -- element access --------------------------------------------------------

    def element(self, element_id: int) -> TrafficElement:
        """Traffic element by id (KeyError if absent)."""
        return self._elements[element_id]

    def elements(self) -> list[TrafficElement]:
        """All traffic elements, in insertion order."""
        return list(self._elements.values())

    def element_count(self) -> int:
        return len(self._elements)

    def elements_near(self, p: Point, radius: float) -> list[TrafficElement]:
        """Elements whose geometry passes within ``radius`` of ``p``."""
        near = (self._elements[i] for i in self._element_index.query_radius(p, radius))
        return [e for e in near if e.geometry.distance_to(p) <= radius]

    def nearest_element(self, p: Point, max_radius: float = 500.0) -> TrafficElement | None:
        """Element nearest to ``p`` within ``max_radius`` (None if none)."""
        element_id = _nearest(
            self._element_index,
            lambda i: self._elements[i].geometry.distance_to(p),
            p,
            max_radius,
        )
        return None if element_id is None else self._elements[element_id]

    # -- point object access ----------------------------------------------------

    def point_objects(self, kind: PointObjectKind | None = None) -> list[PointObject]:
        """All point objects in insertion order, optionally one kind only."""
        return [o for o in self._objects.values() if kind is None or o.kind is kind]

    def objects_near(
        self, p: Point, radius: float, kind: PointObjectKind | None = None
    ) -> list[PointObject]:
        """Point objects within ``radius`` of ``p`` (optionally one kind)."""
        near = (self._objects[i] for i in self._object_index.query_radius(p, radius))
        return [
            o for o in near
            if math.hypot(o.position[0] - p[0], o.position[1] - p[1]) <= radius
            and (kind is None or o.kind is kind)
        ]

    def count_objects(self, kind: PointObjectKind) -> int:
        """Total count of point objects of one kind."""
        return sum(1 for o in self._objects.values() if o.kind is kind)

    def feature_census(self) -> dict[str, int]:
        """Counts of every point-object kind (for the study-area census)."""
        return {kind.value: self.count_objects(kind) for kind in PointObjectKind}

    # -- attributes ---------------------------------------------------------------

    def segmented_attributes(self, element_id: int, name: str | None = None) -> list[SegmentedAttribute]:
        """Segmented attributes on an element, optionally filtered by name."""
        attrs = self._attrs.get(element_id, [])
        return [a for a in attrs if name is None or a.name == name]

    def speed_limit_at(self, element_id: int, arc_m: float) -> float:
        """Speed limit at an arc position, honouring segmented restrictions.

        The most restrictive (lowest) covering restriction wins; the element
        default applies when no restriction covers the position.
        """
        element = self.element(element_id)
        limits = [
            float(a.value)
            for a in self.segmented_attributes(element_id, "speed_limit")
            if a.covers(arc_m)
        ]
        if limits:
            return min(limits)
        return element.speed_limit_kmh


def _nearest(
    index: GridIndex[int], distance: Callable[[int], float], p: Point, max_radius: float
) -> int | None:
    """Item of ``index`` at the least exact ``distance`` within ``max_radius``.

    Searches discs of doubling radius from one cell up to ``max_radius``.
    The grid only matches bounding boxes, so a candidate whose exact
    distance ``d`` exceeds the disc searched (a bent line whose box is
    near ``p``) is not final: a nearer item may lie outside the disc, so
    the search repeats at ``min(d, max_radius)`` first.  The first
    candidate wins a tie.
    """
    if not len(index):
        return None
    radius = min(index.cell_size, max_radius)
    while True:
        candidates = index.query_radius(p, radius)
        if candidates:
            best = min(candidates, key=distance)
            d = distance(best)
            if d <= radius:
                return best
            if radius >= max_radius:
                return None
            radius = min(d, max_radius)
        elif radius >= max_radius:
            return None
        else:
            radius = min(2.0 * radius, max_radius)
