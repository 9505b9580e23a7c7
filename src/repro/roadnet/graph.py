"""The road network graph.

Vertices are junctions (and dead ends), edges are merged chains of traffic
elements between two junctions — the output of the paper's map-preparation
step (Sec. IV.A).  Edges carry their merged geometry, the contributing
element ids with arc-length offsets (so any position on an edge maps back
to a Digiroad element), the allowed traversal directions, and a
travel-time estimate derived from per-element speed limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.geo.geometry import LineString, Point
from repro.geo.index import GridIndex


@dataclass(frozen=True)
class RoadNode:
    """A graph vertex: a junction or dead end of the road network."""

    node_id: int
    position: Point
    degree: int = 0


@dataclass(frozen=True)
class ElementSpan:
    """One traffic element's stretch within a merged edge.

    ``reversed_`` is True when the element's digitization direction runs
    against the edge direction (v -> u side).
    """

    element_id: int
    start_arc: float
    end_arc: float
    reversed_: bool
    speed_limit_kmh: float

    def covers(self, arc: float) -> bool:
        return self.start_arc <= arc <= self.end_arc

    def element_arc(self, edge_arc: float) -> float:
        """Map an edge arc position into the element's own arc length."""
        local = min(self.end_arc, max(self.start_arc, edge_arc)) - self.start_arc
        if self.reversed_:
            return (self.end_arc - self.start_arc) - local
        return local


@dataclass(frozen=True)
class RoadEdge:
    """A merged edge between two junctions.

    ``geometry`` runs from node ``u`` to node ``v``; ``forward_allowed`` /
    ``backward_allowed`` encode one-way constraints in that frame.
    """

    edge_id: int
    u: int
    v: int
    geometry: LineString
    spans: tuple[ElementSpan, ...]
    forward_allowed: bool = True
    backward_allowed: bool = True

    @property
    def length(self) -> float:
        return self.geometry.length

    @property
    def element_ids(self) -> tuple[int, ...]:
        return tuple(span.element_id for span in self.spans)

    @property
    def speed_limit_kmh(self) -> float:
        """Length-weighted harmonic-mean speed limit over the spans."""
        total = self.length
        if total <= 0.0:
            return self.spans[0].speed_limit_kmh if self.spans else 0.0
        inv = 0.0
        for span in self.spans:
            seg = span.end_arc - span.start_arc
            inv += seg / max(span.speed_limit_kmh, 1e-9)
        return total / inv if inv > 0.0 else 0.0

    @property
    def travel_time_s(self) -> float:
        """Free-flow traversal time using per-element limits."""
        t = 0.0
        for span in self.spans:
            seg = span.end_arc - span.start_arc
            t += seg / (max(span.speed_limit_kmh, 1e-9) / 3.6)
        return t

    def span_at(self, arc: float) -> ElementSpan:
        """The element span covering edge arc position ``arc``."""
        arc = min(self.length, max(0.0, arc))
        for span in self.spans:
            if span.covers(arc):
                return span
        return self.spans[-1]

    def allows(self, from_node: int) -> bool:
        """Can the edge be traversed starting at ``from_node``?"""
        if from_node == self.u:
            return self.forward_allowed
        if from_node == self.v:
            return self.backward_allowed
        raise ValueError(f"node {from_node} is not an endpoint of edge {self.edge_id}")

    def other(self, node_id: int) -> int:
        """Opposite endpoint."""
        if node_id == self.u:
            return self.v
        if node_id == self.v:
            return self.u
        raise ValueError(f"node {node_id} is not an endpoint of edge {self.edge_id}")

    def geometry_from(self, from_node: int) -> LineString:
        """Edge geometry oriented to start at ``from_node``."""
        if from_node == self.u:
            return self.geometry
        if from_node == self.v:
            return self.geometry.reversed()
        raise ValueError(f"node {from_node} is not an endpoint of edge {self.edge_id}")


#: One traversable arc out of a node: ``(other_node, edge_id, cost, edge)``.
Arc = tuple[int, int, float, RoadEdge]

#: A settled Dijkstra label: ``(cost, prev_node, prev_edge)``.
Label = tuple[float, int | None, int | None]


class RoadGraph:
    """Adjacency-indexed road network with a spatial edge index.

    Two routing structures derive from the graph, each built on first use
    and dropped by :meth:`add_node`/:meth:`add_edge`: the flat adjacency
    of :meth:`arcs` and the shortest-path trees of :attr:`route_trees`.
    """

    def __init__(self, spatial_cell_m: float = 150.0) -> None:
        self._nodes: dict[int, RoadNode] = {}
        self._edges: dict[int, RoadEdge] = {}
        self._adj: dict[int, list[int]] = {}
        self._edge_index: GridIndex[int] = GridIndex(spatial_cell_m)
        self._arcs: dict[tuple[str, bool], dict[int, list[Arc]]] = {}
        #: Full shortest-path trees keyed by ``(source, weight,
        #: respect_oneway)``; filled by :mod:`repro.roadnet.routing`.
        self.route_trees: dict[tuple[int, str, bool], dict[int, Label]] = {}

    # -- construction -------------------------------------------------------

    def add_node(self, node: RoadNode) -> None:
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node {node.node_id}")
        self._nodes[node.node_id] = node
        self._adj.setdefault(node.node_id, [])
        self._drop_routing_state()

    def add_edge(self, edge: RoadEdge) -> None:
        if edge.edge_id in self._edges:
            raise ValueError(f"duplicate edge {edge.edge_id}")
        if edge.u not in self._nodes or edge.v not in self._nodes:
            raise ValueError(f"edge {edge.edge_id} references unknown node")
        self._edges[edge.edge_id] = edge
        self._adj[edge.u].append(edge.edge_id)
        if edge.v != edge.u:
            self._adj[edge.v].append(edge.edge_id)
        coords = edge.geometry.coords
        self._edge_index.insert(
            edge.edge_id,
            float(coords[:, 0].min()),
            float(coords[:, 1].min()),
            float(coords[:, 0].max()),
            float(coords[:, 1].max()),
        )
        self._drop_routing_state()

    def _drop_routing_state(self) -> None:
        self._arcs = {}
        self.route_trees = {}

    # -- access ---------------------------------------------------------------

    def node(self, node_id: int) -> RoadNode:
        return self._nodes[node_id]

    def edge(self, edge_id: int) -> RoadEdge:
        return self._edges[edge_id]

    def nodes(self) -> list[RoadNode]:
        return list(self._nodes.values())

    def edges(self) -> list[RoadEdge]:
        return list(self._edges.values())

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def out_edges(self, node_id: int, respect_oneway: bool = True) -> list[RoadEdge]:
        """Edges traversable away from ``node_id``."""
        out = []
        for edge_id in self._adj.get(node_id, ()):
            edge = self._edges[edge_id]
            if not respect_oneway or edge.allows(node_id):
                out.append(edge)
        return out

    def arcs(
        self, weight: str = "length", respect_oneway: bool = True
    ) -> dict[int, list[Arc]]:
        """Flat adjacency: per node, the arcs :meth:`out_edges` yields.

        Each arc is ``(other_node, edge_id, cost, edge)`` in
        :meth:`out_edges` order; ``cost`` is the edge's ``length`` for
        ``weight="length"`` and its ``travel_time_s`` otherwise.
        """
        key = (weight, respect_oneway)
        arcs = self._arcs.get(key)
        if arcs is None:
            arcs = self._arcs[key] = {
                node_id: [
                    (edge.other(node_id), edge.edge_id,
                     edge.length if weight == "length" else edge.travel_time_s, edge)
                    for edge in self.out_edges(node_id, respect_oneway)
                ]
                for node_id in self._adj
            }
        return arcs

    def neighbors(self, node_id: int, respect_oneway: bool = True) -> list[int]:
        """Adjacent node ids reachable from ``node_id``."""
        return [e.other(node_id) for e in self.out_edges(node_id, respect_oneway)]

    def degree(self, node_id: int) -> int:
        return len(self._adj.get(node_id, ()))

    # -- spatial queries -------------------------------------------------------

    def edges_near(self, p: Point, radius: float) -> list[RoadEdge]:
        """Edges whose geometry passes within ``radius`` of ``p``."""
        out = []
        for edge_id in self._edge_index.query_radius(p, radius):
            edge = self._edges[edge_id]
            if edge.geometry.distance_to(p) <= radius:
                out.append(edge)
        return out

    def edges_near_many(
        self, points: list[Point], radius: float, *, exact: bool = True
    ) -> list[list[RoadEdge]]:
        """Bulk :meth:`edges_near` — one edge list per query point.

        With ``exact=True`` (default) each list matches
        ``edges_near(p, radius)`` exactly.  ``exact=False`` skips the
        per-edge geometry refinement and returns the bounding-box-level
        superset; batch callers that project every candidate pair anyway
        (see :func:`repro.matching.candidates.candidates_for_points`)
        refine with the same ``distance <= radius`` predicate themselves.
        """
        bbox_level = self._edge_index.query_radius_many(points, radius)
        if not exact:
            return [[self._edges[eid] for eid in ids] for ids in bbox_level]
        out: list[list[RoadEdge]] = []
        for p, ids in zip(points, bbox_level):
            near = []
            for edge_id in ids:
                edge = self._edges[edge_id]
                if edge.geometry.distance_to(p) <= radius:
                    near.append(edge)
            out.append(near)
        return out

    def nearest_edge(self, p: Point, max_radius: float = 500.0) -> RoadEdge | None:
        """Closest edge to ``p`` within ``max_radius``, or None.

        Expands the candidate radius geometrically so the exact nearest
        edge is found even when the first ring of grid cells is empty.
        """
        radius = 50.0
        while radius <= max_radius * 2.0:
            candidates = self.edges_near(p, min(radius, max_radius))
            if candidates:
                best = min(candidates, key=lambda e: e.geometry.distance_to(p))
                if best.geometry.distance_to(p) <= max_radius:
                    return best
                return None
            if radius >= max_radius:
                return None
            radius *= 2.0
        return None

    def nearest_node(self, p: Point) -> RoadNode | None:
        """Node closest to ``p`` (linear scan; nodes are few)."""
        if not self._nodes:
            return None
        return min(
            self._nodes.values(),
            key=lambda n: math.hypot(n.position[0] - p[0], n.position[1] - p[1]),
        )

    def bounds(self) -> tuple[float, float, float, float]:
        """Bounding box over node positions."""
        xs = [n.position[0] for n in self._nodes.values()]
        ys = [n.position[1] for n in self._nodes.values()]
        return (min(xs), min(ys), max(xs), max(ys))

    def __repr__(self) -> str:
        return f"RoadGraph({self.node_count} nodes, {self.edge_count} edges)"
