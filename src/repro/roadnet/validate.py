"""Digital-map quality validation.

The paper closes on the point that "accuracy and correctness of the
digital map information is important" for trajectory analysis.  This
module audits a map database and its prepared graph for the defect
classes that break the pipeline: degenerate geometry, disconnected
components, one-way traps (nodes a vehicle can enter but never leave),
point objects detached from the network, and implausible attributes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.roadnet.digiroad import MapDatabase
from repro.roadnet.graph import RoadGraph

#: Speed limits outside this band are implausible for a street network.
SPEED_LIMIT_RANGE_KMH = (5.0, 120.0)
#: A point object farther than this from any element is detached.
OBJECT_ATTACH_RADIUS_M = 50.0
#: Elements shorter than this are degenerate slivers.
MIN_ELEMENT_LENGTH_M = 0.5


@dataclass(frozen=True)
class MapIssue:
    """One detected map defect."""

    kind: str
    subject: int          # element/object/node id, component index
    detail: str


@dataclass
class MapValidationReport:
    """All issues found, grouped by kind."""

    issues: list[MapIssue] = field(default_factory=list)
    n_elements: int = 0
    n_objects: int = 0
    n_nodes: int = 0

    @property
    def ok(self) -> bool:
        return not self.issues

    def by_kind(self) -> dict[str, list[MapIssue]]:
        out: dict[str, list[MapIssue]] = {}
        for issue in self.issues:
            out.setdefault(issue.kind, []).append(issue)
        return out

    def counts(self) -> dict[str, int]:
        return {kind: len(items) for kind, items in self.by_kind().items()}


def _components(graph: RoadGraph) -> list[set[int]]:
    """Connected components of the graph, ignoring one-way direction."""
    seen: set[int] = set()
    components = []
    for node in graph.nodes():
        if node.node_id in seen:
            continue
        component = {node.node_id}
        queue = deque([node.node_id])
        while queue:
            current = queue.popleft()
            for neighbour in graph.neighbors(current, respect_oneway=False):
                if neighbour not in component:
                    component.add(neighbour)
                    queue.append(neighbour)
        seen |= component
        components.append(component)
    components.sort(key=len, reverse=True)
    return components


def _oneway_traps(graph: RoadGraph) -> list[int]:
    """Nodes that can be entered but never left (one-way sinks)."""
    traps = []
    for node in graph.nodes():
        enterable = any(
            edge.allows(edge.other(node.node_id))
            for edge in graph.out_edges(node.node_id, respect_oneway=False)
        )
        leavable = bool(graph.out_edges(node.node_id, respect_oneway=True))
        if enterable and not leavable:
            traps.append(node.node_id)
    return traps


def validate_map(map_db: MapDatabase, graph: RoadGraph) -> MapValidationReport:
    """Audit a map database and its prepared graph."""
    report = MapValidationReport(
        n_elements=map_db.element_count(),
        n_objects=len(map_db.point_objects()),
        n_nodes=graph.node_count,
    )

    element_ids = set()
    for element in map_db.elements():
        element_ids.add(element.element_id)
        if element.length_m < MIN_ELEMENT_LENGTH_M:
            report.issues.append(
                MapIssue("degenerate_element", element.element_id,
                         f"length {element.length_m:.2f} m")
            )
        lo, hi = SPEED_LIMIT_RANGE_KMH
        if not lo <= element.speed_limit_kmh <= hi:
            report.issues.append(
                MapIssue("implausible_speed_limit", element.element_id,
                         f"{element.speed_limit_kmh:.0f} km/h")
            )

    for obj in map_db.point_objects():
        nearest = map_db.nearest_element(obj.position, OBJECT_ATTACH_RADIUS_M)
        if nearest is None:
            report.issues.append(
                MapIssue("detached_object", obj.object_id,
                         f"{obj.kind.value} farther than "
                         f"{OBJECT_ATTACH_RADIUS_M:.0f} m from any element")
            )
        if obj.element_id is not None and obj.element_id not in element_ids:
            report.issues.append(
                MapIssue("dangling_object_reference", obj.object_id,
                         f"references missing element {obj.element_id}")
            )

    for edge in graph.edges():
        if not edge.forward_allowed and not edge.backward_allowed:
            report.issues.append(
                MapIssue("impassable_edge", edge.edge_id,
                         "merged one-way elements conflict; no legal direction")
            )

    components = _components(graph)
    for index, component in enumerate(components[1:], start=1):
        report.issues.append(
            MapIssue("disconnected_component", index,
                     f"{len(component)} nodes unreachable from the main network")
        )

    for node_id in _oneway_traps(graph):
        report.issues.append(
            MapIssue("oneway_trap", node_id,
                     "node can be entered but never left")
        )

    return report
