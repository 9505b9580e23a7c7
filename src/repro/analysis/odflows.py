"""Spatio-temporal OD flow analysis.

The related work (Zhu et al. [2], Liu et al. [12]) reads city structure
out of taxi OD flows.  This module aggregates the simulator's ground
truth (or any run list) into a region-to-region flow matrix with
hour-of-day profiles, plus the summary indices urban studies use:
flow symmetry and core dominance.

:func:`gate_distance_matrix` adds the network side of the picture: the
shortest driving distance between every pair of OD gates, resolved
through one :class:`~repro.roadnet.routing.RouteBatch` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone

from repro.obs import get_registry
from repro.od.gates import Gate
from repro.roadnet.graph import RoadGraph
from repro.roadnet.routing import RouteBatch, RouteCache
from repro.traces.simulator import CustomerRun, Region


@dataclass(frozen=True)
class OdMatrix:
    """Region-to-region trip counts with hourly profiles."""

    counts: dict[tuple[Region, Region], int]
    hourly: dict[int, int]
    n_trips: int

    def flow(self, origin: Region, destination: Region) -> int:
        return self.counts.get((origin, destination), 0)

    def outflow(self, region: Region) -> int:
        return sum(c for (o, __), c in self.counts.items() if o is region)

    def inflow(self, region: Region) -> int:
        return sum(c for (__, d), c in self.counts.items() if d is region)

    def symmetry(self, a: Region, b: Region) -> float:
        """min/max balance of the two directed flows (1 = symmetric)."""
        ab = self.flow(a, b)
        ba = self.flow(b, a)
        if ab == 0 and ba == 0:
            return 1.0
        return min(ab, ba) / max(ab, ba)

    def core_share(self) -> float:
        """Share of trips touching the core (origin or destination)."""
        touching = sum(
            c for (o, d), c in self.counts.items()
            if o is Region.CORE or d is Region.CORE
        )
        return touching / self.n_trips if self.n_trips else 0.0

    def peak_hour(self) -> int:
        """Hour of day with the most trip starts."""
        if not self.hourly:
            return 0
        return max(self.hourly, key=lambda h: (self.hourly[h], -h))


def build_od_matrix(runs: list[CustomerRun]) -> OdMatrix:
    """Aggregate customer runs into an OD matrix."""
    counts: dict[tuple[Region, Region], int] = {}
    hourly: dict[int, int] = {}
    for run in runs:
        key = (run.origin_region, run.dest_region)
        counts[key] = counts.get(key, 0) + 1
        hour = datetime.fromtimestamp(run.start_time_s, tz=timezone.utc).hour
        hourly[hour] = hourly.get(hour, 0) + 1
    return OdMatrix(counts=counts, hourly=hourly, n_trips=len(runs))


def flow_table(matrix: OdMatrix) -> list[list]:
    """The OD matrix as printable rows (origin x destination)."""
    regions = list(Region)
    rows = []
    for origin in regions:
        row: list = [origin.value]
        for destination in regions:
            row.append(matrix.flow(origin, destination))
        rows.append(row)
    return rows


@dataclass(frozen=True)
class GateDistanceMatrix:
    """Shortest network distances between every ordered gate pair.

    ``anchor_nodes`` records the graph node each gate was snapped to (the
    node nearest the gate road's midpoint); ``distances`` holds the
    driving distance in metres for every ordered name pair, ``inf`` when
    no legal route exists.
    """

    names: tuple[str, ...]
    anchor_nodes: dict[str, int]
    distances: dict[tuple[str, str], float]

    def distance(self, origin: str, destination: str) -> float:
        return self.distances[(origin, destination)]

    def direction_distance(self, direction: str) -> float:
        """Distance for a transition direction label like ``"T-S"``."""
        origin, sep, destination = direction.partition("-")
        if not sep:
            raise ValueError(f"not a direction label: {direction!r}")
        return self.distance(origin, destination)

    def table(self) -> list[list]:
        """Printable rows (origin x destination, metres)."""
        rows = []
        for origin in self.names:
            row: list = [origin]
            for destination in self.names:
                d = self.distances[(origin, destination)]
                row.append("-" if math.isinf(d) else round(d))
            rows.append(row)
        return rows


def gate_distance_matrix(
    graph: RoadGraph,
    gates: list[Gate],
    route_cache: RouteCache | None = None,
) -> GateDistanceMatrix:
    """Route every gate-to-gate pair in one batched query.

    Each gate is anchored at the graph node nearest its road midpoint;
    all ordered pairs then resolve through one
    :class:`~repro.roadnet.routing.RouteBatch` call, so the distances
    are identical to per-pair
    :func:`~repro.roadnet.routing.shortest_path` answers.
    """
    anchors: dict[str, int] = {}
    for gate in gates:
        midpoint = gate.road.interpolate(gate.road.length / 2.0)
        node = graph.nearest_node(midpoint)
        if node is None:
            raise ValueError(f"gate {gate.name!r}: no graph node near road")
        anchors[gate.name] = node.node_id
    names = tuple(gate.name for gate in gates)
    pairs = [
        (anchors[o], anchors[d])
        for o in names
        for d in names
        if anchors[o] != anchors[d]
    ]
    batch = RouteBatch(graph, weight="length", cache=route_cache)
    resolved = batch.resolve(pairs)
    distances: dict[tuple[str, str], float] = {}
    for o in names:
        for d in names:
            if anchors[o] == anchors[d]:
                distances[(o, d)] = 0.0
            else:
                path = resolved[(anchors[o], anchors[d])]
                distances[(o, d)] = path.cost if path.found else math.inf
    get_registry().counter("analysis.gate_matrix_builds").inc()
    return GateDistanceMatrix(
        names=names, anchor_nodes=anchors, distances=distances
    )
