"""Reference routing: one Dijkstra search per query, no shared trees.

The searches ``repro.roadnet.routing`` ran before it answered queries
from shortest-path trees memoised on the graph: Dijkstra walking
``graph.out_edges`` and weighing each edge as it goes, an early-exit
search per ``(source, target)`` pair, and one bounded multi-target search
per source for a batch of path costs.  Nothing here reads the graph's
flat adjacency or its trees, so the routing suites compare the
production answers with these exactly.
"""

from __future__ import annotations

import heapq
import math

from repro.obs import get_registry
from repro.roadnet.graph import RoadEdge, RoadGraph
from repro.roadnet.routing import PathResult, Weight, WeightFn


def _edge_weight(edge: RoadEdge, weight: Weight) -> float:
    if weight == "length":
        return edge.length
    return edge.travel_time_s


def dijkstra(
    graph: RoadGraph,
    source: int,
    target: int | None = None,
    weight: Weight = "length",
    respect_oneway: bool = True,
    max_cost: float = math.inf,
    weight_fn: WeightFn | None = None,
) -> dict[int, tuple[float, int | None, int | None]]:
    """Dijkstra from ``source``.

    Returns ``{node: (cost, prev_node, prev_edge)}`` for every settled node.
    Stops early once ``target`` is settled or costs exceed ``max_cost``.
    ``weight_fn`` overrides the built-in weights (route-choice noise, light
    penalties); it must return non-negative costs.
    """
    dist: dict[int, tuple[float, int | None, int | None]] = {source: (0.0, None, None)}
    settled: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        cost, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == target:
            break
        if cost > max_cost:
            break
        for edge in graph.out_edges(node, respect_oneway):
            other = edge.other(node)
            if other in settled:
                continue
            step = weight_fn(edge) if weight_fn is not None else _edge_weight(edge, weight)
            new_cost = cost + step
            current = dist.get(other)
            if current is None or new_cost < current[0]:
                dist[other] = (new_cost, node, edge.edge_id)
                heapq.heappush(heap, (new_cost, other))
    registry = get_registry()
    registry.counter("routing.dijkstra_calls").inc()
    registry.counter("routing.settled_nodes").inc(len(settled))
    return {n: v for n, v in dist.items() if n in settled or target is None}


def multi_target_dijkstra(
    graph: RoadGraph,
    source: int,
    targets: set[int],
    weight: Weight = "length",
    max_cost: float = math.inf,
    respect_oneway: bool = True,
) -> tuple[dict[int, tuple[float, int | None, int | None]], set[int]]:
    """Dijkstra from ``source`` until every target settles or the budget
    is spent.

    Returns ``(labels, settled)``.  A target in ``settled`` carries its
    exact optimal cost; a target absent from ``settled`` is provably
    farther than ``max_cost``.
    """
    dist: dict[int, tuple[float, int | None, int | None]] = {source: (0.0, None, None)}
    settled: set[int] = set()
    remaining = set(targets)
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        cost, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        remaining.discard(node)
        if not remaining:
            break
        if cost > max_cost:
            break
        for edge in graph.out_edges(node, respect_oneway):
            other = edge.other(node)
            if other in settled:
                continue
            new_cost = cost + _edge_weight(edge, weight)
            current = dist.get(other)
            if current is None or new_cost < current[0]:
                dist[other] = (new_cost, node, edge.edge_id)
                heapq.heappush(heap, (new_cost, other))
    return dist, settled


def _reconstruct(
    dist: dict[int, tuple[float, int | None, int | None]], source: int, target: int
) -> PathResult:
    if target not in dist:
        return PathResult(nodes=(), edges=(), cost=math.inf)
    nodes: list[int] = []
    edges: list[int] = []
    node: int | None = target
    while node is not None:
        nodes.append(node)
        __, prev_node, prev_edge = dist[node]
        if prev_edge is not None:
            edges.append(prev_edge)
        node = prev_node
    nodes.reverse()
    edges.reverse()
    if nodes[0] != source:
        return PathResult(nodes=(), edges=(), cost=math.inf)
    return PathResult(nodes=tuple(nodes), edges=tuple(edges), cost=dist[target][0])


def shortest_path(
    graph: RoadGraph,
    source: int,
    target: int,
    weight: Weight = "length",
    respect_oneway: bool = True,
) -> PathResult:
    """Early-exit Dijkstra shortest path between two nodes."""
    if source == target:
        return PathResult(nodes=(source,), edges=(), cost=0.0)
    dist = dijkstra(graph, source, target, weight, respect_oneway)
    return _reconstruct(dist, source, target)


def resolve_costs(
    graph: RoadGraph,
    pairs: list[tuple[int, int]],
    max_costs: dict[int, float] | None = None,
    weight: Weight = "length",
) -> dict[tuple[int, int], float]:
    """Path costs by one bounded multi-target search per unique source;
    a pair beyond its source's bound is ``inf``."""
    by_source: dict[int, list[int]] = {}
    for s, t in dict.fromkeys(pairs):
        by_source.setdefault(s, []).append(t)
    bounds = max_costs or {}
    costs: dict[tuple[int, int], float] = {}
    for s, targets in by_source.items():
        bound = bounds.get(s, math.inf)
        labels, settled = multi_target_dijkstra(
            graph, s, set(targets), weight=weight, max_cost=bound
        )
        for t in targets:
            # Only settled-within-bound labels are exact; the search
            # settles at most one node beyond the budget.
            if t in settled and labels[t][0] <= bound:
                costs[(s, t)] = labels[t][0]
            else:
                costs[(s, t)] = math.inf
    return costs
