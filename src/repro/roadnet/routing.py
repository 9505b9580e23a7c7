"""Shortest paths on the road graph — the pgRouting substitute.

The paper uses pgRouting's Dijkstra to fill map-matching gaps.  This
module runs Dijkstra over the graph's flat adjacency
(:meth:`~repro.roadnet.graph.RoadGraph.arcs`) with distance or free-flow
travel-time weights, or a caller's per-edge cost.  Every fixed-weight
query is answered from the source's full shortest-path tree, built on
first use and memoised on the graph
(:attr:`~repro.roadnet.graph.RoadGraph.route_trees`): at most one full
search per (source, weight, one-way mode) while the graph is unchanged.

Dijkstra from a fixed source settles nodes in the same order and sets
the same labels whatever its stop condition, so a tree holds exactly the
labels and predecessors an early-exit or cost-bounded search from that
source settles.  Tree answers are therefore bit-identical to the
per-pair searches they replace (``tests/oracles/routing.py`` keeps
those).  :class:`RouteBatch` answers a unit's many queries in one call.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import Literal

from repro.faults import maybe_inject
from repro.geo.geometry import LineString
from repro.obs import get_registry
from repro.roadnet.graph import Label, RoadEdge, RoadGraph

Weight = Literal["length", "time"]

#: Optional custom edge-cost function (must be non-negative).
WeightFn = Callable[[RoadEdge], float]


@dataclass(frozen=True)
class PathResult:
    """A shortest path: visited nodes, traversed edges, and total cost."""

    nodes: tuple[int, ...]
    edges: tuple[int, ...]
    cost: float

    @property
    def found(self) -> bool:
        return len(self.nodes) > 0

    @property
    def hop_count(self) -> int:
        return len(self.edges)


def dijkstra(
    graph: RoadGraph,
    source: int,
    target: int | None = None,
    weight: Weight = "length",
    respect_oneway: bool = True,
    max_cost: float = math.inf,
    weight_fn: WeightFn | None = None,
) -> dict[int, Label]:
    """Dijkstra from ``source`` over the graph's flat adjacency.

    Returns ``{node: (cost, prev_node, prev_edge)}`` for every settled node
    (plus the frontier's tentative labels when there is no ``target``).
    Stops early once ``target`` is settled or costs exceed ``max_cost``.
    ``weight_fn`` overrides the built-in weights (route-choice noise, light
    penalties); it must return non-negative costs and is called once per
    relaxed arc, in search order.
    """
    arcs = graph.arcs(weight, respect_oneway)
    dist: dict[int, Label] = {source: (0.0, None, None)}
    settled: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, source)]
    pop = heapq.heappop
    push = heapq.heappush
    while heap:
        cost, node = pop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == target:
            break
        if cost > max_cost:
            break
        for other, edge_id, step, edge in arcs.get(node, ()):
            if other in settled:
                continue
            if weight_fn is not None:
                step = weight_fn(edge)
            new_cost = cost + step
            current = dist.get(other)
            if current is None or new_cost < current[0]:
                dist[other] = (new_cost, node, edge_id)
                push(heap, (new_cost, other))
    registry = get_registry()
    registry.counter("routing.dijkstra_calls").inc()
    registry.counter("routing.settled_nodes").inc(len(settled))
    if target is None:
        return dist
    return {n: v for n, v in dist.items() if n in settled}


def _tree(
    graph: RoadGraph, source: int, weight: Weight, respect_oneway: bool
) -> dict[int, Label]:
    """``source``'s full shortest-path tree, built once per graph.

    Each lookup counts ``routing.route_cache_hits`` (tree found) or
    ``routing.route_cache_misses`` (tree built); the
    ``routing.route_cache_entries`` gauge is the number of trees held.
    """
    trees = graph.route_trees
    key = (source, weight, respect_oneway)
    tree = trees.get(key)
    registry = get_registry()
    if tree is not None:
        registry.counter("routing.route_cache_hits").inc()
        return tree
    registry.counter("routing.route_cache_misses").inc()
    tree = trees[key] = dijkstra(graph, source, None, weight, respect_oneway)
    registry.gauge("routing.route_cache_entries").set(len(trees))
    return tree


def _reconstruct(tree: dict[int, Label], target: int) -> PathResult:
    if target not in tree:
        return PathResult(nodes=(), edges=(), cost=math.inf)
    nodes: list[int] = []
    edges: list[int] = []
    node: int | None = target
    while node is not None:
        nodes.append(node)
        __, prev_node, prev_edge = tree[node]
        if prev_edge is not None:
            edges.append(prev_edge)
        node = prev_node
    nodes.reverse()
    edges.reverse()
    return PathResult(nodes=tuple(nodes), edges=tuple(edges), cost=tree[target][0])


def shortest_path(
    graph: RoadGraph,
    source: int,
    target: int,
    weight: Weight = "length",
    respect_oneway: bool = True,
) -> PathResult:
    """Shortest path between two nodes, read from ``source``'s tree."""
    if source == target:
        return PathResult(nodes=(source,), edges=(), cost=0.0)
    return _reconstruct(_tree(graph, source, weight, respect_oneway), target)


def cached_shortest_path(
    graph: RoadGraph,
    source: int,
    target: int,
    weight: Weight = "length",
) -> PathResult:
    """:func:`shortest_path` behind the routing fault hook.

    The per-pair entry point of gap filling.  An active
    :class:`~repro.faults.FaultPlan` with a ``route_error_rate`` raises
    an injected timeout for chosen ``(source, target)`` pairs, before
    the tree lookup — but only inside a degradation guard
    (``require_guard``), so analysis code that routes outside the
    guarded match stage is never collateral damage.
    """
    maybe_inject("routing", (source, target), require_guard=True)
    return shortest_path(graph, source, target, weight)


class RouteBatch:
    """Answers many shortest-path queries of one unit of work at once.

    Callers collect every ``(source, target)`` pair a unit will need —
    all the gate pairs of a flow table, all the transition distances of
    an HMM trip — and hand them to :meth:`resolve` or
    :meth:`resolve_costs` in one call.  Duplicates collapse to one
    query and every answer comes from the source's shortest-path tree,
    so a batch answer is bitwise-identical to the per-pair one.

    Fault injection deliberately does **not** live here: injected routing
    timeouts fire inside :func:`cached_shortest_path`, the per-pair entry
    point of the guarded match stage.
    """

    def __init__(self, graph: RoadGraph, weight: Weight = "length") -> None:
        self.graph = graph
        self.weight = weight

    def resolve(
        self, pairs: list[tuple[int, int]]
    ) -> dict[tuple[int, int], PathResult]:
        """Answer every pair; returns ``{(source, target): PathResult}``.

        Each answer is :func:`shortest_path`'s own result; unreachable
        pairs come back as not-found results, never missing keys.
        """
        unique = list(dict.fromkeys(pairs))
        registry = get_registry()
        registry.counter("routing.batch_resolves").inc()
        registry.counter("routing.batch_pairs").inc(len(unique))
        return {
            (s, t): shortest_path(self.graph, s, t, self.weight) for s, t in unique
        }

    def resolve_costs(
        self,
        pairs: list[tuple[int, int]],
        max_costs: dict[int, float] | None = None,
    ) -> dict[tuple[int, int], float]:
        """Optimal path *costs* for every pair, without materialising paths.

        The cost-mode twin of :meth:`resolve` for workloads that only
        need distances (HMM transition scores), with one tree lookup per
        unique source.  A pair whose optimal cost exceeds
        ``max_costs[source]`` comes back as ``inf``, exactly as a search
        bounded there would leave it unproven.
        """
        unique = list(dict.fromkeys(pairs))
        registry = get_registry()
        registry.counter("routing.batch_resolves").inc()
        registry.counter("routing.batch_pairs").inc(len(unique))
        bounds = max_costs or {}
        inf = math.inf
        # Per unique source: its tree and its bound.
        sources: dict[int, tuple[dict[int, Label], float]] = {}
        costs: dict[tuple[int, int], float] = {}
        for s, t in unique:
            source = sources.get(s)
            if source is None:
                tree = _tree(self.graph, s, self.weight, True)
                source = sources[s] = (tree, bounds.get(s, inf))
            label = source[0].get(t)
            if label is not None and label[0] <= source[1]:
                costs[(s, t)] = label[0]
            else:
                costs[(s, t)] = inf
        return costs


def shortest_path_geometry(graph: RoadGraph, path: PathResult) -> LineString | None:
    """Merged geometry of a path result (None for empty/point paths)."""
    if not path.found or not path.edges:
        return None
    parts = []
    for node, edge_id in zip(path.nodes[:-1], path.edges):
        edge = graph.edge(edge_id)
        parts.append(edge.geometry_from(node))
    return LineString.concat(parts)


def path_travel_time_s(graph: RoadGraph, path: PathResult) -> float:
    """Free-flow travel time of a path in seconds."""
    return sum(graph.edge(eid).travel_time_s for eid in path.edges)
