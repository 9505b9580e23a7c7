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
those).  :class:`RouteBatch` answers a unit's many queries in one call;
its cost queries read the trees' costs as dense rows
(:class:`CostRows`), one array gather per call.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import Literal

import numpy as np

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


class CostRows:
    """One weight's one-way tree costs as rows of a dense block.

    ``block[row_of[s], t]`` is the optimal cost from node position ``s``
    to node position ``t`` (:attr:`RoadGraph.node_index`), ``inf`` where
    ``t`` is unreachable; ``row_of[s]`` is ``-1`` until ``s`` has a row.
    Each row is copied from its source's tree, which stays in
    :attr:`RoadGraph.route_trees`, and the graph drops both together.
    """

    __slots__ = ("index", "node_ids", "block", "row_of", "count")

    def __init__(self, graph: RoadGraph) -> None:
        self.index = graph.node_index
        self.node_ids = list(self.index)
        self.block = np.empty((0, len(self.node_ids)))
        self.row_of = np.full(len(self.node_ids), -1, dtype=np.intp)
        self.count = 0

    def add(self, source: int, tree: dict[int, Label]) -> None:
        """Copy ``tree``'s costs into a new row for position ``source``."""
        if self.count == len(self.block):
            grown = np.empty((max(1, 2 * self.count), len(self.node_ids)))
            grown[: self.count] = self.block
            self.block = grown
        row = self.block[self.count]
        row.fill(math.inf)
        row[[self.index[node] for node in tree]] = [
            label[0] for label in tree.values()
        ]
        self.row_of[source] = self.count
        self.count += 1


def _cost_rows(graph: RoadGraph, weight: Weight, sources: np.ndarray) -> CostRows:
    """``weight``'s rows, with one for every unique position in ``sources``.

    A lookup counts like :func:`_tree`'s: sources that have a row count
    ``routing.route_cache_hits`` in bulk, and the rest read their tree
    through :func:`_tree` (found or built) and copy it into a new row.
    """
    rows = graph.cost_rows.get(weight)
    if rows is None:
        rows = graph.cost_rows[weight] = CostRows(graph)
    missing = sources[rows.row_of[sources] < 0].tolist()
    if len(sources) > len(missing):
        get_registry().counter("routing.route_cache_hits").inc(
            len(sources) - len(missing)
        )
    for source in missing:
        tree = _tree(graph, rows.node_ids[source], weight, True)
        rows.add(source, tree)
    return rows


class RouteBatch:
    """Answers many shortest-path queries of one unit of work at once.

    Callers collect every query a unit will need — all the gate pairs of
    a flow table, all the transition distances of an HMM trip — and hand
    them to :meth:`resolve` or :meth:`resolve_costs` in one call.  Every
    answer comes from the source's shortest-path tree, so a batch answer
    is bitwise-identical to the per-pair one.

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

        Duplicates collapse to one query.  Each answer is
        :func:`shortest_path`'s own result; unreachable pairs come back
        as not-found results, never missing keys.
        """
        unique = list(dict.fromkeys(pairs))
        registry = get_registry()
        registry.counter("routing.batch_resolves").inc()
        registry.counter("routing.batch_pairs").inc(len(unique))
        return {
            (s, t): shortest_path(self.graph, s, t, self.weight) for s, t in unique
        }

    def resolve_costs(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Optimal path costs between node positions, elementwise.

        ``sources`` and ``targets`` are integer arrays of dense node
        positions (:attr:`RoadGraph.node_index`) that broadcast together;
        the answer has their broadcast shape, ``inf`` where the target
        is unreachable, without materialising paths.  One array gather
        over the weight's :class:`CostRows`, after one tree lookup per
        unique source.
        """
        sources = np.asarray(sources, dtype=np.intp)
        targets = np.asarray(targets, dtype=np.intp)
        registry = get_registry()
        registry.counter("routing.batch_resolves").inc()
        registry.counter("routing.batch_pairs").inc(
            np.broadcast(sources, targets).size
        )
        rows = _cost_rows(self.graph, self.weight, np.unique(sources))
        return rows.block[rows.row_of[sources], targets]


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
