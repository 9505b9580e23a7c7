"""Shortest paths on the road graph — the pgRouting substitute.

The paper uses pgRouting's Dijkstra to fill map-matching gaps; this module
provides Dijkstra (with distance or free-flow travel-time weights), a
:class:`RouteCache` so hot gap-fill queries (many trips drive the same
network gaps) are answered without re-running Dijkstra, and the
:class:`RouteBatch` planner that answers a unit's many queries in one
call: cache first, then one bounded multi-target Dijkstra per source.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Literal

from repro.faults import maybe_inject
from repro.geo.geometry import LineString
from repro.obs import get_logger, get_registry
from repro.roadnet.graph import RoadEdge, RoadGraph

_log = get_logger(__name__)

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
    farther than ``max_cost`` (early exit cannot skip it: the search
    only stops once all targets settled or the frontier passed the
    budget).  Settled labels and predecessor pointers are identical to
    what :func:`dijkstra` produces — relaxation order from a fixed
    source does not depend on the stop condition.
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
    registry = get_registry()
    registry.counter("routing.dijkstra_calls").inc()
    registry.counter("routing.settled_nodes").inc(len(settled))
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
    weight_fn: WeightFn | None = None,
) -> PathResult:
    """Dijkstra shortest path between two nodes."""
    if source == target:
        return PathResult(nodes=(source,), edges=(), cost=0.0)
    dist = dijkstra(graph, source, target, weight, respect_oneway, weight_fn=weight_fn)
    return _reconstruct(dist, source, target)


class RouteCache:
    """LRU cache of :func:`shortest_path` results.

    Keyed by ``(source_node, target_node, weight)``; unroutable pairs are
    cached too (gap filling probes many illegal endpoint combinations, and
    re-proving unreachability is as expensive as routing).  The cache is
    only valid for one graph and for the default one-way semantics — keep
    one cache per prepared road network.

    Effectiveness is observable, not cache-internal: every lookup and
    eviction feeds the ambient :class:`~repro.obs.MetricsRegistry`
    (``routing.route_cache_hits`` / ``..._misses`` / ``..._evictions``
    counters and a ``routing.route_cache_entries`` gauge), so hit rates
    land in ``metrics.json`` next to the ``routing.dijkstra_calls``
    counter.

    ``path`` points at an optional JSON spill file: :meth:`load` warms the
    cache from it (missing file is fine) and :meth:`save` persists the
    current entries, so repeated runs — and every worker of a process
    pool — start hot.
    """

    def __init__(
        self, max_entries: int = 50_000, path: str | Path | None = None
    ) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.path = Path(path) if path is not None else None
        self._entries: OrderedDict[tuple[int, int, str], PathResult] = OrderedDict()
        if self.path is not None:
            self.load()

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _update_hit_rate(registry) -> None:
        """Refresh the ``routing.route_cache_hit_rate`` gauge from the
        ambient registry's hit/miss counters (0.0 before any lookup)."""
        hits = registry.counter("routing.route_cache_hits").value
        misses = registry.counter("routing.route_cache_misses").value
        total = hits + misses
        registry.gauge("routing.route_cache_hit_rate").set(
            hits / total if total else 0.0
        )

    def get(self, source: int, target: int, weight: Weight) -> PathResult | None:
        entry = self._entries.get((source, target, weight))
        registry = get_registry()
        if entry is None:
            registry.counter("routing.route_cache_misses").inc()
            self._update_hit_rate(registry)
            return None
        self._entries.move_to_end((source, target, weight))
        registry.counter("routing.route_cache_hits").inc()
        self._update_hit_rate(registry)
        return entry

    def put(self, source: int, target: int, weight: Weight, result: PathResult) -> None:
        key = (source, target, weight)
        self._entries[key] = result
        self._entries.move_to_end(key)
        registry = get_registry()
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            registry.counter("routing.route_cache_evictions").inc()
        registry.gauge("routing.route_cache_entries").set(len(self._entries))

    # -- batch access --------------------------------------------------------

    def get_many(
        self, pairs: list[tuple[int, int]], weight: Weight
    ) -> tuple[dict[tuple[int, int], PathResult], list[tuple[int, int]]]:
        """Split ``pairs`` into cached hits and uncached misses.

        Hits are refreshed to the LRU tail exactly like :meth:`get`;
        misses come back in input order (callers route them as one
        batch).  Hit/miss counters move per pair and the hit-rate
        gauge updates once per call, so worker gauges stay correct under
        batched resolution.
        """
        registry = get_registry()
        hits: dict[tuple[int, int], PathResult] = {}
        misses: list[tuple[int, int]] = []
        n_hits = 0
        for pair in pairs:
            key = (pair[0], pair[1], weight)
            entry = self._entries.get(key)
            if entry is None:
                misses.append(pair)
            else:
                self._entries.move_to_end(key)
                hits[pair] = entry
                n_hits += 1
        if n_hits:
            registry.counter("routing.route_cache_hits").inc(n_hits)
        if misses:
            registry.counter("routing.route_cache_misses").inc(len(misses))
        if pairs:
            self._update_hit_rate(registry)
        return hits, misses

    def put_many(
        self,
        results: dict[tuple[int, int], PathResult],
        weight: Weight,
    ) -> None:
        """Insert a batch of results; evicts and sets the entries gauge
        once at the end instead of per item."""
        if not results:
            return
        registry = get_registry()
        for (source, target), result in results.items():
            key = (source, target, weight)
            self._entries[key] = result
            self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            registry.counter("routing.route_cache_evictions").inc()
        registry.gauge("routing.route_cache_entries").set(len(self._entries))

    # -- persistence --------------------------------------------------------

    def load(self, path: str | Path | None = None) -> int:
        """Warm the cache from a JSON spill file; returns entries loaded.

        A corrupt or partially written spill file (interrupted save,
        disk damage) is discarded wholesale — the cache starts cold and
        a ``routing.route_cache_load_errors`` counter plus a warning log
        record the event.  Nothing a cache warms from may fail a run.
        """
        path = Path(path) if path is not None else self.path
        if path is None or not path.exists():
            return 0
        entries: list[tuple[int, int, str, PathResult]] = []
        try:
            doc = json.loads(path.read_text())
            for row in doc.get("routes", []):
                result = PathResult(
                    nodes=tuple(int(n) for n in row["nodes"]),
                    edges=tuple(int(e) for e in row["edges"]),
                    cost=math.inf if row["cost"] is None else float(row["cost"]),
                )
                entries.append(
                    (int(row["source"]), int(row["target"]), str(row["weight"]), result)
                )
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            get_registry().counter("routing.route_cache_load_errors").inc()
            _log.warning(
                "route cache spill discarded",
                extra={"path": str(path), "error": f"{type(exc).__name__}: {exc}"},
            )
            return 0
        for source, target, weight, result in entries:
            self.put(source, target, weight, result)
        return len(entries)

    def save(self, path: str | Path | None = None) -> int:
        """Persist the cache as JSON; returns entries written."""
        path = Path(path) if path is not None else self.path
        if path is None:
            raise ValueError("RouteCache.save needs a path")
        rows = [
            {
                "source": source,
                "target": target,
                "weight": weight,
                "nodes": list(result.nodes),
                "edges": list(result.edges),
                "cost": None if math.isinf(result.cost) else result.cost,
            }
            for (source, target, weight), result in self._entries.items()
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"routes": rows}) + "\n")
        return len(rows)


def cached_shortest_path(
    graph: RoadGraph,
    source: int,
    target: int,
    weight: Weight = "length",
    cache: RouteCache | None = None,
) -> PathResult:
    """:func:`shortest_path` through an optional :class:`RouteCache`.

    With ``cache=None`` this is exactly ``shortest_path`` (default
    one-way semantics); a cache only stores what ``shortest_path``
    returned, so it never changes an answer, only how fast it arrives.

    Fault hook: an active :class:`~repro.faults.FaultPlan` with a
    ``route_error_rate`` raises an injected timeout for chosen
    ``(source, target)`` pairs — but only inside a degradation guard
    (``require_guard``), so analysis code that routes outside the
    guarded match stage is never collateral damage.
    """
    maybe_inject("routing", (source, target), require_guard=True)
    if cache is None:
        return shortest_path(graph, source, target, weight)
    hit = cache.get(source, target, weight)
    if hit is not None:
        return hit
    result = shortest_path(graph, source, target, weight)
    cache.put(source, target, weight, result)
    return result


class RouteBatch:
    """Shared-candidate query planner for many shortest paths at once.

    Callers collect every ``(source, target)`` pair a unit of work will
    need — all the gate pairs of a flow table, all the transition
    distances of an HMM trip — and hand them to :meth:`resolve` or
    :meth:`resolve_costs` in one call.  The planner answers from the
    :class:`RouteCache` first and routes only the misses.  Every
    :meth:`resolve` answer is :func:`shortest_path`'s own
    :class:`PathResult`, so resolving through a batch is
    bitwise-identical to resolving pair by pair.

    Fault injection deliberately does **not** live here: injected routing
    timeouts fire inside :func:`cached_shortest_path`, the per-pair entry
    point of the guarded match stage.
    """

    def __init__(
        self,
        graph: RoadGraph,
        weight: Weight = "length",
        cache: RouteCache | None = None,
    ) -> None:
        self.graph = graph
        self.weight = weight
        self.cache = cache

    def resolve(
        self, pairs: list[tuple[int, int]]
    ) -> dict[tuple[int, int], PathResult]:
        """Answer every pair; returns ``{(source, target): PathResult}``.

        Duplicates collapse to one query (misses route in
        first-occurrence order).  Unreachable pairs come back as
        not-found results, never missing keys.
        """
        unique = list(dict.fromkeys(pairs))
        registry = get_registry()
        registry.counter("routing.batch_resolves").inc()
        registry.counter("routing.batch_pairs").inc(len(unique))
        if not unique:
            return {}
        if self.cache is not None:
            resolved, misses = self.cache.get_many(unique, self.weight)
        else:
            resolved, misses = {}, unique
        if not misses:
            return resolved
        answers = {
            (s, t): shortest_path(self.graph, s, t, self.weight)
            for s, t in misses
        }
        if self.cache is not None:
            self.cache.put_many(answers, self.weight)
        resolved.update(answers)
        return resolved

    def resolve_costs(
        self,
        pairs: list[tuple[int, int]],
        max_costs: dict[int, float] | None = None,
    ) -> dict[tuple[int, int], float]:
        """Optimal path *costs* for every pair, without materialising paths.

        The cost-mode twin of :meth:`resolve` for workloads that only
        need distances (HMM transition scores).  Cache hits answer
        first; the misses run **one multi-target Dijkstra per unique miss
        source** instead of one search per pair, bounded by
        ``max_costs[source]`` when given.  Pairs whose optimal cost
        exceeds the source's bound come back as ``inf`` and are *not*
        cached (the bound makes them unproven, not unreachable).  Every
        within-bound path is cached: the reconstructed
        :class:`PathResult` is identical to what
        :func:`cached_shortest_path` would store, so later gap-fill
        queries over the same endpoints hit.
        """
        unique = list(dict.fromkeys(pairs))
        registry = get_registry()
        registry.counter("routing.batch_resolves").inc()
        registry.counter("routing.batch_pairs").inc(len(unique))
        costs: dict[tuple[int, int], float] = {}
        if not unique:
            return costs
        if self.cache is not None:
            hits, misses = self.cache.get_many(unique, self.weight)
            for pair, result in hits.items():
                costs[pair] = result.cost
        else:
            misses = unique
        if not misses:
            return costs
        by_source: dict[int, list[int]] = {}
        for s, t in misses:
            by_source.setdefault(s, []).append(t)
        bounds = max_costs or {}
        found: dict[tuple[int, int], PathResult] = {}
        for s, targets in by_source.items():
            bound = bounds.get(s, math.inf)
            labels, settled = multi_target_dijkstra(
                self.graph, s, set(targets), weight=self.weight, max_cost=bound
            )
            for t in targets:
                # Only settled-within-bound labels are exact; the search
                # settles at most one node beyond the budget and anything
                # unsettled is provably farther than the bound.
                if t in settled and labels[t][0] <= bound:
                    costs[(s, t)] = labels[t][0]
                    found[(s, t)] = _reconstruct(labels, s, t)
                else:
                    costs[(s, t)] = math.inf
        if self.cache is not None and found:
            self.cache.put_many(found, self.weight)
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
