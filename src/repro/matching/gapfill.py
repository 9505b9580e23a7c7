"""Gap filling — the pgRouting Dijkstra step of the paper.

Event-based sampling leaves fixes far apart, so consecutive matched edges
are often not adjacent.  :func:`connect_matches` reconstructs the full
driven edge sequence: for every hop between distinct matched edges it
evaluates all legal exit/entry endpoint combinations, routes the gap with
Dijkstra, and picks the cheapest consistent traversal, honouring one-way
directions throughout.  Each gap query goes through
:func:`~repro.roadnet.routing.cached_shortest_path`, so a route cache
shared across trips answers the gaps many trips drive.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.matching.types import MatchedRoute, edge_entries, edge_exits
from repro.obs import get_registry
from repro.roadnet.graph import RoadEdge, RoadGraph
from repro.roadnet.routing import RouteCache, cached_shortest_path


@dataclass
class _Run:
    """Consecutive matched points on one edge, compressed."""

    edge_id: int
    first_arc: float
    last_arc: float


def _compress(route: MatchedRoute) -> list[_Run]:
    runs: list[_Run] = []
    for m in route.matched:
        if runs and runs[-1].edge_id == m.edge_id:
            runs[-1].last_arc = m.arc_m
        else:
            runs.append(_Run(edge_id=m.edge_id, first_arc=m.arc_m, last_arc=m.arc_m))
    return runs


def _legal_exits(edge: RoadEdge, entry_node: int | None) -> list[int]:
    """Endpoints the vehicle may leave ``edge`` through.

    If the entry endpoint is known the exit is the other one; otherwise
    one-way constraints decide (a forward-only edge is always exited at
    ``v``).
    """
    if entry_node is not None:
        return [edge.other(entry_node)]
    return edge_exits(edge)


def _legal_entries(edge: RoadEdge) -> list[int]:
    return edge_entries(edge)


def _arc_to_endpoint(edge: RoadEdge, arc: float, endpoint: int) -> float:
    return edge.length - arc if endpoint == edge.v else arc


def connect_matches(
    graph: RoadGraph,
    route: MatchedRoute,
    max_cost_m: float = 2_000.0,
    route_cache: RouteCache | None = None,
) -> MatchedRoute:
    """Fill the matched route's edge sequence in place and return it.

    ``route_cache`` memoises the shortest-path sub-queries; it never
    changes the resulting edge sequence (see :func:`cached_shortest_path`).
    """
    registry = get_registry()
    registry.counter("matching.gapfill_calls").inc()
    runs = _compress(route)
    if not runs:
        route.edge_sequence = []
        return route
    if len(runs) == 1:
        edge = graph.edge(runs[0].edge_id)
        forward = runs[0].last_arc >= runs[0].first_arc
        from_node = edge.u if forward else edge.v
        if not edge.allows(from_node):
            from_node = edge.other(from_node)
        route.edge_sequence = [(edge.edge_id, from_node)]
        return route

    sequence: list[tuple[int, int]] = []
    gaps = 0
    entry_node: int | None = None
    for k in range(len(runs) - 1):
        e1 = graph.edge(runs[k].edge_id)
        e2 = graph.edge(runs[k + 1].edge_id)
        best: tuple[float, int, int, tuple[int, ...], tuple[int, ...]] | None = None
        for exit1 in _legal_exits(e1, entry_node):
            d1 = _arc_to_endpoint(e1, runs[k].last_arc, exit1)
            for entry2 in _legal_entries(e2):
                d2 = runs[k + 1].first_arc if entry2 == e2.u else (
                    e2.length - runs[k + 1].first_arc
                )
                if exit1 == entry2:
                    cost = d1 + d2
                    candidate = (cost, exit1, entry2, (), ())
                else:
                    path = cached_shortest_path(
                        graph, exit1, entry2, weight="length", cache=route_cache
                    )
                    if not path.found or path.cost > max_cost_m:
                        continue
                    candidate = (d1 + path.cost + d2, exit1, entry2, path.nodes, path.edges)
                if best is None or candidate[0] < best[0]:
                    best = candidate
        if best is None:
            # Unroutable gap: keep the traversal of e1 with any legal
            # direction and restart the chain.
            from_node = entry_node if entry_node is not None else _legal_entries(e1)[0]
            sequence.append((e1.edge_id, from_node))
            entry_node = None
            gaps += 1
            registry.counter("matching.unroutable_gaps").inc()
            continue
        __, exit1, entry2, path_nodes, path_edges = best
        sequence.append((e1.edge_id, e1.other(exit1)))
        if path_edges:
            gaps += 1
            for node, edge_id in zip(path_nodes[:-1], path_edges):
                # Skip a self-transition back onto e2 (shouldn't happen, but
                # keeps the sequence free of duplicates if Dijkstra routes
                # through e2's own endpoints).
                sequence.append((edge_id, node))
        entry_node = entry2
    last = graph.edge(runs[-1].edge_id)
    from_node = entry_node if entry_node is not None else _legal_entries(last)[0]
    sequence.append((last.edge_id, from_node))
    route.edge_sequence = _dedupe(sequence)
    route.gaps_filled = gaps
    registry.counter("matching.gaps_filled").inc(gaps)
    return route


def _dedupe(sequence: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Drop exact consecutive duplicates (same edge, same direction)."""
    out: list[tuple[int, int]] = []
    for item in sequence:
        if out and out[-1] == item:
            continue
        out.append(item)
    return out
