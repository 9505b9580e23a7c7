"""Helpers shared by several test modules: random road graphs, and the
study fingerprint the byte-identity tests compare."""

import random

from repro.geo.geometry import LineString
from repro.roadnet.graph import ElementSpan, RoadEdge, RoadGraph, RoadNode


def build_random_city(
    seed: int,
    n: int = 25,
    extra_edges: int = 30,
    oneway_fraction: float = 0.0,
    components: int = 1,
) -> RoadGraph:
    """A random road graph, optionally with one-way edges or split into
    several mutually unreachable components."""
    rng = random.Random(seed)
    g = RoadGraph()
    positions = {}
    for i in range(1, n + 1):
        positions[i] = (rng.uniform(0, 1000), rng.uniform(0, 1000))
        g.add_node(RoadNode(i, positions[i]))
    edge_id = 1
    seen = set()
    # Partition nodes into components; edges never cross a boundary.
    comp_of = {i: (i - 1) * components // n for i in range(1, n + 1)}

    def add(u: int, v: int) -> None:
        nonlocal edge_id
        if u == v or (u, v) in seen or (v, u) in seen or comp_of[u] != comp_of[v]:
            return
        seen.add((u, v))
        geom = LineString([positions[u], positions[v]])
        oneway = rng.random() < oneway_fraction
        g.add_edge(
            RoadEdge(
                edge_id=edge_id, u=u, v=v, geometry=geom,
                spans=(ElementSpan(edge_id, 0.0, geom.length, False,
                                   rng.choice((30.0, 40.0, 60.0))),),
                forward_allowed=True,
                backward_allowed=not oneway,
            )
        )
        edge_id += 1

    order = list(range(1, n + 1))
    rng.shuffle(order)
    for u, v in zip(order, order[1:]):
        add(u, v)
    for __ in range(extra_edges):
        add(rng.randint(1, n), rng.randint(1, n))
    return g


def study_fingerprint(result) -> tuple:
    """Every externally visible artefact of a study run."""
    cells = tuple(sorted(
        (key, tuple(sorted(counts.items())))
        for key, counts in result.cell_features.items()
    ))
    routes = tuple(
        (i, r.segment_id, r.car_id, tuple(r.edge_sequence), r.gaps_filled)
        for i, r in sorted(result.matched.items())
    )
    return (
        tuple(result.route_stats),
        routes,
        tuple(result.funnel),
        tuple(result.kept_transitions),
        cells,
    )
