"""Tests for repro.roadnet.routing, cross-checked against networkx."""

import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.geometry import LineString
from repro.roadnet.graph import ElementSpan, RoadEdge, RoadGraph, RoadNode
from repro.roadnet.routing import (
    RouteBatch,
    dijkstra,
    path_travel_time_s,
    shortest_path,
    shortest_path_geometry,
)


def build_random_graph(seed: int, n: int = 25, extra_edges: int = 30):
    """A random connected planar-ish graph plus its networkx twin."""
    rng = random.Random(seed)
    g = RoadGraph()
    nxg = nx.Graph()
    positions = {}
    for i in range(1, n + 1):
        pos = (rng.uniform(0, 1000), rng.uniform(0, 1000))
        positions[i] = pos
        g.add_node(RoadNode(i, pos))
        nxg.add_node(i)
    edge_id = 1

    def add(u, v):
        nonlocal edge_id
        if u == v or nxg.has_edge(u, v):
            return
        geom = LineString([positions[u], positions[v]])
        g.add_edge(
            RoadEdge(
                edge_id=edge_id, u=u, v=v, geometry=geom,
                spans=(ElementSpan(edge_id, 0.0, geom.length, False, 40.0),),
            )
        )
        nxg.add_edge(u, v, weight=geom.length)
        edge_id += 1

    # Spanning chain guarantees connectivity.
    order = list(range(1, n + 1))
    rng.shuffle(order)
    for u, v in zip(order, order[1:]):
        add(u, v)
    for __ in range(extra_edges):
        add(rng.randint(1, n), rng.randint(1, n))
    return g, nxg


class TestAgainstNetworkx:
    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=20, deadline=None)
    def test_dijkstra_costs_match(self, seed):
        g, nxg = build_random_graph(seed)
        rng = random.Random(seed + 1)
        source = rng.randint(1, 25)
        target = rng.randint(1, 25)
        ours = shortest_path(g, source, target, weight="length")
        expected = nx.shortest_path_length(nxg, source, target, weight="weight")
        assert ours.cost == pytest.approx(expected, rel=1e-9)


def build_chain_graph() -> RoadGraph:
    """Nodes 1-2-3-4 joined by edges 1, 2, 3 (100 m each, 36 km/h)."""
    g = RoadGraph()
    coords = [(0, 0), (100, 0), (200, 0), (200, 100)]
    for i, pos in enumerate(coords, start=1):
        g.add_node(RoadNode(i, tuple(map(float, pos))))
    for eid, (u, v) in enumerate([(1, 2), (2, 3), (3, 4)], start=1):
        geom = LineString([g.node(u).position, g.node(v).position])
        g.add_edge(
            RoadEdge(
                edge_id=eid, u=u, v=v, geometry=geom,
                spans=(ElementSpan(eid, 0.0, geom.length, False, 36.0),),
            )
        )
    return g


class TestPathMechanics:
    def setup_method(self):
        self.g = build_chain_graph()

    def test_trivial_same_node(self):
        p = shortest_path(self.g, 2, 2)
        assert p.found
        assert p.cost == 0.0
        assert p.edges == ()

    def test_path_nodes_and_edges(self):
        p = shortest_path(self.g, 1, 4)
        assert p.nodes == (1, 2, 3, 4)
        assert p.edges == (1, 2, 3)
        assert p.cost == pytest.approx(300.0)
        assert p.hop_count == 3

    def test_unreachable(self):
        self.g.add_node(RoadNode(99, (999.0, 999.0)))
        p = shortest_path(self.g, 1, 99)
        assert not p.found
        assert p.cost == math.inf

    def test_geometry_concatenation(self):
        p = shortest_path(self.g, 1, 4)
        geom = shortest_path_geometry(self.g, p)
        assert geom.length == pytest.approx(300.0)
        assert geom.start() == (0.0, 0.0)
        assert geom.end() == (200.0, 100.0)

    def test_geometry_of_empty_path(self):
        assert shortest_path_geometry(self.g, shortest_path(self.g, 1, 1)) is None

    def test_time_weight(self):
        p = shortest_path(self.g, 1, 4, weight="time")
        # 36 km/h = 10 m/s over 300 m.
        assert p.cost == pytest.approx(30.0)
        assert path_travel_time_s(self.g, p) == pytest.approx(30.0)

    def test_custom_weight_fn(self):
        # Penalise edge 2 heavily: no alternative, cost reflects it.
        def weight(edge):
            return edge.length * (100.0 if edge.edge_id == 2 else 1.0)

        dist = dijkstra(self.g, 1, 4, weight_fn=weight)
        assert dist[4][0] == pytest.approx(100.0 + 10_000.0 + 100.0)

    def test_max_cost_early_exit(self):
        dist = dijkstra(self.g, 1, target=None, weight="length", max_cost=150.0)
        assert 2 in dist
        assert 4 not in dist


class TestOneWayRouting:
    def test_respects_oneway(self):
        g = RoadGraph()
        for i, pos in enumerate([(0, 0), (100, 0), (50, 80)], start=1):
            g.add_node(RoadNode(i, tuple(map(float, pos))))
        geom12 = LineString([(0, 0), (100, 0)])
        g.add_edge(RoadEdge(1, 1, 2, geom12,
                            (ElementSpan(1, 0.0, geom12.length, False, 40.0),),
                            forward_allowed=True, backward_allowed=False))
        geom23 = LineString([(100, 0), (50, 80)])
        g.add_edge(RoadEdge(2, 2, 3, geom23,
                            (ElementSpan(2, 0.0, geom23.length, False, 40.0),)))
        geom31 = LineString([(50, 80), (0, 0)])
        g.add_edge(RoadEdge(3, 3, 1, geom31,
                            (ElementSpan(3, 0.0, geom31.length, False, 40.0),)))
        forward = shortest_path(g, 1, 2)
        assert forward.edges == (1,)
        backward = shortest_path(g, 2, 1)
        # Must detour around the one-way: 2 -> 3 -> 1.
        assert backward.nodes == (2, 3, 1)
        without = shortest_path(g, 2, 1, respect_oneway=False)
        assert without.edges == (1,)


class TestDerivedState:
    """The flat adjacency and the memoised trees follow the graph."""

    def setup_method(self):
        # A graph that has answered queries already.
        self.g = build_chain_graph()
        assert shortest_path(self.g, 1, 4).edges == (1, 2, 3)
        assert self._cost(1, 4) == 300.0

    def _cost(self, s: int, t: int) -> float:
        index = self.g.node_index
        return RouteBatch(self.g).resolve_costs([index[s]], [index[t]]).item()

    def test_add_edge_shortcut_returns_the_new_path(self):
        geom = LineString([self.g.node(1).position, self.g.node(4).position])
        self.g.add_edge(RoadEdge(9, 1, 4, geom,
                                 (ElementSpan(9, 0.0, geom.length, False, 36.0),)))
        path = shortest_path(self.g, 1, 4)
        assert path.nodes == (1, 4)
        assert path.edges == (9,)
        assert path.cost == geom.length
        assert self._cost(1, 4) == geom.length
        assert dijkstra(self.g, 1, 4)[4] == (geom.length, 1, 9)

    def test_add_node_drops_the_trees(self):
        self.g.add_node(RoadNode(5, (300.0, 100.0)))
        assert self.g.route_trees == {}
        assert self.g.cost_rows == {}
        assert not shortest_path(self.g, 1, 5).found
        assert self._cost(1, 5) == math.inf
