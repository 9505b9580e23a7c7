"""Tests for repro.roadnet.graph."""

import pytest

from repro.geo.geometry import LineString
from repro.roadnet.graph import ElementSpan, RoadEdge, RoadGraph, RoadNode


def simple_edge(edge_id=1, u=1, v=2, coords=((0, 0), (100, 0)),
                forward=True, backward=True, limit=40.0):
    geom = LineString(coords)
    return RoadEdge(
        edge_id=edge_id, u=u, v=v, geometry=geom,
        spans=(ElementSpan(100 + edge_id, 0.0, geom.length, False, limit),),
        forward_allowed=forward, backward_allowed=backward,
    )


@pytest.fixture()
def graph():
    g = RoadGraph()
    g.add_node(RoadNode(1, (0.0, 0.0)))
    g.add_node(RoadNode(2, (100.0, 0.0)))
    g.add_node(RoadNode(3, (100.0, 100.0)))
    g.add_edge(simple_edge(1, 1, 2))
    g.add_edge(simple_edge(2, 2, 3, coords=((100, 0), (100, 100))))
    return g


class TestGraphStructure:
    def test_counts(self, graph):
        assert graph.node_count == 3
        assert graph.edge_count == 2

    def test_duplicate_node_rejected(self, graph):
        with pytest.raises(ValueError):
            graph.add_node(RoadNode(1, (5.0, 5.0)))

    def test_duplicate_edge_rejected(self, graph):
        with pytest.raises(ValueError):
            graph.add_edge(simple_edge(1, 1, 2))

    def test_edge_with_unknown_node_rejected(self, graph):
        with pytest.raises(ValueError):
            graph.add_edge(simple_edge(9, 1, 99))

    def test_neighbors(self, graph):
        assert sorted(graph.neighbors(2)) == [1, 3]
        assert graph.neighbors(1) == [2]

    def test_degree(self, graph):
        assert graph.degree(2) == 2
        assert graph.degree(3) == 1

    def test_bounds(self, graph):
        assert graph.bounds() == (0.0, 0.0, 100.0, 100.0)


class TestOneWay:
    def test_oneway_out_edges(self):
        g = RoadGraph()
        g.add_node(RoadNode(1, (0.0, 0.0)))
        g.add_node(RoadNode(2, (100.0, 0.0)))
        g.add_edge(simple_edge(1, 1, 2, forward=True, backward=False))
        assert [e.edge_id for e in g.out_edges(1)] == [1]
        assert g.out_edges(2) == []
        assert [e.edge_id for e in g.out_edges(2, respect_oneway=False)] == [1]

    def test_allows(self):
        e = simple_edge(1, 1, 2, forward=True, backward=False)
        assert e.allows(1)
        assert not e.allows(2)
        with pytest.raises(ValueError):
            e.allows(99)


class TestEdgeGeometry:
    def test_other(self):
        e = simple_edge()
        assert e.other(1) == 2
        assert e.other(2) == 1
        with pytest.raises(ValueError):
            e.other(3)

    def test_geometry_from(self):
        e = simple_edge()
        assert e.geometry_from(1).start() == (0.0, 0.0)
        assert e.geometry_from(2).start() == (100.0, 0.0)

    def test_span_at(self):
        geom = LineString([(0, 0), (200, 0)])
        e = RoadEdge(
            edge_id=1, u=1, v=2, geometry=geom,
            spans=(
                ElementSpan(10, 0.0, 100.0, False, 30.0),
                ElementSpan(11, 100.0, 200.0, True, 50.0),
            ),
        )
        assert e.span_at(50.0).element_id == 10
        assert e.span_at(150.0).element_id == 11
        assert e.span_at(-5.0).element_id == 10
        assert e.span_at(500.0).element_id == 11

    def test_element_arc_mapping(self):
        span = ElementSpan(10, 100.0, 200.0, False, 50.0)
        assert span.element_arc(150.0) == pytest.approx(50.0)
        reversed_span = ElementSpan(10, 100.0, 200.0, True, 50.0)
        assert reversed_span.element_arc(150.0) == pytest.approx(50.0)
        assert reversed_span.element_arc(110.0) == pytest.approx(90.0)

    def test_speed_limit_harmonic_mean(self):
        geom = LineString([(0, 0), (200, 0)])
        e = RoadEdge(
            edge_id=1, u=1, v=2, geometry=geom,
            spans=(
                ElementSpan(10, 0.0, 100.0, False, 30.0),
                ElementSpan(11, 100.0, 200.0, False, 60.0),
            ),
        )
        # Harmonic mean of 30 and 60 over equal lengths = 40.
        assert e.speed_limit_kmh == pytest.approx(40.0)


class TestSpatialQueries:
    def test_edges_near(self, graph):
        hits = graph.edges_near((50.0, 5.0), 10.0)
        assert [e.edge_id for e in hits] == [1]

    def test_nearest_node(self, graph):
        assert graph.nearest_node((90.0, 10.0)).node_id == 2
        assert RoadGraph().nearest_node((0.0, 0.0)) is None
