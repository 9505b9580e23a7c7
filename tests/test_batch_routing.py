"""Batched routing: the :class:`RouteBatch` contract.

The batch layer is pure mechanism — ``RouteBatch.resolve`` must answer
exactly what repeated ``shortest_path`` calls would, and
``RouteBatch.resolve_costs`` must return exact costs within each
source's bound.  Every answer is read from a shortest-path tree memoised
on the graph, so each one is checked against the per-query searches of
``tests/oracles/routing.py``, before and after the graph changes.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.experiments import OuluStudy, StudyConfig
from repro.geo.geometry import LineString
from repro.roadnet import RouteBatch, cached_shortest_path, shortest_path
from repro.roadnet.graph import ElementSpan, RoadEdge
from repro.traces import FleetSpec
from tests.helpers import build_random_city
from tests.oracles import routing as oracle


def _add_shortcut(graph, u: int, v: int) -> int:
    """Add a straight two-way edge ``u``-``v``; returns its id."""
    edge_id = max(e.edge_id for e in graph.edges()) + 1
    geom = LineString([graph.node(u).position, graph.node(v).position])
    graph.add_edge(RoadEdge(
        edge_id=edge_id, u=u, v=v, geometry=geom,
        spans=(ElementSpan(edge_id, 0.0, geom.length, False, 60.0),),
    ))
    return edge_id


def _bounds(graph, sources, targets, specs) -> dict[int, float]:
    """Per-source bounds; a ``None`` spec is the exact optimal cost to
    one of the targets, so ties with the bound are exercised."""
    bounds = {}
    for i, (s, spec) in enumerate(zip(sources, specs)):
        if spec is None:
            spec = oracle.shortest_path(graph, s, targets[i % len(targets)]).cost
        bounds[s] = spec
    return bounds


def _assert_equals_oracle(graph, sources, targets, specs) -> None:
    pairs = [(s, t) for s in sources for t in targets]
    for weight in ("length", "time"):
        for respect_oneway in (True, False):
            for s, t in pairs:
                assert shortest_path(graph, s, t, weight, respect_oneway) == (
                    oracle.shortest_path(graph, s, t, weight, respect_oneway)
                )
        batch = RouteBatch(graph, weight=weight)
        assert batch.resolve(pairs) == {
            (s, t): oracle.shortest_path(graph, s, t, weight) for s, t in pairs
        }
        max_costs = _bounds(graph, sources, targets, specs)
        assert batch.resolve_costs(pairs, max_costs) == oracle.resolve_costs(
            graph, pairs, max_costs, weight
        )


# -- RouteBatch planner ------------------------------------------------------


class TestRouteBatch:
    def test_resolve_matches_cached_shortest_path(self):
        graph = build_random_city(11, oneway_fraction=0.3)
        ids = sorted(node.node_id for node in graph.nodes())
        pairs = [(ids[0], ids[-1]), (ids[1], ids[-2]), (ids[0], ids[-1])]
        resolved = RouteBatch(graph, weight="length").resolve(pairs)
        assert len(resolved) == 2  # duplicate collapsed
        for s, t in pairs:
            assert resolved[(s, t)] == cached_shortest_path(graph, s, t, "length")

    def test_second_resolve_is_all_cache_hits(self):
        """The first resolve builds one tree per source; a second one
        reads them and runs no search."""
        graph = build_random_city(12)
        ids = sorted(node.node_id for node in graph.nodes())
        pairs = [(s, t) for s in ids[:4] for t in ids[-4:]]
        batch = RouteBatch(graph, weight="length")
        first = obs.MetricsRegistry()
        with obs.use_registry(first):
            resolved = batch.resolve(pairs)
        assert first.counter("routing.route_cache_misses").value == 4
        assert first.counter("routing.dijkstra_calls").value == 4
        assert first.gauge("routing.route_cache_entries").value == 4
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            again = batch.resolve(pairs)
        assert again == resolved
        assert registry.counter("routing.route_cache_hits").value == len(pairs)
        assert registry.counter("routing.route_cache_misses").value == 0
        assert registry.counter("routing.dijkstra_calls").value == 0

    def test_resolve_costs_looks_up_one_tree_per_source(self):
        graph = build_random_city(13)
        ids = sorted(node.node_id for node in graph.nodes())
        pairs = [(s, t) for s in ids[:3] for t in ids]
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            RouteBatch(graph).resolve_costs(pairs, {ids[0]: 0.0})
            RouteBatch(graph).resolve_costs(pairs)
        assert registry.counter("routing.route_cache_misses").value == 3
        assert registry.counter("routing.route_cache_hits").value == 3
        assert registry.counter("routing.settled_nodes").value == 3 * len(ids)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        oneway=st.sampled_from([0.0, 0.3]),
        components=st.sampled_from([1, 2]),
        bounds=st.lists(
            st.one_of(
                st.just(0.0),
                st.just(math.inf),
                st.none(),
                st.floats(min_value=0.0, max_value=2_000.0),
            ),
            min_size=5,
            max_size=5,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_answer_equals_the_per_search_oracle(
        self, seed, oneway, components, bounds
    ):
        graph = build_random_city(
            seed, oneway_fraction=oneway, components=components
        )
        ids = sorted(node.node_id for node in graph.nodes())
        sources = ids[seed % 5::5]
        # Every third node: overlaps the sources, so some pairs are (s, s).
        targets = ids[(seed + 2) % 3::3]
        _assert_equals_oracle(graph, sources, targets, bounds)
        # A shortcut from the first source to its most-hops target (or to
        # an unreachable one) changes answers the trees already hold.
        s = sources[0]
        paths = {t: oracle.shortest_path(graph, s, t) for t in targets if t != s}
        t = max(paths, key=lambda t: (not paths[t].found, paths[t].hop_count))
        _add_shortcut(graph, s, t)
        _assert_equals_oracle(graph, sources, targets, bounds)


class TestStudyTrees:
    """The match stage builds at most one tree per node of the city."""

    def test_serial_and_hmm_studies(self, city):
        for matcher in ("incremental", "hmm"):
            result = OuluStudy(StudyConfig(
                fleet=FleetSpec(n_days=20, seed=2012), matcher=matcher
            )).run()
            built = result.metrics["counters"]["routing.route_cache_misses"]
            assert 0 < built <= city.graph.node_count
            assert result.metrics["gauges"]["routing.route_cache_entries"] == built
