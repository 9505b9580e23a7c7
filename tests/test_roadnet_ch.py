"""Tests for repro.roadnet.ch — the contraction-hierarchy engine.

The load-bearing property: a prepared hierarchy must answer every
shortest-path query with exactly the cost flat Dijkstra computes, and
the unpacked shortcut paths must be real walks through the original
graph (contiguous, direction-legal, weight-consistent).  Everything
else — `.npz` round-trips, engine-selector wiring, observability — is
checked on top of that invariant.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.geo.geometry import LineString
from repro.roadnet.ch import (
    CHEngine,
    build_csr,
    contract_graph,
    load_ch,
    prepare_ch,
    save_ch,
)
from repro.roadnet.ch.engine import CH_FORMAT_VERSION
from repro.roadnet.graph import ElementSpan, RoadEdge, RoadGraph, RoadNode
from repro.roadnet.routing import (
    ROUTING_ENGINES,
    cached_shortest_path,
    make_routing_engine,
    shortest_path,
)


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


def assert_same_answer(graph: RoadGraph, engine: CHEngine, source: int,
                       target: int, weight: str = "length") -> None:
    plain = shortest_path(graph, source, target, weight=weight)
    ch = engine.shortest_path(source, target)
    assert ch.found == plain.found, (source, target)
    if not plain.found:
        assert math.isinf(ch.cost)
        return
    assert ch.cost == pytest.approx(plain.cost, rel=1e-9)
    assert_valid_walk(graph, ch, weight)


def assert_valid_walk(graph: RoadGraph, result, weight: str) -> None:
    """The unpacked path is a legal walk whose edge weights sum to cost."""
    assert len(result.nodes) == len(result.edges) + 1
    total = 0.0
    for at, edge_id, nxt in zip(result.nodes, result.edges, result.nodes[1:]):
        edge = graph.edge(edge_id)
        assert {edge.u, edge.v} >= {at, nxt} and edge.other(at) == nxt
        assert edge.allows(at), f"one-way violated on edge {edge_id}"
        total += edge.length if weight == "length" else edge.travel_time_s
    assert total == pytest.approx(result.cost, rel=1e-9)


class TestCHMatchesDijkstra:
    @given(seed=st.integers(min_value=0, max_value=400))
    @settings(max_examples=20, deadline=None)
    def test_costs_match_on_random_graphs(self, seed):
        g = build_random_city(seed)
        engine = prepare_ch(g)
        rng = random.Random(seed + 1)
        for __ in range(8):
            assert_same_answer(g, engine, rng.randint(1, 25), rng.randint(1, 25))

    @given(
        seed=st.integers(min_value=0, max_value=400),
        oneway=st.sampled_from([0.3, 0.8]),
    )
    @settings(max_examples=20, deadline=None)
    def test_costs_match_with_oneway_edges(self, seed, oneway):
        g = build_random_city(seed, oneway_fraction=oneway)
        engine = prepare_ch(g)
        rng = random.Random(seed + 2)
        for __ in range(8):
            assert_same_answer(g, engine, rng.randint(1, 25), rng.randint(1, 25))

    @given(seed=st.integers(min_value=0, max_value=400))
    @settings(max_examples=15, deadline=None)
    def test_disconnected_pairs_agree_on_no_path(self, seed):
        g = build_random_city(seed, components=2)
        engine = prepare_ch(g)
        rng = random.Random(seed + 3)
        saw_unreachable = False
        for __ in range(10):
            s, t = rng.randint(1, 25), rng.randint(1, 25)
            plain = shortest_path(g, s, t)
            ch = engine.shortest_path(s, t)
            assert ch.found == plain.found
            saw_unreachable = saw_unreachable or not plain.found
            if plain.found:
                assert ch.cost == pytest.approx(plain.cost, rel=1e-9)
        # Two components of 25 nodes: random pairs must hit the gap.
        assert saw_unreachable

    @given(seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=10, deadline=None)
    def test_time_weight_matches(self, seed):
        g = build_random_city(seed, oneway_fraction=0.25)
        engine = prepare_ch(g, weight="time")
        rng = random.Random(seed + 4)
        for __ in range(6):
            s, t = rng.randint(1, 25), rng.randint(1, 25)
            plain = shortest_path(g, s, t, weight="time")
            ch = engine.shortest_path(s, t)
            assert ch.found == plain.found
            if plain.found:
                assert ch.cost == pytest.approx(plain.cost, rel=1e-9)
                assert_valid_walk(g, ch, "time")

    def test_whole_city_sample(self, city):
        engine = prepare_ch(city.graph)
        nodes = [n.node_id for n in city.graph.nodes()]
        rng = random.Random(11)
        for __ in range(60):
            assert_same_answer(
                city.graph, engine, rng.choice(nodes), rng.choice(nodes)
            )

    def test_same_node_and_unknown_node(self, city):
        engine = prepare_ch(city.graph)
        some = city.graph.nodes()[0].node_id
        trivial = engine.shortest_path(some, some)
        assert trivial.found and trivial.cost == 0.0 and trivial.edges == ()
        assert not engine.shortest_path(some, 10**9).found
        assert not engine.shortest_path(10**9, some).found


class TestPreprocessing:
    def test_prepare_is_deterministic(self):
        g = build_random_city(7, oneway_fraction=0.4)
        a, b = prepare_ch(g), prepare_ch(g)
        for name in ("node_ids", "rank", "arc_from", "arc_to", "arc_weight",
                     "arc_edge", "arc_skip1", "arc_skip2"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_contraction_adds_shortcuts_only(self):
        g = build_random_city(3)
        csr = build_csr(g)
        result = contract_graph(csr)
        assert result.shortcut_count == int((result.arc_edge < 0).sum())
        # Original arcs are preserved verbatim ahead of the shortcuts.
        n_orig = csr.targets.shape[0]
        np.testing.assert_array_equal(result.arc_edge[:n_orig], csr.edge_ids)
        assert (result.arc_skip1[:n_orig] == -1).all()
        # Every shortcut unpacks into two earlier arcs.
        sc = result.arc_edge < 0
        assert (result.arc_skip1[sc] >= 0).all() and (result.arc_skip2[sc] >= 0).all()

    def test_build_csr_rejects_negative_weight(self):
        g = build_random_city(1, n=5, extra_edges=2)
        with pytest.raises(ValueError):
            build_csr(g, weight_fn=lambda e: -1.0)


class TestArtifactRoundTrip:
    def test_npz_round_trip_is_identical(self, tmp_path):
        g = build_random_city(5, oneway_fraction=0.3)
        engine = prepare_ch(g)
        path = tmp_path / "ch.npz"
        save_ch(engine, path)
        loaded = load_ch(path)
        assert loaded.weight == engine.weight
        assert loaded.respect_oneway == engine.respect_oneway
        for name in ("node_ids", "rank", "arc_from", "arc_to", "arc_weight",
                     "arc_edge", "arc_skip1", "arc_skip2"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(engine, name))
        rng = random.Random(6)
        for __ in range(20):
            s, t = rng.randint(1, 25), rng.randint(1, 25)
            assert loaded.shortest_path(s, t) == engine.shortest_path(s, t)

    def test_version_mismatch_raises(self, tmp_path):
        g = build_random_city(2, n=8, extra_edges=4)
        path = tmp_path / "ch.npz"
        save_ch(prepare_ch(g), path)
        with np.load(path, allow_pickle=False) as data:
            arrays = dict(data)
        arrays["version"] = np.int64(CH_FORMAT_VERSION + 1)
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="version"):
            load_ch(path)


class TestEngineSelector:
    def test_selector_resolves_every_engine(self, city):
        assert make_routing_engine(city.graph, None) is None
        assert make_routing_engine(city.graph, "dijkstra") is None
        assert isinstance(make_routing_engine(city.graph, "ch"), CHEngine)
        assert ROUTING_ENGINES == ("dijkstra", "ch")
        for retired in ("astar", "bidirectional", "teleport"):
            with pytest.raises(ValueError):
                make_routing_engine(city.graph, retired)

    def test_selector_loads_matching_artifact(self, city, tmp_path):
        path = tmp_path / "city.npz"
        save_ch(prepare_ch(city.graph), path)
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            engine = make_routing_engine(city.graph, "ch", ch_artifact=path)
        assert isinstance(engine, CHEngine)
        assert registry.counter("routing.ch_artifact_loads").value == 1
        assert registry.counter("routing.ch_prepare_calls").value == 0

    def test_selector_reprepares_on_weight_mismatch(self, city, tmp_path):
        path = tmp_path / "time.npz"
        save_ch(prepare_ch(city.graph, weight="time"), path)
        engine = make_routing_engine(city.graph, "ch", weight="length",
                                     ch_artifact=path)
        assert engine.weight == "length"

    def test_cached_shortest_path_dispatches_to_ch(self, city):
        engine = prepare_ch(city.graph)
        nodes = [n.node_id for n in city.graph.nodes()[:5]]
        for s in nodes:
            for t in nodes:
                via_engine = cached_shortest_path(city.graph, s, t, engine=engine)
                plain = cached_shortest_path(city.graph, s, t)
                assert via_engine.cost == pytest.approx(plain.cost, rel=1e-9)

    def test_weight_mismatch_query_raises(self, city):
        engine = prepare_ch(city.graph, weight="time")
        s, t = (n.node_id for n in city.graph.nodes()[:2])
        with pytest.raises(ValueError, match="weight"):
            cached_shortest_path(city.graph, s, t, weight="length", engine=engine)


class TestObservability:
    def test_prepare_and_query_metrics(self, tmp_path):
        g = build_random_city(9)
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            engine = prepare_ch(g)
            engine.shortest_path(1, 25)
            save_ch(engine, tmp_path / "g.npz")
        assert registry.counter("routing.ch_prepare_calls").value == 1
        assert registry.counter("routing.ch_query_calls").value == 1
        assert registry.counter("routing.ch_artifact_saves").value == 1
        assert registry.gauge("routing.ch_prepare_seconds").value > 0.0
        assert registry.gauge("routing.ch_shortcuts").value >= 0.0
        assert registry.gauge("routing.ch_nodes").value == 25.0
