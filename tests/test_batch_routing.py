"""Batched routing: the :class:`RouteBatch` contract.

The batch layer is pure mechanism — ``RouteBatch.resolve`` must answer
exactly what repeated ``shortest_path`` calls would,
``RouteBatch.resolve_costs`` must return exact costs within each
source's bound and cache only paths a per-pair query would have stored,
and the cache's batch operations must never change a result.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.roadnet import RouteBatch, RouteCache, cached_shortest_path, shortest_path
from repro.roadnet.routing import PathResult
from tests.helpers import build_random_city


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
        graph = build_random_city(12)
        ids = sorted(node.node_id for node in graph.nodes())
        pairs = [(s, t) for s in ids[:4] for t in ids[-4:]]
        cache = RouteCache(max_entries=100)
        batch = RouteBatch(graph, weight="length", cache=cache)
        resolved = batch.resolve(pairs)
        for s, t in pairs:
            assert resolved[(s, t)] == shortest_path(graph, s, t)
        # Second resolve answers fully from cache.
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            again = batch.resolve(pairs)
        assert again == resolved
        assert registry.counter("routing.route_cache_hits").value == len(pairs)
        assert registry.counter("routing.route_cache_misses").value == 0

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        oneway=st.sampled_from([0.0, 0.3]),
        components=st.sampled_from([1, 2]),
        bounds=st.lists(
            st.one_of(
                st.just(math.inf),
                st.floats(min_value=0.0, max_value=2_000.0),
            ),
            min_size=5,
            max_size=5,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_resolve_costs_is_exact_within_bounds_and_caches_true_paths(
        self, seed, oneway, components, bounds
    ):
        graph = build_random_city(
            seed, oneway_fraction=oneway, components=components
        )
        ids = sorted(node.node_id for node in graph.nodes())
        sources = ids[seed % 5::5]
        targets = ids[(seed + 2) % 3::3]
        max_costs = dict(zip(sources, bounds))
        pairs = [(s, t) for s in sources for t in targets]
        cache = RouteCache(max_entries=10_000)
        costs = RouteBatch(graph, weight="length", cache=cache).resolve_costs(
            pairs, max_costs
        )
        assert set(costs) == set(pairs)
        within = 0
        for s, t in pairs:
            reference = shortest_path(graph, s, t)
            cached = cache.get(s, t, "length")
            if reference.found and reference.cost <= max_costs[s]:
                within += 1
                assert costs[(s, t)] == reference.cost
                # Later gap-fill queries read this entry, so it must be
                # the very path a per-pair query would have stored.
                assert cached == reference
            else:
                assert math.isinf(costs[(s, t)])
                assert cached is None
        assert len(cache) == within


# -- RouteCache batch operations ---------------------------------------------


class TestRouteCacheBatch:
    def test_get_many_splits_hits_and_misses_in_order(self):
        cache = RouteCache(max_entries=10)
        hit_path = PathResult(nodes=(1, 2), edges=(7,), cost=5.0)
        cache.put(1, 2, "length", hit_path)
        hits, misses = cache.get_many([(3, 4), (1, 2), (5, 6)], "length")
        assert hits == {(1, 2): hit_path}
        assert misses == [(3, 4), (5, 6)]

    def test_get_many_refreshes_lru_position(self):
        cache = RouteCache(max_entries=2)
        a = PathResult(nodes=(1,), edges=(), cost=0.0)
        b = PathResult(nodes=(2,), edges=(), cost=0.0)
        cache.put(1, 1, "length", a)
        cache.put(2, 2, "length", b)
        cache.get_many([(1, 1)], "length")  # (1,1) becomes most recent
        cache.put(3, 3, "length", PathResult(nodes=(3,), edges=(), cost=0.0))
        assert cache.get(1, 1, "length") is not None
        assert cache.get(2, 2, "length") is None  # evicted, not (1,1)

    def test_put_many_bounds_entries_and_sets_gauge(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            cache = RouteCache(max_entries=3)
            results = {
                (i, i + 1): PathResult(nodes=(i,), edges=(), cost=float(i))
                for i in range(5)
            }
            cache.put_many(results, "length")
        assert len(cache) == 3
        assert registry.gauge("routing.route_cache_entries").value == 3
        assert registry.counter("routing.route_cache_evictions").value == 2

    def test_hit_rate_gauge_tracks_lookups(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            cache = RouteCache(max_entries=10)
            cache.put(1, 2, "length", PathResult(nodes=(1, 2), edges=(7,), cost=1.0))
            cache.get(9, 9, "length")  # miss
            assert registry.gauge("routing.route_cache_hit_rate").value == 0.0
            cache.get(1, 2, "length")  # hit
            assert registry.gauge("routing.route_cache_hit_rate").value == 0.5
            cache.get_many([(1, 2), (8, 8)], "length")  # hit + miss
            assert registry.gauge("routing.route_cache_hit_rate").value == 0.5
