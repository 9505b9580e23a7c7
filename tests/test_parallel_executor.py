"""The parallel execution layer: determinism, caching, worker safety.

The headline contract — a study run with any worker count produces the
same artefacts as a serial run — is asserted end to end on the synthetic
city, alongside the pieces that make it true: the route cache never
changes an answer, chunk execution is isolated from ambient observability
state, and a forked worker resets what it inherited.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro import obs
from repro.experiments import OuluStudy, StudyConfig
from repro.parallel import ExecutorConfig, MatchTask, TripExecutor, WorkerPayload
from repro.parallel import worker as worker_mod
from repro.parallel.worker import init_worker, run_chunk
from repro.roadnet import RouteCache, cached_shortest_path
from repro.roadnet.routing import PathResult, shortest_path
from repro.traces import FleetSpec


# -- configuration ----------------------------------------------------------


class TestExecutorConfig:
    def test_defaults_are_serial(self):
        config = ExecutorConfig()
        assert config.workers == 0
        assert not TripExecutor(WorkerPayload(), config).parallel

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            ExecutorConfig(workers=-1)

    def test_serial_executor_refuses_map_chunked(self):
        with TripExecutor(WorkerPayload()) as executor:
            with pytest.raises(RuntimeError):
                executor.map_chunked("match", [1, 2, 3])


# -- worker-process safety --------------------------------------------------


class TestWorkerSafety:
    def test_run_chunk_before_init_fails_loudly(self, monkeypatch):
        monkeypatch.setattr(worker_mod, "_context", None)
        with pytest.raises(RuntimeError):
            run_chunk("match", [])

    def test_reset_worker_state_clears_inherited_bindings(self):
        inherited = obs.MetricsRegistry()
        obs.set_registry(inherited)
        frame = obs.span("parent-stage")
        frame.__enter__()
        try:
            assert obs.get_registry() is inherited
            assert obs.current_span() is not None
            obs.reset_worker_state()
            # The ambient registry fell back to the global one and the
            # span stack is empty: worker spans become roots again.
            assert obs.get_registry() is not inherited
            assert obs.current_span() is None
            # Closing the stale parent frame must not raise or corrupt
            # state — exactly what happens right after a fork.
            frame.__exit__(None, None, None)
            assert obs.current_span() is None
        finally:
            obs.clear_registry()
            obs.reset_span_stack()

    def test_run_chunk_matches_transitions(self, study_result):
        tasks = [
            MatchTask.from_transition(i, transition)
            for i, transition in enumerate(study_result.extraction.transitions[:3])
        ]
        init_worker(WorkerPayload())
        results, chunk_registry = run_chunk("match", tasks)
        assert [r.index for r in results] == [0, 1, 2]
        assert [r.route for r in results] == [study_result.matched.get(i) for i in range(3)]
        assert isinstance(chunk_registry, obs.MetricsRegistry)
        assert chunk_registry.counter("matching.calls").value == 3

    def test_run_chunk_records_into_chunk_local_registry(self):
        ambient = obs.MetricsRegistry()
        with obs.use_registry(ambient):
            init_worker(WorkerPayload())

            def ping(items):
                obs.get_registry().counter("test.ping").inc(len(items))
                return list(items)

            worker_mod._context.ping = ping
            results, chunk_registry = run_chunk("ping", [1, 2])
            # ...and init_worker dropped the inherited binding (the
            # ambient registry was bound when the "fork" happened).
            assert obs.get_registry() is not ambient
        assert results == [1, 2]
        # The handler's metrics landed in the chunk-local registry, not
        # in the caller's ambient one.
        assert chunk_registry.counter("test.ping").value == 2
        assert ambient.counter("test.ping").value == 0


# -- route cache ------------------------------------------------------------


class TestRouteCache:
    def test_lru_evicts_oldest(self):
        cache = RouteCache(max_entries=2)
        hit = PathResult(nodes=(1, 2), edges=(7,), cost=5.0)
        cache.put(1, 2, "length", hit)
        cache.put(2, 3, "length", hit)
        cache.put(3, 4, "length", hit)  # evicts (1, 2)
        assert len(cache) == 2
        assert cache.get(1, 2, "length") is None
        assert cache.get(2, 3, "length") is not None

    def test_get_refreshes_recency(self):
        cache = RouteCache(max_entries=2)
        hit = PathResult(nodes=(1, 2), edges=(7,), cost=5.0)
        cache.put(1, 2, "length", hit)
        cache.put(2, 3, "length", hit)
        cache.get(1, 2, "length")  # (1, 2) becomes most recent
        cache.put(3, 4, "length", hit)  # so (2, 3) is evicted instead
        assert cache.get(1, 2, "length") is not None
        assert cache.get(2, 3, "length") is None

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            RouteCache(max_entries=0)

    def test_unroutable_results_survive_disk_round_trip(self, tmp_path):
        path = tmp_path / "routes.json"
        cache = RouteCache(max_entries=10)
        cache.put(1, 2, "length", PathResult(nodes=(1, 9, 2), edges=(4, 5), cost=12.5))
        cache.put(3, 4, "length", PathResult(nodes=(), edges=(), cost=math.inf))
        assert cache.save(path) == 2
        warmed = RouteCache(max_entries=10, path=path)
        assert len(warmed) == 2
        assert warmed.get(1, 2, "length") == PathResult(nodes=(1, 9, 2), edges=(4, 5), cost=12.5)
        unroutable = warmed.get(3, 4, "length")
        assert unroutable is not None and not unroutable.found
        assert math.isinf(unroutable.cost)

    def test_cached_shortest_path_never_changes_the_answer(self, city):
        nodes = [n.node_id for n in city.graph.nodes()[:6]]
        cache = RouteCache(max_entries=100)
        pairs = [(a, b) for a in nodes for b in nodes if a != b]
        for source, target in pairs:
            plain = shortest_path(city.graph, source, target)
            cold = cached_shortest_path(city.graph, source, target, cache=cache)
            warm = cached_shortest_path(city.graph, source, target, cache=cache)
            assert cold == plain
            assert warm == plain

    def test_hit_and_miss_counters(self, city):
        registry = obs.MetricsRegistry()
        source, target = (n.node_id for n in city.graph.nodes()[:2])
        with obs.use_registry(registry):
            cache = RouteCache(max_entries=10)
            cached_shortest_path(city.graph, source, target, cache=cache)
            cached_shortest_path(city.graph, source, target, cache=cache)
        assert registry.counter("routing.route_cache_misses").value == 1
        assert registry.counter("routing.route_cache_hits").value == 1

    def test_eviction_counter_and_entries_gauge(self):
        registry = obs.MetricsRegistry()
        hit = PathResult(nodes=(1, 2), edges=(7,), cost=5.0)
        with obs.use_registry(registry):
            cache = RouteCache(max_entries=2)
            for target in (2, 3, 4, 5):
                cache.put(1, target, "length", hit)
        assert registry.counter("routing.route_cache_evictions").value == 2
        assert registry.gauge("routing.route_cache_entries").value == 2.0


# -- serial vs parallel equivalence -----------------------------------------


def _study(workers: int):
    config = StudyConfig(
        fleet=FleetSpec(n_days=2, seed=7),
        executor=ExecutorConfig(workers=workers),
    )
    return OuluStudy(config).run()


def _comparable_counters(result) -> dict:
    """Counters that must be scheduling-independent.

    ``parallel.*`` only exists on parallel runs; ``routing.*`` varies with
    cache locality (per-worker caches answer different subsets of the
    Dijkstra queries).  Everything else — the paper's funnel — must match.
    """
    return {
        name: value
        for name, value in result.metrics["counters"].items()
        if not name.startswith(("parallel.", "routing."))
    }


class TestSerialParallelEquivalence:
    def test_two_workers_reproduce_serial_artefacts(self):
        serial = _study(0)
        parallel = _study(2)

        # Cleaning: identical segments, ids and report counts.
        assert [s.segment_id for s in serial.clean.segments] == [
            s.segment_id for s in parallel.clean.segments
        ]
        assert serial.clean.report.segments_out == parallel.clean.report.segments_out

        # OD extraction and post-filter: identical survivors in order.
        assert serial.kept_transitions == parallel.kept_transitions
        assert serial.funnel == parallel.funnel

        # Matching: identical edge sequences for every matched transition.
        assert sorted(serial.matched) == sorted(parallel.matched)
        for index, route in serial.matched.items():
            assert route.edge_sequence == parallel.matched[index].edge_sequence

        # Downstream artefacts and the non-timing metrics.
        assert serial.route_stats == parallel.route_stats
        assert serial.cell_features == parallel.cell_features
        assert _comparable_counters(serial) == _comparable_counters(parallel)
        assert parallel.metrics["counters"]["parallel.match_items"] == len(
            serial.extraction.transitions
        )

    def test_chunk_size_does_not_change_results(self, study_result):
        """Three workers cut the shared 30-day study's transitions into
        other auto chunks than two workers do (about four per worker)."""
        serial = study_result
        three_workers = OuluStudy(
            replace(serial.config, executor=ExecutorConfig(workers=3))
        ).run()
        n = len(serial.extraction.transitions)
        size = math.ceil(n / 12)
        assert size != math.ceil(n / 8), "the two chunkings must differ"
        assert three_workers.metrics["counters"]["parallel.match_chunks"] == math.ceil(n / size)
        assert three_workers.kept_transitions == serial.kept_transitions
        assert three_workers.funnel == serial.funnel
        assert _comparable_counters(three_workers) == _comparable_counters(serial)
