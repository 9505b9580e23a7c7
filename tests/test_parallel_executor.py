"""The parallel execution layer: determinism, caching, worker safety.

The headline contract — a study run with any worker count produces the
same artefacts as a serial run — is asserted end to end on the synthetic
city, alongside the pieces that make it true: memoised shortest-path
trees never change an answer, chunk execution is isolated from ambient
observability state, and a forked worker resets what it inherited.
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
from repro.roadnet import cached_shortest_path
from repro.traces import FleetSpec
from tests.helpers import build_random_city
from tests.oracles import routing as oracle


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
    """Gap-fill queries read shortest-path trees memoised on the graph."""

    def test_cached_shortest_path_never_changes_the_answer(self, city):
        nodes = [n.node_id for n in city.graph.nodes()[:6]]
        pairs = [(a, b) for a in nodes for b in nodes if a != b]
        for source, target in pairs:
            reference = oracle.shortest_path(city.graph, source, target)
            cold = cached_shortest_path(city.graph, source, target)
            warm = cached_shortest_path(city.graph, source, target)
            assert cold == reference
            assert warm == reference

    def test_hit_and_miss_counters(self):
        graph = build_random_city(5)
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            cached_shortest_path(graph, 1, 2)   # builds node 1's tree
            cached_shortest_path(graph, 1, 3)   # reads it
        assert registry.counter("routing.route_cache_misses").value == 1
        assert registry.counter("routing.route_cache_hits").value == 1
        assert registry.counter("routing.dijkstra_calls").value == 1
        assert registry.gauge("routing.route_cache_entries").value == 1.0


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
