"""Chaos tests for worker-pool death and recovery.

A chunk's worker is hard-killed (``os._exit``) before touching the
chunk; the executor must recycle the pool, resubmit exactly the lost
chunks, and still fold results byte-identical to a serial run — no
duplicated and no lost items.  Map-matching is the pool's one task
kind, so the chunks hold a study's match tasks.
"""

from __future__ import annotations

import pytest

from repro.experiments import OuluStudy, StudyConfig
from repro.faults import FaultPlan
from repro.matching import make_matcher
from repro.obs import MetricsRegistry, use_registry
from repro.parallel import (
    ExecutorConfig,
    MatchTask,
    TripExecutor,
    WorkerPayload,
    match_task,
    study_gates,
)
from repro.roadnet import RouteCache
from repro.stream import study_fingerprint
from repro.traces import FleetSpec

WORKERS = 2


@pytest.fixture(scope="module")
def tasks(study_result) -> list[MatchTask]:
    """The match tasks of the shared 30-day study (default city)."""
    return [
        MatchTask.from_transition(i, transition)
        for i, transition in enumerate(study_result.extraction.transitions)
    ]


@pytest.fixture(scope="module")
def serial_outcomes(city, tasks) -> list:
    """Every task matched in-process by the function pool workers run."""
    projector = city.projector
    matcher = make_matcher(city.graph, "incremental", RouteCache())
    gates_by_name = {g.name: g for g in study_gates(city)}
    return [
        match_task(
            matcher, lambda p: projector.to_xy(p.lat, p.lon), gates_by_name, None, task
        )
        for task in tasks
    ]


def _auto_chunks(n_items: int) -> int:
    """The executor's auto chunk count: about four chunks per worker."""
    size = -(-n_items // (WORKERS * 4))
    return -(-n_items // size)


def _artefacts(outcomes):
    """The deterministic fields of match outcomes (drop wall time and the
    route source, which depends on each worker's own route cache)."""
    return [(o.index, o.route, o.kept, o.error) for o in outcomes]


def _killed_pool_match(tasks, kill_index: int):
    plan = FaultPlan(kill_chunk={"match": kill_index})
    registry = MetricsRegistry()
    executor = TripExecutor(WorkerPayload(fault_plan=plan), ExecutorConfig(workers=WORKERS))
    with use_registry(registry), executor:
        outcomes = executor.map_chunked("match", tasks)
    return outcomes, registry


def test_worker_kill_recovers_without_lost_or_duplicated_trips(tasks, serial_outcomes):
    """A middle chunk's worker dies; every transition still comes back once."""
    n_chunks = _auto_chunks(len(tasks))
    assert n_chunks >= 3, "the study must fill a first, middle and last chunk"
    outcomes, registry = _killed_pool_match(tasks, n_chunks // 2)
    assert _artefacts(outcomes) == _artefacts(serial_outcomes)
    assert registry.counter("worker.restarts").value == 1
    # Every chunk is accounted exactly once despite the resubmission.
    assert registry.counter("parallel.match_chunks").value == n_chunks
    assert registry.counter("parallel.match_items").value == len(tasks)


def test_pipeline_run_through_killed_pool_matches_serial(chaos_seed):
    """A whole study whose first match chunk's worker dies."""
    fleet = FleetSpec(n_days=6, seed=13)
    serial = OuluStudy(StudyConfig(fleet=fleet)).run()
    pooled = OuluStudy(
        StudyConfig(
            fleet=fleet,
            executor=ExecutorConfig(workers=WORKERS),
            faults=FaultPlan(seed=chaos_seed, kill_chunk={"match": 0}),
        )
    ).run()
    assert pooled.metrics["counters"]["worker.restarts"] == 1
    assert study_fingerprint(pooled) == study_fingerprint(serial)
    assert pooled.kept_transitions == serial.kept_transitions


def test_kill_on_final_chunk(tasks, serial_outcomes):
    """Killing the last chunk exercises the drain-phase recovery path."""
    outcomes, registry = _killed_pool_match(tasks, _auto_chunks(len(tasks)) - 1)
    assert len(outcomes) == len(tasks)
    assert registry.counter("worker.restarts").value == 1
    assert _artefacts(outcomes) == _artefacts(serial_outcomes)
