"""Worker-process side of the :class:`~repro.parallel.TripExecutor`.

A worker is initialised exactly once per process with a
:class:`WorkerPayload` — the configs needed to rebuild its execution
context (cleaning pipeline, and for study work the synthetic city, its
spatial index, OD gates, matcher and Dijkstra route cache).  The road
network is deterministic given the :class:`~repro.roadnet.CitySpec`, so
shipping the small spec and rebuilding beats pickling the whole graph
into every task.

Chunks then execute against that long-lived context.  Each chunk records
its metrics into a fresh chunk-local :class:`~repro.obs.MetricsRegistry`
that is returned with the results, so the orchestrator can merge worker
counters/histograms deterministically (in chunk order) — nothing is
written into the contextvar state inherited from the parent process
(:func:`repro.obs.reset_worker_state` clears it at init).
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from dataclasses import dataclass

from repro import obs
from repro.cleaning import CleaningPipeline, FilterConfig, SegmentationConfig
from repro.cleaning.segmentation import TripSegment
from repro.faults import FaultPlan, RobustnessConfig, activate
from repro.matching import make_matcher
from repro.obs import (
    BufferJournal,
    MetricsRegistry,
    RunContext,
    TraceCarrier,
    set_run_context,
    use_journal,
    use_parent_span,
    use_registry,
    use_run_context,
)
from repro.parallel.tasks import MatchOutcome, MatchTask, match_task, study_gates
from repro.roadnet import CitySpec, RouteCache, build_synthetic_oulu, make_routing_engine
from repro.od import TransitionConfig, TransitionExtractor


@dataclass(frozen=True)
class WorkerPayload:
    """Everything a worker needs to rebuild its execution context.

    ``city_spec`` is optional: cleaning-only executors (``repro clean``)
    never build a road network.  ``route_cache_path`` points at an
    optional on-disk route cache every worker warms itself from.
    ``routing_engine`` picks the gap-fill shortest-path engine; with
    ``"ch"`` each worker prepares the contraction hierarchy once at
    init — or loads it from ``ch_artifact_path`` when the orchestrator
    saved a shared ``.npz`` artifact — instead of paying flat Dijkstra
    on every cache-missing query.
    """

    filter_config: FilterConfig | None = None
    segmentation_config: SegmentationConfig | None = None
    repair: bool = True
    city_spec: CitySpec | None = None
    transition_config: TransitionConfig | None = None
    matcher: str = "incremental"
    route_cache_size: int = 50_000
    route_cache_path: str | None = None
    routing_engine: str = "dijkstra"
    ch_artifact_path: str | None = None
    #: Degraded-mode execution: per-unit guards + bounded retry inside
    #: every worker (None = historical fail-fast).  ``fault_plan`` ships
    #: the seeded chaos plan each worker activates at init, so injection
    #: decisions are identical in serial and parallel runs.
    robustness: RobustnessConfig | None = None
    fault_plan: FaultPlan | None = None
    #: The orchestrator run's trace identity; workers install it at init
    #: so every worker span carries the same ``trace_id``/``run_id`` as
    #: the orchestrator's.  (The per-chunk parent span travels separately
    #: in a :class:`~repro.obs.TraceCarrier` — it changes per chunk, the
    #: run identity does not.)  The executor stamps this automatically.
    run_context: RunContext | None = None


class WorkerContext:
    """The per-process context chunks execute against."""

    def __init__(self, payload: WorkerPayload) -> None:
        self.payload = payload
        self.pipeline = CleaningPipeline(
            payload.filter_config,
            payload.segmentation_config,
            payload.repair,
            robustness=payload.robustness,
        )
        self.city = None
        self.to_xy = None
        self.gates_by_name = {}
        self.extractor = None
        self.matcher = None
        self.route_cache = None
        self.routing_engine = None
        if payload.city_spec is not None:
            city = build_synthetic_oulu(payload.city_spec)
            projector = city.projector
            self.city = city
            self.to_xy = lambda p: projector.to_xy(p.lat, p.lon)
            gates = study_gates(city)
            self.gates_by_name = {g.name: g for g in gates}
            self.extractor = TransitionExtractor(
                gates, city.central_area, payload.transition_config
            )
            self.route_cache = RouteCache(payload.route_cache_size, payload.route_cache_path)
            self.routing_engine = make_routing_engine(
                city.graph,
                payload.routing_engine,
                ch_artifact=payload.ch_artifact_path,
            )
            self.matcher = make_matcher(
                city.graph, payload.matcher, self.route_cache, self.routing_engine
            )

    # -- chunk handlers (one per task kind) ---------------------------------

    def clean(self, trips: list) -> list:
        return self.pipeline.clean_trips(trips)

    def extract(self, segments: list[TripSegment]) -> list:
        if self.extractor is None:
            raise RuntimeError("worker has no city context (city_spec not set)")
        return self.extractor.extract_segments(segments, self.to_xy)

    def match(self, tasks: list[MatchTask]) -> list[MatchOutcome]:
        if self.matcher is None:
            raise RuntimeError("worker has no city context (city_spec not set)")
        return [
            match_task(
                self.matcher,
                self.to_xy,
                self.gates_by_name,
                self.payload.transition_config,
                task,
                robustness=self.payload.robustness,
            )
            for task in tasks
        ]


#: The process's context; set once by :func:`init_worker`.
_context: WorkerContext | None = None

#: Metrics recorded while *building* the context (route-cache warm load,
#: CH preparation).  ``init_worker`` runs outside any chunk, so without
#: this capture those counters/gauges would land in the worker's global
#: registry and never reach the orchestrator — which is exactly the bug
#: that made ``routing.route_cache_entries`` read 0 on warm-started
#: parallel runs.  The first chunk each process executes folds it in.
_init_registry: MetricsRegistry | None = None


def init_worker(payload: WorkerPayload) -> None:
    """Process-pool initialiser: build the shared per-worker context.

    Must reset observability state first — a forked worker inherits the
    parent's ambient registry binding and any open span frames, and
    metrics written there would be silently lost.  The orchestrator run's
    trace identity then comes back in via ``payload.run_context``.
    """
    global _context, _init_registry
    obs.reset_worker_state()
    set_run_context(payload.run_context)
    activate(payload.fault_plan)
    _init_registry = MetricsRegistry()
    with use_registry(_init_registry):
        _context = WorkerContext(payload)


def run_chunk(
    kind: str,
    items: list,
    inject_kill: bool = False,
    trace: TraceCarrier | None = None,
) -> tuple[list, MetricsRegistry]:
    """Process one chunk of ``kind`` tasks; return results + chunk metrics.

    The chunk-local registry travels back with the results so the parent
    can fold it into the study's registry; worker-side state never leaks
    between chunks.  With a :class:`~repro.obs.TraceCarrier`, spans
    opened inside the chunk re-parent under the orchestrator's chunk span
    and journal events buffer into ``registry.events`` for chunk-ordered
    replay by the executor.

    ``inject_kill`` is the executor-driven worker-kill fault: the process
    dies *before* touching the chunk, so the resubmitted replay neither
    duplicates nor loses any item.  The executor only ever sets it on a
    chunk's first submission.
    """
    global _init_registry
    if inject_kill:
        os._exit(86)  # hard kill: no cleanup, exactly like an OOM/SIGKILL
    if _context is None:
        # Serial in-process use (or a pool without the initializer):
        # build a context lazily from an empty payload is wrong for
        # city-bound work, so fail loudly instead of guessing.
        raise RuntimeError("run_chunk called before init_worker")
    registry = MetricsRegistry()
    if _init_registry is not None:
        registry.merge(_init_registry)
        _init_registry = None
    handler = getattr(_context, kind)
    with ExitStack() as scopes:
        scopes.enter_context(use_registry(registry))
        if trace is not None:
            if trace.run is not None:
                scopes.enter_context(use_run_context(trace.run))
            scopes.enter_context(use_parent_span(trace.parent_span_id))
            if trace.journal:
                scopes.enter_context(use_journal(BufferJournal(registry.events)))
        results = handler(items)
        if _context.route_cache is not None:
            # Last-write-wins gauge: after the orchestrator's chunk-order
            # merge this reports a live worker cache size instead of the
            # serial-only value (0 on parallel runs before this fix).
            registry.gauge("routing.route_cache_entries").set(
                len(_context.route_cache)
            )
            if trace is not None and trace.journal:
                obs.get_journal().emit(
                    "cache",
                    scope=kind,
                    hits=registry.counter("routing.route_cache_hits").value,
                    misses=registry.counter("routing.route_cache_misses").value,
                    entries=len(_context.route_cache),
                )
    return results, registry
