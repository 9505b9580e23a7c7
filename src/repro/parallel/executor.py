"""Process-pool execution of per-transition map-matching.

:class:`TripExecutor` fans chunks of :class:`~repro.parallel.MatchTask`
(map-matching plus gap-fill, the only task kind) over a
:class:`~concurrent.futures.ProcessPoolExecutor`.  Each worker builds its
context — road network, spatial index, matcher — exactly once via the
pool initialiser; tasks then only pay for shipping their own points.

Determinism contract: results come back ordered by input position and
worker registries merge into the ambient registry in chunk order, so a
run with any worker count produces exactly the serial artefacts (only
wall-time metrics differ).
"""

from __future__ import annotations

import math
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from time import perf_counter

from repro.obs import (
    TraceCarrier,
    current_parent_span_id,
    current_run,
    current_span,
    get_journal,
    get_logger,
    get_registry,
    new_span_id,
)
from repro.parallel.worker import WorkerPayload, init_worker, run_chunk

_log = get_logger(__name__)

#: Target chunks per worker: enough slack for dynamic load balancing, few
#: enough to amortise pickling.
_CHUNKS_PER_WORKER = 4

#: Upper bound on in-flight chunks per worker; submitting everything at
#: once would pickle the whole workload up front.
_INFLIGHT_PER_WORKER = 2


@dataclass(frozen=True)
class ExecutorConfig:
    """How (and whether) to pool map-matching.

    ``workers <= 1`` keeps everything serial and in-process — the
    default.
    """

    workers: int = 0

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be non-negative")


class TripExecutor:
    """Chunked process-pool fan-out with a once-per-worker context.

    Use as a context manager; the pool is created lazily on the first
    parallel call and torn down on exit.  A non-parallel executor
    (``workers <= 1``) is inert — the study checks :attr:`parallel` and
    matches inline.
    """

    def __init__(self, payload: WorkerPayload, config: ExecutorConfig | None = None) -> None:
        self.payload = payload
        self.config = config or ExecutorConfig()
        self._pool: ProcessPoolExecutor | None = None

    @property
    def parallel(self) -> bool:
        return self.config.workers > 1

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "TripExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # Stamp the orchestrator's run identity into the payload at
            # pool creation so every worker installs the same trace_id at
            # init (a pool recycled after a crash re-stamps it too).
            payload = self.payload
            run = current_run()
            if run is not None and payload.run_context != run:
                payload = replace(payload, run_context=run)
            self._pool = ProcessPoolExecutor(
                max_workers=self.config.workers,
                initializer=init_worker,
                initargs=(payload,),
            )
            _log.info("worker pool started", extra={"workers": self.config.workers})
        return self._pool

    # -- chunked mapping ----------------------------------------------------

    def _recycle_pool(self) -> None:
        """Tear down a broken pool so :meth:`_ensure_pool` rebuilds it."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def map_chunked(self, kind: str, items: list) -> list:
        """Run ``kind`` over ``items`` across the pool; ordered results.

        Chunks execute in any order on any worker; results are re-sorted
        by chunk index and worker registries merged into the ambient
        registry in that same order, so output and metrics (minus
        timings) are independent of scheduling.

        Degraded mode: a worker dying mid-chunk (chaos kill, OOM, segv)
        breaks the whole :class:`ProcessPoolExecutor`.  The executor
        recycles the pool and resubmits every chunk whose result had not
        come back — each chunk at most once, so replay can neither
        duplicate nor lose items; a chunk that kills the pool twice
        escalates.  Chunks that completed before the crash keep their
        results, preserving the byte-identical fold for survivors.
        """
        if not self.parallel:
            raise RuntimeError("map_chunked on a serial executor")
        if not items:
            return []
        size = max(1, math.ceil(len(items) / (self.config.workers * _CHUNKS_PER_WORKER)))
        chunks = [items[i : i + size] for i in range(0, len(items), size)]
        max_inflight = max(self.config.workers * _INFLIGHT_PER_WORKER, self.config.workers + 1)
        plan = self.payload.fault_plan
        kill_index = plan.kill_chunk.get(kind) if plan is not None else None
        registry = get_registry()
        journal = get_journal()
        run = current_run()
        # Per-chunk trace context: each chunk gets a synthetic "chunk"
        # span, minted up front so the carrier can ship its id to the
        # worker before the chunk runs.  The span's journal events are
        # emitted at fold time (in chunk-index order), which keeps the
        # journal layout — and the reconstructed span tree — identical
        # for any worker count or scheduling order.
        chunk_span_ids: list[str] | None = None
        parent_span_id: str | None = None
        if journal.enabled:
            chunk_span_ids = [new_span_id() for _ in chunks]
            enclosing = current_span()
            parent_span_id = (
                enclosing.span_id if enclosing is not None else current_parent_span_id()
            )
        by_chunk: dict[int, tuple[list, object]] = {}
        chunk_seconds: dict[int, float] = {}
        submitted_at: dict[int, float] = {}
        pending: dict[Future, int] = {}
        resubmitted: set[int] = set()
        todo = list(range(len(chunks)))
        pos = 0
        while pos < len(todo) or pending:
            try:
                pool = self._ensure_pool()
                while pos < len(todo) and len(pending) < max_inflight:
                    index = todo[pos]
                    pos += 1
                    inject_kill = index == kill_index and index not in resubmitted
                    trace = None
                    if chunk_span_ids is not None:
                        trace = TraceCarrier(
                            run=run,
                            parent_span_id=chunk_span_ids[index],
                            journal=True,
                        )
                    submitted_at[index] = perf_counter()
                    future = pool.submit(
                        run_chunk, kind, chunks[index], inject_kill, trace
                    )
                    pending[future] = index
                done, __ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    # Only drop from pending once the result is in hand:
                    # a raising future must still count as lost below.
                    index = pending[future]
                    by_chunk[index] = future.result()
                    chunk_seconds[index] = perf_counter() - submitted_at[index]
                    del pending[future]
            except BrokenProcessPool:
                # Harvest results that finished before the pool died.
                for future, index in list(pending.items()):
                    if future.done() and not future.cancelled():
                        try:
                            by_chunk[index] = future.result()
                            chunk_seconds[index] = (
                                perf_counter() - submitted_at[index]
                            )
                        except Exception:  # noqa: BLE001 - crashed future
                            pass
                lost = sorted(i for i in pending.values() if i not in by_chunk)
                repeat = [i for i in lost if i in resubmitted]
                if repeat:
                    raise RuntimeError(
                        f"worker pool died twice on {kind} chunks {repeat}; "
                        "giving up (chunks are resubmitted at most once)"
                    )
                resubmitted.update(lost)
                pending.clear()
                self._recycle_pool()
                todo.extend(lost)
                registry.counter("worker.restarts").inc()
                journal.emit("worker_restart", scope=kind, resubmitted=lost)
                _log.warning(
                    "worker pool broken; restarted and resubmitting chunks",
                    extra={"kind": kind, "resubmitted": lost},
                )
        counter = registry.counter(f"parallel.{kind}_chunks")
        results: list = []
        for index in range(len(chunks)):
            chunk_results, chunk_registry = by_chunk[index]
            if chunk_span_ids is not None:
                journal.emit(
                    "span_open",
                    name=f"{kind}_chunk",
                    span_id=chunk_span_ids[index],
                    parent_id=parent_span_id,
                    trace_id=run.trace_id if run is not None else None,
                    span_kind="chunk",
                    chunk_index=index,
                    items=len(chunks[index]),
                )
                for event in chunk_registry.events:
                    fields = dict(event)
                    journal.emit(fields.pop("kind", "note"), **fields)
                chunk_registry.events.clear()
                journal.emit(
                    "span_close",
                    name=f"{kind}_chunk",
                    span_id=chunk_span_ids[index],
                    seconds=round(chunk_seconds.get(index, 0.0), 6),
                    status="ok",
                )
            results.extend(chunk_results)
            registry.merge(chunk_registry)
            counter.inc()
        registry.counter(f"parallel.{kind}_items").inc(len(items))
        return results
