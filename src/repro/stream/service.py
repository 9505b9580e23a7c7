"""The streaming micro-batch ingestion service.

Consumes route-point rows in arrival order, judges each row by the batch
reader's own rule (:func:`~repro.traces.io.ingest_row`) and buffers the
fixes of each open trip per taxi.  A closed trip is cleaned, segmented,
gate-checked and map-matched by the *same* unit functions the batch
study calls — ``clean_trip_unit``, ``extract_segment``, ``match_task``
and ``transition_route_stats`` — and its results are summed by the
study's own folds (:class:`~repro.cleaning.pipeline.CleaningFold`,
:class:`~repro.od.transitions.FunnelFold` and
:class:`~repro.experiments.study.MatchFold`) in trip-id order, so a
replayed fleet produces artefacts byte-identical to ``repro study`` at
any micro-batch size (``tests/test_stream_equivalence.py``).

Ordering contract: the *first* row of each trip must arrive in
non-decreasing trip-id order (trip-major feeds, like the CSV layout,
satisfy this trivially).  A trip violating the contract is dead-lettered
through the Quarantine machinery (``stage="stream"``), never folded.
Stale open trips are closed once the event-time watermark passes their
last fix by ``trip_timeout_s``, which bounds the open-state memory.

With a checkpoint directory configured, the service state — ingest
counters, open and pending trip buffers, windows, the error ledger and
each fold's own payload — is persisted content-addressed every
``checkpoint_every`` micro-batches; a killed service resumes from the
latest checkpoint and skips the already-ingested rows
(``tests/test_stream_checkpoint.py``).
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, fields

from repro.cleaning import CleaningPipeline, CleanResult
from repro.cleaning.pipeline import CleaningFold
from repro.experiments.study import MatchFold, RouteStatsByDirection, StudyConfig
from repro.faults import ErrorRateExceeded, Quarantine, TripError, inject_faults
from repro.faults import injector as _injector
from repro.features import GridAccumulator, cell_feature_counts
from repro.features.routestats import RouteStats, transition_route_stats
from repro.matching import make_matcher
from repro.obs import (
    MetricsRegistry,
    RunContext,
    current_run,
    get_journal,
    get_logger,
    get_registry,
    run_metadata,
    span,
    use_registry,
    use_run_context,
)
from repro.od import TransitionExtractor
from repro.od.transitions import FunnelFold, FunnelRow
from repro.parallel import MatchTask, match_task, study_gates
from repro.roadnet import SyntheticCity, build_synthetic_oulu
from repro.stats import MixedModelResult
from repro.stream.checkpoint import CheckpointStore, load_checkpoint
from repro.stream.sources import open_source
from repro.traces.io import (
    _POINT_FIELDS,
    empty_trip_error,
    ingest_row,
    non_monotonic_ids_error,
)
from repro.traces.model import RoutePoint, Trip

_log = get_logger(__name__)

#: Error-ledger categories in the batch layout of ``errors.jsonl``: the
#: reader's records (bad rows, then empty trips), its non-monotonic-id
#: advisories, then the study's clean and match quarantines, then the
#: stream's own dead letters.
_LEDGER = ("io", "nonmono", "clean", "match", "stream")


@dataclass(frozen=True)
class StreamConfig:
    """Everything configurable about the streaming service."""

    #: The study parameters the stream must reproduce exactly (city,
    #: grid, transition, matcher, robustness, faults).  The executor's
    #: ``workers`` is ignored — the stream fold is serial.
    study: StudyConfig = field(default_factory=StudyConfig)
    #: Input path (CSV, growing CSV, or fifo) for :func:`open_source`.
    input: str | None = None
    mode: str = "replay"                 # replay | tail | fifo
    batch_size: int = 64                 # rows per micro-batch
    #: Event-time watermark lag that closes a stale open trip.
    trip_timeout_s: float = 1800.0
    #: Width of the windowed aggregates (event time, seconds).
    window_s: float = 86_400.0
    #: Checkpoint every N micro-batches (0 disables checkpointing).
    checkpoint_every: int = 0
    checkpoint_dir: str | None = None
    #: Tail mode: stop after this long without input growth.
    idle_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.mode not in ("replay", "tail", "fifo"):
            raise ValueError("mode must be replay, tail or fifo")
        for name in ("trip_timeout_s", "window_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be at least 0")
        if self.checkpoint_every and self.checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")

    def fingerprint(self) -> str:
        """Identity of everything that shapes artefacts (resume guard).

        ``study.executor`` is left out, as the shard store's cache keys
        leave it out (``repro.store.cachekey.EXCLUDED_FIELDS``): pool
        settings do not change what the fold computes, so a checkpoint
        resumes under any of them.
        """
        study = [
            (f.name, getattr(self.study, f.name))
            for f in fields(self.study)
            if f.name != "executor"
        ]
        return repr((study, self.window_s))


@dataclass
class _OpenTrip:
    """One taxi's trip while it is still open."""

    trip_id: int
    car_id: int
    points: list[RoutePoint] = field(default_factory=list)
    last_event_s: float = 0.0

    def to_payload(self) -> dict:
        return {
            "trip_id": self.trip_id,
            "car_id": self.car_id,
            "points": [[getattr(p, name) for name in _POINT_FIELDS] for p in self.points],
            "last_event_s": self.last_event_s,
        }

    @classmethod
    def from_payload(cls, doc: dict) -> "_OpenTrip":
        return cls(
            trip_id=doc["trip_id"],
            car_id=doc["car_id"],
            points=[RoutePoint(**dict(zip(_POINT_FIELDS, row))) for row in doc["points"]],
            last_event_s=doc["last_event_s"],
        )


@dataclass
class StreamResult(RouteStatsByDirection):
    """What one service run folded — duck-typed to the table renderers.

    ``repro.experiments.tables``/``rendering`` consume ``clean``,
    ``funnel``, ``grid``, ``cell_features`` and ``stats_by_direction()``
    exactly as they do on a :class:`~repro.experiments.study.StudyResult`.
    Matched routes are deliberately *not* retained (bounded memory), so
    the figure generators that need them are batch-only.
    """

    config: StreamConfig
    city: SyntheticCity
    clean: CleanResult
    funnel: list[FunnelRow]
    route_stats: list[RouteStats]
    grid: GridAccumulator
    cell_features: dict
    mixed: MixedModelResult | None
    #: Closed window summaries in window order (event-time aggregates).
    windows: list[dict]
    #: Quarantined units in the batch reader's category order (io rows,
    #: empty trips, non-monotonic advisories, clean, match, then
    #: stream-only dead letters) — ``errors.jsonl`` content.
    errors: list[TripError] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    rows_ingested: int = 0
    trips_seen: int = 0
    transitions_total: int = 0
    kept_count: int = 0
    checkpoints_written: int = 0


class StreamService:
    """Micro-batch ingestion over the batch study's stages and folds."""

    def __init__(self, config: StreamConfig | None = None) -> None:
        self.config = config or StreamConfig()

    # -- lifecycle ----------------------------------------------------------

    def run(
        self,
        rows=None,
        run_context: RunContext | None = None,
        resume: bool = True,
        stop_after_checkpoints: int | None = None,
    ) -> StreamResult | None:
        """Consume the source to exhaustion and return the folded result.

        ``rows`` overrides the configured source with any iterator of
        ``(row_index, row_dict)`` pairs (the differential tests drive
        this directly).  With ``resume`` and a checkpoint directory, the
        latest checkpoint is restored first and already-ingested rows are
        skipped.  ``stop_after_checkpoints`` ends the run right after
        writing that many checkpoints *in this process* and returns
        ``None`` — the in-process half of the kill/resume tests (the
        other half is the fault plan's ``kill_chunk["stream"]`` hard
        kill).
        """
        config = self.config
        run_ctx = run_context or current_run() or RunContext.create()
        registry = MetricsRegistry()
        started = time.time()
        with use_run_context(run_ctx), use_registry(registry), \
                inject_faults(config.study.faults), span("stream"):
            self._build()
            start_index = self._try_resume() if resume else 0
            if rows is None:
                if config.input is None:
                    raise ValueError("no input configured and no rows given")
                rows = open_source(
                    config.mode, config.input,
                    start_index=start_index,
                    idle_timeout_s=config.idle_timeout_s,
                )
            result = self._consume(rows, start_index, stop_after_checkpoints)
            if result is None:
                return None
        ended = time.time()
        result.metrics = registry.snapshot()
        result.metrics["meta"] = {
            **run_metadata(run_ctx),
            "started": round(started, 3),
            "ended": round(ended, 3),
            "wall_seconds": round(ended - started, 3),
        }
        return result

    def resume_checkpoint(self) -> dict | None:
        """The checkpoint this service resumes from (``None``: a fresh start).

        Raises ``ValueError`` for a checkpoint of another schema or
        written under another configuration — the one check behind both
        the resume and ``repro serve``'s refusal before it writes
        anything.
        """
        if self.config.checkpoint_dir is None:
            return None
        payload = load_checkpoint(self.config.checkpoint_dir)
        if payload is not None and payload["fingerprint"] != self.config.fingerprint():
            raise ValueError(
                "checkpoint was written under a different stream/study "
                "configuration; refusing to resume"
            )
        return payload

    def _build(self) -> None:
        """Construct the per-run machinery and zeroed fold state."""
        study = self.config.study
        with span("build_city"):
            self.city = build_synthetic_oulu(study.city)
        projector = self.city.projector

        def to_xy(p):
            return projector.to_xy(p.lat, p.lon)

        self._to_xy = to_xy
        self._extractor = TransitionExtractor(
            study_gates(self.city), self.city.central_area, study.transition
        )
        self._pipeline = CleaningPipeline(robustness=study.robustness)
        self._matcher = make_matcher(self.city.graph, study.matcher)
        self._checkpoints = (
            CheckpointStore(self.config.checkpoint_dir)
            if self.config.checkpoint_dir is not None else None
        )

        # Ingest state.
        self._rows_ingested = 0
        self._watermark = float("-inf")
        self._batch_seq = 0
        self._checkpoint_seq = 0
        self._truncated = False
        self._open: dict[int, _OpenTrip] = {}
        self._pending: dict[int, _OpenTrip] = {}
        #: Folded trips; once the feed ends every opened trip is one.
        self._retired: set[int] = set()
        self._dead: set[int] = set()
        self._max_opened = float("-inf")
        self._damaged_trip_ids: set[int] = set()
        self._windows_open: dict[int, dict] = {}
        #: Closed windows by index, so an event-time straggler folds into
        #: the already-closed entry (a late firing) instead of opening a
        #: duplicate.
        self._windows_closed: dict[int, dict] = {}

        # One quarantine per ledger category, so the final errors.jsonl
        # matches the batch layout whatever order things happened in.
        self._ledger = {name: Quarantine() for name in _LEDGER}
        # The batch study's folds, fed one closed trip at a time.
        self._cleaning = CleaningFold(
            self._pipeline.filter_config, self._ledger["clean"]
        )
        self._funnel = FunnelFold()
        self._match = MatchFold(study.grid, self._ledger["match"])

    # -- ingest -------------------------------------------------------------

    def _consume(
        self, rows, start_index: int, stop_after_checkpoints: int | None
    ) -> StreamResult | None:
        config = self.config
        self._rows_ingested = max(self._rows_ingested, start_index)
        registry = get_registry()
        journal = get_journal()
        wrote_here = 0
        batch_rows = 0
        for index, row in rows:
            self._ingest_row(index, row)
            self._rows_ingested = index + 1
            batch_rows += 1
            registry.counter("stream.rows_in").inc()
            if self._truncated:
                break
            if batch_rows >= config.batch_size:
                self._batch_seq += 1
                registry.counter("stream.batches").inc()
                self._close_stale()
                self._fold_ready()
                if journal.enabled:
                    journal.emit(
                        "stream.batch",
                        batch_seq=self._batch_seq,
                        rows=batch_rows,
                        rows_ingested=self._rows_ingested,
                        open_trips=len(self._open),
                        watermark=self._watermark
                        if self._watermark != float("-inf") else None,
                    )
                batch_rows = 0
                if (
                    config.checkpoint_every
                    and self._batch_seq % config.checkpoint_every == 0
                ):
                    self._write_checkpoint()
                    wrote_here += 1
                    if (
                        stop_after_checkpoints is not None
                        and wrote_here >= stop_after_checkpoints
                    ):
                        return None
        return self._finalize(wrote_here)

    def _ingest_row(self, index: int, row: dict) -> None:
        """One raw CSV row, judged by the batch reader's own rule."""
        parsed = ingest_row(index, row, self._ledger["io"])
        if isinstance(parsed, TripError):
            if parsed.kind == "truncated_file":
                self._truncated = True
            elif parsed.trip_id is not None:
                self._damaged_trip_ids.add(parsed.trip_id)
            return
        self._accept(*parsed)

    def _dead_letter(self, trip_id: int, kind: str, message: str) -> None:
        self._ledger["stream"].add(
            TripError(stage="stream", kind=kind, message=message, trip_id=trip_id)
        )
        self._dead.add(trip_id)
        get_registry().counter("stream.dead_letters").inc()
        journal = get_journal()
        if journal.enabled:
            # ``reason_kind``, not ``kind``: emit() kwargs merge into the
            # event record, whose own ``kind`` is the event name.
            journal.emit(
                "stream.dead_letter", trip_id=trip_id, reason_kind=kind
            )

    def _accept(self, point: RoutePoint, car_id: int) -> None:
        """Route one parsed fix into its taxi's open trip."""
        self._watermark = max(self._watermark, point.time_s)
        trip_id = point.trip_id
        if trip_id in self._dead:
            get_registry().counter("stream.dead_letter_rows").inc()
            return
        open_trip = self._open.get(trip_id)
        if open_trip is None:
            pending = self._pending.pop(trip_id, None)
            if pending is not None:
                # Late data for a timeout-closed but not-yet-folded trip:
                # reopen, nothing was lost.
                self._open[trip_id] = open_trip = pending
            elif trip_id in self._retired:
                self._dead_letter(
                    trip_id, "late_data",
                    f"trip {trip_id}: fix arrived after the trip was folded",
                )
                return
            elif trip_id < self._max_opened:
                self._dead_letter(
                    trip_id, "out_of_order_trip",
                    f"trip {trip_id}: first fix arrived after trip "
                    f"{int(self._max_opened)} opened (ordering contract)",
                )
                return
            else:
                open_trip = _OpenTrip(trip_id=trip_id, car_id=car_id)
                self._open[trip_id] = open_trip
                self._max_opened = trip_id
                journal = get_journal()
                if journal.enabled:
                    journal.emit("stream.trip_open", trip_id=trip_id,
                                 car_id=car_id)
        open_trip.points.append(point)
        open_trip.last_event_s = max(open_trip.last_event_s, point.time_s)

    # -- trip lifecycle -----------------------------------------------------

    def _close_stale(self) -> None:
        timeout = self.config.trip_timeout_s
        for trip_id in [
            t for t, o in self._open.items()
            if self._watermark - o.last_event_s > timeout
        ]:
            self._close(trip_id, reason="timeout")

    def _close(self, trip_id: int, reason: str) -> None:
        open_trip = self._open.pop(trip_id)
        self._pending[trip_id] = open_trip
        get_registry().counter("stream.trips_closed").inc()
        journal = get_journal()
        if journal.enabled:
            journal.emit(
                "stream.trip_close",
                trip_id=trip_id,
                reason=reason,
                points=len(open_trip.points),
            )

    def _fold_ready(self) -> None:
        """Fold every pending trip no earlier trip can still preempt."""
        frontier = min(self._open) if self._open else None
        ready = sorted(
            t for t in self._pending if frontier is None or t < frontier
        )
        for trip_id in ready:
            self._fold_trip(self._pending.pop(trip_id))

    # -- windows --------------------------------------------------------------

    def _window(self, time_s: float) -> dict:
        index = int(time_s // self.config.window_s)
        closed = self._windows_closed.get(index)
        if closed is not None:
            # Late data for a closed window: the feed's trip ids are not
            # event-time ordered (car-major replay), so folds can lag the
            # watermark by days.  Update the closed aggregate in place —
            # ``windows.jsonl`` reports final values either way.
            get_registry().counter("stream.window_late_folds").inc()
            return closed
        return self._windows_open.setdefault(index, {
            "window": index,
            "start_s": index * self.config.window_s,
            "end_s": (index + 1) * self.config.window_s,
            "trips": 0, "points": 0, "quarantined": 0, "segments": 0,
            "transitions": 0, "kept": 0, "speed_sum": 0.0, "speed_n": 0,
        })

    def _close_windows(self, all_windows: bool = False) -> None:
        # A window is final once the watermark has passed its end by the
        # trip timeout AND no buffered trip still starts inside it — a
        # straggler that opened near the window edge must fold into its
        # start window, never into a reopened duplicate.
        horizon = self._watermark - self.config.trip_timeout_s
        buffered = [
            t.points[0].time_s
            for t in (*self._open.values(), *self._pending.values())
            if t.points
        ]
        if buffered:
            horizon = min(horizon, min(buffered))
        journal = get_journal()
        registry = get_registry()
        for index in sorted(self._windows_open):
            window = self._windows_open[index]
            if not all_windows and window["end_s"] > horizon:
                continue
            del self._windows_open[index]
            self._windows_closed[index] = window
            registry.counter("stream.windows_closed").inc()
            if journal.enabled:
                journal.emit("stream.window_close", **window)

    # -- the fold (the batch study's stages, one trip at a time) ------------

    def _fold_trip(self, open_trip: _OpenTrip) -> None:
        trip_id = open_trip.trip_id
        self._retired.add(trip_id)
        get_registry().counter("stream.trips_folded").inc()
        points = open_trip.points
        window = self._window(points[0].time_s)
        window["trips"] += 1
        window["points"] += len(points)
        advisory = non_monotonic_ids_error(trip_id, points)
        if advisory is not None:
            self._ledger["nonmono"].add(advisory)
        trip = Trip(trip_id=trip_id, car_id=open_trip.car_id, points=list(points))
        result = self._pipeline.clean_trip_unit(trip)
        if isinstance(result, TripError):
            window["quarantined"] += 1
        kept = self._cleaning.add(trip, result)
        window["segments"] += len(kept)
        for seg in kept:
            self._fold_segment(seg, window)
        self._close_windows()

    def _fold_segment(self, seg, window: dict) -> None:
        study = self.config.study
        extraction = self._extractor.extract_segment(seg, self._to_xy)
        transition = self._funnel.add(seg, extraction)
        if transition is None:
            return
        window["transitions"] += 1
        task = MatchTask.from_transition(self._match.transitions, transition)
        outcome = match_task(
            self._matcher, self._to_xy, self._extractor.gates_by_name,
            study.transition, task, robustness=study.robustness,
        )
        if not self._match.add_outcome(transition, outcome):
            return
        route = outcome.route
        self._match.add_route(
            transition_route_stats(
                transition, route, self.city.graph, self.city.map_db
            ),
            route,
        )
        window["kept"] += 1
        for m in route.matched:
            window["speed_sum"] += m.point.speed_kmh
            window["speed_n"] += 1

    # -- finalisation -------------------------------------------------------

    def _finalize(self, wrote_here: int) -> StreamResult:
        study = self.config.study
        for trip_id in list(self._open):
            self._close(trip_id, reason="eof")
        self._fold_ready()
        assert not self._pending, "fold frontier left pending trips"
        self._close_windows(all_windows=True)
        # Batch-reader tail: trips whose every row was malformed.
        for trip_id in sorted(self._damaged_trip_ids - self._retired):
            self._ledger["io"].add(empty_trip_error(trip_id))
        errors = [e for q in self._ledger.values() for e in q.errors]
        # Degraded-mode verdict over the batch study's populations, trips
        # ingested plus transitions matched: the reader's records are
        # reported but never counted there either.
        verdict = Quarantine(
            study.robustness.max_error_rate
            if study.robustness is not None else None
        )
        verdict.errors = [
            e for name in ("clean", "match", "stream")
            for e in self._ledger[name].errors
        ]
        try:
            verdict.check(len(self._retired) + self._match.transitions)
        except ErrorRateExceeded as exc:
            raise ErrorRateExceeded(exc.rate, exc.max_rate, errors) from None
        clean = CleanResult(segments=[], report=self._cleaning.finish())
        self._funnel.publish()
        with span("features"):
            cell_features = cell_feature_counts(
                study.grid, self.city.map_db, self.city.graph,
                list(self._match.grid.cells()),
            )
        with span("mixed_model"):
            mixed = self._match.mixed_model()
        _log.info(
            "stream drained",
            extra={
                "rows": self._rows_ingested,
                "trips": len(self._retired),
                "transitions": self._match.transitions,
                "kept": len(self._match.kept),
                "errors": len(errors),
            },
        )
        return StreamResult(
            config=self.config,
            city=self.city,
            clean=clean,
            funnel=self._match.funnel(self._funnel.rows()),
            route_stats=self._match.route_stats,
            grid=self._match.grid,
            cell_features=cell_features,
            mixed=mixed,
            windows=[self._windows_closed[i] for i in sorted(self._windows_closed)],
            errors=errors,
            rows_ingested=self._rows_ingested,
            trips_seen=len(self._retired),
            transitions_total=self._match.transitions,
            kept_count=len(self._match.kept),
            checkpoints_written=wrote_here,
        )

    # -- checkpoints --------------------------------------------------------

    def _write_checkpoint(self) -> None:
        self._checkpoint_seq += 1
        self._checkpoints.write(self._checkpoint_payload())
        plan = _injector.active_plan()
        if plan is not None and plan.kill_chunk.get("stream") == self._checkpoint_seq:
            # The chaos plan kills the service right after this
            # checkpoint lands — exactly like an OOM/SIGKILL, so the
            # resume path is what the crash tests actually exercise.
            os._exit(1)

    def _checkpoint_payload(self) -> dict:
        return {
            "fingerprint": self.config.fingerprint(),
            "checkpoint_seq": self._checkpoint_seq,
            "batch_seq": self._batch_seq,
            "rows_ingested": self._rows_ingested,
            "watermark": self._watermark
            if self._watermark != float("-inf") else None,
            "truncated": self._truncated,
            "max_opened": int(self._max_opened)
            if self._max_opened != float("-inf") else None,
            "damaged_trip_ids": sorted(self._damaged_trip_ids),
            "retired": sorted(self._retired),
            "dead": sorted(self._dead),
            "open": [self._open[t].to_payload() for t in sorted(self._open)],
            "pending": [self._pending[t].to_payload() for t in sorted(self._pending)],
            "windows_open": [self._windows_open[i] for i in sorted(self._windows_open)],
            "windows_closed": [
                self._windows_closed[i] for i in sorted(self._windows_closed)
            ],
            "errors": {
                name: [e.to_dict() for e in q.errors]
                for name, q in self._ledger.items()
            },
            "cleaning": self._cleaning.to_payload(),
            "funnel": self._funnel.to_payload(),
            "match": self._match.to_payload(),
        }

    def _try_resume(self) -> int:
        """Restore the latest checkpoint; returns the next row index."""
        payload = self.resume_checkpoint()
        if payload is None:
            return 0
        self._checkpoint_seq = payload["checkpoint_seq"]
        self._batch_seq = payload["batch_seq"]
        self._rows_ingested = payload["rows_ingested"]
        if payload["watermark"] is not None:
            self._watermark = payload["watermark"]
        self._truncated = payload["truncated"]
        if payload["max_opened"] is not None:
            self._max_opened = payload["max_opened"]
        self._damaged_trip_ids = set(payload["damaged_trip_ids"])
        self._retired = set(payload["retired"])
        self._dead = set(payload["dead"])
        self._open = {
            doc["trip_id"]: _OpenTrip.from_payload(doc) for doc in payload["open"]
        }
        self._pending = {
            doc["trip_id"]: _OpenTrip.from_payload(doc) for doc in payload["pending"]
        }
        self._windows_open = {w["window"]: w for w in payload["windows_open"]}
        self._windows_closed = {w["window"]: w for w in payload["windows_closed"]}
        for name, records in payload["errors"].items():
            self._ledger[name].errors = [TripError(**d) for d in records]
        self._cleaning.restore(payload["cleaning"])
        self._funnel.restore(payload["funnel"])
        self._match.restore(payload["match"])
        get_registry().counter("stream.resumes").inc()
        journal = get_journal()
        if journal.enabled:
            journal.emit(
                "stream.resume",
                checkpoint_seq=self._checkpoint_seq,
                rows_ingested=self._rows_ingested,
                open_trips=len(self._open),
                trips_folded=len(self._retired),
            )
        _log.info(
            "resumed from checkpoint",
            extra={"checkpoint_seq": self._checkpoint_seq,
                   "rows_ingested": self._rows_ingested,
                   "open_trips": len(self._open)},
        )
        return self._rows_ingested


__all__ = ["StreamConfig", "StreamResult", "StreamService"]
