"""The streaming micro-batch ingestion service.

Consumes route-point rows in arrival order and maintains per-taxi
incremental state: an open trip buffer, Table 2 segmentation rules
previewed on arrival, gate-crossing detection against the study gates,
and (optionally) a live serialisable
:class:`~repro.matching.MatcherState` fed fix by fix.  Closed trips fold
through the *same* stage functions the batch study runs —
``clean_trip_unit``, ``extract_segment``, ``match_task``,
``transition_route_stats`` and the Welford grid — in trip-id order, so a
replayed fleet produces artefacts byte-identical to ``repro study`` at
any micro-batch size (``tests/test_stream_equivalence.py``).

Ordering contract: the *first* row of each trip must arrive in
non-decreasing trip-id order (trip-major feeds, like the CSV layout,
satisfy this trivially).  A trip violating the contract is dead-lettered
through the Quarantine machinery (``stage="stream"``), never folded.
Stale open trips are closed once the event-time watermark passes their
last fix by ``trip_timeout_s``, which bounds the open-state memory.

With a checkpoint directory configured, the full service state — matcher
states, open buffers, window partials, folded aggregates and the error
ledger — is persisted content-addressed every ``checkpoint_every``
micro-batches; a killed service resumes from the latest checkpoint and
skips the already-ingested rows (``tests/test_stream_checkpoint.py``).
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field, fields

from repro.cleaning import CleaningPipeline, CleanResult
from repro.cleaning.filters import filter_segments
from repro.cleaning.pipeline import STAGES, CleaningReport
from repro.cleaning.segmentation import _stop_rule
from repro.faults import ErrorRateExceeded, Quarantine, TripError, inject_faults
from repro.faults import injector as _injector
from repro.faults.errors import ADVISORY_KINDS
from repro.features import GridAccumulator, cell_feature_counts
from repro.features.grid import CellStats
from repro.features.routestats import RouteStats, transition_route_stats
from repro.matching import IncrementalMatcher, MatcherState, make_matcher
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
from repro.od.transitions import FunnelRow
from repro.parallel import MatchTask, match_task, study_gates
from repro.roadnet import RouteCache, SyntheticCity, build_synthetic_oulu
from repro.stats import MixedModelResult, RandomInterceptModel
from repro.stream.checkpoint import CheckpointStore
from repro.stream.sources import open_source
from repro.experiments.study import StudyConfig
from repro.traces.io import _POINT_FIELDS, parse_point_row, row_trip_id
from repro.traces.model import RoutePoint, Trip

_log = get_logger(__name__)


@dataclass(frozen=True)
class StreamConfig:
    """Everything configurable about the streaming service."""

    #: The study parameters the stream must reproduce exactly (city,
    #: grid, transition, matcher, robustness, faults).  The executor's
    #: ``workers`` is ignored — the stream fold is serial — but its
    #: ``route_cache_path`` applies.
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
    #: Feed open trips through a live :class:`MatcherState` on arrival
    #: (observational — final artefacts always come from the fold).
    live_match: bool = False
    #: Tail mode: stop after this long without input growth.
    idle_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.mode not in ("replay", "tail", "fifo"):
            raise ValueError("mode must be replay, tail or fifo")
        if self.checkpoint_every and self.checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")

    def fingerprint(self) -> str:
        """Identity of everything that shapes artefacts (resume guard).

        ``study.executor`` is left out, as the shard store's cache keys
        leave it out (``repro.store.cachekey.EXCLUDED_FIELDS``): pool and
        cache settings do not change what the fold computes, so a
        checkpoint resumes under any of them.
        """
        study = [
            (f.name, getattr(self.study, f.name))
            for f in fields(self.study)
            if f.name != "executor"
        ]
        return repr((study, self.window_s, self.live_match))


@dataclass
class _OpenTrip:
    """Per-taxi incremental state while a trip is still open."""

    trip_id: int
    car_id: int
    points: list[RoutePoint] = field(default_factory=list)
    last_event_s: float = 0.0
    prev_xy: tuple[float, float] | None = None
    #: Table 2 rules previewed on arrival: ``{rule: hits}``.
    rule_preview: dict[int, int] = field(default_factory=dict)
    #: Gate names whose road the raw track crossed so far.
    gates_crossed: list[str] = field(default_factory=list)
    #: Live matcher state (``live_match`` only).
    matcher_state: MatcherState | None = None


@dataclass
class StreamResult:
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

    def stats_by_direction(self) -> dict[str, list[RouteStats]]:
        out: dict[str, list[RouteStats]] = {}
        for s in self.route_stats:
            out.setdefault(s.direction, []).append(s)
        return out


class StreamService:
    """Micro-batch ingestion over the batch study's stage functions."""

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
            start_index = 0
            if resume and config.checkpoint_dir is not None:
                start_index = self._try_resume()
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

    def _build(self) -> None:
        """Construct the per-run machinery and zeroed fold state."""
        study = self.config.study
        with span("build_city"):
            self.city = build_synthetic_oulu(study.city)
        projector = self.city.projector

        def to_xy(p):
            return projector.to_xy(p.lat, p.lon)

        self._to_xy = to_xy
        self._gates = study_gates(self.city)
        self._extractor = TransitionExtractor(
            self._gates, self.city.central_area, study.transition
        )
        self._pipeline = CleaningPipeline(robustness=study.robustness)
        self._route_cache = RouteCache(path=study.executor.route_cache_path)
        self._matcher = make_matcher(self.city.graph, study.matcher, self._route_cache)
        #: Dedicated live matcher (feed-only; no gap fill, no counters).
        self._live_matcher = IncrementalMatcher(self.city.graph)
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
        self._retired: set[int] = set()
        self._dead: set[int] = set()
        self._max_opened = float("-inf")
        self._valid_trip_ids: set[int] = set()
        self._damaged_trip_ids: set[int] = set()

        # Fold state (mirrors the batch study's artefact accumulators).
        self._report = CleaningReport()
        self._stage_s = dict.fromkeys(STAGES, 0.0)
        self._next_segment_id = 1
        self._transition_count = 0
        self._kept_count = 0
        self._trips_folded = 0
        self._per_car: dict[int, dict[str, int]] = {}
        self._post_per_car: dict[int, int] = {}
        self._route_stats: list[RouteStats] = []
        self._grid = GridAccumulator(self.config.study.grid)
        self._speeds: list[float] = []
        self._cells: list = []
        self._windows_open: dict[int, dict] = {}
        self._windows_closed: list[dict] = []
        #: Closed windows by index, so an event-time straggler folds into
        #: the already-closed entry (a late firing) instead of opening a
        #: duplicate.
        self._windows_closed_by_index: dict[int, dict] = {}

        # Error ledger, held per batch-reader category so the final
        # errors.jsonl matches the batch layout regardless of the order
        # things actually happened in.
        self._io_q = Quarantine()
        self._q = Quarantine()
        self._io_errors: list[TripError] = []
        self._nonmono_errors: list[TripError] = []
        self._clean_errors: list[TripError] = []
        self._match_errors: list[TripError] = []
        self._stream_errors: list[TripError] = []

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
        """One raw CSV row — the exact per-row logic of the batch reader."""
        if _injector.truncate_at(index):
            error = TripError(
                stage="io", kind="truncated_file",
                message=f"input truncated before row {index}",
                row=index, fault_tag="injected:io",
            )
            self._io_q.add(error)
            self._io_errors.append(error)
            self._truncated = True
            return
        fault_tag = None
        corrupted = _injector.corrupt_row(index, row)
        if corrupted is not None:
            row = corrupted
            fault_tag = "injected:io"
        try:
            point, car_id = parse_point_row(row)
        except ValueError as exc:
            get_registry().counter("io.rows_quarantined").inc()
            trip_id = row_trip_id(row)
            if trip_id is not None:
                self._damaged_trip_ids.add(trip_id)
            error = TripError(
                stage="io", kind=str(exc).split(":", 1)[0],
                message=str(exc), trip_id=trip_id, row=index,
                fault_tag=fault_tag,
            )
            self._io_q.add(error)
            self._io_errors.append(error)
            return
        self._accept(point, car_id)

    def _dead_letter(self, trip_id: int, kind: str, message: str) -> None:
        error = TripError(stage="stream", kind=kind, message=message,
                          trip_id=trip_id)
        self._q.add(error)
        self._stream_errors.append(error)
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
        """Route one parsed fix into its per-taxi incremental state."""
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
                if self.config.live_match:
                    open_trip.matcher_state = self._live_matcher.begin(
                        segment_id=0, car_id=car_id
                    )
                self._open[trip_id] = open_trip
                self._max_opened = trip_id
                self._valid_trip_ids.add(trip_id)
                journal = get_journal()
                if journal.enabled:
                    journal.emit("stream.trip_open", trip_id=trip_id,
                                 car_id=car_id)
        registry = get_registry()
        prev = open_trip.points[-1] if open_trip.points else None
        open_trip.points.append(point)
        open_trip.last_event_s = max(open_trip.last_event_s, point.time_s)
        # On-arrival Table 2 rule preview (observational — the fold's
        # two-round segmentation is authoritative).
        if prev is not None:
            seg_config = self._pipeline.segmentation_config
            rule = _stop_rule(prev, point, seg_config, seg_config.rule1_window_s)
            if rule:
                open_trip.rule_preview[rule] = open_trip.rule_preview.get(rule, 0) + 1
                registry.counter("stream.rule_preview").inc()
        # On-arrival gate-crossing detection on the raw track.
        xy = self._to_xy(point)
        if open_trip.prev_xy is not None:
            for gate in self._gates:
                if gate.crossed_by(open_trip.prev_xy, xy):
                    registry.counter("stream.gate_crossings").inc()
                    if gate.name not in open_trip.gates_crossed:
                        open_trip.gates_crossed.append(gate.name)
        open_trip.prev_xy = xy
        if open_trip.matcher_state is not None:
            self._live_matcher.feed(open_trip.matcher_state, point, self._to_xy)
            registry.counter("stream.live_points").inc()

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
                gates_crossed=list(open_trip.gates_crossed),
                rule_preview={
                    str(r): n for r, n in sorted(open_trip.rule_preview.items())
                },
                live_matched=len(open_trip.matcher_state.decided)
                if open_trip.matcher_state is not None else None,
            )

    def _fold_ready(self) -> None:
        """Fold every pending trip no earlier trip can still preempt."""
        frontier = min(self._open) if self._open else None
        ready = sorted(
            t for t in self._pending if frontier is None or t < frontier
        )
        for trip_id in ready:
            self._fold_trip(self._pending.pop(trip_id))

    # -- the fold (the batch study's stages, one trip at a time) ------------

    def _window_of(self, time_s: float) -> int:
        return int(time_s // self.config.window_s)

    def _window(self, index: int) -> dict:
        closed = self._windows_closed_by_index.get(index)
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
            self._windows_closed.append(window)
            self._windows_closed_by_index[index] = window
            registry.counter("stream.windows_closed").inc()
            if journal.enabled:
                journal.emit("stream.window_close", **window)

    def _fold_trip(self, open_trip: _OpenTrip) -> None:
        trip_id = open_trip.trip_id
        self._retired.add(trip_id)
        self._trips_folded += 1
        get_registry().counter("stream.trips_folded").inc()
        points = open_trip.points
        window = self._window(self._window_of(points[0].time_s))
        window["trips"] += 1
        window["points"] += len(points)
        # Batch-reader advisory: regressing point ids (kept; repaired).
        ids = [p.point_id for p in points]
        if any(b <= a for a, b in zip(ids, ids[1:])):
            error = TripError(
                stage="io", kind="non_monotonic_ids",
                message=f"trip {trip_id}: point ids not strictly "
                        "increasing (kept; ordering repair applies)",
                trip_id=trip_id,
            )
            self._io_q.add(error)
            self._nonmono_errors.append(error)
        trip = Trip(trip_id=trip_id, car_id=open_trip.car_id,
                    points=list(points))
        report = self._report
        report.trips_in += 1
        report.points_in += len(points)
        trip_result = self._pipeline.clean_trip_unit(trip)
        journal = get_journal()
        if isinstance(trip_result, TripError):
            self._q.add(trip_result)
            self._clean_errors.append(trip_result)
            report.errors.append(trip_result)
            window["quarantined"] += 1
            if journal.enabled:
                journal.emit(
                    "lineage", unit="trip", trip_id=trip_id,
                    disposition="quarantined", stage=trip_result.stage,
                    reason=trip_result.kind, fault_tag=trip_result.fault_tag,
                )
            self._close_windows()
            return
        if journal.enabled:
            journal.emit(
                "lineage", unit="trip", trip_id=trip_id,
                disposition="cleaned",
                segments=len(trip_result.segments),
                reordered=trip_result.reordered,
                duplicates_removed=trip_result.duplicates_removed,
                outliers_removed=trip_result.outliers_removed,
                out_of_bounds_removed=trip_result.out_of_bounds_removed,
                rules={
                    rule: hits
                    for rule, hits in sorted(
                        trip_result.segmentation.rule_hits.items()
                    )
                    if hits
                },
            )
        if trip_result.reordered:
            report.reordered_trips += 1
            report.reordering_saved_m += trip_result.reordering_saved_m
        report.duplicates_removed += trip_result.duplicates_removed
        report.outliers_removed += trip_result.outliers_removed
        report.out_of_bounds_removed += trip_result.out_of_bounds_removed
        report.segmentation.merge(trip_result.segmentation)
        for stage, seconds in trip_result.stage_seconds.items():
            self._stage_s[stage] += seconds
        # Fleet-sequential ids before the segment filter, as in the batch
        # fold (dropped segments consume ids too).
        for segment in trip_result.segments:
            segment.segment_id = self._next_segment_id
            self._next_segment_id += 1
        kept_segs, dropped_short, dropped_long = filter_segments(
            trip_result.segments, self._pipeline.filter_config
        )
        report.segments_dropped_short += dropped_short
        report.segments_dropped_long += dropped_long
        report.segments_out += len(kept_segs)
        report.points_out += sum(len(s.points) for s in kept_segs)
        window["segments"] += len(kept_segs)
        for seg in kept_segs:
            self._fold_segment(seg, window)
        self._close_windows()

    def _fold_segment(self, seg, window: dict) -> None:
        study = self.config.study
        extraction = self._extractor.extract_segment(seg, self._to_xy)
        stats = self._per_car.setdefault(
            extraction.car_id,
            {"total": 0, "filtered": 0, "transitions": 0, "centre": 0},
        )
        registry = get_registry()
        journal = get_journal()
        stats["total"] += 1
        registry.counter("od.segments_total").inc()
        transition = extraction.transition
        if journal.enabled:
            journal.emit(
                "lineage", unit="segment",
                segment_id=seg.segment_id,
                car_id=extraction.car_id,
                gate_crossed=extraction.crossed,
                direction=transition.direction if transition else None,
                within_centre=bool(transition.within_centre)
                if transition else False,
            )
        if not extraction.crossed:
            return
        stats["filtered"] += 1
        registry.counter("od.filtered_cleaned").inc()
        if transition is None:
            return
        stats["transitions"] += 1
        registry.counter("od.transitions_total").inc()
        if not transition.within_centre:
            return
        stats["centre"] += 1
        registry.counter("od.within_centre").inc()
        index = self._transition_count
        self._transition_count += 1
        window["transitions"] += 1
        task = MatchTask.from_transition(index, transition)
        outcome = match_task(
            self._matcher, self._to_xy, self._extractor.gates_by_name,
            study.transition, task, robustness=study.robustness,
        )
        if journal.enabled:
            journal.emit(
                "lineage", unit="transition",
                transition_index=index,
                segment_id=seg.segment_id,
                car_id=seg.car_id,
                direction=transition.direction,
                matched=outcome.route is not None,
                kept=bool(outcome.kept),
                match_seconds=round(outcome.elapsed_s, 6),
                route_source=outcome.route_source,
                quarantined=outcome.error is not None,
            )
        if outcome.error is not None:
            self._q.add(outcome.error)
            self._match_errors.append(outcome.error)
        if outcome.route is None:
            transition.post_filtered_ok = False
            return
        transition.post_filtered_ok = outcome.kept
        if not outcome.kept:
            return
        self._kept_count += 1
        self._post_per_car[seg.car_id] = self._post_per_car.get(seg.car_id, 0) + 1
        window["kept"] += 1
        self._route_stats.append(
            transition_route_stats(
                transition, outcome.route, self.city.graph, self.city.map_db
            )
        )
        for m in outcome.route.matched:
            key = self._grid.add_point(m.snapped_xy, m.point.speed_kmh)
            self._speeds.append(m.point.speed_kmh)
            self._cells.append(key)
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
        empty_errors: list[TripError] = []
        for trip_id in sorted(self._damaged_trip_ids - self._valid_trip_ids):
            error = TripError(
                stage="io", kind="empty_trip",
                message=f"trip {trip_id}: every row was malformed",
                trip_id=trip_id,
            )
            self._io_q.add(error)
            empty_errors.append(error)
        errors = (
            list(self._io_errors) + empty_errors + list(self._nonmono_errors)
            + list(self._clean_errors) + list(self._match_errors)
            + list(self._stream_errors)
        )
        # Degraded-mode verdict over the same populations as the batch
        # study: trips ingested + transitions matched; io records are
        # reported but never counted (the reader quarantine is separate
        # there too).
        max_rate = (
            study.robustness.max_error_rate
            if study.robustness is not None else None
        )
        counted = [
            e for e in (
                self._clean_errors + self._match_errors + self._stream_errors
            )
            if e.kind not in ADVISORY_KINDS
        ]
        total_units = len(self._valid_trip_ids) + self._transition_count
        if max_rate is not None:
            rate = len(counted) / max(1, total_units)
            if rate > max_rate:
                raise ErrorRateExceeded(rate, max_rate, errors)
        self._report.stage_seconds = dict(self._stage_s)
        self._pipeline._publish(self._report)
        funnel = [
            FunnelRow(
                car_id=car,
                total_segments=s["total"],
                filtered_cleaned=s["filtered"],
                transitions_total=s["transitions"],
                within_centre=s["centre"],
                post_filtered=self._post_per_car.get(car, 0),
            )
            for car, s in sorted(self._per_car.items())
        ]
        with span("features"):
            cell_features = cell_feature_counts(
                study.grid, self.city.map_db, self.city.graph,
                list(self._grid.cells()),
            )
        mixed: MixedModelResult | None = None
        with span("mixed_model"):
            if len(set(self._cells)) >= 3 and len(self._speeds) >= 10:
                mixed = RandomInterceptModel().fit(self._speeds, self._cells)
        if study.executor.route_cache_path is not None:
            self._route_cache.save()
        _log.info(
            "stream drained",
            extra={
                "rows": self._rows_ingested,
                "trips": self._trips_folded,
                "transitions": self._transition_count,
                "kept": self._kept_count,
                "errors": len(errors),
            },
        )
        return StreamResult(
            config=self.config,
            city=self.city,
            clean=CleanResult(segments=[], report=self._report),
            funnel=funnel,
            route_stats=list(self._route_stats),
            grid=self._grid,
            cell_features=cell_features,
            mixed=mixed,
            windows=sorted(self._windows_closed, key=lambda w: w["window"]),
            errors=errors,
            rows_ingested=self._rows_ingested,
            trips_seen=len(self._valid_trip_ids),
            transitions_total=self._transition_count,
            kept_count=self._kept_count,
            checkpoints_written=wrote_here,
        )

    # -- checkpoints --------------------------------------------------------

    def _write_checkpoint(self) -> None:
        self._checkpoint_seq += 1
        payload = self._checkpoint_payload()
        self._checkpoints.write(payload)
        plan = _injector.active_plan()
        if plan is not None and plan.kill_chunk.get("stream") == self._checkpoint_seq:
            # The chaos plan kills the service right after this
            # checkpoint lands — exactly like an OOM/SIGKILL, so the
            # resume path is what the crash tests actually exercise.
            os._exit(1)

    @staticmethod
    def _point_rows(points: list[RoutePoint]) -> list[list]:
        return [[getattr(p, name) for name in _POINT_FIELDS] for p in points]

    @staticmethod
    def _points_from_rows(rows: list[list]) -> list[RoutePoint]:
        return [RoutePoint(**dict(zip(_POINT_FIELDS, row))) for row in rows]

    def _open_trip_payload(self, open_trip: _OpenTrip) -> dict:
        return {
            "trip_id": open_trip.trip_id,
            "car_id": open_trip.car_id,
            "points": self._point_rows(open_trip.points),
            "last_event_s": open_trip.last_event_s,
            "prev_xy": list(open_trip.prev_xy)
            if open_trip.prev_xy is not None else None,
            "rule_preview": {
                str(r): n for r, n in sorted(open_trip.rule_preview.items())
            },
            "gates_crossed": list(open_trip.gates_crossed),
            "matcher_state": open_trip.matcher_state.to_payload()
            if open_trip.matcher_state is not None else None,
        }

    def _open_trip_from_payload(self, doc: dict) -> _OpenTrip:
        return _OpenTrip(
            trip_id=doc["trip_id"],
            car_id=doc["car_id"],
            points=self._points_from_rows(doc["points"]),
            last_event_s=doc["last_event_s"],
            prev_xy=tuple(doc["prev_xy"]) if doc["prev_xy"] is not None else None,
            rule_preview={int(r): n for r, n in doc["rule_preview"].items()},
            gates_crossed=list(doc["gates_crossed"]),
            matcher_state=MatcherState.from_payload(doc["matcher_state"])
            if doc["matcher_state"] is not None else None,
        )

    def _checkpoint_payload(self) -> dict:
        report = self._report
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
            "valid_trip_ids": sorted(self._valid_trip_ids),
            "damaged_trip_ids": sorted(self._damaged_trip_ids),
            "retired": sorted(self._retired),
            "dead": sorted(self._dead),
            "trips_folded": self._trips_folded,
            "next_segment_id": self._next_segment_id,
            "transition_count": self._transition_count,
            "kept_count": self._kept_count,
            "open": [
                self._open_trip_payload(self._open[t])
                for t in sorted(self._open)
            ],
            "pending": [
                self._open_trip_payload(self._pending[t])
                for t in sorted(self._pending)
            ],
            "report": {
                "trips_in": report.trips_in,
                "points_in": report.points_in,
                "reordered_trips": report.reordered_trips,
                "reordering_saved_m": report.reordering_saved_m,
                "duplicates_removed": report.duplicates_removed,
                "outliers_removed": report.outliers_removed,
                "out_of_bounds_removed": report.out_of_bounds_removed,
                "rule_hits": {
                    str(r): n
                    for r, n in sorted(report.segmentation.rule_hits.items())
                },
                "segments_created": report.segmentation.segments_created,
                "trips_processed": report.segmentation.trips_processed,
                "segments_dropped_short": report.segments_dropped_short,
                "segments_dropped_long": report.segments_dropped_long,
                "segments_out": report.segments_out,
                "points_out": report.points_out,
                "stage_seconds": dict(self._stage_s),
            },
            "per_car": {
                str(car): stats for car, stats in sorted(self._per_car.items())
            },
            "post_per_car": {
                str(car): n for car, n in sorted(self._post_per_car.items())
            },
            "route_stats": [asdict(s) for s in self._route_stats],
            # Grid cells in insertion order with their per-cell speed
            # sequences: restore replays the exact Welford adds.
            "grid": [
                {"key": list(key), "speeds": self._grid.speeds(key)}
                for key in self._grid.cells()
            ],
            "speeds": list(self._speeds),
            "cells": [list(key) for key in self._cells],
            "windows_open": [
                self._windows_open[i] for i in sorted(self._windows_open)
            ],
            "windows_closed": list(self._windows_closed),
            "errors": {
                "io": [e.to_dict() for e in self._io_errors],
                "nonmono": [e.to_dict() for e in self._nonmono_errors],
                "clean": [e.to_dict() for e in self._clean_errors],
                "match": [e.to_dict() for e in self._match_errors],
                "stream": [e.to_dict() for e in self._stream_errors],
            },
        }

    def _try_resume(self) -> int:
        """Restore the latest checkpoint; returns the next row index."""
        payload = self._checkpoints.latest()
        if payload is None:
            return 0
        if payload["fingerprint"] != self.config.fingerprint():
            raise ValueError(
                "checkpoint was written under a different stream/study "
                "configuration; refusing to resume"
            )
        self._checkpoint_seq = payload["checkpoint_seq"]
        self._batch_seq = payload["batch_seq"]
        self._rows_ingested = payload["rows_ingested"]
        self._watermark = (
            payload["watermark"] if payload["watermark"] is not None
            else float("-inf")
        )
        self._truncated = payload["truncated"]
        self._max_opened = (
            payload["max_opened"] if payload["max_opened"] is not None
            else float("-inf")
        )
        self._valid_trip_ids = set(payload["valid_trip_ids"])
        self._damaged_trip_ids = set(payload["damaged_trip_ids"])
        self._retired = set(payload["retired"])
        self._dead = set(payload["dead"])
        self._trips_folded = payload["trips_folded"]
        self._next_segment_id = payload["next_segment_id"]
        self._transition_count = payload["transition_count"]
        self._kept_count = payload["kept_count"]
        self._open = {
            doc["trip_id"]: self._open_trip_from_payload(doc)
            for doc in payload["open"]
        }
        self._pending = {
            doc["trip_id"]: self._open_trip_from_payload(doc)
            for doc in payload["pending"]
        }
        doc = payload["report"]
        report = self._report
        report.trips_in = doc["trips_in"]
        report.points_in = doc["points_in"]
        report.reordered_trips = doc["reordered_trips"]
        report.reordering_saved_m = doc["reordering_saved_m"]
        report.duplicates_removed = doc["duplicates_removed"]
        report.outliers_removed = doc["outliers_removed"]
        report.out_of_bounds_removed = doc["out_of_bounds_removed"]
        report.segmentation.rule_hits = {
            int(r): n for r, n in doc["rule_hits"].items()
        }
        report.segmentation.segments_created = doc["segments_created"]
        report.segmentation.trips_processed = doc["trips_processed"]
        report.segments_dropped_short = doc["segments_dropped_short"]
        report.segments_dropped_long = doc["segments_dropped_long"]
        report.segments_out = doc["segments_out"]
        report.points_out = doc["points_out"]
        self._stage_s.update(doc["stage_seconds"])
        self._per_car = {
            int(car): dict(stats)
            for car, stats in payload["per_car"].items()
        }
        self._post_per_car = {
            int(car): n for car, n in payload["post_per_car"].items()
        }
        self._route_stats = [RouteStats(**d) for d in payload["route_stats"]]
        for cell in payload["grid"]:
            key = tuple(cell["key"])
            stats = CellStats()
            for speed in cell["speeds"]:
                stats.add(speed)
            self._grid._cells[key] = stats
            self._grid._speeds[key] = list(cell["speeds"])
        self._speeds = list(payload["speeds"])
        self._cells = [tuple(key) for key in payload["cells"]]
        self._windows_open = {
            doc["window"]: dict(doc) for doc in payload["windows_open"]
        }
        self._windows_closed = [dict(d) for d in payload["windows_closed"]]
        self._windows_closed_by_index = {
            w["window"]: w for w in self._windows_closed
        }
        errors = payload["errors"]
        self._io_errors = [TripError(**d) for d in errors["io"]]
        self._nonmono_errors = [TripError(**d) for d in errors["nonmono"]]
        self._clean_errors = [TripError(**d) for d in errors["clean"]]
        self._match_errors = [TripError(**d) for d in errors["match"]]
        self._stream_errors = [TripError(**d) for d in errors["stream"]]
        report.errors = list(self._clean_errors)
        get_registry().counter("stream.resumes").inc()
        journal = get_journal()
        if journal.enabled:
            journal.emit(
                "stream.resume",
                checkpoint_seq=self._checkpoint_seq,
                rows_ingested=self._rows_ingested,
                open_trips=len(self._open),
                trips_folded=self._trips_folded,
            )
        _log.info(
            "resumed from checkpoint",
            extra={"checkpoint_seq": self._checkpoint_seq,
                   "rows_ingested": self._rows_ingested,
                   "open_trips": len(self._open)},
        )
        return self._rows_ingested


__all__ = ["StreamConfig", "StreamResult", "StreamService"]
