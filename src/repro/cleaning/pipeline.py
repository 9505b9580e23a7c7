"""The orchestrated cleaning pipeline.

Runs the paper's preparation stages in order over a whole fleet:

1. ordering repair (Sec. IV.B),
2. duplicate removal,
3. coordinate-glitch filtering,
4. optional bounding-box sanity filter,
5. Table 2 segmentation,
6. segment-level minimum-points / maximum-length filters,

and reports what each stage did — the paper's point that "the range of
actions performed at the preprocessing step filter out errors ...
otherwise effecting the analysis" is only auditable with such a report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from time import perf_counter

import numpy as np

from repro.cleaning.filters import (
    FilterConfig,
    bounds_rows,
    duplicate_rows,
    filter_segments,
    outlier_rows,
)
from repro.cleaning.ordering import order_fleet, realigned_points
from repro.faults import Quarantine, RobustnessConfig, TripError, guarded_call, maybe_inject
from repro.obs import get_journal, get_logger, get_registry, span
from repro.cleaning.segmentation import (
    SegmentationConfig,
    SegmentationReport,
    TripSegment,
    segment_fleet,
    trip_segments,
)
from repro.traces.arrays import FleetArrays
from repro.traces.model import FleetData, Trip

_log = get_logger(__name__)

#: Order of the pipeline stages as they appear in reports.
STAGES = (
    "ordering",
    "duplicates",
    "outliers",
    "bounds",
    "segmentation",
    "segment_filter",
)


@dataclass
class CleaningReport:
    """Aggregate per-stage accounting of a pipeline run."""

    trips_in: int = 0
    points_in: int = 0
    reordered_trips: int = 0
    reordering_saved_m: float = 0.0
    duplicates_removed: int = 0
    outliers_removed: int = 0
    out_of_bounds_removed: int = 0
    segmentation: SegmentationReport = field(default_factory=SegmentationReport)
    segments_dropped_short: int = 0
    segments_dropped_long: int = 0
    segments_out: int = 0
    points_out: int = 0
    #: Cumulative wall time per stage (keys from :data:`STAGES`).
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: Quarantined per-trip failures (only populated with robustness on).
    errors: list[TripError] = field(default_factory=list)

    @property
    def trips_quarantined(self) -> int:
        return len(self.errors)


@dataclass
class TripCleanResult:
    """One trip's worth of cleaning output — the pipeline's unit of work.

    Segment ids are local (1-based within the trip); :class:`CleaningFold`
    renumbers them fleet-sequentially in trip order, so a trip cleaned
    alone (the stream) or in a shard-store subset gets exactly the ids
    of a whole-fleet batch.
    """

    segments: list[TripSegment]
    reordered: bool = False
    reordering_saved_m: float = 0.0
    duplicates_removed: int = 0
    outliers_removed: int = 0
    out_of_bounds_removed: int = 0
    segmentation: SegmentationReport = field(default_factory=SegmentationReport)
    stage_seconds: dict[str, float] = field(default_factory=dict)


@dataclass
class CleanResult:
    """Pipeline output: analysable trip segments plus the report."""

    segments: list[TripSegment]
    report: CleaningReport


class CleaningFold:
    """Per-trip accounting: trip results in, the cleaning report out.

    The one fold behind :meth:`CleaningPipeline.run` (a whole fleet) and
    the streaming service (one closed trip at a time).  Each
    :meth:`add` takes a trip's result as its caller computed it, emits
    the trip's lineage, sums the report, gives its segments
    fleet-sequential ids (dropped segments consume ids too) and applies
    the segment filter, which judges each segment alone — so filtering
    trip by trip keeps exactly the whole fleet's list.
    """

    def __init__(
        self, filter_config: FilterConfig, quarantine: Quarantine | None = None
    ) -> None:
        self.filter_config = filter_config
        self.quarantine = quarantine if quarantine is not None else Quarantine()
        self.report = CleaningReport(stage_seconds=dict.fromkeys(STAGES, 0.0))
        self.next_segment_id = 1

    def add(self, trip: Trip, result: TripCleanResult | TripError) -> list[TripSegment]:
        """Fold one trip's result; returns its segments that pass the filter."""
        report = self.report
        report.trips_in += 1
        report.points_in += len(trip.points)
        if isinstance(result, TripError):
            self.quarantine.add(result)
            report.errors.append(result)
            kept = []
        else:
            kept = self._add_cleaned(result)
        journal = get_journal()
        if journal.enabled:
            journal.emit("lineage", unit="trip", trip_id=trip.trip_id,
                         **_trip_lineage(result))
        return kept

    def _add_cleaned(self, result: TripCleanResult) -> list[TripSegment]:
        report = self.report
        if result.reordered:
            report.reordered_trips += 1
            report.reordering_saved_m += result.reordering_saved_m
        report.duplicates_removed += result.duplicates_removed
        report.outliers_removed += result.outliers_removed
        report.out_of_bounds_removed += result.out_of_bounds_removed
        report.segmentation.merge(result.segmentation)
        for stage, seconds in result.stage_seconds.items():
            report.stage_seconds[stage] += seconds
        for segment in result.segments:
            segment.segment_id = self.next_segment_id
            self.next_segment_id += 1
        t0 = perf_counter()
        kept, dropped_short, dropped_long = filter_segments(
            result.segments, self.filter_config
        )
        report.stage_seconds["segment_filter"] += perf_counter() - t0
        report.segments_dropped_short += dropped_short
        report.segments_dropped_long += dropped_long
        report.segments_out += len(kept)
        report.points_out += sum(len(s.points) for s in kept)
        return kept

    def finish(self) -> CleaningReport:
        """The folded report, published to the metrics registry and log."""
        _publish(self.report)
        return self.report

    def to_payload(self) -> dict:
        """The fold's state as JSON (floats round-trip exactly)."""
        return {"report": asdict(self.report), "next_segment_id": self.next_segment_id}

    def restore(self, payload: dict) -> None:
        """Continue from a :meth:`to_payload` state."""
        doc = dict(payload["report"])
        segmentation = doc.pop("segmentation")
        segmentation["rule_hits"] = {
            int(rule): hits for rule, hits in segmentation["rule_hits"].items()
        }
        doc["errors"] = [TripError(**e) for e in doc["errors"]]
        self.report = CleaningReport(
            **doc, segmentation=SegmentationReport(**segmentation)
        )
        self.next_segment_id = payload["next_segment_id"]


def _trip_lineage(result: TripCleanResult | TripError) -> dict:
    """A trip's lineage fields: why it was quarantined, or which Table 2
    rules fired and what each filter removed — the per-trip provenance
    the aggregate report cannot answer."""
    if isinstance(result, TripError):
        return {
            "disposition": "quarantined",
            "stage": result.stage,
            "reason": result.kind,
            "fault_tag": result.fault_tag,
        }
    return {
        "disposition": "cleaned",
        "segments": len(result.segments),
        "reordered": result.reordered,
        "duplicates_removed": result.duplicates_removed,
        "outliers_removed": result.outliers_removed,
        "out_of_bounds_removed": result.out_of_bounds_removed,
        "rules": {
            rule: hits
            for rule, hits in sorted(result.segmentation.rule_hits.items())
            if hits
        },
    }


def clean_batch(
    trips: list[Trip],
    filter_config: FilterConfig,
    segmentation_config: SegmentationConfig,
    repair: bool = True,
) -> list[TripCleanResult]:
    """Stages 1-5 over a batch of trips, as one set of array passes.

    The batch's points become one :class:`~repro.traces.arrays.FleetArrays`;
    each stage is a kernel over all of its rows, and each filter stage
    narrows the batch with :meth:`FleetArrays.take`.  Every trip's
    result equals what it would get cleaned alone: the kernels decide
    per trip, with cross-trip gaps masked and per-trip float sums over
    each trip's own slice.

    The batch's wall time per stage lands on the first trip's
    ``stage_seconds`` (zeros elsewhere), so the fold's sums stay whole.
    """
    stage_s = dict.fromkeys(STAGES[:-1], 0.0)
    t0 = perf_counter()
    batch = FleetArrays.from_trips(trips)
    source = [p for trip in trips for p in trip.points]
    n_trips = batch.n_trips
    # ``rows`` maps each row of the working batch back to its input row;
    # ``moved`` marks the rows whose realigned id or timestamp changed.
    if repair:
        batch, rows, moved, saved_m = _repair(batch)
    else:
        rows = np.arange(len(batch))
        moved = np.zeros(len(batch), dtype=bool)
        saved_m = [None] * n_trips
    t1 = perf_counter()
    stage_s["ordering"] = t1 - t0

    removed = {}
    for stage, rows_kept in (
        ("duplicates", duplicate_rows),
        ("outliers", outlier_rows),
        ("bounds", bounds_rows),
    ):
        keep = rows_kept(batch, filter_config)
        if keep.all():
            removed[stage] = [0] * n_trips
        else:
            removed[stage] = np.bincount(
                batch.trip_index()[~keep], minlength=n_trips
            ).tolist()
            kept = keep.nonzero()[0]
            batch = batch.take(kept)
            rows = rows[kept]
            moved = moved[kept]
        t2 = perf_counter()
        stage_s[stage] = t2 - t1
        t1 = t2

    points = realigned_points(source, rows, batch.point_id, batch.time_s, moved)
    pieces, reports = segment_fleet(batch, segmentation_config)
    results = []
    for k, trip in enumerate(trips):
        result = TripCleanResult(
            segments=trip_segments(trip, pieces[k], points),
            duplicates_removed=removed["duplicates"][k],
            outliers_removed=removed["outliers"][k],
            out_of_bounds_removed=removed["bounds"][k],
            segmentation=reports[k],
            stage_seconds=dict.fromkeys(STAGES[:-1], 0.0),
        )
        if saved_m[k] is not None:
            result.reordered = True
            result.reordering_saved_m = saved_m[k]
        results.append(result)
    stage_s["segmentation"] = perf_counter() - t1
    if results:
        results[0].stage_seconds = stage_s
    return results


def _repair(batch: FleetArrays):
    """Stage 1 of :func:`clean_batch`: the realigned batch, each of its
    rows' input row, which rows' id or timestamp changed, and each
    trip's saved distance (``None`` where both orderings agreed)."""
    ordering = order_fleet(batch)
    saved_m = [
        None if consistent else abs(d_id - d_time)
        for consistent, d_id, d_time in zip(
            ordering.consistent, ordering.distance_by_id_m, ordering.distance_by_time_m
        )
    ]
    if ordering.in_order:
        return batch, ordering.rows, ordering.moved, saved_m
    realigned = batch.take(
        ordering.rows, point_id=ordering.point_id, time_s=ordering.time_s
    )
    return realigned, ordering.rows, ordering.moved, saved_m


class CleaningPipeline:
    """Configurable cleaning pipeline over raw fleet data."""

    def __init__(
        self,
        filter_config: FilterConfig | None = None,
        segmentation_config: SegmentationConfig | None = None,
        repair: bool = True,
        robustness: RobustnessConfig | None = None,
    ) -> None:
        self.filter_config = filter_config or FilterConfig()
        self.segmentation_config = segmentation_config or SegmentationConfig()
        self.repair = repair
        #: Degraded-mode execution: with a config, a trip that raises is
        #: quarantined (after bounded retries of transient failures)
        #: instead of aborting the run.  ``None`` keeps the historical
        #: fail-fast behaviour.
        self.robustness = robustness

    def clean_trip(self, trip) -> TripCleanResult:
        """Clean and segment one trip — the one-trip form of :func:`clean_batch`.

        Stages 1-5 run per trip; the segment filter (stage 6) and
        sequential segment-id assignment happen in :class:`CleaningFold`,
        so the result is independent of which process handles the trip.
        """
        maybe_inject("clean", trip.trip_id)
        return self._clean([trip])[0]

    def clean_trip_unit(self, trip) -> TripCleanResult | TripError:
        """:meth:`clean_trip` behind the degradation guard.

        The unit the streaming service folds one trip at a time: with
        robustness configured, a raising trip comes back as a
        :class:`~repro.faults.TripError` value (picklable, foldable);
        without it this is exactly :meth:`clean_trip`.  A journal-visible
        ``clean_trip`` detail span times the unit.
        """
        with span("clean_trip", detail=True, attrs={"trip_id": trip.trip_id}):
            if self.robustness is None:
                return self.clean_trip(trip)
            result, error = guarded_call(
                "clean", self.clean_trip, trip,
                robustness=self.robustness, trip_id=trip.trip_id,
            )
            return error if error is not None else result

    def compute_units(self, trips: list) -> list:
        """Per-trip results for a batch, aligned with ``trips``.

        The compute half of :meth:`run`, factored out so the shard-store
        planner (:class:`repro.store.planner.StudyPlanner`) can run it
        over just the dirty subset and feed the folded whole back through
        ``per_trip``.  Each trip first passes its fault-injection point
        on its own — behind the degradation guard, with retries, when
        robustness is configured — and the admitted trips then go
        through :func:`clean_batch` as one batch.  Should the kernel
        raise, the batch re-runs trip by trip through the guard, so only
        the failing trip is quarantined.  A batch records no per-trip
        detail spans.
        """
        if self.robustness is None:
            for trip in trips:
                maybe_inject("clean", trip.trip_id)
            return self._clean(trips)
        results: list = [None] * len(trips)
        admitted = []
        for i, trip in enumerate(trips):
            __, error = guarded_call(
                "clean", maybe_inject, "clean", trip.trip_id,
                robustness=self.robustness, trip_id=trip.trip_id,
            )
            if error is None:
                admitted.append(i)
            else:
                results[i] = error
        batch = [trips[i] for i in admitted]
        try:
            cleaned = self._clean(batch)
        except Exception:  # noqa: BLE001 - isolate the failing trip below
            cleaned = []
            for trip in batch:
                result, error = guarded_call(
                    "clean", self._clean, [trip],
                    robustness=self.robustness, trip_id=trip.trip_id,
                )
                cleaned.append(error if error is not None else result[0])
        for i, result in zip(admitted, cleaned):
            results[i] = result
        return results

    def _clean(self, trips: list) -> list[TripCleanResult]:
        return clean_batch(
            trips, self.filter_config, self.segmentation_config, self.repair
        )

    def run(
        self,
        fleet: FleetData,
        quarantine: Quarantine | None = None,
        per_trip: list | None = None,
    ) -> CleanResult:
        """Clean and segment a whole fleet's raw trips.

        Results are folded in trip order and segment ids renumbered
        sequentially.  ``per_trip`` optionally supplies precomputed
        per-trip results (aligned with ``fleet.trips``) — the shard
        store's delta path; the fold below is identical either way, which
        is what makes a warm cached run byte-identical to a cold one.

        With :attr:`robustness` set, failing trips are quarantined (into
        ``quarantine`` when given, and always onto ``report.errors``)
        and the surviving trips produce exactly the artefacts a
        fault-free run over that surviving subset would.
        """
        fold = CleaningFold(self.filter_config, quarantine)
        segments: list[TripSegment] = []
        with span("clean"):
            if per_trip is None:
                per_trip = self.compute_units(fleet.trips)
            for trip, trip_result in zip(fleet.trips, per_trip):
                segments.extend(fold.add(trip, trip_result))
        return CleanResult(segments=segments, report=fold.finish())


def _publish(report: CleaningReport) -> None:
    """Feed a run's accounting to the metrics registry and logger."""
    registry = get_registry()
    for name, value in (
        ("clean.trips_in", report.trips_in),
        ("clean.points_in", report.points_in),
        ("clean.reordered_trips", report.reordered_trips),
        ("clean.duplicates_removed", report.duplicates_removed),
        ("clean.outliers_removed", report.outliers_removed),
        ("clean.out_of_bounds_removed", report.out_of_bounds_removed),
        ("clean.segments_dropped_short", report.segments_dropped_short),
        ("clean.segments_dropped_long", report.segments_dropped_long),
        ("clean.segments_out", report.segments_out),
        ("clean.points_out", report.points_out),
    ):
        registry.counter(name).inc(value)
    for stage, seconds in report.stage_seconds.items():
        registry.gauge(f"clean.stage_seconds.{stage}").set(seconds)
    if _log.isEnabledFor(20):  # INFO
        dropped = {
            "ordering": report.reordered_trips,
            "duplicates": report.duplicates_removed,
            "outliers": report.outliers_removed,
            "bounds": report.out_of_bounds_removed,
            "segmentation": report.segmentation.segments_created,
            "segment_filter": report.segments_dropped_short
            + report.segments_dropped_long,
        }
        for stage in STAGES:
            _log.info(
                "cleaning stage complete",
                extra={
                    "stage": stage,
                    "affected": dropped[stage],
                    "seconds": round(report.stage_seconds[stage], 4),
                },
            )
        _log.info(
            "cleaning complete",
            extra={
                "trips_in": report.trips_in,
                "points_in": report.points_in,
                "segments_out": report.segments_out,
                "points_out": report.points_out,
            },
        )
