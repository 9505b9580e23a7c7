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

from dataclasses import dataclass, field
from time import perf_counter

from repro.cleaning.filters import (
    FilterConfig,
    drop_duplicates,
    filter_segments,
    remove_position_outliers,
    within_bounds,
)
from repro.cleaning.ordering import repair_ordering
from repro.faults import Quarantine, RobustnessConfig, TripError, guarded_call, maybe_inject
from repro.obs import get_journal, get_logger, get_registry, span
from repro.cleaning.segmentation import (
    SegmentationConfig,
    SegmentationReport,
    TripSegment,
    segment_trip,
)
from repro.traces.model import FleetData

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

    Segment ids are local (1-based within the trip); :meth:`CleaningPipeline.run`
    renumbers them fleet-sequentially in trip order, so chunked parallel
    execution produces exactly the serial ids.
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

    def segments_for_car(self, car_id: int) -> list[TripSegment]:
        return [s for s in self.segments if s.car_id == car_id]


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
        """Clean and segment one trip — a pure, parallelisable unit.

        Stages 1-5 run per trip; the fleet-level segment filter (stage 6)
        and sequential segment-id assignment happen in :meth:`run`, so the
        result is independent of which process handles the trip.
        """
        maybe_inject("clean", trip.trip_id)
        stage_s = dict.fromkeys(STAGES[:-1], 0.0)
        result = TripCleanResult(segments=[], stage_seconds=stage_s)
        if self.repair:
            t0 = perf_counter()
            trip, ordering = repair_ordering(trip)
            stage_s["ordering"] += perf_counter() - t0
            if not ordering.was_consistent:
                result.reordered = True
                result.reordering_saved_m = ordering.saved_m
        points = trip.points
        before = len(points)
        t0 = perf_counter()
        points = drop_duplicates(points, self.filter_config)
        stage_s["duplicates"] += perf_counter() - t0
        result.duplicates_removed = before - len(points)
        before = len(points)
        t0 = perf_counter()
        points = remove_position_outliers(points, self.filter_config)
        stage_s["outliers"] += perf_counter() - t0
        result.outliers_removed = before - len(points)
        before = len(points)
        t0 = perf_counter()
        points = within_bounds(points, self.filter_config)
        stage_s["bounds"] += perf_counter() - t0
        result.out_of_bounds_removed = before - len(points)
        trip = trip.with_points(points)
        t0 = perf_counter()
        result.segments, result.segmentation = segment_trip(
            trip, self.segmentation_config, first_segment_id=1
        )
        stage_s["segmentation"] += perf_counter() - t0
        return result

    def clean_trip_unit(self, trip) -> TripCleanResult | TripError:
        """:meth:`clean_trip` behind the degradation guard.

        The unit the serial fold *and* pool workers both run: with
        robustness configured, a raising trip comes back as a
        :class:`~repro.faults.TripError` value (picklable, foldable);
        without it this is exactly :meth:`clean_trip`.  A journal-visible
        ``clean_trip`` detail span times the unit on whichever process
        runs it.
        """
        with span("clean_trip", detail=True, attrs={"trip_id": trip.trip_id}):
            if self.robustness is None:
                return self.clean_trip(trip)
            result, error = guarded_call(
                "clean", self.clean_trip, trip,
                robustness=self.robustness, trip_id=trip.trip_id,
            )
            return error if error is not None else result

    def compute_units(self, trips: list, executor=None) -> list:
        """Per-trip results for ``trips``, serial or pooled.

        The compute half of :meth:`run`, factored out so the shard-store
        planner (:class:`repro.store.planner.StudyPlanner`) can run it
        over just the dirty subset and feed the folded whole back through
        ``per_trip``.
        """
        if executor is not None and executor.parallel:
            return executor.clean_trips(trips)
        return [self.clean_trip_unit(trip) for trip in trips]

    def run(
        self,
        fleet: FleetData,
        executor=None,
        quarantine: Quarantine | None = None,
        per_trip: list | None = None,
    ) -> CleanResult:
        """Clean and segment a whole fleet's raw trips.

        ``executor`` is an optional :class:`repro.parallel.TripExecutor`;
        when it is parallel, trips are cleaned across worker processes.
        Results are folded in trip order and segment ids renumbered
        sequentially, so the output is byte-identical to a serial run.

        ``per_trip`` optionally supplies precomputed per-trip results
        (aligned with ``fleet.trips``) — the shard store's delta path;
        the fold below is identical either way, which is what makes a
        warm cached run byte-identical to a cold one.

        With :attr:`robustness` set, failing trips are quarantined (into
        ``quarantine`` when given, and always onto ``report.errors``)
        and the surviving trips produce exactly the artefacts a
        fault-free run over that surviving subset would.
        """
        report = CleaningReport(trips_in=len(fleet), points_in=fleet.point_count)
        if quarantine is None:
            quarantine = Quarantine()
        stage_s = dict.fromkeys(STAGES, 0.0)
        segments: list[TripSegment] = []
        with span("clean"):
            if per_trip is None:
                per_trip = self.compute_units(fleet.trips, executor)
            journal = get_journal()
            next_segment_id = 1
            for trip, trip_result in zip(fleet.trips, per_trip):
                if isinstance(trip_result, TripError):
                    quarantine.add(trip_result)
                    report.errors.append(trip_result)
                    if journal.enabled:
                        journal.emit(
                            "lineage",
                            unit="trip",
                            trip_id=trip.trip_id,
                            disposition="quarantined",
                            stage=trip_result.stage,
                            reason=trip_result.kind,
                            fault_tag=trip_result.fault_tag,
                        )
                    continue
                if journal.enabled:
                    # Which Table 2 rules fired for this trip, and what
                    # each filter removed — the per-trip provenance the
                    # aggregate report cannot answer.
                    journal.emit(
                        "lineage",
                        unit="trip",
                        trip_id=trip.trip_id,
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
                    stage_s[stage] += seconds
                for segment in trip_result.segments:
                    segment.segment_id = next_segment_id
                    next_segment_id += 1
                segments.extend(trip_result.segments)
            t0 = perf_counter()
            kept, dropped_short, dropped_long = filter_segments(
                segments, self.filter_config
            )
            stage_s["segment_filter"] += perf_counter() - t0
        report.segments_dropped_short = dropped_short
        report.segments_dropped_long = dropped_long
        report.segments_out = len(kept)
        report.points_out = sum(len(s.points) for s in kept)
        report.stage_seconds = stage_s
        self._publish(report)
        return CleanResult(segments=kept, report=report)

    def _publish(self, report: CleaningReport) -> None:
        """Feed the run's accounting to the metrics registry and logger."""
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
