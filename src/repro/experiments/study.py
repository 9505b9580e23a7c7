"""The end-to-end study orchestrator.

Runs every stage of the paper on the synthetic substrate and keeps all
intermediate artefacts so the table/figure generators (and the benches)
can derive the evaluation outputs without re-running stages.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.cleaning import CleaningPipeline, CleanResult
from repro.faults import (
    FaultPlan,
    Quarantine,
    RobustnessConfig,
    TripError,
    inject_faults,
)
from repro.features import GridAccumulator, GridSpec, cell_feature_counts
from repro.features.grid import CellKey
from repro.features.routestats import RouteStats, transition_route_stats
from repro.matching import MatchedRoute, make_matcher
from repro.obs import (
    MetricsRegistry,
    RunContext,
    current_run,
    get_journal,
    get_logger,
    run_metadata,
    span,
    use_registry,
    use_run_context,
)
from repro.od import TransitionExtractor
from repro.od.transitions import ExtractionResult, FunnelRow, Transition, TransitionConfig
from repro.parallel import (
    ExecutorConfig,
    MatchOutcome,
    MatchTask,
    TripExecutor,
    WorkerPayload,
    match_task,
    study_gates,
)
from repro.roadnet import CitySpec, SyntheticCity, build_synthetic_oulu
from repro.stats import MixedModelResult, RandomInterceptModel
from repro.store.planner import StudyPlanner
from repro.store.shards import ShardStore, StoreConfig
from repro.traces import CustomerRun, FleetData, FleetSpec, TaxiFleetSimulator

_log = get_logger(__name__)


@dataclass(frozen=True)
class StudyConfig:
    """Everything configurable about a study run."""

    city: CitySpec = field(default_factory=CitySpec)
    fleet: FleetSpec = field(default_factory=FleetSpec)
    grid: GridSpec = field(default_factory=GridSpec)
    transition: TransitionConfig = field(default_factory=TransitionConfig)
    matcher: str = "incremental"          # or "hmm"
    #: Map-matching pool; the default (workers=0) runs fully serial.  Cleaning and gate extraction are always serial.
    executor: ExecutorConfig = field(default_factory=ExecutorConfig)
    #: Degraded-mode execution: failing trips/transitions quarantine into
    #: ``result.errors`` instead of aborting, and the run only fails when
    #: the error rate exceeds ``robustness.max_error_rate``.  ``None``
    #: restores strict fail-fast behaviour.
    robustness: RobustnessConfig | None = field(default_factory=RobustnessConfig)
    #: Seeded chaos plan (tests/CLI ``--fault-plan``); None = no faults.
    faults: FaultPlan | None = None
    #: Sharded artefact store (CLI ``--store-dir``): with a config, the
    #: study shards its inputs by (city, day), persists per-shard stage
    #: outputs content-addressed, and on rerun recomputes only dirty
    #: shards — byte-identical artefacts either way.  ``None`` disables
    #: caching entirely.
    store: StoreConfig | None = None

    def __post_init__(self) -> None:
        if self.matcher not in ("incremental", "hmm"):
            raise ValueError("matcher must be 'incremental' or 'hmm'")

    def worker_payload(self) -> WorkerPayload:
        """The context pool workers rebuild (city, gates, matcher)."""
        return WorkerPayload(
            city_spec=self.city,
            transition_config=self.transition,
            matcher=self.matcher,
            robustness=self.robustness,
            fault_plan=self.faults,
        )


class MatchFold:
    """Per-transition accounting from match outcome to Table 4 and the grid.

    The one fold behind :class:`OuluStudy` (a fleet's transitions in
    index order) and the streaming service (each transition as its trip
    closes).  It only accumulates: :meth:`add_outcome` takes a
    transition's :class:`~repro.parallel.MatchOutcome` and
    :meth:`add_route` a kept transition's Table 4 row, each as its
    caller computed it.
    """

    def __init__(self, grid: GridSpec, quarantine: Quarantine) -> None:
        self.quarantine = quarantine
        #: Transitions folded so far (the next one's match index).
        self.transitions = 0
        #: Indices of the transitions that survived the post-filter.
        self.kept: list[int] = []
        self.post_per_car: dict[int, int] = {}
        self.route_stats: list[RouteStats] = []
        self.grid = GridAccumulator(grid)
        #: Matched point speeds and their cells, in add order: the
        #: mixed model's inputs.
        self.speeds: list[float] = []
        self.cells: list[CellKey] = []

    def add_outcome(self, transition: Transition, outcome: MatchOutcome) -> bool:
        """Fold one transition's match outcome; True when it is kept."""
        self.transitions += 1
        journal = get_journal()
        if journal.enabled:
            # Per-transition match provenance: latency and route source
            # travel back on the outcome, so the lineage stream is
            # identical for serial, parallel and streamed runs.
            journal.emit(
                "lineage",
                unit="transition",
                transition_index=outcome.index,
                segment_id=transition.segment.segment_id,
                car_id=transition.segment.car_id,
                direction=transition.direction,
                matched=outcome.route is not None,
                kept=bool(outcome.kept),
                match_seconds=round(outcome.elapsed_s, 6),
                route_source=outcome.route_source,
                quarantined=outcome.error is not None,
            )
        if outcome.error is not None:
            self.quarantine.add(outcome.error)
        transition.post_filtered_ok = outcome.kept  # False without a route
        if not outcome.kept:
            return False
        self.kept.append(outcome.index)
        car = transition.segment.car_id
        self.post_per_car[car] = self.post_per_car.get(car, 0) + 1
        return True

    def add_route(self, stats: RouteStats, route: MatchedRoute) -> None:
        """Fold a kept transition's Table 4 row and its matched speeds."""
        self.route_stats.append(stats)
        for m in route.matched:
            key = self.grid.add_point(m.snapped_xy, m.point.speed_kmh)
            self.speeds.append(m.point.speed_kmh)
            self.cells.append(key)

    def funnel(self, rows: list[FunnelRow]) -> list[FunnelRow]:
        """Table 3 with its post-filter column from the folded outcomes."""
        return [
            replace(row, post_filtered=self.post_per_car.get(row.car_id, 0))
            for row in rows
        ]

    def mixed_model(self) -> MixedModelResult | None:
        """The random-intercept model of cell speeds, when there is data."""
        if len(set(self.cells)) >= 3 and len(self.speeds) >= 10:
            return RandomInterceptModel().fit(self.speeds, self.cells)
        return None

    #: The :meth:`to_payload` lists that only ever grow.
    APPEND_ONLY = ("kept", "route_stats", "speeds", "cells")

    def to_payload(self) -> dict:
        """The fold's state for JSON; each matched speed is stored once.

        The :attr:`APPEND_ONLY` lists are the fold's own, not copies
        (route stats as dataclasses, cells as tuples), so a checkpoint
        can encode only what was appended since its previous one.
        """
        return {
            "transitions": self.transitions,
            "kept": self.kept,
            "post_per_car": [[car, n] for car, n in self.post_per_car.items()],
            "route_stats": self.route_stats,
            "speeds": self.speeds,
            "cells": self.cells,
        }

    def restore(self, payload: dict) -> None:
        """Continue from a :meth:`to_payload` state; the grid adds replay
        in order, which rebuilds the same Welford partials and cell order."""
        self.transitions = payload["transitions"]
        self.kept = list(payload["kept"])
        self.post_per_car = {car: n for car, n in payload["post_per_car"]}
        self.route_stats = [RouteStats(**d) for d in payload["route_stats"]]
        self.speeds = list(payload["speeds"])
        self.cells = [tuple(key) for key in payload["cells"]]
        for key, speed in zip(self.cells, self.speeds):
            self.grid.add(key, speed)


class RouteStatsByDirection:
    """``stats_by_direction`` of a result that holds ``route_stats``."""

    def stats_by_direction(self) -> dict[str, list[RouteStats]]:
        out: dict[str, list[RouteStats]] = {}
        for s in self.route_stats:
            out.setdefault(s.direction, []).append(s)
        return out


@dataclass
class StudyResult(RouteStatsByDirection):
    """All artefacts of one study run."""

    config: StudyConfig
    city: SyntheticCity
    fleet: FleetData
    runs: list[CustomerRun]
    clean: CleanResult
    extraction: ExtractionResult
    matched: dict[int, MatchedRoute]           # transition index -> route
    kept_transitions: list[int]                # indices surviving post-filter
    route_stats: list[RouteStats]
    grid: GridAccumulator
    cell_features: dict
    mixed: MixedModelResult | None
    funnel: list[FunnelRow]
    #: Metrics snapshot of the run (counters, histograms, stage spans);
    #: what ``repro study --metrics-out`` serialises.
    metrics: dict = field(default_factory=dict)
    #: Quarantined units of the run, in deterministic fold order — what
    #: ``repro study`` writes to ``errors.jsonl``.
    errors: list[TripError] = field(default_factory=list)

    def transitions(self) -> list[Transition]:
        return self.extraction.transitions

    def kept(self) -> list[tuple[Transition, MatchedRoute]]:
        """Post-filtered transitions with their matched routes."""
        return [
            (self.extraction.transitions[i], self.matched[i])
            for i in self.kept_transitions
        ]



class OuluStudy:
    """Reproduces the paper's study end to end."""

    def __init__(self, config: StudyConfig | None = None) -> None:
        self.config = config or StudyConfig()

    def run(
        self,
        run_context: RunContext | None = None,
        fleet: FleetData | None = None,
    ) -> StudyResult:
        """Execute all stages and return the artefact bundle.

        Each run records into a fresh :class:`~repro.obs.MetricsRegistry`;
        its snapshot (per-stage counters, latency histograms and the
        nested stage-timing tree) is attached as ``result.metrics``.
        With ``config.executor.workers > 1`` map-matching fans out over
        a worker pool (cleaning and extraction stay serial); worker
        registries are merged in, and the artefacts are identical to a
        serial run.

        ``run_context`` identifies the run for tracing (defaults to the
        ambient context, or a fresh one); its metadata plus wall-clock
        bounds land in ``result.metrics["meta"]``.

        Degraded mode (``config.robustness``): per-trip and per-transition
        failures — injected by ``config.faults`` or organic — quarantine
        into ``result.errors`` and the run completes on the survivors,
        unless the quarantined fraction exceeds ``max_error_rate``
        (:class:`~repro.faults.ErrorRateExceeded`).

        ``fleet`` replaces the simulation stage with externally supplied
        trips (e.g. a CSV read back via
        :func:`~repro.traces.io.read_points_csv`); ``result.runs`` is
        then empty.  This is the batch baseline the streaming service is
        differential-tested against.
        """
        config = self.config
        run_ctx = run_context or current_run() or RunContext.create()
        registry = MetricsRegistry()
        quarantine = Quarantine(
            config.robustness.max_error_rate
            if config.robustness is not None else None
        )
        started = time.time()
        with use_run_context(run_ctx), use_registry(registry), \
                inject_faults(config.faults), span("study"):
            with TripExecutor(
                config.worker_payload(), config.executor
            ) as executor:
                result = self._run_stages(executor, quarantine, fleet=fleet)
        ended = time.time()
        result.metrics = registry.snapshot()
        result.metrics["meta"] = {
            **run_metadata(run_ctx),
            "started": round(started, 3),
            "ended": round(ended, 3),
            "wall_seconds": round(ended - started, 3),
        }
        result.errors = list(quarantine.errors)
        return result

    def _run_stages(
        self,
        executor: TripExecutor,
        quarantine: Quarantine,
        fleet: FleetData | None = None,
    ) -> StudyResult:
        config = self.config
        with span("build_city"):
            city = build_synthetic_oulu(config.city)
        runs: list[CustomerRun] = []
        if fleet is None:
            with span("simulate"):
                simulator = TaxiFleetSimulator(city, config.fleet)
                fleet, runs = simulator.simulate()
        _log.info(
            "fleet simulated",
            extra={"trips": len(fleet), "points": fleet.point_count,
                   "days": config.fleet.n_days},
        )

        # Delta recomputation: with a store configured, a planner shards
        # the fleet by (city, day) and serves each stage's per-unit
        # results from content-addressed artefacts, computing only dirty
        # shards through the exact code paths below.  The folds all stay
        # here, so warm results are byte-identical.
        planner: StudyPlanner | None = None
        if config.store is not None:
            planner = StudyPlanner(ShardStore(config.store.dir), config)
            planner.plan(fleet)

        pipeline = CleaningPipeline(robustness=config.robustness)
        per_trip = None
        if planner is not None:
            per_trip = planner.clean_stage(fleet, pipeline.compute_units)
        clean = pipeline.run(fleet, quarantine=quarantine, per_trip=per_trip)

        projector = city.projector

        def to_xy(p):
            return projector.to_xy(p.lat, p.lon)

        gates = study_gates(city)
        extractor = TransitionExtractor(gates, city.central_area, config.transition)
        with span("extract"):
            extractions = None
            if planner is not None:
                extractions = planner.extract_stage(
                    clean.segments,
                    lambda segs: extractor.compute_units(segs, to_xy),
                )
            extraction = extractor.extract(
                clean.segments, to_xy, extractions=extractions
            )

        tasks = [
            MatchTask.from_transition(i, transition)
            for i, transition in enumerate(extraction.transitions)
        ]
        def compute_outcomes(subset: list[MatchTask]) -> list:
            """Match the given tasks through the serial or pooled path."""
            if executor.parallel:
                return executor.map_chunked("match", subset)
            matcher = make_matcher(city.graph, config.matcher)
            return [
                match_task(
                    matcher, to_xy, extractor.gates_by_name,
                    config.transition, task,
                    robustness=config.robustness,
                )
                for task in subset
            ]

        with span("match"):
            if planner is not None:
                outcomes = planner.match_stage(
                    tasks, extraction.transitions, compute_outcomes
                )
            else:
                outcomes = compute_outcomes(tasks)

        # Fold outcomes back in transition order (chunks may have run in
        # any order on any worker; index order restores serial layout).
        outcomes.sort(key=lambda outcome: outcome.index)
        fold = MatchFold(config.grid, quarantine)
        matched: dict[int, MatchedRoute] = {}
        for outcome in outcomes:
            if outcome.route is not None:
                matched[outcome.index] = outcome.route
            fold.add_outcome(extraction.transitions[outcome.index], outcome)
        _log.info(
            "matching complete",
            extra={"transitions": len(extraction.transitions),
                   "matched": len(matched), "kept": len(fold.kept),
                   "quarantined": len(quarantine)},
        )
        # Degraded-mode verdict: the run is only as good as its error
        # rate.  Units = trips ingested + transitions matched (the two
        # guarded populations); ErrorRateExceeded fails the run here,
        # after every survivor has been accounted for.
        quarantine.check(len(fleet) + fold.transitions)

        # Table 4 statistics and the analysis grid over matched point speeds.
        with span("features"):
            if planner is not None:
                stats_by_index = planner.features_stage(
                    fold.kept, extraction.transitions, matched,
                    lambda t, r: transition_route_stats(
                        t, r, city.graph, city.map_db
                    ),
                )
            else:
                stats_by_index = {
                    i: transition_route_stats(
                        extraction.transitions[i], matched[i],
                        city.graph, city.map_db,
                    )
                    for i in fold.kept
                }
            # The grid always replays from the matched points — cached or
            # fresh — in kept order; Welford accumulation is order-exact,
            # so the Table 5 grid is identical warm, cold, or store-off.
            for i in fold.kept:
                fold.add_route(stats_by_index[i], matched[i])

            cell_features = cell_feature_counts(
                config.grid, city.map_db, city.graph, list(fold.grid.cells())
            )

        with span("mixed_model"):
            mixed = fold.mixed_model()

        return StudyResult(
            config=config,
            city=city,
            fleet=fleet,
            runs=runs,
            clean=clean,
            extraction=extraction,
            matched=matched,
            kept_transitions=fold.kept,
            route_stats=fold.route_stats,
            grid=fold.grid,
            cell_features=cell_features,
            mixed=mixed,
            funnel=fold.funnel(extraction.funnel),
        )
