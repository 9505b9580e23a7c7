"""The end-to-end study orchestrator.

Runs every stage of the paper on the synthetic substrate and keeps all
intermediate artefacts so the table/figure generators (and the benches)
can derive the evaluation outputs without re-running stages.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.cleaning import CleaningPipeline, CleanResult
from repro.faults import (
    FaultPlan,
    Quarantine,
    RobustnessConfig,
    TripError,
    inject_faults,
)
from repro.features import GridAccumulator, GridSpec, cell_feature_counts
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
    MatchTask,
    TripExecutor,
    WorkerPayload,
    match_task,
    study_gates,
)
from repro.roadnet import (
    CitySpec,
    RouteCache,
    SyntheticCity,
    build_synthetic_oulu,
)
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
    #: Map-matching pool and route cache; the default (workers=0) runs
    #: fully serial.  Cleaning and gate extraction are always serial.
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
        """The context pool workers rebuild (city, matcher, route cache)."""
        return WorkerPayload(
            city_spec=self.city,
            transition_config=self.transition,
            matcher=self.matcher,
            route_cache_path=self.executor.route_cache_path,
            robustness=self.robustness,
            fault_plan=self.faults,
        )


@dataclass
class StudyResult:
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

    def stats_by_direction(self) -> dict[str, list[RouteStats]]:
        out: dict[str, list[RouteStats]] = {}
        for s in self.route_stats:
            out.setdefault(s.direction, []).append(s)
        return out


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
            route_cache = RouteCache(path=config.executor.route_cache_path)
            matcher = make_matcher(city.graph, config.matcher, route_cache)
            computed = [
                match_task(
                    matcher, to_xy, extractor.gates_by_name,
                    config.transition, task,
                    robustness=config.robustness,
                )
                for task in subset
            ]
            if config.executor.route_cache_path is not None:
                route_cache.save()
            return computed

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
        matched: dict[int, MatchedRoute] = {}
        kept: list[int] = []
        post_per_car: dict[int, int] = {}
        journal = get_journal()
        for outcome in outcomes:
            transition = extraction.transitions[outcome.index]
            if journal.enabled:
                # Per-transition match provenance: latency and route
                # source travel back on the outcome, so the lineage
                # stream is identical for serial and parallel runs.
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
                quarantine.add(outcome.error)
            if outcome.route is None:
                transition.post_filtered_ok = False
                continue
            matched[outcome.index] = outcome.route
            transition.post_filtered_ok = outcome.kept
            if outcome.kept:
                kept.append(outcome.index)
                post_per_car[transition.segment.car_id] = (
                    post_per_car.get(transition.segment.car_id, 0) + 1
                )
        _log.info(
            "matching complete",
            extra={"transitions": len(extraction.transitions),
                   "matched": len(matched), "kept": len(kept),
                   "quarantined": len(quarantine)},
        )
        # Degraded-mode verdict: the run is only as good as its error
        # rate.  Units = trips ingested + transitions matched (the two
        # guarded populations); ErrorRateExceeded fails the run here,
        # after every survivor has been accounted for.
        quarantine.check(len(fleet) + len(extraction.transitions))
        funnel = [
            FunnelRow(
                car_id=row.car_id,
                total_segments=row.total_segments,
                filtered_cleaned=row.filtered_cleaned,
                transitions_total=row.transitions_total,
                within_centre=row.within_centre,
                post_filtered=post_per_car.get(row.car_id, 0),
            )
            for row in extraction.funnel
        ]

        # Table 4 statistics and the analysis grid over matched point speeds.
        route_stats: list[RouteStats] = []
        grid = GridAccumulator(config.grid)
        speeds: list[float] = []
        cells: list = []
        with span("features"):
            if planner is not None:
                stats_by_index = planner.features_stage(
                    kept, extraction.transitions, matched,
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
                    for i in kept
                }
            # The grid always replays from the matched points — cached or
            # fresh — in kept order; Welford accumulation is order-exact,
            # so the Table 5 grid is identical warm, cold, or store-off.
            for i in kept:
                route_stats.append(stats_by_index[i])
                for m in matched[i].matched:
                    key = grid.add_point(m.snapped_xy, m.point.speed_kmh)
                    speeds.append(m.point.speed_kmh)
                    cells.append(key)

            cell_features = cell_feature_counts(
                config.grid, city.map_db, city.graph, list(grid.cells())
            )

        mixed: MixedModelResult | None = None
        with span("mixed_model"):
            if len(set(cells)) >= 3 and len(speeds) >= 10:
                mixed = RandomInterceptModel().fit(speeds, cells)

        return StudyResult(
            config=config,
            city=city,
            fleet=fleet,
            runs=runs,
            clean=clean,
            extraction=extraction,
            matched=matched,
            kept_transitions=kept,
            route_stats=route_stats,
            grid=grid,
            cell_features=cell_features,
            mixed=mixed,
            funnel=funnel,
        )
