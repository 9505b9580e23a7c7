"""The benchmark's five workloads.

Each workload makes its inputs from the seed (``setup``), runs one timed
unit of work through the program's public API (``unit``), and checks the
program's outputs after timing (``check``).  The same ``unit`` runs
untraced for the end-to-end metrics and traced, with layer proxies
installed, for the per-layer ones.
"""

from __future__ import annotations

import csv
import dataclasses
import heapq
import pickle
import resource
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from repro.cleaning import CleaningPipeline
from repro.experiments import study as study_module
from repro.experiments.fidelity import segmentation_fidelity, transition_fidelity
from repro.experiments.study import OuluStudy, StudyConfig
from repro.faults import Quarantine
from repro.faults.errors import ADVISORY_KINDS
from repro.matching import HmmMatcher, IncrementalMatcher
from repro.matching import gapfill, hmm
from repro.matching.evaluate import evaluate_matcher
from repro.obs import MetricsRegistry, use_registry
from repro.od import TransitionExtractor
from repro.parallel import ExecutorConfig, TripExecutor
from repro.roadnet import CitySpec, build_synthetic_oulu
from repro.roadnet.routing import RouteBatch
from repro.stats import RandomInterceptModel
from repro.store.planner import StudyPlanner
from repro.store.shards import ShardStore, StoreConfig
from repro.stream import (
    CheckpointStore,
    StreamConfig,
    StreamService,
    replay_rows,
    stream_fingerprint,
    study_fingerprint,
)
from repro.stream import service as service_module
from repro.traces import FleetSpec, TaxiFleetSimulator
from repro.traces.io import read_points_csv

#: Micro-batch size and checkpoint cadence of the ``serve`` workload.
SERVE_BATCH = 64
SERVE_CHECKPOINT_EVERY = 4

#: Accuracy floors, checked at each workload's default scale only: just
#: under the minimum measured over 25 seeds (2012, 7, 0-19 and four
#: large ones), because the seed is the caller's choice.
FLOORS = {
    "segmentation_recall": 0.93,      # measured 0.950-0.969 (20 days)
    "transition_recall": 0.55,        # measured 0.682-0.929 (20 days)
    "edge_jaccard_incremental": 0.92,  # measured 0.935-0.961 (10 days)
    "edge_jaccard_hmm": 0.85,         # measured 0.866-0.898 (10 days)
}


def layer_targets() -> list[tuple]:
    """Public entry points of each layer, as ``(owner, attr, layer, name)``.

    ``name`` is the span name (a program stage name where one exists) or
    a function of the call's arguments.
    """
    return [
        (study_module, "build_synthetic_oulu", "roadnet", "build_city"),
        (service_module, "build_synthetic_oulu", "roadnet", "build_city"),
        (RouteBatch, "resolve", "roadnet", "route_batch"),
        (RouteBatch, "resolve_costs", "roadnet", "route_costs"),
        (gapfill, "cached_shortest_path", "roadnet", "route"),
        (hmm, "dijkstra", "roadnet", "route"),
        (TaxiFleetSimulator, "__init__", "traces", "simulate_init"),
        (TaxiFleetSimulator, "simulate", "traces", "simulate"),
        (CleaningPipeline, "run", "cleaning", "clean"),
        (CleaningPipeline, "compute_units", "cleaning", "clean_units"),
        (CleaningPipeline, "clean_trip_unit", "cleaning", "clean_trip"),
        (TransitionExtractor, "extract", "od", "extract"),
        (TransitionExtractor, "compute_units", "od", "extract_units"),
        (TransitionExtractor, "extract_segment", "od", "extract_segment"),
        (study_module, "match_task", "matching", "match_task"),
        (service_module, "match_task", "matching", "match_task"),
        (study_module, "transition_route_stats", "features", "route_stats"),
        (service_module, "transition_route_stats", "features", "route_stats"),
        (study_module, "cell_feature_counts", "features", "cell_features"),
        (service_module, "cell_feature_counts", "features", "cell_features"),
        (RandomInterceptModel, "fit", "stats", "mixed_model"),
        (TripExecutor, "map_chunked", "parallel", lambda args: f"pool_{args[1]}"),
        (TripExecutor, "close", "parallel", "pool_close"),
        (StudyPlanner, "plan", "store", "store_plan"),
        (StudyPlanner, "clean_stage", "store", "store_clean"),
        (StudyPlanner, "extract_stage", "store", "store_extract"),
        (StudyPlanner, "match_stage", "store", "store_match"),
        (StudyPlanner, "features_stage", "store", "store_features"),
        (ShardStore, "get", "store", "store_get"),
        (ShardStore, "put", "store", "store_put"),
        (CheckpointStore, "write", "stream", "checkpoint"),
    ]


@dataclass
class Rep:
    """What one timed unit produced."""

    root: int                    # span id of the timed section
    seconds: float
    points: int                  # raw GPS points the unit processed
    attempted: int               # units of work (trips, transitions, calls)
    failed: int
    fingerprint: object          # must repeat exactly across units
    counters: dict
    match_ms: tuple[float, float]  # matcher-call latency p50, p90
    #: Workload-specific numbers; keys named like a per-layer metric
    #: become that metric (median over traced units).
    info: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)  # the program's own span tree


def counted_failures(errors) -> int:
    return sum(1 for e in errors if e.kind not in ADVISORY_KINDS)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def percentiles_ms(seconds: list[float]) -> tuple[float, float]:
    if not seconds:
        return (0.0, 0.0)
    p50, p90 = np.percentile(np.asarray(seconds) * 1000.0, [50, 90])
    return (float(p50), float(p90))


def histogram_ms(metrics: dict, name: str) -> tuple[float, float]:
    summary = metrics["histograms"].get(name, {})
    return (summary.get("p50", 0.0) * 1000.0, summary.get("p90", 0.0) * 1000.0)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def study_accuracy(result, runs) -> dict:
    return {
        "segmentation_recall": segmentation_fidelity(result.clean.segments, runs).recall,
        "transition_recall": transition_fidelity(
            dataclasses.replace(result, runs=runs)
        ).recall,
    }


class Workload:
    """One named input set, its timed unit and its output checks."""

    name = ""
    default_days = 0

    def __init__(self, seed: int, days: int | None, workdir: Path) -> None:
        self.seed = seed
        self.days = days or self.default_days
        self.workdir = workdir
        #: Accuracy floors only hold at the default scale.
        self.floors = FLOORS if self.days == self.default_days else {}
        #: Fleet points and cleaning report, for the per-layer metrics.
        self.points = 0
        self.clean_report = None

    def fleet_spec(self) -> FleetSpec:
        return FleetSpec(n_days=self.days, seed=self.seed)

    def build_city(self, tr):
        with tr.span("build_city", "roadnet"):
            return build_synthetic_oulu(CitySpec())

    def simulate(self, tr, city):
        with tr.span("simulate", "traces"):
            fleet, runs = TaxiFleetSimulator(city, self.fleet_spec()).simulate()
        self.points = fleet.point_count
        return fleet, runs

    def setup(self, tr):
        raise NotImplementedError

    def unit(self, inputs, tr) -> Rep:
        raise NotImplementedError

    def check(self, inputs, reps: list[Rep]) -> list[str]:
        """Failed checks; common ones first, then the workload's own."""
        failures = []
        if any(r.fingerprint != reps[0].fingerprint for r in reps):
            failures.append("outputs differ between repetitions")
        if any(r.failed for r in reps):
            failures.append("some units failed")
        for name, floor in self.floors.items():
            values = [r.info[name] for r in reps if name in r.info]
            if values and min(values) < floor:
                failures.append(f"{name} {min(values):.4f} under floor {floor}")
        return failures + self.check_outputs(inputs, reps)

    def check_outputs(self, inputs, reps: list[Rep]) -> list[str]:
        return []


class Study(Workload):
    name = "study"
    default_days = 20
    workers = 0

    def setup(self, tr):
        self.build_city(tr)
        return StudyConfig(
            fleet=self.fleet_spec(), executor=ExecutorConfig(workers=self.workers)
        )

    def unit(self, config, tr) -> Rep:
        with tr.section(self.name) as root:
            result = OuluStudy(config).run()
        self.points = result.fleet.point_count
        self.clean_report = result.clean.report
        return Rep(
            root=root["id"],
            seconds=root["end"] - root["start"],
            points=result.fleet.point_count,
            attempted=len(result.fleet) + len(result.extraction.transitions),
            failed=counted_failures(result.errors),
            fingerprint=study_fingerprint(result),
            counters=result.metrics["counters"],
            match_ms=histogram_ms(result.metrics, "matching.match_seconds"),
            info={
                **study_accuracy(result, result.runs),
                **self.pool_info(config, result),
                "features.points_gridded": result.grid.point_count,
            },
            spans=result.metrics["spans"],
        )

    def pool_info(self, config, result) -> dict:
        return {}


class StudyWorkers2(Study):
    name = "study_workers2"
    workers = 2

    def check_outputs(self, config, reps):
        serial = OuluStudy(dataclasses.replace(config, executor=ExecutorConfig())).run()
        if study_fingerprint(serial) != reps[0].fingerprint:
            return ["2-worker study differs from the serial study"]
        return []

    def pool_info(self, config, result) -> dict:
        """What the pool ships and holds: pickled sizes, worker memory."""
        return {
            "parallel.trip_bytes": len(pickle.dumps(result.fleet.trips)),
            "parallel.payload_bytes": len(pickle.dumps(config.worker_payload())),
            "parallel.worker_rss_mb":
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        }


class MatchClock:
    """Matcher proxy that times every ``match`` call."""

    def __init__(self, matcher, tr) -> None:
        self.matcher = matcher
        self.tr = tr
        self.seconds: list[float] = []

    def match(self, *args, **kwargs):
        with self.tr.span("match", "matching") as record:
            route = self.matcher.match(*args, **kwargs)
        self.seconds.append(record["end"] - record["start"])
        return route


class MatchFleet(Workload):
    name = "match_fleet"
    default_days = 10

    def setup(self, tr):
        city = self.build_city(tr)
        fleet, runs = self.simulate(tr, city)
        with tr.span("clean", "cleaning"):
            clean = CleaningPipeline().run(fleet)
        self.clean_report = clean.report
        projector = city.projector
        return SimpleNamespace(
            city=city, runs=runs, segments=clean.segments,
            to_xy=lambda p: projector.to_xy(p.lat, p.lon),
        )

    def unit(self, inp, tr) -> Rep:
        graph = inp.city.graph
        registry = MetricsRegistry()
        with use_registry(registry), tr.section(self.name) as root:
            clocks = [MatchClock(IncrementalMatcher(graph), tr),
                      MatchClock(HmmMatcher(graph), tr)]
            evaluations = [
                evaluate_matcher(clock, inp.segments, inp.runs, graph, inp.to_xy)
                for clock in clocks
            ]
        calls = [s for clock in clocks for s in clock.seconds]
        incremental, hmm_eval = evaluations
        return Rep(
            root=root["id"],
            seconds=root["end"] - root["start"],
            points=sum(len(s.points) for s in inp.segments),
            attempted=2 * len(inp.segments),
            failed=sum(e.n_segments - e.n_matched for e in evaluations),
            fingerprint=evaluations,
            counters=registry.snapshot()["counters"],
            match_ms=percentiles_ms(calls),
            info={
                "edge_jaccard_incremental": incremental.mean_jaccard,
                "edge_jaccard_hmm": hmm_eval.mean_jaccard,
                "matching.calls": len(calls),
            },
        )


class RowClock:
    """Row iterator timing how long the service holds each micro-batch:
    from yielding a batch's last row until it asks for the next row."""

    def __init__(self, rows, batch_size: int) -> None:
        self.rows = rows
        self.batch_size = batch_size
        self.count = 0
        self.held: list[float] = []
        self._yielded_at: float | None = None

    def __iter__(self):
        return self

    def __next__(self):
        if self._yielded_at is not None:
            self.held.append(perf_counter() - self._yielded_at)
            self._yielded_at = None
        row = next(self.rows)
        self.count += 1
        if self.count % self.batch_size == 0:
            self._yielded_at = perf_counter()
        return row


def write_live_feed(fleet, path: Path) -> None:
    """Write the fleet as a live feed would deliver it: taxis interleaved.

    Trips merge by the running maximum of their fix times, so each trip's
    rows keep their recorded order (ordering noise included), and trip
    ids are renumbered by first arrival, as the stream's ordering
    contract requires.  A trip-major file instead keeps every closed trip
    of one taxi pending until the next taxi's feed passes its end, which
    makes the service's state, and its cost, vary with the seed.
    """
    def rows(trip):
        latest = float("-inf")
        for seq, point in enumerate(trip.points):
            latest = max(latest, point.time_s)
            yield latest, trip.trip_id, seq, trip.car_id, point

    renumbered: dict[int, int] = {}
    with path.open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["car_id", "point_id", "trip_id", "lat", "lon",
                         "time_s", "speed_kmh", "fuel_ml"])
        for __, trip_id, __, car_id, p in heapq.merge(*map(rows, fleet.trips)):
            new_id = renumbered.setdefault(trip_id, len(renumbered) + 1)
            writer.writerow([car_id, p.point_id, new_id, repr(p.lat), repr(p.lon),
                             repr(p.time_s), repr(p.speed_kmh), repr(p.fuel_ml)])


class Serve(Workload):
    name = "serve"
    default_days = 20

    def setup(self, tr):
        city = self.build_city(tr)
        fleet, __ = self.simulate(tr, city)
        feed = self.workdir / "points.csv"
        with tr.span("write_feed", "traces"):
            write_live_feed(fleet, feed)
        return SimpleNamespace(csv=feed, config=StudyConfig(fleet=self.fleet_spec()))

    def unit(self, inp, tr) -> Rep:
        checkpoints = self.workdir / "checkpoints"
        shutil.rmtree(checkpoints, ignore_errors=True)
        service = StreamService(StreamConfig(
            study=inp.config, batch_size=SERVE_BATCH,
            checkpoint_every=SERVE_CHECKPOINT_EVERY,
            checkpoint_dir=str(checkpoints),
        ))
        rows = RowClock(replay_rows(inp.csv), SERVE_BATCH)
        with tr.section(self.name) as root:
            with tr.span("serve", "stream"):
                result = service.run(rows=rows, resume=False)
        checkpoint_bytes = dir_bytes(checkpoints)
        shutil.rmtree(checkpoints)
        self.clean_report = result.clean.report
        batch_p50, batch_p90 = percentiles_ms(rows.held)
        return Rep(
            root=root["id"],
            seconds=root["end"] - root["start"],
            points=result.rows_ingested,
            attempted=result.trips_seen + result.transitions_total,
            failed=counted_failures(result.errors),
            fingerprint=stream_fingerprint(result),
            counters=result.metrics["counters"],
            match_ms=histogram_ms(result.metrics, "matching.match_seconds"),
            info={
                "features.points_gridded": result.grid.point_count,
                "checkpoints": result.checkpoints_written,
                "stream.checkpoint_bytes": checkpoint_bytes,
                "batch_ms_p50": batch_p50,
                "batch_ms_p90": batch_p90,
                "batches": len(rows.held),
            },
        )

    def check_outputs(self, inp, reps):
        failures = []
        if not all(r.info["checkpoints"] for r in reps):
            failures.append("no checkpoint written")
        quarantine = Quarantine()
        fleet = read_points_csv(inp.csv, quarantine=quarantine)
        batch = OuluStudy(inp.config).run(fleet=fleet)
        if study_fingerprint(batch, quarantine.errors) != reps[0].fingerprint:
            failures.append("stream output differs from the batch study")
        return failures


class StoreRerun(Workload):
    name = "store_rerun"
    default_days = 20

    def setup(self, tr):
        city = self.build_city(tr)
        fleet, runs = self.simulate(tr, city)
        config = StudyConfig(
            fleet=self.fleet_spec(),
            store=StoreConfig(str(self.workdir / "store")),
        )
        return SimpleNamespace(fleet=fleet, runs=runs, config=config)

    def unit(self, inp, tr) -> Rep:
        store = Path(inp.config.store.dir)
        shutil.rmtree(store, ignore_errors=True)
        with tr.section(self.name) as root:
            with tr.span("cold", None) as cold_span:
                cold = OuluStudy(inp.config).run(fleet=inp.fleet)
            with tr.span("warm", None) as warm_span:
                warm = OuluStudy(inp.config).run(fleet=inp.fleet)
        store_bytes = dir_bytes(store)
        shutil.rmtree(store)
        self.clean_report = cold.clean.report
        cold_s = cold_span["end"] - cold_span["start"]
        warm_s = warm_span["end"] - warm_span["start"]
        warm_counters = warm.metrics["counters"]
        hits = warm_counters.get("store.hits", 0)
        units = len(inp.fleet) + len(cold.extraction.transitions)
        return Rep(
            root=root["id"],
            seconds=root["end"] - root["start"],
            points=inp.fleet.point_count,
            attempted=2 * units,
            failed=counted_failures(cold.errors) + counted_failures(warm.errors),
            fingerprint=study_fingerprint(cold),
            counters=cold.metrics["counters"],
            match_ms=histogram_ms(cold.metrics, "matching.match_seconds"),
            info={
                **study_accuracy(cold, inp.runs),
                "warm_equals_cold": study_fingerprint(warm) == study_fingerprint(cold),
                "features.points_gridded": cold.grid.point_count,
                "cold_s": cold_s,
                "warm_s": warm_s,
                "store.bytes": store_bytes,
                "store.writes": cold.metrics["counters"].get("store.writes", 0),
                "store.warm_hit_frac":
                    ratio(hits, hits + warm_counters.get("store.misses", 0)),
                "store.warm_over_cold": warm_s / cold_s,
            },
        )

    def check_outputs(self, inp, reps):
        failures = []
        if not all(r.info["warm_equals_cold"] for r in reps):
            failures.append("warm rerun differs from the cold run")
        if any(r.info["store.warm_hit_frac"] != 1.0 for r in reps):
            failures.append("warm rerun missed the store")
        return failures


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Study, StudyWorkers2, MatchFleet, Serve, StoreRerun)
}
