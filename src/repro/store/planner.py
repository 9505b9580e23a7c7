"""Delta-recomputation planner for the study pipeline.

:class:`StudyPlanner` turns the study's clean → extract → match →
features stages into a DAG over **shards** — one shard per (city, day)
of input trips.  For every stage of every shard it derives a
content-hash key (:mod:`repro.store.cachekey`), probes the
:class:`~repro.store.shards.ShardStore`, decodes hits and recomputes
only the dirty shards; the orchestrator then folds the reassembled
global per-unit lists exactly as a cold run would, which is what makes
warm results byte-identical.

The codecs here serialise the per-unit stage outputs
(:class:`~repro.cleaning.pipeline.TripCleanResult`,
:class:`~repro.od.transitions.SegmentExtraction`,
:class:`~repro.parallel.tasks.MatchOutcome`,
:class:`~repro.features.routestats.RouteStats`) into numeric columns
plus a JSON meta payload.  Identity caveat: artefacts never embed
fleet-global values (renumbered segment ids, global transition indices)
— those are reassigned at fold time from the aligned decode context, so
editing one day's input can never leak stale ids out of another day's
cached artefacts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.cleaning.pipeline import TripCleanResult
from repro.cleaning.segmentation import SegmentationReport, TripSegment
from repro.faults import TripError
from repro.features.routestats import RouteStats
from repro.matching.types import MatchedPoint, MatchedRoute
from repro.obs import get_logger, get_registry, span
from repro.od.gates import CrossingEvent
from repro.od.transitions import SegmentExtraction, Transition
from repro.parallel.tasks import MatchOutcome
from repro.store.cachekey import (
    chain_key,
    city_key,
    code_version,
    config_key,
    shard_input_hash,
)
from repro.store.shards import ShardArtefact, ShardStore
from repro.traces.model import RoutePoint

_log = get_logger(__name__)

#: Cleaning stages whose per-trip wall times travel inside the artefact
#: (mirrors ``repro.cleaning.pipeline.STAGES`` minus the fold-time
#: segment filter) — cached trips replay their recorded timings, so the
#: folded accounting table is identical warm or cold.
_CLEAN_STAGES = ("ordering", "duplicates", "outliers", "bounds", "segmentation")

_POINT_FIELDS = (
    ("point_id", np.int64),
    ("trip_id", np.int64),
    ("lat", np.float64),
    ("lon", np.float64),
    ("time_s", np.float64),
    ("speed_kmh", np.float64),
    ("fuel_ml", np.float64),
)


def shard_day(trip) -> int:
    """The (city, day) shard a trip belongs to: its start's epoch day."""
    if not trip.points:
        return 0
    return int(trip.points[0].time_s // 86_400.0)


# -- point packing ----------------------------------------------------------


def _pack_points(point_lists: list[list[RoutePoint]]) -> tuple[dict, np.ndarray]:
    """Concatenate point lists into columns plus per-list [start, end) ranges."""
    total = sum(len(pl) for pl in point_lists)
    columns = {
        f"p_{name}": np.empty(total, dtype=dtype)
        for name, dtype in _POINT_FIELDS
    }
    ranges = np.empty((len(point_lists), 2), dtype=np.int64)
    cursor = 0
    for i, points in enumerate(point_lists):
        ranges[i] = (cursor, cursor + len(points))
        for p in points:
            for name, __ in _POINT_FIELDS:
                columns[f"p_{name}"][cursor] = getattr(p, name)
            cursor += 1
    return columns, ranges


def _unpack_points(columns: dict, start: int, end: int) -> list[RoutePoint]:
    cols = [columns[f"p_{name}"] for name, __ in _POINT_FIELDS]
    return [
        RoutePoint(
            point_id=int(cols[0][i]),
            trip_id=int(cols[1][i]),
            lat=float(cols[2][i]),
            lon=float(cols[3][i]),
            time_s=float(cols[4][i]),
            speed_kmh=float(cols[5][i]),
            fuel_ml=float(cols[6][i]),
        )
        for i in range(start, end)
    ]


# -- clean codec ------------------------------------------------------------


def encode_clean(entries: list) -> tuple[dict, dict]:
    """``TripCleanResult | TripError`` per shard trip → (meta, columns)."""
    trips_meta = []
    point_lists: list[list[RoutePoint]] = []
    distances: list[float] = []
    for entry in entries:
        if isinstance(entry, TripError):
            trips_meta.append({"error": dataclasses.asdict(entry)})
            continue
        seg_meta = []
        for seg in entry.segments:
            seg_meta.append({
                "segment_id": seg.segment_id,
                "trip_id": seg.trip_id,
                "car_id": seg.car_id,
                "index": seg.index,
            })
            point_lists.append(seg.points)
            cached = seg._distance_m
            distances.append(float("nan") if cached is None else cached)
        trips_meta.append({
            "reordered": entry.reordered,
            "reordering_saved_m": entry.reordering_saved_m,
            "duplicates_removed": entry.duplicates_removed,
            "outliers_removed": entry.outliers_removed,
            "out_of_bounds_removed": entry.out_of_bounds_removed,
            "rule_hits": {str(k): v for k, v in entry.segmentation.rule_hits.items()},
            "segments_created": entry.segmentation.segments_created,
            "trips_processed": entry.segmentation.trips_processed,
            "stage_seconds": {
                stage: entry.stage_seconds.get(stage, 0.0)
                for stage in _CLEAN_STAGES
            },
            "segments": seg_meta,
        })
    columns, ranges = _pack_points(point_lists)
    columns["seg_ranges"] = ranges
    columns["seg_distance_m"] = np.array(distances, dtype=np.float64)
    return {"trips": trips_meta}, columns


def decode_clean(art: ShardArtefact) -> list:
    entries: list = []
    seg_cursor = 0
    ranges = art.columns["seg_ranges"]
    distances = art.columns["seg_distance_m"]
    for trip_meta in art.meta["trips"]:
        if "error" in trip_meta:
            entries.append(TripError(**trip_meta["error"]))
            continue
        segments = []
        for seg_meta in trip_meta["segments"]:
            start, end = (int(v) for v in ranges[seg_cursor])
            seg = TripSegment(
                segment_id=int(seg_meta["segment_id"]),
                trip_id=int(seg_meta["trip_id"]),
                car_id=int(seg_meta["car_id"]),
                index=int(seg_meta["index"]),
                points=_unpack_points(art.columns, start, end),
            )
            cached = float(distances[seg_cursor])
            if not np.isnan(cached):
                # Re-seed the memoised length with the value the
                # producing kernel computed, so fold-time filters see
                # bit-identical distances.
                seg._distance_m = cached
            segments.append(seg)
            seg_cursor += 1
        report = SegmentationReport(
            rule_hits={int(k): v for k, v in trip_meta["rule_hits"].items()},
            segments_created=int(trip_meta["segments_created"]),
            trips_processed=int(trip_meta["trips_processed"]),
        )
        entries.append(TripCleanResult(
            segments=segments,
            reordered=bool(trip_meta["reordered"]),
            reordering_saved_m=float(trip_meta["reordering_saved_m"]),
            duplicates_removed=int(trip_meta["duplicates_removed"]),
            outliers_removed=int(trip_meta["outliers_removed"]),
            out_of_bounds_removed=int(trip_meta["out_of_bounds_removed"]),
            segmentation=report,
            stage_seconds={
                stage: float(trip_meta["stage_seconds"][stage])
                for stage in _CLEAN_STAGES
            },
        ))
    return entries


# -- extract codec ----------------------------------------------------------


def encode_extract(entries: list[SegmentExtraction]) -> tuple[dict, dict]:
    gates: list[str] = []
    gate_index: dict[str, int] = {}

    def gate_id(name: str) -> int:
        if name not in gate_index:
            gate_index[name] = len(gates)
            gates.append(name)
        return gate_index[name]

    n = len(entries)
    crossed = np.zeros(n, dtype=np.int8)
    has_t = np.zeros(n, dtype=np.int8)
    within = np.zeros(n, dtype=np.int8)
    o_gate = np.zeros(n, dtype=np.int16)
    d_gate = np.zeros(n, dtype=np.int16)
    o_index = np.zeros(n, dtype=np.int64)
    d_index = np.zeros(n, dtype=np.int64)
    o_time = np.zeros(n, dtype=np.float64)
    d_time = np.zeros(n, dtype=np.float64)
    for i, entry in enumerate(entries):
        crossed[i] = entry.crossed
        t = entry.transition
        if t is None:
            continue
        has_t[i] = 1
        within[i] = bool(t.within_centre)
        o_gate[i] = gate_id(t.origin)
        d_gate[i] = gate_id(t.destination)
        o_index[i] = t.origin_event.index
        d_index[i] = t.destination_event.index
        o_time[i] = t.origin_event.time_s
        d_time[i] = t.destination_event.time_s
    columns = {
        "crossed": crossed, "has_transition": has_t, "within": within,
        "o_gate": o_gate, "d_gate": d_gate, "o_index": o_index,
        "d_index": d_index, "o_time": o_time, "d_time": d_time,
    }
    return {"gates": gates, "entries": n}, columns


def decode_extract(
    art: ShardArtefact, segments: list[TripSegment]
) -> list[SegmentExtraction]:
    gates = art.meta["gates"]
    cols = art.columns
    entries = []
    for i, seg in enumerate(segments):
        transition = None
        if cols["has_transition"][i]:
            origin = gates[int(cols["o_gate"][i])]
            destination = gates[int(cols["d_gate"][i])]
            transition = Transition(
                segment=seg,
                origin=origin,
                destination=destination,
                origin_event=CrossingEvent(
                    gate=origin,
                    index=int(cols["o_index"][i]),
                    time_s=float(cols["o_time"][i]),
                ),
                destination_event=CrossingEvent(
                    gate=destination,
                    index=int(cols["d_index"][i]),
                    time_s=float(cols["d_time"][i]),
                ),
                within_centre=bool(cols["within"][i]),
            )
        entries.append(SegmentExtraction(
            car_id=seg.car_id,
            crossed=bool(cols["crossed"][i]),
            transition=transition,
        ))
    return entries


# -- match codec ------------------------------------------------------------


def encode_match(entries: list[MatchOutcome]) -> tuple[dict, dict]:
    outcome_meta = []
    n = len(entries)
    kept = np.zeros(n, dtype=np.int8)
    has_route = np.zeros(n, dtype=np.int8)
    elapsed = np.zeros(n, dtype=np.float64)
    gaps = np.zeros(n, dtype=np.int64)
    m_ranges = np.zeros((n, 2), dtype=np.int64)
    e_ranges = np.zeros((n, 2), dtype=np.int64)
    point_lists: list[list[RoutePoint]] = []
    edge_id: list[int] = []
    arc_m: list[float] = []
    snap_x: list[float] = []
    snap_y: list[float] = []
    mdist: list[float] = []
    score: list[float] = []
    edge_seq: list[tuple[int, int]] = []
    m_cursor = e_cursor = 0
    for i, outcome in enumerate(entries):
        outcome_meta.append({
            "error": dataclasses.asdict(outcome.error)
            if outcome.error is not None else None,
            "source": outcome.route_source,
        })
        kept[i] = bool(outcome.kept)
        elapsed[i] = outcome.elapsed_s
        route = outcome.route
        if route is None:
            m_ranges[i] = (m_cursor, m_cursor)
            e_ranges[i] = (e_cursor, e_cursor)
            continue
        has_route[i] = 1
        gaps[i] = route.gaps_filled
        point_lists.append([m.point for m in route.matched])
        for m in route.matched:
            edge_id.append(m.edge_id)
            arc_m.append(m.arc_m)
            snap_x.append(m.snapped_xy[0])
            snap_y.append(m.snapped_xy[1])
            mdist.append(m.match_distance_m)
            score.append(m.score)
        m_ranges[i] = (m_cursor, m_cursor + len(route.matched))
        m_cursor += len(route.matched)
        edge_seq.extend(route.edge_sequence)
        e_ranges[i] = (e_cursor, e_cursor + len(route.edge_sequence))
        e_cursor += len(route.edge_sequence)
    columns, __ = _pack_points(point_lists)
    columns.pop("seg_ranges", None)
    columns.update({
        "kept": kept, "has_route": has_route, "elapsed_s": elapsed,
        "gaps_filled": gaps, "m_ranges": m_ranges, "e_ranges": e_ranges,
        "m_edge_id": np.array(edge_id, dtype=np.int64),
        "m_arc_m": np.array(arc_m, dtype=np.float64),
        "m_snap_x": np.array(snap_x, dtype=np.float64),
        "m_snap_y": np.array(snap_y, dtype=np.float64),
        "m_match_distance_m": np.array(mdist, dtype=np.float64),
        "m_score": np.array(score, dtype=np.float64),
        "edge_seq": np.array(edge_seq, dtype=np.int64).reshape(-1, 2),
    })
    return {"outcomes": outcome_meta}, columns


def decode_match(
    art: ShardArtefact,
    indices: list[int],
    transitions: list[Transition],
) -> list[MatchOutcome]:
    """Rebuild outcomes; global index and segment ids come from context."""
    cols = art.columns
    entries = []
    for i, (global_index, transition) in enumerate(zip(indices, transitions)):
        meta = art.meta["outcomes"][i]
        route = None
        if cols["has_route"][i]:
            m_start, m_end = (int(v) for v in cols["m_ranges"][i])
            e_start, e_end = (int(v) for v in cols["e_ranges"][i])
            points = _unpack_points(cols, m_start, m_end)
            matched = [
                MatchedPoint(
                    point=points[j - m_start],
                    edge_id=int(cols["m_edge_id"][j]),
                    arc_m=float(cols["m_arc_m"][j]),
                    snapped_xy=(float(cols["m_snap_x"][j]),
                                float(cols["m_snap_y"][j])),
                    match_distance_m=float(cols["m_match_distance_m"][j]),
                    score=float(cols["m_score"][j]),
                )
                for j in range(m_start, m_end)
            ]
            route = MatchedRoute(
                # Renumbered per run at fold time — never from the cache.
                segment_id=transition.segment.segment_id,
                car_id=transition.segment.car_id,
                matched=matched,
                edge_sequence=[
                    (int(cols["edge_seq"][j][0]), int(cols["edge_seq"][j][1]))
                    for j in range(e_start, e_end)
                ],
                gaps_filled=int(cols["gaps_filled"][i]),
            )
        error = meta["error"]
        entries.append(MatchOutcome(
            index=global_index,
            route=route,
            kept=bool(cols["kept"][i]),
            error=TripError(**error) if error is not None else None,
            elapsed_s=float(cols["elapsed_s"][i]),
            route_source=meta["source"],
        ))
    return entries


# -- features codec ---------------------------------------------------------

_STATS_FLOAT = ("route_time_h", "route_distance_km", "low_speed_pct",
                "normal_speed_pct", "fuel_ml")
_STATS_INT = ("car_id", "n_traffic_lights", "n_junctions",
              "n_pedestrian_crossings", "n_bus_stops")


def encode_features(rows: list[RouteStats]) -> tuple[dict, dict]:
    columns = {
        name: np.array([getattr(r, name) for r in rows], dtype=np.float64)
        for name in _STATS_FLOAT
    }
    columns.update({
        name: np.array([getattr(r, name) for r in rows], dtype=np.int64)
        for name in _STATS_INT
    })
    meta = {
        "direction": [r.direction for r in rows],
        "season": [r.season for r in rows],
    }
    return meta, columns


def decode_features(art: ShardArtefact) -> list[RouteStats]:
    n = len(art.meta["direction"])
    return [
        RouteStats(
            direction=art.meta["direction"][i],
            season=art.meta["season"][i],
            **{name: float(art.columns[name][i]) for name in _STATS_FLOAT},
            **{name: int(art.columns[name][i]) for name in _STATS_INT},
        )
        for i in range(n)
    ]


# -- the planner ------------------------------------------------------------


@dataclass
class Shard:
    """One (city, day) input shard and its per-stage artefact keys."""

    day: int
    label: str
    positions: list[int] = field(default_factory=list)  # fleet.trips indices
    keys: dict[str, str] = field(default_factory=dict)


class StudyPlanner:
    """Plans and serves the study's stages from a :class:`ShardStore`.

    Lifecycle: :meth:`plan` groups the simulated fleet into shards and
    derives the chained stage keys; the four ``*_stage`` methods then
    each probe the store per shard, decode hits, hand the flattened
    misses to the stage's ``compute`` callable (the caller's existing
    compute path, pooled for ``match`` only), persist the freshly
    computed shard artefacts, and return the per-unit results in global
    order — ready for the unchanged orchestrator fold.
    """

    def __init__(self, store: ShardStore, config) -> None:
        self.store = store
        self.config = config
        self.shards: list[Shard] = []
        self._day_of_trip: dict[int, int] = {}

    # -- planning -----------------------------------------------------------

    def plan(self, fleet) -> list[Shard]:
        """Shard the fleet by (city, day) and derive every stage key."""
        with span("store_plan"):
            code = code_version()
            city = city_key(self.config)[:8]
            cfg = {stage: config_key(self.config, stage)
                   for stage in ("clean", "extract", "match", "features")}
            by_day: dict[int, Shard] = {}
            for pos, trip in enumerate(fleet.trips):
                day = shard_day(trip)
                shard = by_day.get(day)
                if shard is None:
                    shard = by_day[day] = Shard(day=day, label=f"{city}-d{day}")
                shard.positions.append(pos)
                self._day_of_trip[trip.trip_id] = day
            for day in sorted(by_day):
                shard = by_day[day]
                input_hash = shard_input_hash(
                    [fleet.trips[p] for p in shard.positions]
                )
                k = chain_key("clean", code, input_hash, cfg["clean"])
                shard.keys["clean"] = k
                k = chain_key("extract", code, k, cfg["extract"])
                shard.keys["extract"] = k
                k = chain_key("match", code, k, cfg["match"])
                shard.keys["match"] = k
                shard.keys["features"] = chain_key(
                    "features", code, k, cfg["features"]
                )
                self.shards.append(shard)
            get_registry().gauge("store.shards_planned").set(len(self.shards))
            _log.info(
                "study sharded",
                extra={"shards": len(self.shards), "trips": len(fleet.trips)},
            )
        return self.shards

    def _shard_of_trip(self, trip_id: int) -> int:
        return self._day_of_trip[trip_id]

    # -- generic stage runner -----------------------------------------------

    def _run_stage(self, stage, unit_days, compute, encode, decode):
        """Serve one stage: cached shards decode, dirty shards recompute.

        ``unit_days`` maps each global unit position to its shard day (in
        global unit order); ``decode(artefact, indices)`` rebuilds a
        shard's results from its artefact and the global indices of its
        units; ``compute(indices)`` computes results for the given
        global indices, aligned.  Returns the full results list in
        global order.
        """
        by_day: dict[int, list[int]] = {shard.day: [] for shard in self.shards}
        for pos, day in enumerate(unit_days):
            by_day[day].append(pos)
        results: list = [None] * len(unit_days)
        misses: list[tuple[Shard, list[int]]] = []
        registry = get_registry()
        for shard in self.shards:
            indices = by_day[shard.day]
            art = self.store.get(shard.keys[stage], stage, shard.label)
            decoded = None
            if art is not None:
                try:
                    decoded = decode(art, indices)
                    if len(decoded) != len(indices):
                        raise ValueError(
                            f"{len(decoded)} entries for {len(indices)} units"
                        )
                except Exception as exc:
                    registry.counter("store.decode_errors").inc()
                    _log.warning(
                        "undecodable shard artefact; recomputing",
                        extra={"stage": stage, "shard": shard.label,
                               "error": str(exc)},
                    )
                    self.store.drop(shard.keys[stage])
                    decoded = None
            if decoded is None:
                misses.append((shard, indices))
                continue
            for pos, value in zip(indices, decoded):
                results[pos] = value
        if misses:
            registry.counter("store.recomputed").inc(len(misses))
            registry.counter(f"store.recomputed.{stage}").inc(len(misses))
            flat = [pos for __, indices in misses for pos in indices]
            flat.sort()
            computed = compute(flat)
            for pos, value in zip(flat, computed):
                results[pos] = value
            for shard, indices in misses:
                meta, columns = encode([results[pos] for pos in indices])
                self.store.put(
                    shard.keys[stage], stage, shard.label, meta, columns
                )
        return results

    # -- stages -------------------------------------------------------------

    def clean_stage(self, fleet, compute_trips) -> list:
        """Per-trip cleaning results (``TripCleanResult | TripError``)."""
        unit_days = [self._shard_of_trip(t.trip_id) for t in fleet.trips]
        return self._run_stage(
            "clean",
            unit_days,
            compute=lambda idx: compute_trips([fleet.trips[i] for i in idx]),
            encode=encode_clean,
            decode=lambda art, idx: decode_clean(art),
        )

    def extract_stage(self, segments, compute_segments) -> list:
        """Per-segment funnel outcomes (``SegmentExtraction``)."""
        unit_days = [self._shard_of_trip(s.trip_id) for s in segments]
        return self._run_stage(
            "extract",
            unit_days,
            compute=lambda idx: compute_segments([segments[i] for i in idx]),
            encode=encode_extract,
            decode=lambda art, idx: decode_extract(
                art, [segments[i] for i in idx]
            ),
        )

    def match_stage(self, tasks, transitions, compute_tasks) -> list:
        """Per-transition match outcomes (``MatchOutcome``).

        ``tasks`` and ``transitions`` are aligned by transition index;
        recomputed subsets keep their global ``MatchTask.index``, so the
        compute path is exactly the cold one.
        """
        unit_days = [
            self._shard_of_trip(t.segment.trip_id) for t in transitions
        ]

        def compute(indices: list[int]) -> list:
            outcomes = compute_tasks([tasks[i] for i in indices])
            outcomes.sort(key=lambda o: o.index)
            return outcomes

        return self._run_stage(
            "match",
            unit_days,
            compute=compute,
            encode=encode_match,
            decode=lambda art, idx: decode_match(
                art, idx, [transitions[i] for i in idx]
            ),
        )

    def features_stage(self, kept, transitions, matched, compute_one) -> dict:
        """Table 4 route statistics for the kept transitions, by index."""
        unit_days = [
            self._shard_of_trip(transitions[i].segment.trip_id) for i in kept
        ]
        rows = self._run_stage(
            "features",
            unit_days,
            compute=lambda idx: [
                compute_one(transitions[kept[i]], matched[kept[i]])
                for i in idx
            ],
            encode=encode_features,
            decode=lambda art, idx: decode_features(art),
        )
        return {kept_index: row for kept_index, row in zip(kept, rows)}
