"""Per-trip references for the batch cleaning and gating kernels.

The cleaning pipeline and the gate funnel once ran one trip (one
segment) at a time; :func:`repro.cleaning.pipeline.clean_batch` and
:meth:`repro.od.TransitionExtractor.extract_segments` now run a whole
batch as one set of array passes.  These are the per-trip bodies they
replaced — ordering repair and Table 2 segmentation over one trip's own
columns, the sequential duplicate and glitch filters over its points,
and the per-segment gate prefilter — and the batch kernels must match
them bit for bit: same segments (``repr``-equal, seeded lengths
included), same reports, same crossing events.

:func:`clean_batch` and :func:`extract_segments` loop the per-unit
bodies with the batch kernels' signatures, so either can be
monkeypatched in for the other.  Their stage functions are parameters,
which lets a test compose them from the scalar oracles instead.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.cleaning.filters import FilterConfig
from repro.cleaning.ordering import OrderingReport
from repro.cleaning.pipeline import STAGES, TripCleanResult
from repro.cleaning.segmentation import (
    SegmentationConfig,
    SegmentationReport,
    TripSegment,
)
from repro.geo.distance import haversine_m
from repro.geo.vector import gap_metrics, haversine_m_vec
from repro.obs import get_registry
from repro.od.gates import CrossingEvent
from repro.od.transitions import SegmentExtraction
from repro.traces.model import RoutePoint, Trip

# -- ordering repair -----------------------------------------------------------


def _columns(points: list[RoutePoint]) -> tuple[np.ndarray, ...]:
    n = len(points)
    return (
        np.fromiter((p.point_id for p in points), dtype=np.int64, count=n),
        np.fromiter((p.lat for p in points), dtype=np.float64, count=n),
        np.fromiter((p.lon for p in points), dtype=np.float64, count=n),
        np.fromiter((p.time_s for p in points), dtype=np.float64, count=n),
    )


def _distance_under(lat: np.ndarray, lon: np.ndarray, order: np.ndarray) -> float:
    lat = lat[order]
    lon = lon[order]
    if lat.shape[0] < 2:
        return 0.0
    return float(np.sum(haversine_m_vec(lat[:-1], lon[:-1], lat[1:], lon[1:])))


def repair_ordering(trip: Trip) -> tuple[Trip, OrderingReport]:
    """Repair one trip's ordering over its own columns (stable argsorts)."""
    point_id, lat, lon, time_s = _columns(trip.points)
    order_id = np.argsort(point_id, kind="stable")
    order_time = np.argsort(time_s, kind="stable")
    d_id = _distance_under(lat, lon, order_id)
    d_time = _distance_under(lat, lon, order_time)
    consistent = bool(np.array_equal(point_id[order_id], point_id[order_time]))
    if d_time < d_id:
        chosen = "time_s"
        sequence = [trip.points[i] for i in order_time]
    else:
        chosen = "point_id"
        sequence = [trip.points[i] for i in order_id]
    report = OrderingReport(
        trip_id=trip.trip_id,
        distance_by_id_m=d_id,
        distance_by_time_m=d_time,
        chosen=chosen,
        was_consistent=consistent,
    )
    return trip.with_points(_realign(sequence)), report


def _realign(sequence: list[RoutePoint]) -> list[RoutePoint]:
    ids = sorted(p.point_id for p in sequence)
    times = sorted(p.time_s for p in sequence)
    return [
        RoutePoint(pid, p.trip_id, p.lat, p.lon, ts, p.speed_kmh, p.fuel_ml)
        for p, pid, ts in zip(sequence, ids, times)
    ]


# -- point filters -------------------------------------------------------------


def drop_duplicates(points: list[RoutePoint], config: FilterConfig) -> list[RoutePoint]:
    if not points:
        return []
    out = [points[0]]
    for p in points[1:]:
        prev = out[-1]
        same_time = abs(p.time_s - prev.time_s) <= config.duplicate_epsilon_s
        same_place = (
            haversine_m(p.lat, p.lon, prev.lat, prev.lon) <= config.duplicate_epsilon_m
        )
        if same_time and same_place:
            continue
        out.append(p)
    return out


def remove_position_outliers(
    points: list[RoutePoint], config: FilterConfig
) -> list[RoutePoint]:
    if len(points) < 3:
        return list(points)
    pts = list(points)
    v01 = _implied_speed(pts[0], pts[1])
    v02 = _implied_speed(pts[0], pts[2])
    v12 = _implied_speed(pts[1], pts[2])
    if v01 > config.max_implied_speed_mps and v02 > config.max_implied_speed_mps \
            and v12 <= config.max_implied_speed_mps:
        pts = pts[1:]
    out = [pts[0]]
    for p in pts[1:]:
        if _implied_speed(out[-1], p) <= config.max_implied_speed_mps:
            out.append(p)
    return out


def _implied_speed(a: RoutePoint, b: RoutePoint) -> float:
    dt = abs(b.time_s - a.time_s)
    d = haversine_m(a.lat, a.lon, b.lat, b.lon)
    if dt <= 0.0:
        return float("inf") if d > 1.0 else 0.0
    return d / dt


def within_bounds(points: list[RoutePoint], config: FilterConfig) -> list[RoutePoint]:
    if config.bounds is None:
        return list(points)
    lat0, lon0, lat1, lon1 = config.bounds
    return [
        p for p in points if lat0 <= p.lat <= lat1 and lon0 <= p.lon <= lon1
    ]


# -- Table 2 segmentation ------------------------------------------------------


def _stop_rules(dist, dt, config: SegmentationConfig, window_1_s: float):
    with np.errstate(divide="ignore", invalid="ignore"):
        speed = dist / dt
    m1 = (dt >= window_1_s) & (dist <= config.rule1_epsilon_m)
    m2 = (dt > config.rule2_window_s) & (dist < config.rule2_distance_m)
    m3 = (dt >= config.rule3_min_window_s) & (speed < config.rule3_speed_mps)
    m4 = (
        (dt > config.rule4_window_s)
        & (dist < config.rule4_distance_m)
        & (dt > 0.0)
        & (speed >= config.rule3_speed_mps)
    )
    return np.select([m1, m2, m3, m4], [1, 2, 3, 4], default=0)


def _split_spans(lo, hi, dist, dt, config, window_1_s, report):
    if hi - lo < 2:
        return []
    rule = _stop_rules(dist[lo : hi - 1], dt[lo : hi - 1], config, window_1_s)
    for r in range(1, 5):
        hits = int(np.count_nonzero(rule == r))
        if hits:
            report.rule_hits[r] += hits
    bounds = [lo, *(lo + int(g) + 1 for g in np.flatnonzero(rule)), hi]
    return [(s, e) for s, e in zip(bounds, bounds[1:]) if e - s >= 2]


def segment_trip(
    trip: Trip,
    config: SegmentationConfig | None = None,
    first_segment_id: int = 1,
) -> tuple[list[TripSegment], SegmentationReport]:
    """Table 2 over one trip's own gap arrays."""
    config = config or SegmentationConfig()
    report = SegmentationReport(trips_processed=1)
    __, lat, lon, time_s = _columns(trip.points)
    dist, dt = gap_metrics(lat, lon, time_s)
    n = len(trip.points)
    first_round = _split_spans(0, n, dist, dt, config, config.rule1_window_s, report)
    final_spans: list[tuple[int, int]] = []
    for lo, hi in first_round:
        if float(np.sum(dist[lo : hi - 1])) > config.rule5_length_m:
            report.rule_hits[5] += 1
            final_spans.extend(
                _split_spans(lo, hi, dist, dt, config, config.rule5_window_s, report)
            )
        else:
            final_spans.append((lo, hi))
    segments = []
    for i, (lo, hi) in enumerate(final_spans):
        segment = TripSegment(
            segment_id=first_segment_id + i,
            trip_id=trip.trip_id,
            car_id=trip.car_id,
            index=i,
            points=trip.points[lo:hi],
        )
        segment._distance_m = float(np.sum(dist[lo : hi - 1]))
        segments.append(segment)
    report.segments_created = len(segments)
    return segments, report


# -- one trip, one batch ---------------------------------------------------------


def clean_trip(
    trip: Trip,
    filter_config: FilterConfig,
    segmentation_config: SegmentationConfig,
    repair: bool = True,
    *,
    repair_ordering=repair_ordering,
    segment_trip=segment_trip,
) -> TripCleanResult:
    """Stages 1-5 on one trip, one stage after the other."""
    result = TripCleanResult(
        segments=[], stage_seconds=dict.fromkeys(STAGES[:-1], 0.0)
    )
    if repair:
        trip, ordering = repair_ordering(trip)
        if not ordering.was_consistent:
            result.reordered = True
            result.reordering_saved_m = ordering.saved_m
    points = trip.points
    for stage, kernel in (
        ("duplicates_removed", drop_duplicates),
        ("outliers_removed", remove_position_outliers),
        ("out_of_bounds_removed", within_bounds),
    ):
        before = len(points)
        points = kernel(points, filter_config)
        setattr(result, stage, before - len(points))
    result.segments, result.segmentation = segment_trip(
        trip.with_points(points), segmentation_config, first_segment_id=1
    )
    return result


def clean_batch(
    trips: list[Trip],
    filter_config: FilterConfig,
    segmentation_config: SegmentationConfig,
    repair: bool = True,
    **stages,
) -> list[TripCleanResult]:
    """:func:`clean_trip` per trip, with the batch kernel's signature."""
    clean = partial(clean_trip, **stages)
    return [clean(t, filter_config, segmentation_config, repair) for t in trips]


# -- gate crossings ------------------------------------------------------------


def find_crossings(xys, times, gates) -> list[CrossingEvent]:
    """One sequence's crossings, its own bounding-box prefilter per gate."""
    events: list[CrossingEvent] = []
    if len(xys) >= 2 and gates:
        xy = np.asarray(xys, dtype=np.float64)
        ax, ay = xy[:-1, 0], xy[:-1, 1]
        bx, by = xy[1:, 0], xy[1:, 1]
        seg_xmin = np.minimum(ax, bx)
        seg_xmax = np.maximum(ax, bx)
        seg_ymin = np.minimum(ay, by)
        seg_ymax = np.maximum(ay, by)
        for gate in gates:
            x0, y0, x1, y1 = gate._bounds
            mask = (
                (seg_xmax >= x0) & (seg_xmin <= x1)
                & (seg_ymax >= y0) & (seg_ymin <= y1)
            )
            last_hit = -10
            for i in map(int, np.flatnonzero(mask)):
                if gate._thick.crossed_by(
                    xys[i], xys[i + 1],
                    min_angle_deg=gate.min_angle_deg,
                    max_angle_deg=gate.max_angle_deg,
                ):
                    if i - last_hit > 1:
                        events.append(
                            CrossingEvent(gate=gate.name, index=i, time_s=times[i])
                        )
                    last_hit = i
    events.sort(key=lambda e: (e.time_s, e.index))
    if events:
        get_registry().counter("od.crossings_detected").inc(len(events))
    return events


def extract_segment(
    extractor, seg: TripSegment, to_xy, *, find_crossings=find_crossings
) -> SegmentExtraction:
    """Funnel stages 2-4 on one segment."""
    xys = [to_xy(p) for p in seg.points]
    times = [p.time_s for p in seg.points]
    events = find_crossings(xys, times, extractor.gates)
    if not events:
        return SegmentExtraction(car_id=seg.car_id)
    transition = extractor._first_studied_pair(seg, events)
    if transition is None:
        return SegmentExtraction(car_id=seg.car_id, crossed=True)
    transition.within_centre = extractor._within_centre(transition, xys)
    return SegmentExtraction(car_id=seg.car_id, crossed=True, transition=transition)


def extract_segments(extractor, segments, to_xy, **stages) -> list[SegmentExtraction]:
    """:func:`extract_segment` per segment, with the batch method's signature."""
    return [extract_segment(extractor, seg, to_xy, **stages) for seg in segments]
