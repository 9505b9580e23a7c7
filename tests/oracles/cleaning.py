"""Scalar references for ordering repair and Table 2 segmentation.

:func:`repair_ordering` sorts the points with Python's stable ``sorted``
and walks each candidate ordering with the scalar haversine;
:func:`segment_trip` evaluates the stop rules gap by gap through
:func:`_stop_rule`, the one-gap form of the production mask kernel
``repro.cleaning.segmentation._stop_rules``.  Signatures match the
production kernels, so either can be monkeypatched in for the other.
:func:`_realign` rebuilds each point through ``dataclasses.replace``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cleaning.ordering import OrderingReport
from repro.cleaning.segmentation import (
    SegmentationConfig,
    SegmentationReport,
    TripSegment,
)
from repro.geo.distance import haversine_m
from repro.traces.model import RoutePoint, Trip, trip_distance_m


def repair_ordering(trip: Trip) -> tuple[Trip, OrderingReport]:
    """Repair a trip's point ordering; returns (repaired trip, report)."""
    by_id = sorted(trip.points, key=lambda p: p.point_id)
    by_time = sorted(trip.points, key=lambda p: p.time_s)
    d_id = trip_distance_m(by_id)
    d_time = trip_distance_m(by_time)
    consistent = [p.point_id for p in by_id] == [p.point_id for p in by_time]
    if d_time < d_id:
        chosen = "time_s"
        sequence = by_time
    else:
        chosen = "point_id"
        sequence = by_id
    repaired = _realign(sequence)
    report = OrderingReport(
        trip_id=trip.trip_id,
        distance_by_id_m=d_id,
        distance_by_time_m=d_time,
        chosen=chosen,
        was_consistent=consistent,
    )
    return trip.with_points(repaired), report


def _realign(sequence: list[RoutePoint]) -> list[RoutePoint]:
    """Make ids and timestamps monotonic along ``sequence``."""
    ids = sorted(p.point_id for p in sequence)
    times = sorted(p.time_s for p in sequence)
    return [
        replace(p, point_id=pid, time_s=ts)
        for p, pid, ts in zip(sequence, ids, times)
    ]


def _stop_rule(
    a: RoutePoint, b: RoutePoint, config: SegmentationConfig, window_1_s: float
) -> int:
    """Which Table 2 rule (1-4) declares the gap a->b a stop; 0 for none."""
    dt = b.time_s - a.time_s
    dist = haversine_m(a.lat, a.lon, b.lat, b.lon)
    if dt >= window_1_s and dist <= config.rule1_epsilon_m:
        return 1
    if dt > config.rule2_window_s and dist < config.rule2_distance_m:
        return 2
    if dt >= config.rule3_min_window_s and dist / dt < config.rule3_speed_mps:
        return 3
    if (
        dt > config.rule4_window_s
        and dist < config.rule4_distance_m
        and (dt > 0 and dist / dt >= config.rule3_speed_mps)
    ):
        return 4
    return 0


def _split_at_stops(
    points: list[RoutePoint],
    config: SegmentationConfig,
    window_1_s: float,
    report: SegmentationReport,
) -> list[list[RoutePoint]]:
    """Split a point sequence wherever a stop rule fires on a gap."""
    if not points:
        return []
    pieces: list[list[RoutePoint]] = []
    current: list[RoutePoint] = [points[0]]
    for a, b in zip(points, points[1:]):
        rule = _stop_rule(a, b, config, window_1_s)
        if rule:
            report.rule_hits[rule] += 1
            if len(current) >= 2:
                pieces.append(current)
            current = [b]
        else:
            current.append(b)
    if len(current) >= 2:
        pieces.append(current)
    return pieces


def segment_trip(
    trip: Trip,
    config: SegmentationConfig | None = None,
    first_segment_id: int = 1,
) -> tuple[list[TripSegment], SegmentationReport]:
    """Apply the Table 2 rules to one raw trip, one gap at a time."""
    config = config or SegmentationConfig()
    report = SegmentationReport(trips_processed=1)
    first_round = _split_at_stops(trip.points, config, config.rule1_window_s, report)

    final_pieces: list[list[RoutePoint]] = []
    for piece in first_round:
        if trip_distance_m(piece) > config.rule5_length_m:
            report.rule_hits[5] += 1
            final_pieces.extend(
                _split_at_stops(piece, config, config.rule5_window_s, report)
            )
        else:
            final_pieces.append(piece)

    segments = [
        TripSegment(
            segment_id=first_segment_id + i,
            trip_id=trip.trip_id,
            car_id=trip.car_id,
            index=i,
            points=piece,
        )
        for i, piece in enumerate(final_pieces)
    ]
    report.segments_created = len(segments)
    return segments, report
