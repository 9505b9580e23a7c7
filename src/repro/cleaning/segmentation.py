"""Time-based trip segmentation — the five rules of the paper's Table 2.

Taxis rarely turn the engine off, so a raw trip spans many customer runs.
The rules detect *stops* between consecutive route points and split the
trip there:

1. distance does not change within three minutes -> stop;
2. distance change under 3 km over more than seven minutes -> stop;
3. movement speed below 0.002 m/s -> stop;
4. under 3 km in more than 15 minutes at speed above 0.002 m/s -> stop;
5. after the first round, segments still longer than 40 km are re-split
   with rule 1 at a 1.5-minute interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geo.distance import haversine_m
from repro.traces.arrays import TraceArrays
from repro.traces.model import RoutePoint, Trip, trip_distance_m


@dataclass(frozen=True)
class SegmentationConfig:
    """Thresholds of Table 2 (defaults are the paper's values)."""

    rule1_window_s: float = 180.0          # three minutes
    rule1_epsilon_m: float = 30.0          # "does not change"
    rule2_distance_m: float = 3_000.0
    rule2_window_s: float = 420.0          # seven minutes
    rule3_speed_mps: float = 0.002
    #: Rule 3 needs a minimum gap, or every ordinary traffic-light wait
    #: (two fixes at the same spot a red phase apart) would split the trip.
    #: The paper's rationale caps normal waits at 50-60 s and error waits
    #: at 200 s; two minutes separates dwells from light stops.
    rule3_min_window_s: float = 120.0
    rule4_distance_m: float = 3_000.0
    rule4_window_s: float = 900.0          # fifteen minutes
    rule5_length_m: float = 40_000.0
    rule5_window_s: float = 90.0           # 1.5 minutes


@dataclass
class SegmentationReport:
    """Which rules fired how often across a segmentation run."""

    rule_hits: dict[int, int] = field(default_factory=lambda: {i: 0 for i in range(1, 6)})
    segments_created: int = 0
    trips_processed: int = 0

    def merge(self, other: "SegmentationReport") -> None:
        for rule, hits in other.rule_hits.items():
            self.rule_hits[rule] += hits
        self.segments_created += other.segments_created
        self.trips_processed += other.trips_processed


@dataclass
class TripSegment:
    """A customer-run-sized piece of a raw trip."""

    segment_id: int
    trip_id: int
    car_id: int
    index: int
    points: list[RoutePoint]

    @property
    def start_time_s(self) -> float:
        return self.points[0].time_s if self.points else 0.0

    @property
    def end_time_s(self) -> float:
        return self.points[-1].time_s if self.points else 0.0

    @property
    def duration_s(self) -> float:
        return self.end_time_s - self.start_time_s

    #: Memoized trip length; ``None`` until first access.  Points are never
    #: mutated after construction (the pipeline builds new segments
    #: instead), so the cache cannot go stale.
    _distance_m: float | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def distance_m(self) -> float:
        """Segment length in metres (computed once, then cached).

        :func:`segment_trip` seeds the cache from its gap arrays; a
        segment built any other way walks its points with the haversine
        on first access, exactly once.
        """
        if self._distance_m is None:
            self._distance_m = trip_distance_m(self.points)
        return self._distance_m

    @property
    def fuel_ml(self) -> float:
        if not self.points:
            return 0.0
        return self.points[-1].fuel_ml - self.points[0].fuel_ml

    def __len__(self) -> int:
        return len(self.points)


def _stop_rule(
    a: RoutePoint, b: RoutePoint, config: SegmentationConfig, window_1_s: float
) -> int:
    """Which Table 2 rule (1-4) declares the gap a->b a stop; 0 for none.

    The one-gap form of :func:`_stop_rules`, for callers that see a
    trip one fix at a time (the streaming service's rule preview).
    """
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


def _stop_rules(
    dist: np.ndarray, dt: np.ndarray, config: SegmentationConfig, window_1_s: float
) -> np.ndarray:
    """Table 2 rules 1-4 as one array over gaps (0 where no rule fires).

    Each rule is a boolean mask over the gap distance/dt columns; the
    firing rule per gap is the first true mask — exactly the
    :func:`_stop_rule` precedence.
    """
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


def _split_spans(
    lo: int,
    hi: int,
    dist: np.ndarray,
    dt: np.ndarray,
    config: SegmentationConfig,
    window_1_s: float,
    report: SegmentationReport,
) -> list[tuple[int, int]]:
    """Split the point span ``[lo, hi)`` wherever a stop rule fires.

    Gap ``g`` (global index) separates points ``g`` and ``g + 1``; a
    firing gap ends the current piece at point ``g``.  Returns kept piece
    spans (at least two points each) as ``(start, end)`` index pairs.
    """
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
    """Apply the Table 2 rules to one raw trip.

    Returns the segments (ids starting at ``first_segment_id``) and a
    report of rule firings.  Rule 5 (re-splitting over-40 km segments with
    a tighter rule-1 window) runs as the second round, as in the paper.

    All five rule predicates evaluate as boolean masks over the trip's gap
    arrays (one geometry pass for the whole trip, shared by both rounds),
    and the splits fall out of ``np.flatnonzero``.  Piece lengths for the
    rule 5 check are subarray sums of the same gap distances, which also
    seed each segment's :attr:`TripSegment.distance_m` cache.
    """
    config = config or SegmentationConfig()
    report = SegmentationReport(trips_processed=1)
    dist, dt = TraceArrays.from_trip(trip).gaps()
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

