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

from repro.traces.arrays import FleetArrays
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

        :func:`segment_fleet` seeds the cache from its gap arrays; a
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


def _stop_rules(
    dist: np.ndarray, dt: np.ndarray, config: SegmentationConfig, window_1_s: float
) -> np.ndarray:
    """Table 2 rules 1-4 as one array over gaps (0 where no rule fires).

    Each rule is a boolean mask over the gap distance/dt columns; the
    firing rule per gap is the first true mask, in rule order (the
    one-gap form is ``tests/oracles/cleaning.py::_stop_rule``).
    """
    # Zero and subnormal gaps give inf or NaN speeds (divide, invalid,
    # overflow).  Rules 3 and 4 read the speed only past their minimum
    # windows, so such a speed never decides a rule.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
    rule = np.zeros(dist.shape, dtype=np.int8)
    for code, mask in ((4, m4), (3, m3), (2, m2), (1, m1)):
        rule[mask] = code  # in reverse, so the first true mask wins
    return rule


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


def segment_fleet(
    arrays: FleetArrays, config: SegmentationConfig | None = None
) -> tuple[list[list[tuple[int, int, float]]], list[SegmentationReport]]:
    """Apply the Table 2 rules to every trip of a batch.

    Returns, per trip, the kept pieces as ``(start_row, end_row,
    length_m)`` triples over the batch's rows, and a report of rule
    firings.  Rule 5 (re-splitting over-40 km pieces with a tighter
    rule-1 window) runs as the second round, as in the paper.

    Rules 1-4 evaluate once over the batch's gap arrays, with the gaps
    that join two trips masked out, and the splits fall out of
    ``np.flatnonzero``.  A piece's length is a ``np.sum`` over its own
    slice of the gap distances — the rule 5 test and the seed of
    :attr:`TripSegment.distance_m`.
    """
    config = config or SegmentationConfig()
    n_trips = arrays.n_trips
    reports = [SegmentationReport(trips_processed=1) for _ in range(n_trips)]
    pieces: list[list[tuple[int, int, float]]] = [[] for _ in range(n_trips)]
    if len(arrays) < 2:
        return pieces, reports
    dist, dt = arrays.gaps()
    rule = _stop_rules(dist, dt, config, config.rule1_window_s)
    rule[~arrays.inner_gaps()] = 0
    fired = rule.nonzero()[0]
    trip = arrays.trip_index()
    bounds = arrays.offsets.tolist()
    if fired.size:
        fired_trip = trip[fired]
        for r in range(1, 5):
            hits = np.bincount(fired_trip[rule[fired] == r], minlength=n_trips)
            for k in hits.nonzero()[0].tolist():
                reports[k].rule_hits[r] += int(hits[k])
        bounds = np.union1d(bounds, fired + 1).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        if hi - lo < 2:
            continue
        k = int(trip[lo])
        length = float(dist[lo : hi - 1].sum())
        if length > config.rule5_length_m:
            reports[k].rule_hits[5] += 1
            pieces[k].extend(
                (s, e, float(dist[s : e - 1].sum()))
                for s, e in _split_spans(
                    lo, hi, dist, dt, config, config.rule5_window_s, reports[k]
                )
            )
        else:
            pieces[k].append((lo, hi, length))
    for report, trip_pieces in zip(reports, pieces):
        report.segments_created = len(trip_pieces)
    return pieces, reports


def segment_trip(
    trip: Trip,
    config: SegmentationConfig | None = None,
    first_segment_id: int = 1,
) -> tuple[list[TripSegment], SegmentationReport]:
    """Apply the Table 2 rules to one raw trip.

    The one-trip form of :func:`segment_fleet`; segment ids start at
    ``first_segment_id``.
    """
    (pieces,), (report,) = segment_fleet(FleetArrays.from_trip(trip), config)
    return trip_segments(trip, pieces, trip.points, first_segment_id), report


def trip_segments(
    trip: Trip,
    pieces: list[tuple[int, int, float]],
    points: list[RoutePoint],
    first_segment_id: int = 1,
) -> list[TripSegment]:
    """One trip's :func:`segment_fleet` pieces as segments.

    ``points`` are the batch's points in row order; each segment's
    length cache is seeded with its piece's length.
    """
    segments = []
    for i, (lo, hi, length) in enumerate(pieces):
        segment = TripSegment(
            segment_id=first_segment_id + i,
            trip_id=trip.trip_id,
            car_id=trip.car_id,
            index=i,
            points=points[lo:hi],
        )
        segment._distance_m = length
        segments.append(segment)
    return segments
