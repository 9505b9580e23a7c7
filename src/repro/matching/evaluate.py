"""Map-matching evaluation against ground truth.

Formalises the accuracy measures the tests and benches use: edge-set
Jaccard similarity, route length error, and a fleet-level evaluation that
pairs cleaned segments with the simulator's ground-truth runs by car and
time overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cleaning.segmentation import TripSegment
from repro.matching.types import MatchedRoute
from repro.roadnet.graph import RoadGraph
from repro.traces.simulator import CustomerRun


def edge_jaccard(route: MatchedRoute, truth: CustomerRun) -> float:
    """Edge-set Jaccard similarity between a match and its true run."""
    got = set(route.edge_ids)
    expected = set(truth.edge_ids)
    if not got and not expected:
        return 1.0
    return len(got & expected) / len(got | expected)


def length_error(route: MatchedRoute, truth: CustomerRun, graph: RoadGraph) -> float:
    """Relative route length error vs the true driven path length."""
    if truth.path_length_m <= 0:
        return 0.0
    return abs(route.length_m(graph) - truth.path_length_m) / truth.path_length_m


def truth_for_segment(runs: list[CustomerRun], segment: TripSegment) -> CustomerRun | None:
    """The same-car run overlapping a segment longest in time."""
    best: CustomerRun | None = None
    overlap = 0.0
    start, end = segment.start_time_s, segment.end_time_s
    for run in runs:
        if run.car_id != segment.car_id:
            continue
        lo = max(run.start_time_s, start)
        hi = min(run.end_time_s, end)
        if hi - lo > overlap:
            overlap = hi - lo
            best = run
    return best


@dataclass(frozen=True)
class MatchEvaluation:
    """Aggregate matcher accuracy over a set of segments."""

    n_segments: int
    n_matched: int
    n_evaluated: int
    mean_jaccard: float
    mean_length_error: float
    mean_match_distance_m: float

    @property
    def match_rate(self) -> float:
        return self.n_matched / self.n_segments if self.n_segments else 0.0


def evaluate_matcher(
    matcher,
    segments: list[TripSegment],
    runs: list[CustomerRun],
    graph: RoadGraph,
    to_xy,
) -> MatchEvaluation:
    """Match every segment and score against the paired ground truth.

    ``matcher`` is anything with the
    ``match(points, to_xy, segment_id, car_id)`` interface (incremental or
    HMM).  Segments without a paired run are matched but not scored.
    Each segment's truth is looked up among its own car's runs, in their
    original order.
    """
    runs_by_car: dict[int, list[CustomerRun]] = {}
    for run in runs:
        runs_by_car.setdefault(run.car_id, []).append(run)
    n_matched = 0
    jaccards: list[float] = []
    length_errors: list[float] = []
    match_distances: list[float] = []
    for segment in segments:
        route = matcher.match(segment.points, to_xy, segment.segment_id,
                              segment.car_id)
        if route is None or not route.edge_sequence:
            continue
        n_matched += 1
        match_distances.append(route.mean_match_distance_m)
        truth = truth_for_segment(runs_by_car.get(segment.car_id, []), segment)
        if truth is None:
            continue
        jaccards.append(edge_jaccard(route, truth))
        length_errors.append(length_error(route, truth, graph))
    return MatchEvaluation(
        n_segments=len(segments),
        n_matched=n_matched,
        n_evaluated=len(jaccards),
        mean_jaccard=sum(jaccards) / len(jaccards) if jaccards else 0.0,
        mean_length_error=(
            sum(length_errors) / len(length_errors) if length_errors else 0.0
        ),
        mean_match_distance_m=(
            sum(match_distances) / len(match_distances) if match_distances else 0.0
        ),
    )
