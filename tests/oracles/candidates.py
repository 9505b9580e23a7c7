"""Scalar reference for candidate generation and scoring.

Projects one fix onto each nearby edge through
:meth:`LineString.project` and scores it with per-candidate Python
arithmetic; the production
:func:`repro.matching.candidates.candidates_for_points` does the same
over (fix, edge) pair columns.
"""

from __future__ import annotations

import math

from repro.geo.geometry import Point
from repro.matching.candidates import Candidate, CandidateConfig, _distance_score
from repro.roadnet.graph import RoadEdge, RoadGraph


def _orientation_score(
    movement: Point | None, edge: RoadEdge, arc: float, config: CandidateConfig
) -> float:
    """Orientation score plus the one-way legality penalty."""
    if movement is None or movement == (0.0, 0.0):
        return 0.0
    heading = edge.geometry.heading_at(arc)
    norm = math.hypot(*movement)
    if norm == 0.0:
        return 0.0
    cosang = (movement[0] * heading[0] + movement[1] * heading[1]) / norm
    both_ways = edge.forward_allowed and edge.backward_allowed
    if both_ways:
        score = config.mu_orientation * abs(cosang)
    else:
        # One-way: the sign matters. Forward-only wants positive cos
        # (movement along u->v geometry), backward-only negative.
        directed = cosang if edge.forward_allowed else -cosang
        score = config.mu_orientation * directed
        if directed < -0.2:
            score -= config.oneway_penalty
    return score


def candidates_for_point(
    graph: RoadGraph,
    xy: Point,
    movement: Point | None,
    config: CandidateConfig | None = None,
) -> list[Candidate]:
    """Scored candidates for one fix, best first."""
    config = config or CandidateConfig()
    out: list[Candidate] = []
    for edge in graph.edges_near(xy, config.radius_m):
        snapped, arc, dist = edge.geometry.project(xy)
        score = _distance_score(dist, config) + _orientation_score(
            movement, edge, arc, config
        )
        out.append(
            Candidate(edge=edge, arc_m=arc, snapped_xy=snapped, distance_m=dist, score=score)
        )
    out.sort(key=lambda c: (-c.score, c.edge.edge_id))
    return out[: config.max_candidates]


def candidates_for_points(
    graph: RoadGraph,
    xys: list[Point],
    movements: list[Point | None],
    config: CandidateConfig | None = None,
) -> list[list[Candidate]]:
    """:func:`candidates_for_point` per fix (the batch kernel's signature)."""
    return [
        candidates_for_point(graph, xy, movement, config)
        for xy, movement in zip(xys, movements)
    ]
