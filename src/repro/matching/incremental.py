"""Incremental map matching (Brakatsoulas et al., VLDB'05).

Fixes are matched one by one; each decision maximises the candidate's own
score plus the best achievable score over a short look-ahead window,
where a follow-up candidate only counts when it is *network-connected* to
the current one (same edge, or within two adjacency hops).  This is the
algorithm the paper uses, enhanced with one-way information from the map
(see :mod:`repro.matching.candidates`).

The matcher's per-trip loop state is an explicit :class:`MatcherState`:
:meth:`IncrementalMatcher.begin` opens a state and
:meth:`~IncrementalMatcher.finish` decides every fix in order and
produces the :class:`~repro.matching.types.MatchedRoute`.
:meth:`~IncrementalMatcher.match` fills a state's fixes and candidate
lists in one batched pass and finishes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from repro.matching.candidates import Candidate, CandidateConfig, candidates_for_points
from repro.matching.gapfill import connect_matches
from repro.matching.types import MatchedPoint, MatchedRoute, movement_directions
from repro.obs import get_logger, get_registry
from repro.roadnet.graph import RoadGraph
from repro.traces.model import RoutePoint

_log = get_logger(__name__)


@dataclass(frozen=True)
class IncrementalConfig:
    """Incremental matcher parameters."""

    candidates: CandidateConfig = CandidateConfig()
    look_ahead: int = 2
    continuity_bonus: float = 3.0   # prefer staying on the same edge
    max_gap_cost_m: float = 2_000.0  # Dijkstra budget when filling gaps

    def __post_init__(self) -> None:
        if self.look_ahead < 0:
            raise ValueError("look_ahead must be non-negative")


@dataclass
class MatcherState:
    """The matcher's per-trip loop state.

    Everything the greedy look-ahead loop reads and writes: the fixes
    with their projected coordinates and candidate lists, the decisions
    made so far and the previous matched edge.
    """

    segment_id: int = 0
    car_id: int = 0
    points: list[RoutePoint] = field(default_factory=list)
    xys: list[tuple[float, float]] = field(default_factory=list)
    #: Candidate list of each fix.
    candidates: list[list[Candidate]] = field(
        default_factory=list, repr=False, compare=False
    )
    #: Decisions so far, in point order (fixes with no candidate are
    #: skipped; gap filling bridges them).
    decided: list[MatchedPoint] = field(default_factory=list)
    prev_edge_id: int | None = None
    #: Wall time accumulated across the match and finish calls.
    elapsed_s: float = 0.0

    def __len__(self) -> int:
        return len(self.points)


class IncrementalMatcher:
    """Greedy look-ahead matcher over a road graph."""

    def __init__(
        self,
        graph: RoadGraph,
        config: IncrementalConfig | None = None,
    ) -> None:
        self.graph = graph
        self.config = config or IncrementalConfig()
        self._adjacent: dict[int, set[int]] = {}
        self._two_hops: dict[int, set[int]] = {}

    # -- adjacency ------------------------------------------------------------

    def _edges_adjacent(self, edge_id: int) -> set[int]:
        """Edge ids sharing a node with ``edge_id`` (cached)."""
        cached = self._adjacent.get(edge_id)
        if cached is not None:
            return cached
        edge = self.graph.edge(edge_id)
        near = {
            e.edge_id
            for node in (edge.u, edge.v)
            for e in self.graph.out_edges(node, respect_oneway=False)
        }
        near.add(edge_id)
        self._adjacent[edge_id] = near
        return near

    def _two_hop(self, edge_id: int) -> set[int]:
        """Edge ids within two adjacency hops of ``edge_id`` (cached).

        An edge counts as connected to ``edge_id`` when it is in this set:
        two hops are enough for event-sampled city fixes.
        """
        cached = self._two_hops.get(edge_id)
        if cached is not None:
            return cached
        reach: set[int] = set()
        for mid in self._edges_adjacent(edge_id):
            reach |= self._edges_adjacent(mid)
        self._two_hops[edge_id] = reach
        return reach

    # -- incremental state API ---------------------------------------------

    def begin(self, segment_id: int = 0, car_id: int = 0) -> MatcherState:
        """Open a fresh per-trip matcher state."""
        return MatcherState(segment_id=segment_id, car_id=car_id)

    def finish(self, state: MatcherState) -> MatchedRoute | None:
        """Decide every fix in order and emit the matched route.

        Publishes the matcher's counters and returns ``None`` when no fix
        found any candidate (off-network data).
        """
        t0 = perf_counter()
        n = len(state.points)
        for i in range(n):
            self._decide(state, i)
        registry = get_registry()
        registry.counter("matching.calls").inc()
        registry.counter("matching.points_in").inc(n)
        registry.counter("matching.points_matched").inc(len(state.decided))
        registry.counter("matching.candidates_evaluated").inc(
            sum(map(len, state.candidates))
        )
        state.elapsed_s += perf_counter() - t0
        if not state.decided:
            registry.counter("matching.unmatched_sequences").inc()
            registry.histogram("matching.match_seconds").observe(state.elapsed_s)
            return None
        route = MatchedRoute(
            segment_id=state.segment_id,
            car_id=state.car_id,
            matched=list(state.decided),
        )
        t1 = perf_counter()
        connect_matches(self.graph, route, max_cost_m=self.config.max_gap_cost_m)
        state.elapsed_s += perf_counter() - t1
        registry.histogram("matching.match_seconds").observe(state.elapsed_s)
        _log.debug(
            "matched segment",
            extra={
                "segment_id": state.segment_id,
                "points": n,
                "matched": len(state.decided),
                "edges": len(route.edge_sequence),
                "gaps_filled": route.gaps_filled,
            },
        )
        return route

    def _decide(self, state: MatcherState, i: int) -> None:
        """Make the final decision for fix ``i`` (the loop body)."""
        cands = state.candidates[i]
        if not cands:
            return  # unmatched fix; gap filling bridges it later
        prev_edge_id = state.prev_edge_id
        best = max(
            cands,
            key=lambda c: self._decision_score(state, c, i, prev_edge_id),
        )
        state.decided.append(
            MatchedPoint(
                point=state.points[i],
                edge_id=best.edge.edge_id,
                arc_m=best.arc_m,
                snapped_xy=best.snapped_xy,
                match_distance_m=best.distance_m,
                score=best.score,
            )
        )
        state.prev_edge_id = best.edge.edge_id

    def _decision_score(
        self,
        state: MatcherState,
        candidate: Candidate,
        i: int,
        prev_edge_id: int | None,
    ) -> float:
        score = candidate.score
        edge_id = candidate.edge.edge_id
        if prev_edge_id is not None:
            if edge_id == prev_edge_id:
                score += self.config.continuity_bonus
            elif edge_id not in self._two_hop(prev_edge_id):
                score -= self.config.continuity_bonus
        # Look-ahead: the best connected follow-up chain.
        end = min(i + 1 + self.config.look_ahead, len(state.points))
        for j in range(i + 1, end):
            nxt = state.candidates[j]
            if not nxt:
                break
            # The first highest-scoring connected follow-up.
            reach = self._two_hop(edge_id)
            best_next = None
            for c in nxt:
                if c.edge.edge_id in reach and (
                    best_next is None or c.score > best_next.score
                ):
                    best_next = c
            if best_next is None:
                score -= self.config.continuity_bonus
                break
            score += 0.5 * best_next.score
            edge_id = best_next.edge.edge_id
        return score

    # -- matching ---------------------------------------------------------------

    def match(
        self,
        points: list[RoutePoint],
        to_xy,
        segment_id: int = 0,
        car_id: int = 0,
    ) -> MatchedRoute | None:
        """Match a point sequence.

        ``to_xy`` converts a route point to plane coordinates (normally
        ``projector.to_xy(p.lat, p.lon)`` partial).  Returns None when no
        point finds any candidate (off-network data).

        Fills a :meth:`begin` state's fixes and candidate lists in one
        batched pass, then decides them with :meth:`finish`.
        """
        t0 = perf_counter()
        state = self.begin(segment_id, car_id)
        state.points = list(points)
        state.xys = [to_xy(p) for p in points]
        state.candidates = candidates_for_points(
            self.graph, state.xys, movement_directions(state.xys),
            self.config.candidates,
        )
        state.elapsed_s = perf_counter() - t0
        return self.finish(state)
