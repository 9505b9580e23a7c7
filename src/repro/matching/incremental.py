"""Incremental map matching (Brakatsoulas et al., VLDB'05).

Fixes are matched one by one; each decision maximises the candidate's own
score plus the best achievable score over a short look-ahead window,
where a follow-up candidate only counts when it is *network-connected* to
the current one (same edge, or within two adjacency hops).  This is the
algorithm the paper uses, enhanced with one-way information from the map
(see :mod:`repro.matching.candidates`).

The matcher's per-trip loop state is an explicit, serialisable
:class:`MatcherState`: :meth:`IncrementalMatcher.begin` opens a state,
:meth:`~IncrementalMatcher.feed` appends fixes one at a time (deciding
every index whose look-ahead window has become final), and
:meth:`~IncrementalMatcher.finish` decides the tail and produces the
:class:`~repro.matching.types.MatchedRoute`.  Batch
:meth:`~IncrementalMatcher.match` runs the *same* decision engine over a
pre-populated candidate cache, so streaming a trip point-at-a-time —
with arbitrary serialise/deserialise round trips between fixes — yields
bit-identical matches to the one-shot call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter

from repro.matching.candidates import Candidate, CandidateConfig, candidates_for_points
from repro.matching.gapfill import connect_matches
from repro.matching.types import MatchedPoint, MatchedRoute, movement_directions
from repro.obs import get_logger, get_registry
from repro.roadnet.graph import RoadGraph
from repro.roadnet.routing import RouteCache
from repro.traces.model import RoutePoint

_log = get_logger(__name__)

#: Serialisation schema of :class:`MatcherState`.  Bump when the payload
#: layout changes; :meth:`MatcherState.from_payload` rejects mismatches
#: loudly instead of mis-reading a checkpoint.
STATE_SCHEMA_VERSION = 1

#: Field order of one serialised route point (matches the CSV schema).
_POINT_FIELDS = ("point_id", "trip_id", "lat", "lon", "time_s", "speed_kmh", "fuel_ml")


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
    """The matcher's per-trip loop state, extracted and serialisable.

    Everything the greedy look-ahead loop used to keep in locals lives
    here: the fixes seen so far (with their projected coordinates), the
    decisions already made, the previous matched edge, and the decision
    frontier.  ``cache`` holds per-index candidate lists — a pure
    function of the fixes and the graph — and is deliberately *not*
    serialised: :meth:`from_payload` leaves it empty and the matcher
    recomputes entries lazily, which is what makes
    ``to_bytes``/``from_bytes`` total (no engine handles, no NumPy
    arrays, no graph references in the payload).
    """

    segment_id: int = 0
    car_id: int = 0
    points: list[RoutePoint] = field(default_factory=list)
    xys: list[tuple[float, float]] = field(default_factory=list)
    #: Final decisions so far, in point order.
    decided: list[MatchedPoint] = field(default_factory=list)
    #: Point index of each entry in :attr:`decided` (fixes with no
    #: candidate are skipped, so the mapping is explicit).
    decided_indices: list[int] = field(default_factory=list)
    prev_edge_id: int | None = None
    #: Next point index to decide (everything below is final).
    decided_upto: int = 0
    #: Wall time accumulated across feed/finish calls.
    elapsed_s: float = 0.0
    #: Lazily computed candidate lists per point index.  Ephemeral —
    #: never serialised, rebuilt on demand after a round trip.
    cache: dict[int, list[Candidate]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.points)

    # -- serialisation ------------------------------------------------------

    def to_payload(self) -> dict:
        """A JSON-safe dict of the state (floats round-trip exactly)."""
        return {
            "schema": STATE_SCHEMA_VERSION,
            "segment_id": self.segment_id,
            "car_id": self.car_id,
            "points": [
                [getattr(p, name) for name in _POINT_FIELDS] for p in self.points
            ],
            "xys": [[x, y] for x, y in self.xys],
            "decided": [
                {
                    "index": index,
                    "edge_id": m.edge_id,
                    "arc_m": m.arc_m,
                    "snapped_xy": [m.snapped_xy[0], m.snapped_xy[1]],
                    "match_distance_m": m.match_distance_m,
                    "score": m.score,
                }
                for index, m in zip(self.decided_indices, self.decided)
            ],
            "prev_edge_id": self.prev_edge_id,
            "decided_upto": self.decided_upto,
            "elapsed_s": self.elapsed_s,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "MatcherState":
        schema = payload.get("schema")
        if schema != STATE_SCHEMA_VERSION:
            raise ValueError(
                f"matcher state schema {schema!r} != {STATE_SCHEMA_VERSION} "
                "(incompatible checkpoint)"
            )
        points = [
            RoutePoint(**dict(zip(_POINT_FIELDS, row)))
            for row in payload["points"]
        ]
        state = cls(
            segment_id=payload["segment_id"],
            car_id=payload["car_id"],
            points=points,
            xys=[(x, y) for x, y in payload["xys"]],
            prev_edge_id=payload["prev_edge_id"],
            decided_upto=payload["decided_upto"],
            elapsed_s=payload.get("elapsed_s", 0.0),
        )
        for entry in payload["decided"]:
            index = entry["index"]
            state.decided_indices.append(index)
            state.decided.append(
                MatchedPoint(
                    point=points[index],
                    edge_id=entry["edge_id"],
                    arc_m=entry["arc_m"],
                    snapped_xy=(entry["snapped_xy"][0], entry["snapped_xy"][1]),
                    match_distance_m=entry["match_distance_m"],
                    score=entry["score"],
                )
            )
        return state

    def to_bytes(self) -> bytes:
        return json.dumps(
            self.to_payload(), separators=(",", ":"), sort_keys=True
        ).encode()

    @classmethod
    def from_bytes(cls, data: bytes) -> "MatcherState":
        return cls.from_payload(json.loads(data.decode()))


class IncrementalMatcher:
    """Greedy look-ahead matcher over a road graph."""

    def __init__(
        self,
        graph: RoadGraph,
        config: IncrementalConfig | None = None,
        route_cache: RouteCache | None = None,
    ) -> None:
        self.graph = graph
        self.config = config or IncrementalConfig()
        self.route_cache = route_cache
        self._adjacent: dict[int, set[int]] = {}

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

    def _connected(self, a: int, b: int) -> bool:
        """Within two adjacency hops (enough for event-sampled city fixes)."""
        if b in self._edges_adjacent(a):
            return True
        return any(b in self._edges_adjacent(mid) for mid in self._edges_adjacent(a))

    # -- incremental state API ---------------------------------------------

    def begin(self, segment_id: int = 0, car_id: int = 0) -> MatcherState:
        """Open a fresh per-trip matcher state."""
        return MatcherState(segment_id=segment_id, car_id=car_id)

    def feed(self, state: MatcherState, point: RoutePoint, to_xy) -> int:
        """Append one fix and decide every index that has become final.

        A fix's movement direction (central difference) is only final
        once its successor exists, and a decision at index ``i`` reads
        candidates up to ``i + look_ahead`` — so with ``n`` fixes seen,
        every index up to ``n - 2 - look_ahead`` is decidable exactly as
        the batch loop would decide it.  Returns the number of new
        decisions made by this call.
        """
        t0 = perf_counter()
        state.points.append(point)
        state.xys.append(to_xy(point))
        frontier = len(state.points) - 2 - self.config.look_ahead
        made = 0
        while state.decided_upto <= frontier:
            self._decide(state, state.decided_upto, total=None)
            state.decided_upto += 1
            made += 1
        state.elapsed_s += perf_counter() - t0
        return made

    def finish(self, state: MatcherState) -> MatchedRoute | None:
        """Decide the remaining tail and emit the matched route.

        Publishes the same counters as :meth:`match` and returns ``None``
        when no fix found any candidate (off-network data).
        """
        t0 = perf_counter()
        n = len(state.points)
        while state.decided_upto < n:
            self._decide(state, state.decided_upto, total=n)
            state.decided_upto += 1
        registry = get_registry()
        registry.counter("matching.calls").inc()
        registry.counter("matching.points_in").inc(n)
        registry.counter("matching.points_matched").inc(len(state.decided))
        registry.counter("matching.candidates_evaluated").inc(
            sum(len(state.cache.get(i, ())) for i in range(n))
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
        connect_matches(
            self.graph, route, max_cost_m=self.config.max_gap_cost_m,
            route_cache=self.route_cache,
        )
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

    def _candidates_at(self, state: MatcherState, i: int) -> list[Candidate]:
        """Candidate list for fix ``i``, computed lazily and cached.

        Only called for indices whose movement direction is final, so the
        central difference below equals the batch
        :func:`~repro.matching.types.movement_directions` entry.
        """
        cands = state.cache.get(i)
        if cands is None:
            xys = state.xys
            n = len(xys)
            a = xys[max(0, i - 1)]
            b = xys[min(n - 1, i + 1)]
            mv = (b[0] - a[0], b[1] - a[1])
            movement = mv if mv != (0.0, 0.0) else None
            cands = candidates_for_points(
                self.graph, [xys[i]], [movement], self.config.candidates
            )[0]
            state.cache[i] = cands
        return cands

    def _decide(self, state: MatcherState, i: int, total: int | None) -> None:
        """Make the final decision for fix ``i`` (the batch loop body).

        ``total`` bounds the look-ahead window (the number of fixes the
        trip ends up with); ``None`` means the window is provably
        complete regardless of how many more fixes arrive.
        """
        cands = self._candidates_at(state, i)
        if not cands:
            return  # unmatched fix; gap filling bridges it later
        prev_edge_id = state.prev_edge_id
        best = max(
            cands,
            key=lambda c: self._decision_score(state, c, i, total, prev_edge_id),
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
        state.decided_indices.append(i)
        state.prev_edge_id = best.edge.edge_id

    def _decision_score(
        self,
        state: MatcherState,
        candidate: Candidate,
        i: int,
        total: int | None,
        prev_edge_id: int | None,
    ) -> float:
        score = candidate.score
        if prev_edge_id is not None:
            if candidate.edge.edge_id == prev_edge_id:
                score += self.config.continuity_bonus
            elif not self._connected(prev_edge_id, candidate.edge.edge_id):
                score -= self.config.continuity_bonus
        # Look-ahead: the best connected follow-up chain.
        edge_id = candidate.edge.edge_id
        end = i + 1 + self.config.look_ahead
        if total is not None:
            end = min(end, total)
        for j in range(i + 1, end):
            nxt = self._candidates_at(state, j)
            if not nxt:
                break
            connected = [c for c in nxt if self._connected(edge_id, c.edge.edge_id)]
            if not connected:
                score -= self.config.continuity_bonus
                break
            best_next = max(connected, key=lambda c: c.score)
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

        Runs the state machine of :meth:`begin`/:meth:`finish` over a
        candidate cache pre-populated in one batched pass — the same
        decisions a point-at-a-time :meth:`feed` stream would make.
        """
        t0 = perf_counter()
        state = self.begin(segment_id, car_id)
        state.points = list(points)
        state.xys = [to_xy(p) for p in points]
        movements = movement_directions(state.xys)
        all_candidates = candidates_for_points(
            self.graph, state.xys, movements, self.config.candidates
        )
        state.cache = dict(enumerate(all_candidates))
        state.elapsed_s = perf_counter() - t0
        return self.finish(state)
