"""HMM (Viterbi) map matching — the modern baseline.

States are candidate edges per fix; emission likelihood is Gaussian in
match distance; transition likelihood decays exponentially in the
difference between network distance and straight-line distance (Newson &
Krummen style).  Included as the baseline the incremental matcher is
benchmarked against (the paper's related work names exactly this family).

Decoding is vectorized: per-layer emissions and ``(K_prev, K_cur)``
transition matrices are NumPy arrays, the forward pass is a broadcast
add plus per-layer ``argmax``, and every network distance the trip needs
is resolved up front through one
:meth:`~repro.roadnet.routing.RouteBatch.resolve_costs` call over the
union of exit/entry endpoints (cache first, then one bounded
multi-target Dijkstra per unique source).

The result is bitwise-identical to a pure-Python forward pass running one
capped Dijkstra per exit endpoint of every previous-layer candidate
(``tests/oracles/hmm.py``).  Equivalence hinges on one masking rule: a
transition's network distance only counts when the through-distance is
within the transition cap (``max(300, straight * max_network_factor)``).
A capped Dijkstra settles exactly one node beyond its budget and leaks
tentative frontier labels, all provably ``> cap``, so masking
``through > cap`` makes the reachable set exactly ``{node: d* <= cap}``
— computable from the batch's exact within-bound distances.  Float associativity is
preserved term by term (``(d1 + through) + d2``, first-occurrence argmax
ties).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.matching.candidates import Candidate, CandidateConfig, candidates_for_points
from repro.matching.gapfill import connect_matches
from repro.matching.types import (
    MatchedPoint,
    MatchedRoute,
    edge_entries,
    edge_exits,
    movement_directions,
)
from repro.obs import get_journal, get_registry
from repro.roadnet.graph import RoadGraph
from repro.roadnet.routing import RouteBatch
# Bound here so bench/workloads.py can trace it as this module's attribute.
from repro.roadnet.routing import dijkstra  # noqa: F401
from repro.traces.model import RoutePoint

#: Log-score standing in for an unreachable transition.
_UNREACHABLE = -1e9


@dataclass(frozen=True)
class HmmConfig:
    """Viterbi matcher parameters."""

    candidates: CandidateConfig = CandidateConfig()
    sigma_m: float = 15.0          # GPS noise scale (emission)
    beta_m: float = 80.0           # route-detour tolerance (transition)
    max_network_factor: float = 4.0  # cap on network/straight distance ratio

    def __post_init__(self) -> None:
        if self.sigma_m <= 0 or self.beta_m <= 0:
            raise ValueError("sigma_m and beta_m must be positive")
        if self.max_network_factor <= 0:
            raise ValueError("max_network_factor must be positive")


class HmmMatcher:
    """Viterbi decoding over candidate edges."""

    def __init__(
        self,
        graph: RoadGraph,
        config: HmmConfig | None = None,
        route_cache=None,
    ) -> None:
        self.graph = graph
        self.config = config or HmmConfig()
        self.route_cache = route_cache

    def match(
        self,
        points: list[RoutePoint],
        to_xy,
        segment_id: int = 0,
        car_id: int = 0,
    ) -> MatchedRoute | None:
        """Viterbi-match a point sequence (same interface as incremental)."""
        xys = [to_xy(p) for p in points]
        movements = movement_directions(xys)
        all_candidates = candidates_for_points(
            self.graph, xys, movements, self.config.candidates
        )
        layers: list[list[Candidate]] = []
        kept_points: list[RoutePoint] = []
        kept_xys: list[tuple[float, float]] = []
        for p, xy, cands in zip(points, xys, all_candidates):
            if cands:
                layers.append(cands)
                kept_points.append(p)
                kept_xys.append(xy)
        if not layers:
            return None

        n = len(layers)
        straights = [
            math.hypot(
                kept_xys[i][0] - kept_xys[i - 1][0],
                kept_xys[i][1] - kept_xys[i - 1][1],
            )
            for i in range(1, n)
        ]
        caps = [max(300.0, s * self.config.max_network_factor) for s in straights]
        exits_per = [[edge_exits(c.edge) for c in layer] for layer in layers]
        entries_per = [[edge_entries(c.edge) for c in layer] for layer in layers]
        pairs, source_caps, per_exit_searches = _collect_transition_pairs(
            layers, caps, exits_per, entries_per
        )
        # Batching effectiveness, deterministic per trip (independent of
        # cache state and scheduling): a per-transition decode runs one
        # capped Dijkstra per exit endpoint of every previous-layer
        # candidate per transition; the batched kernel needs at most one
        # search per unique exit node of the whole trip.
        avoided = per_exit_searches - len(source_caps)
        registry = get_registry()
        registry.counter("matching.hmm_layers").inc(n)
        registry.counter("matching.hmm_transition_pairs").inc(len(pairs))
        registry.counter("matching.hmm_dijkstra_avoided").inc(avoided)

        chosen, scores = self._viterbi(
            layers, straights, caps, pairs, source_caps, exits_per, entries_per
        )

        journal = get_journal()
        if journal.enabled:
            journal.emit(
                "matcher",
                matcher="hmm",
                segment_id=segment_id,
                car_id=car_id,
                layers=n,
                transition_pairs=len(pairs),
                dijkstra_avoided=avoided,
            )

        matched = [
            MatchedPoint(
                point=kept_points[i],
                edge_id=layers[i][chosen[i]].edge.edge_id,
                arc_m=layers[i][chosen[i]].arc_m,
                snapped_xy=layers[i][chosen[i]].snapped_xy,
                match_distance_m=layers[i][chosen[i]].distance_m,
                score=scores[i],
            )
            for i in range(n)
        ]
        route = MatchedRoute(segment_id=segment_id, car_id=car_id, matched=matched)
        connect_matches(self.graph, route, route_cache=self.route_cache)
        return route

    def _viterbi(
        self,
        layers: list[list[Candidate]],
        straights: list[float],
        caps: list[float],
        pairs: list[tuple[int, int]],
        source_caps: dict[int, float],
        exits_per: list[list[list[int]]],
        entries_per: list[list[list[int]]],
    ) -> tuple[list[int], list[float]]:
        """NumPy forward pass over batched network distances."""
        costs = RouteBatch(
            self.graph, "length", cache=self.route_cache
        ).resolve_costs(pairs, source_caps)
        # Dense cost table over the trip's unique exit/entry endpoints.
        src_index: dict[int, int] = {}
        tgt_index: dict[int, int] = {}
        for s, t in pairs:
            src_index.setdefault(s, len(src_index))
            tgt_index.setdefault(t, len(tgt_index))
        table = np.full(
            (max(1, len(src_index)), max(1, len(tgt_index))), math.inf
        )
        for (s, t), cost in costs.items():
            table[src_index[s], tgt_index[t]] = cost

        n = len(layers)
        sizes = [len(layer) for layer in layers]
        kmax = max(sizes)
        wide = 2 * kmax
        # Padded per-layer state (padding never escapes: the forward scan
        # slices every array back to the layer's true candidate count).
        dists = np.zeros((n, kmax))
        arcs = np.zeros((n, kmax))
        eids = np.full((n, kmax), -1, dtype=np.int64)
        # Exit/entry endpoint variants per candidate, variant-major along
        # the second axis (1-2 legal endpoints per edge; `ok` masks the
        # rest).  Row i of the exit arrays serves transition i -> i+1.
        src_idx = np.zeros((n - 1, wide), dtype=np.intp)
        tgt_idx = np.zeros_like(src_idx)
        d1 = np.zeros((n - 1, wide))
        d2 = np.zeros_like(d1)
        src_ok = np.zeros((n - 1, wide), dtype=bool)
        tgt_ok = np.zeros_like(src_ok)
        for i, layer in enumerate(layers):
            for k, cand in enumerate(layer):
                edge = cand.edge
                dists[i, k] = cand.distance_m
                arcs[i, k] = cand.arc_m
                eids[i, k] = edge.edge_id
                if i < n - 1:
                    for a, node in enumerate(exits_per[i][k]):
                        row = src_index.get(node)
                        if row is not None:
                            src_idx[i, a * kmax + k] = row
                            d1[i, a * kmax + k] = (
                                edge.length - cand.arc_m
                                if node == edge.v
                                else cand.arc_m
                            )
                            src_ok[i, a * kmax + k] = True
                if i > 0:
                    for b, node in enumerate(entries_per[i][k]):
                        col = tgt_index.get(node)
                        if col is not None:
                            tgt_idx[i - 1, b * kmax + k] = col
                            d2[i - 1, b * kmax + k] = (
                                cand.arc_m
                                if node == edge.u
                                else edge.length - cand.arc_m
                            )
                            tgt_ok[i - 1, b * kmax + k] = True

        z = dists / self.config.sigma_m
        emissions = -0.5 * z * z

        # Every transition matrix of the trip in one shot: one (T-1,
        # 2K, 2K) gather over all exit/entry variant combinations, then
        # a block-min over the two variant axes.  A strict-< running min
        # over the same combos would yield the identical float (ties
        # share the value).
        capv = np.asarray(caps).reshape(-1, 1, 1)
        through = table[src_idx[:, :, None], tgt_idx[:, None, :]]
        total = (d1[:, :, None] + through) + d2[:, None, :]
        valid = (
            (src_ok[:, :, None] & tgt_ok[:, None, :])
            & (through <= capv)
            & (total <= capv * 1.5)
        )
        nd = (
            np.where(valid, total, math.inf)
            .reshape(-1, 2, kmax, 2, kmax)
            .min(axis=(1, 3))
        )
        same = eids[:-1, :, None] == eids[1:, None, :]
        nd = np.where(same, np.abs(arcs[1:, None, :] - arcs[:-1, :, None]), nd)
        straightv = np.asarray(straights).reshape(-1, 1, 1)
        trans_all = np.where(
            nd < math.inf, -np.abs(nd - straightv) / self.config.beta_m, _UNREACHABLE
        )

        # Sequential forward scan (each layer depends on the last): one
        # broadcast add, argmax, and max per layer over the pre-built
        # matrices (max picks the exact float argmax points at).
        log_prob: list[np.ndarray] = [emissions[0, : sizes[0]]]
        back: list[np.ndarray] = [np.full(sizes[0], -1, dtype=np.intp)]
        for i in range(1, n):
            scores = (
                log_prob[i - 1][:, None]
                + trans_all[i - 1, : sizes[i - 1], : sizes[i]]
            )
            back.append(np.argmax(scores, axis=0))
            log_prob.append(scores.max(axis=0) + emissions[i, : sizes[i]])
        return _backtrack(layers, log_prob, back)


def _collect_transition_pairs(
    layers: list[list[Candidate]],
    caps: list[float],
    exits_per: list[list[list[int]]],
    entries_per: list[list[list[int]]],
) -> tuple[list[tuple[int, int]], dict[int, float], int]:
    """The trip's transition-distance query set, in layer order.

    ``exits_per``/``entries_per`` are the per-layer, per-candidate
    :func:`edge_exits`/:func:`edge_entries` lists (computed once in
    :meth:`HmmMatcher.match` and shared with the decoder).

    Returns ``(pairs, source_caps, per_exit_searches)``: the unique
    ``(exit_node, entry_node)`` pairs every transition consults
    (first-occurrence order; same-edge candidate pairs are excluded, as
    their distance is the arc difference), the largest transition cap
    each exit node serves (the flat kernel's per-source search bound),
    and the number of capped Dijkstras a per-transition decode would run.
    """
    pairs: dict[tuple[int, int], None] = {}
    source_caps: dict[int, float] = {}
    per_exit_searches = 0
    for i in range(1, len(layers)):
        cap = caps[i - 1]
        cur_entries = entries_per[i]
        cur_ids = [c.edge.edge_id for c in layers[i]]
        for prev, exits in zip(layers[i - 1], exits_per[i - 1]):
            per_exit_searches += len(exits)
            prev_id = prev.edge.edge_id
            for cur_id, entries in zip(cur_ids, cur_entries):
                if cur_id == prev_id:
                    continue
                for e in exits:
                    prior = source_caps.get(e)
                    if prior is None or cap > prior:
                        source_caps[e] = cap
                    for en in entries:
                        pairs.setdefault((e, en))
    return list(pairs), source_caps, per_exit_searches


def _backtrack(layers, log_prob, back) -> tuple[list[int], list[float]]:
    """Most-likely state per layer; ties resolve to the first maximum."""
    n = len(layers)
    j = max(range(len(layers[-1])), key=lambda idx: log_prob[-1][idx])
    chosen: list[int] = [0] * n
    for i in range(n - 1, -1, -1):
        chosen[i] = j
        j = back[i][j] if back[i][j] >= 0 else 0
    scores = [float(log_prob[i][chosen[i]]) for i in range(n)]
    return chosen, scores
