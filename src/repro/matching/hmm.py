"""HMM (Viterbi) map matching — the modern baseline.

States are candidate edges per fix; emission likelihood is Gaussian in
match distance; transition likelihood decays exponentially in the
difference between network distance and straight-line distance (Newson &
Krummen style).  Included as the baseline the incremental matcher is
benchmarked against (the paper's related work names exactly this family).

Decoding is vectorized: per-layer emissions and ``(K_prev, K_cur)``
transition matrices are NumPy arrays, the forward pass is a broadcast
add plus per-layer ``argmax``, and every network distance the trip needs
is one array gather
(:meth:`~repro.roadnet.routing.RouteBatch.resolve_costs`) over the
unique exit/entry endpoint pairs of a :class:`TransitionPlan`, which is
built from per-edge columns: each exit node's costs are a dense row of
its shortest-path tree (built once per graph).

The result is bitwise-identical to a pure-Python forward pass running one
capped Dijkstra per exit endpoint of every previous-layer candidate
(``tests/oracles/hmm.py``).  Equivalence hinges on one masking rule: a
transition's network distance only counts when the through-distance is
within the transition cap (``max(300, straight * max_network_factor)``).
A capped Dijkstra settles exactly one node beyond its budget and leaks
tentative frontier labels, all provably ``> cap``, so masking
``through > cap`` makes the reachable set exactly ``{node: d* <= cap}``
— computable from the trees' exact distances.  Float associativity is
preserved term by term (``(d1 + through) + d2``, first-occurrence argmax
ties).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.matching.candidates import (
    Candidate,
    CandidateConfig,
    candidates_for_points,
    edge_arrays_for,
)
from repro.matching.gapfill import connect_matches
from repro.matching.types import MatchedPoint, MatchedRoute, movement_directions
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
    ) -> None:
        self.graph = graph
        self.config = config or HmmConfig()

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
        plan = transition_plan(self.graph, layers)
        pairs = len(plan.sources)
        registry = get_registry()
        registry.counter("matching.hmm_layers").inc(n)
        registry.counter("matching.hmm_transition_pairs").inc(pairs)

        chosen, scores = self._viterbi(layers, straights, caps, plan)

        journal = get_journal()
        if journal.enabled:
            journal.emit(
                "matcher",
                matcher="hmm",
                segment_id=segment_id,
                car_id=car_id,
                layers=n,
                transition_pairs=pairs,
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
        connect_matches(self.graph, route)
        return route

    def _viterbi(
        self,
        layers: list[list[Candidate]],
        straights: list[float],
        caps: list[float],
        plan: TransitionPlan,
    ) -> tuple[list[int], list[float]]:
        """NumPy forward pass over one gather of network distances."""
        through = np.full(plan.queried.shape, math.inf)
        through[plan.queried] = RouteBatch(self.graph, "length").resolve_costs(
            plan.sources, plan.targets
        )[plan.inverse]

        n = len(layers)
        sizes = [len(layer) for layer in layers]
        kmax = max(sizes)
        z = plan.dists / self.config.sigma_m
        emissions = -0.5 * z * z

        # Every transition matrix of the trip in one shot: the (T-1, 2K,
        # 2K) distances over all exit/entry variant combinations, then a
        # block-min over the two variant axes.  A strict-< running min
        # over the same combos would yield the identical float (ties
        # share the value).  The cap mask also stands in for a per-source
        # search bound: a tree cost beyond the cap is masked either way.
        capv = np.asarray(caps).reshape(-1, 1, 1)
        total = (plan.d1[:, :, None] + through) + plan.d2[:, None, :]
        valid = (through <= capv) & (total <= capv * 1.5)
        nd = (
            np.where(valid, total, math.inf)
            .reshape(-1, 2, kmax, 2, kmax)
            .min(axis=(1, 3))
        )
        same = plan.eids[:-1, :, None] == plan.eids[1:, None, :]
        arcs = plan.arcs
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


@dataclass(frozen=True)
class TransitionPlan:
    """A trip's candidate columns and transition-distance query set.

    Per-layer state is padded to ``(T, K)`` (``K`` the widest layer; the
    padding never escapes, because the forward scan slices every layer
    back to its candidate count).  Exit/entry endpoint variants run
    variant-major along a ``2K`` axis, and row ``i`` of the transition
    arrays serves transition ``i -> i+1``.
    ``queried`` marks the ``(T-1, 2K, 2K)`` exit/entry combinations whose
    network distance the decode reads: both variants exist and the two
    candidates lie on different edges (same-edge pairs use the arc
    difference).  Those combinations' unique ``(exit, entry)`` node
    positions are ``sources``/``targets``, and ``inverse`` maps each
    queried combination, in C order, to its pair.
    """

    dists: np.ndarray
    arcs: np.ndarray
    eids: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    queried: np.ndarray
    sources: np.ndarray
    targets: np.ndarray
    inverse: np.ndarray


def transition_plan(graph: RoadGraph, layers: list[list[Candidate]]) -> TransitionPlan:
    """Build a trip's :class:`TransitionPlan` from per-edge columns.

    The endpoint variants follow :func:`edge_exits`/:func:`edge_entries`
    in order: exits ``[v, u]`` (``[u]`` backward-only, ``[v]``
    otherwise), entries ``[u, v]`` (``[v]`` backward-only, ``[u]``
    otherwise).  ``d1`` is the run from the candidate to its exit
    (``length - arc`` at ``v``), ``d2`` the run from the entry to the
    candidate (``arc`` at ``u``); a self-loop's ``u == v`` takes the
    ``v`` side for exits and the ``u`` side for entries.
    """
    arrays = edge_arrays_for(graph)
    n = len(layers)
    sizes = [len(layer) for layer in layers]
    kmax = max(sizes)
    flat = [c for layer in layers for c in layer]
    count = len(flat)
    eid = np.fromiter((c.edge.edge_id for c in flat), np.int64, count)
    arc = np.fromiter((c.arc_m for c in flat), np.float64, count)
    dist = np.fromiter((c.distance_m for c in flat), np.float64, count)
    slot = np.fromiter(
        map(arrays.slot_by_edge_id.__getitem__, eid.tolist()), np.intp, count
    )
    size = np.array(sizes)
    layer = np.repeat(np.arange(n), size)
    col = np.arange(count) - (np.cumsum(size) - size)[layer]

    def padded(columns: list[np.ndarray], fill) -> np.ndarray:
        """Per-candidate columns as ``(T, columns, K)`` layer state."""
        values = np.column_stack(columns)
        out = np.full((n, values.shape[1], kmax), fill, dtype=values.dtype)
        out[layer, :, col] = values
        return out

    # Endpoint variants per candidate as node positions, (count, 2), -1
    # where the edge has no second variant.
    u = arrays.u[slot]
    v = arrays.v[slot]
    forward = arrays.forward[slot]
    backward = arrays.backward[slot]
    backward_only = backward & ~forward
    both = forward & backward
    exits = np.stack([np.where(backward_only, u, v), np.where(both, u, -1)], axis=1)
    entries = np.stack([np.where(backward_only, v, u), np.where(both, v, -1)], axis=1)
    to_end = (arrays.length[slot] - arc)[:, None]
    d1 = np.where(exits == v[:, None], to_end, arc[:, None])
    d2 = np.where(entries == u[:, None], arc[:, None], to_end)

    ints = padded([eid, exits, entries], -1)
    floats = padded([dist, arc, d1, d2], 0.0)
    eids = ints[:, 0]
    # Transition combinations on (T-1, exit variant, prev K, entry
    # variant, cur K) axes; flattened, that is the (T-1, 2K, 2K) layout.
    src = ints[:-1, 1:3, :, None, None]
    tgt = ints[1:, None, None, 3:5, :]
    different = (eids[:-1, :, None] != eids[1:, None, :])[:, None, :, None, :]
    queried = (src >= 0) & (tgt >= 0) & different
    n_nodes = graph.node_count
    codes = (src * n_nodes + tgt)[queried]
    unique, inverse = np.unique(codes, return_inverse=True)
    wide = (n - 1, 2 * kmax)
    return TransitionPlan(
        dists=floats[:, 0],
        arcs=floats[:, 1],
        eids=eids,
        d1=floats[:-1, 2:4].reshape(wide),
        d2=floats[1:, 4:6].reshape(wide),
        queried=queried.reshape(n - 1, 2 * kmax, 2 * kmax),
        sources=unique // n_nodes,
        targets=unique % n_nodes,
        inverse=inverse,
    )


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
