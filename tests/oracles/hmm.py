"""Scalar reference for the HMM matcher's Viterbi decode.

A pure-Python forward pass with one capped Dijkstra per exit endpoint of
every previous-layer candidate, per transition.  :func:`viterbi` has the
signature of :meth:`repro.matching.hmm.HmmMatcher._viterbi` (it ignores
the batch query plan), so tests monkeypatch it onto the class and compare
whole ``match()`` outputs.
"""

from __future__ import annotations

import math

from repro.matching.candidates import Candidate
from repro.matching.hmm import _UNREACHABLE, _backtrack
from repro.matching.types import edge_entries, edge_exits
from tests.oracles.routing import dijkstra


def viterbi(
    matcher,
    layers: list[list[Candidate]],
    straights: list[float],
    caps: list[float],
    *batch_plan,
) -> tuple[list[int], list[float]]:
    """Pure-Python forward pass (the pre-vectorization reference)."""
    n = len(layers)
    log_prob: list[list[float]] = [[_emission(matcher, c) for c in layers[0]]]
    back: list[list[int]] = [[-1] * len(layers[0])]
    for i in range(1, n):
        prev_layer = layers[i - 1]
        cur_layer = layers[i]
        trans = _transition_matrix(
            matcher, prev_layer, cur_layer, straights[i - 1], caps[i - 1]
        )
        row_scores: list[float] = []
        row_back: list[int] = []
        for j, cand in enumerate(cur_layer):
            emit = _emission(matcher, cand)
            best_k = -1
            best_val = -math.inf
            for k in range(len(prev_layer)):
                val = log_prob[i - 1][k] + trans[k][j]
                if val > best_val:
                    best_val = val
                    best_k = k
            row_scores.append(best_val + emit)
            row_back.append(best_k)
        log_prob.append(row_scores)
        back.append(row_back)
    return _backtrack(layers, log_prob, back)


def _emission(matcher, cand: Candidate) -> float:
    z = cand.distance_m / matcher.config.sigma_m
    return -0.5 * z * z


def _transition_matrix(
    matcher,
    prev_layer: list[Candidate],
    cur_layer: list[Candidate],
    straight: float,
    cap: float,
) -> list[list[float]]:
    """Log transition scores between two candidate layers.

    Network distances are computed with one capped Dijkstra per exit
    endpoint of each previous candidate, shared across all follow-up
    candidates.
    """
    out: list[list[float]] = []
    for prev in prev_layer:
        dist_maps: dict[int, dict[int, float]] = {}
        for exit_node in edge_exits(prev.edge):
            settled = dijkstra(
                matcher.graph, exit_node, target=None, weight="length", max_cost=cap
            )
            dist_maps[exit_node] = {n: c for n, (c, __, ___) in settled.items()}
        row: list[float] = []
        for cur in cur_layer:
            nd = _network_distance(prev, cur, dist_maps, cap)
            if nd is None:
                row.append(_UNREACHABLE)
            else:
                row.append(-abs(nd - straight) / matcher.config.beta_m)
        out.append(row)
    return out


def _network_distance(
    prev: Candidate,
    cur: Candidate,
    dist_maps: dict[int, dict[int, float]],
    cap: float,
) -> float | None:
    if prev.edge.edge_id == cur.edge.edge_id:
        return abs(cur.arc_m - prev.arc_m)
    best: float | None = None
    for exit_node, dist_map in dist_maps.items():
        d1 = (
            prev.edge.length - prev.arc_m
            if exit_node == prev.edge.v
            else prev.arc_m
        )
        for entry in edge_entries(cur.edge):
            through = dist_map.get(entry)
            # A capped Dijkstra settles one node beyond the budget
            # and returns tentative frontier labels; masking
            # ``through > cap`` pins the reachable set to
            # ``{node: d* <= cap}``, which the batched bounded search
            # reproduces (see the repro.matching.hmm docstring).
            if through is None or through > cap:
                continue
            d2 = cur.arc_m if entry == cur.edge.u else cur.edge.length - cur.arc_m
            total = d1 + through + d2
            if total <= cap * 1.5 and (best is None or total < best):
                best = total
    return best
