"""Engineering benches: map-matching throughput, incremental vs HMM.

``test_perf_hmm_matcher`` times the Viterbi decode alone (NumPy forward
pass + one gather of transition distances per trip) over pre-built
candidate layers and transition plans; candidate generation, the plans
and gap filling are excluded from the measurement.
"""

import math

import pytest

from repro.matching import HmmMatcher, IncrementalMatcher
from repro.matching.candidates import candidates_for_points
from repro.matching.hmm import transition_plan
from repro.matching.types import movement_directions


def _segments(bench_study, n):
    return bench_study.clean.segments[:n]


@pytest.fixture(scope="module")
def hmm_decode_workload(bench_study):
    """Pre-built Viterbi inputs for the decode bench, prepared once.

    Mirrors :meth:`HmmMatcher.match` up to the decoder call: candidate
    layers (empty layers dropped), straight-line distances, transition
    caps, and the trip's transition plan.
    """
    city = bench_study.city
    projector = city.projector
    matcher = HmmMatcher(city.graph)
    prepped = []
    for seg in _segments(bench_study, 150):
        xys = [projector.to_xy(p.lat, p.lon) for p in seg.points]
        movements = movement_directions(xys)
        all_candidates = candidates_for_points(
            city.graph, xys, movements, matcher.config.candidates
        )
        layers, kept_xys = [], []
        for xy, cands in zip(xys, all_candidates):
            if cands:
                layers.append(cands)
                kept_xys.append(xy)
        if len(layers) < 2:
            continue
        straights = [
            math.hypot(
                kept_xys[i][0] - kept_xys[i - 1][0],
                kept_xys[i][1] - kept_xys[i - 1][1],
            )
            for i in range(1, len(layers))
        ]
        caps = [
            max(300.0, s * matcher.config.max_network_factor)
            for s in straights
        ]
        prepped.append(
            (layers, straights, caps, transition_plan(city.graph, layers))
        )
    assert len(prepped) >= 100  # the bench needs a real workload
    return city.graph, prepped


def test_perf_incremental_matcher(benchmark, bench_study, save_artifact):
    city = bench_study.city
    segments = _segments(bench_study, 40)
    matcher = IncrementalMatcher(city.graph)

    def to_xy(p):
        return city.projector.to_xy(p.lat, p.lon)

    def run():
        matched = 0
        for seg in segments:
            route = matcher.match(seg.points, to_xy, seg.segment_id, seg.car_id)
            if route is not None and route.edge_sequence:
                matched += 1
        return matched

    matched = benchmark(run)
    save_artifact(
        "perf_matching_incremental.txt",
        f"matched {matched}/{len(segments)} segments per round",
    )
    assert matched >= len(segments) * 0.95


def test_perf_hmm_matcher(benchmark, bench_study, hmm_decode_workload):
    graph, prepped = hmm_decode_workload

    def sweep():
        matcher = HmmMatcher(graph)
        for args in prepped:
            matcher._viterbi(*args)

    benchmark.extra_info["hmm_decode_trips"] = len(prepped)
    benchmark.pedantic(sweep, rounds=3, iterations=1)


def test_hmm_matcher_end_to_end_sanity(bench_study):
    """The full matcher still matches every bench segment."""
    city = bench_study.city
    segments = _segments(bench_study, 10)
    matcher = HmmMatcher(city.graph)

    def to_xy(p):
        return city.projector.to_xy(p.lat, p.lon)

    matched = sum(
        1 for seg in segments
        if matcher.match(seg.points, to_xy) is not None
    )
    assert matched == len(segments)
