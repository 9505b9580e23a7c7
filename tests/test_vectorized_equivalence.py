"""Batch kernels vs their scalar oracles — the fast path's contract.

Every NumPy kernel in ``src/repro`` must produce exactly what its scalar
reference in ``tests/oracles`` produces: same segment splits and rule
firings, same ordering choice and repaired sequence, same gate-crossing
events, same scored candidates in the same order, and — end to end, with
the oracles monkeypatched into the pipeline — the same study artefacts.
"""

from __future__ import annotations

import json
import random
from functools import partial
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cleaning import pipeline as pipeline_module
from repro.cleaning.ordering import repair_ordering
from repro.cleaning.segmentation import segment_trip
from repro.experiments import OuluStudy, StudyConfig
from repro.matching import IncrementalMatcher
from repro.matching import hmm as hmm_module
from repro.matching import incremental as incremental_module
from repro.matching.candidates import (
    CandidateConfig,
    candidates_for_point,
    candidates_for_points,
)
from repro.od.gates import find_crossings
from repro.od.transitions import TransitionExtractor
from repro.parallel import study_gates
from repro.stream.compare import study_fingerprint
from repro.traces import FleetSpec
from repro.traces.model import RoutePoint, Trip
from tests.oracles import candidates as candidates_oracle
from tests.oracles import cleaning as cleaning_oracle
from tests.oracles import gates as gates_oracle
from tests.oracles import pertrip as pertrip_oracle


def scalar_extract_segments(extractor, segments, to_xy):
    """The extractor's batch method, one segment at a time through the
    scalar gate oracle."""
    return pertrip_oracle.extract_segments(
        extractor, segments, to_xy, find_crossings=gates_oracle.find_crossings
    )


def patch_oracles(monkeypatch) -> None:
    """Route the pipeline's cleaning, gate and candidate kernels through
    the scalar oracles (matching and gap fill stay as they are).

    Cleaning and gating run as batch kernels, so the oracles go in at
    that level: one trip (segment) at a time, with the scalar ordering,
    segmentation and crossing references as the per-unit stages.
    """
    monkeypatch.setattr(
        pipeline_module,
        "clean_batch",
        partial(
            pertrip_oracle.clean_batch,
            repair_ordering=cleaning_oracle.repair_ordering,
            segment_trip=cleaning_oracle.segment_trip,
        ),
    )
    monkeypatch.setattr(TransitionExtractor, "compute_units", scalar_extract_segments)
    for module in (incremental_module, hmm_module):
        monkeypatch.setattr(
            module, "candidates_for_points", candidates_oracle.candidates_for_points
        )


# -- random-trip strategy ----------------------------------------------------

point_st = st.builds(
    RoutePoint,
    point_id=st.integers(min_value=0, max_value=40),
    trip_id=st.just(1),
    lat=st.floats(min_value=64.9, max_value=65.4),
    lon=st.floats(min_value=25.2, max_value=25.9),
    time_s=st.floats(min_value=0.0, max_value=5_000.0),
    speed_kmh=st.floats(min_value=0.0, max_value=120.0),
    fuel_ml=st.floats(min_value=0.0, max_value=10_000.0),
)
trip_st = st.builds(
    lambda pts: Trip(trip_id=1, car_id=2, points=pts),
    st.lists(point_st, max_size=40),
)


class TestSegmentationEquivalence:
    @given(trip=trip_st)
    @settings(max_examples=150, deadline=None)
    def test_same_segments_and_rule_hits(self, trip):
        scalar_segments, scalar_report = cleaning_oracle.segment_trip(trip)
        vec_segments, vec_report = segment_trip(trip)
        assert scalar_report.rule_hits == vec_report.rule_hits
        assert scalar_report.segments_created == vec_report.segments_created
        assert [(s.segment_id, s.trip_id, s.car_id, s.index) for s in scalar_segments] \
            == [(s.segment_id, s.trip_id, s.car_id, s.index) for s in vec_segments]
        assert [s.points for s in scalar_segments] == [s.points for s in vec_segments]

    @given(trip=trip_st)
    @settings(max_examples=50, deadline=None)
    def test_seeded_distance_cache_matches_scalar_walk(self, trip):
        scalar_segments, __ = cleaning_oracle.segment_trip(trip)
        vec_segments, __ = segment_trip(trip)
        for s, v in zip(scalar_segments, vec_segments):
            # segment_trip seeds the memo from its gap arrays; the oracle's
            # segments walk the points.  Same hops, summed in a different
            # association — equal to float accumulation noise.
            assert abs(s.distance_m - v.distance_m) <= 1e-6 * max(1.0, s.distance_m)


class TestOrderingEquivalence:
    @given(trip=trip_st)
    @settings(max_examples=150, deadline=None)
    def test_same_choice_and_repaired_sequence(self, trip):
        scalar_trip, scalar_report = cleaning_oracle.repair_ordering(trip)
        vec_trip, vec_report = repair_ordering(trip)
        assert scalar_trip.points == vec_trip.points
        assert scalar_report.chosen == vec_report.chosen
        assert scalar_report.was_consistent == vec_report.was_consistent
        assert abs(scalar_report.distance_by_id_m - vec_report.distance_by_id_m) \
            <= 1e-6 * max(1.0, scalar_report.distance_by_id_m)

    @given(trip=trip_st)
    @settings(max_examples=100, deadline=None)
    def test_realign_matches_reference(self, trip):
        # The repaired points are the chosen sequence realigned; repr
        # shows every field, each float exactly.
        repaired, report = repair_ordering(trip)
        sequence = sorted(trip.points, key=attrgetter(report.chosen))
        assert repr(repaired.points) == repr(cleaning_oracle._realign(sequence))


class TestGateCrossingEquivalence:
    def test_same_events_on_random_walks(self, city):
        gates = study_gates(city)
        x0, y0, x1, y1 = city.graph.bounds()
        rng = random.Random(99)
        for __ in range(40):
            n = rng.randint(0, 60)
            x, y = rng.uniform(x0, x1), rng.uniform(y0, y1)
            xys, times = [], []
            t = 0.0
            for i in range(n):
                x += rng.gauss(0, 150)
                y += rng.gauss(0, 150)
                t += rng.uniform(1, 30)
                xys.append((x, y))
                times.append(t)
            scalar = gates_oracle.find_crossings(xys, times, gates)
            vectorized = find_crossings(xys, times, gates)
            assert scalar == vectorized

    def test_empty_inputs(self, city):
        gates = study_gates(city)
        assert find_crossings([], [], gates) == []
        assert find_crossings([(0.0, 0.0)], [0.0], gates) == []


class TestCandidateEquivalence:
    def test_batch_candidates_bitwise_match_scalar(self, city):
        graph = city.graph
        x0, y0, x1, y1 = graph.bounds()
        rng = random.Random(4)
        config = CandidateConfig()
        xys, movements = [], []
        for __ in range(400):
            xys.append((rng.uniform(x0 - 100, x1 + 100), rng.uniform(y0 - 100, y1 + 100)))
            r = rng.random()
            if r < 0.1:
                movements.append(None)
            elif r < 0.2:
                movements.append((0.0, 0.0))
            else:
                movements.append((rng.gauss(0, 10), rng.gauss(0, 10)))
        batch = candidates_for_points(graph, xys, movements, config)
        assert len(batch) == len(xys)
        for xy, movement, batch_cands in zip(xys, movements, batch):
            scalar_cands = candidates_oracle.candidates_for_point(graph, xy, movement, config)
            single_cands = candidates_for_point(graph, xy, movement, config)
            assert [
                (c.edge.edge_id, c.arc_m, c.snapped_xy, c.distance_m, c.score)
                for c in scalar_cands
            ] == [
                (c.edge.edge_id, c.arc_m, c.snapped_xy, c.distance_m, c.score)
                for c in batch_cands
            ] == [
                (c.edge.edge_id, c.arc_m, c.snapped_xy, c.distance_m, c.score)
                for c in single_cands
            ]

    def test_ranking_tie_break_is_total_order(self, city):
        # Candidate order must be (-score, edge_id) — deterministic even
        # if two edges tie on score.
        graph = city.graph
        x0, y0, x1, y1 = graph.bounds()
        rng = random.Random(11)
        for __ in range(200):
            xy = (rng.uniform(x0, x1), rng.uniform(y0, y1))
            cands = candidates_for_point(graph, xy, None)
            keys = [(-c.score, c.edge.edge_id) for c in cands]
            assert keys == sorted(keys)

    def test_empty_inputs(self, city):
        assert candidates_for_points(city.graph, [], []) == []


class TestExtractionEquivalence:
    def test_funnel_and_events_match_on_cleaned_segments(
        self, city, clean_result, to_xy, monkeypatch
    ):
        gates = study_gates(city)
        segments = clean_result.segments[:150]
        vectorized = TransitionExtractor(gates, city.central_area).extract(segments, to_xy)
        monkeypatch.setattr(
            TransitionExtractor, "compute_units", scalar_extract_segments
        )
        scalar = TransitionExtractor(gates, city.central_area).extract(segments, to_xy)
        assert scalar.funnel == vectorized.funnel
        assert len(scalar.transitions) == len(vectorized.transitions)
        for s, v in zip(scalar.transitions, vectorized.transitions):
            assert (s.origin, s.destination) == (v.origin, v.destination)
            assert s.origin_event == v.origin_event
            assert s.destination_event == v.destination_event


class TestMatcherEquivalence:
    def test_incremental_matcher_same_routes(self, city, clean_result, to_xy, monkeypatch):
        segments = [s for s in clean_result.segments if len(s.points) >= 8][:20]
        assert segments, "fixture produced no matchable segments"
        matcher = IncrementalMatcher(city.graph)
        vec_routes = [
            matcher.match(seg.points, to_xy, seg.segment_id, seg.car_id)
            for seg in segments
        ]
        monkeypatch.setattr(
            incremental_module, "candidates_for_points",
            candidates_oracle.candidates_for_points,
        )
        matcher = IncrementalMatcher(city.graph)
        for seg, vec_route in zip(segments, vec_routes):
            scalar_route = matcher.match(seg.points, to_xy, seg.segment_id, seg.car_id)
            if scalar_route is None:
                assert vec_route is None
                continue
            assert scalar_route.edge_sequence == vec_route.edge_sequence
            assert [m.edge_id for m in scalar_route.matched] == [
                m.edge_id for m in vec_route.matched
            ]


class TestStudyEquivalence:
    def test_vectorized_study_reproduces_scalar_artefacts(self, monkeypatch):
        config = StudyConfig(fleet=FleetSpec(n_days=2, seed=7))
        vectorized = OuluStudy(config).run()
        patch_oracles(monkeypatch)
        scalar = OuluStudy(config).run()
        fp_scalar = study_fingerprint(scalar)
        fp_vectorized = study_fingerprint(vectorized)
        # The ordering repair's distance sums (summed into the report's
        # reordering_saved_m) may differ in the last ulp; the ordering
        # chosen, and everything downstream of it, may not.
        report_scalar = json.loads(fp_scalar.pop("clean_report"))
        report_vectorized = json.loads(fp_vectorized.pop("clean_report"))
        saved_scalar = float.fromhex(report_scalar.pop("reordering_saved_m"))
        saved_vectorized = float.fromhex(report_vectorized.pop("reordering_saved_m"))
        assert saved_scalar == pytest.approx(saved_vectorized, rel=1e-12)
        assert report_scalar == report_vectorized
        assert fp_scalar == fp_vectorized
        assert [s.segment_id for s in scalar.clean.segments] == [
            s.segment_id for s in vectorized.clean.segments
        ]
        assert scalar.kept_transitions == vectorized.kept_transitions
        assert sorted(scalar.matched) == sorted(vectorized.matched)
        for index, route in scalar.matched.items():
            assert route.edge_sequence == vectorized.matched[index].edge_sequence
