"""Tests for repro.matching.evaluate."""

import dataclasses

from repro.matching import HmmMatcher, IncrementalMatcher, evaluate_matcher
from repro.matching import evaluate as evaluate_module
from repro.matching.evaluate import edge_jaccard, truth_for_segment
from repro.matching.types import MatchedRoute


class TestEvaluateMatcher:
    def test_incremental_evaluation(self, city, fleet_and_runs, clean_result):
        __, runs = fleet_and_runs
        projector = city.projector
        evaluation = evaluate_matcher(
            IncrementalMatcher(city.graph),
            clean_result.segments[:40],
            runs,
            city.graph,
            lambda p: projector.to_xy(p.lat, p.lon),
        )
        assert evaluation.n_segments == 40
        assert evaluation.match_rate > 0.9
        assert evaluation.n_evaluated > 20
        assert evaluation.mean_jaccard > 0.7
        assert evaluation.mean_length_error < 0.5
        assert 0.5 < evaluation.mean_match_distance_m < 10.0

    def test_incremental_beats_or_ties_hmm_speedwise_scores(self, city,
                                                            fleet_and_runs,
                                                            clean_result):
        __, runs = fleet_and_runs
        projector = city.projector
        to_xy = lambda p: projector.to_xy(p.lat, p.lon)
        segments = clean_result.segments[:15]
        inc = evaluate_matcher(IncrementalMatcher(city.graph), segments, runs,
                               city.graph, to_xy)
        hmm = evaluate_matcher(HmmMatcher(city.graph), segments, runs,
                               city.graph, to_xy)
        assert inc.match_rate == hmm.match_rate == 1.0
        assert abs(inc.mean_jaccard - hmm.mean_jaccard) < 0.35

    def test_per_car_lookup_equals_the_all_runs_scan(
        self, city, fleet_and_runs, clean_result, monkeypatch
    ):
        """Each segment's truth comes from its own car's runs in their
        original order, so an equal-overlap tie still goes to the first
        run of the whole list, as the scan over all runs picks it."""
        __, runs = fleet_and_runs
        segments = clean_result.segments[:30]
        truths = [truth_for_segment(runs, seg) for seg in segments]
        first = next(t for t in truths if t is not None)
        second = next(t for t in truths if t is not None and t != first)
        # Same-car decoys with the true runs' times but other edges: one
        # ahead of every run, one right behind the run it ties with.
        ahead = dataclasses.replace(first, edge_ids=())
        behind = dataclasses.replace(second, edge_ids=second.edge_ids[:1])
        at = runs.index(second) + 1
        tied = [ahead] + runs[:at] + [behind] + runs[at:]
        assert [truth_for_segment(tied, seg) for seg in segments] == [
            ahead if t == first else t for t in truths
        ]
        to_xy = lambda p: city.projector.to_xy(p.lat, p.lon)
        matcher = IncrementalMatcher(city.graph)
        per_car = evaluate_matcher(matcher, segments, tied, city.graph, to_xy)
        monkeypatch.setattr(
            evaluate_module, "truth_for_segment",
            lambda __, segment: truth_for_segment(tied, segment),
        )
        scan = evaluate_matcher(matcher, segments, tied, city.graph, to_xy)
        assert per_car == scan
        assert per_car.n_evaluated == sum(t is not None for t in truths)

    def test_empty_segments(self, city, runs):
        evaluation = evaluate_matcher(
            IncrementalMatcher(city.graph), [], runs, city.graph,
            lambda p: (0.0, 0.0),
        )
        assert evaluation.n_segments == 0
        assert evaluation.match_rate == 0.0


class TestHelpers:
    def test_edge_jaccard_empty_route(self, runs):
        route = MatchedRoute(segment_id=1, car_id=1)
        run = runs[0]
        expected = 0.0 if run.edge_ids else 1.0
        assert edge_jaccard(route, run) == expected

    def test_truth_requires_same_car(self, clean_result, runs):
        seg = clean_result.segments[0]
        truth = truth_for_segment(runs, seg)
        if truth is not None:
            assert truth.car_id == seg.car_id
