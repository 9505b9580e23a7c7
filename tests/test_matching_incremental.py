"""Tests for the incremental matcher against simulator ground truth."""

import pytest

from repro.cleaning import CleaningPipeline
from repro.matching import IncrementalMatcher
from repro.matching.incremental import IncrementalConfig
from repro.traces import FleetSpec, TaxiFleetSimulator
from repro.traces.noise import NoiseSpec
from tests.helpers import build_random_city


@pytest.fixture(scope="module")
def noise_free(city):
    """A small noise-free fleet: matching should be near-perfect."""
    spec = FleetSpec(
        n_days=3, seed=21,
        noise=NoiseSpec(gps_sigma_m=0.0, reorder_prob=0.0, glitch_prob=0.0,
                        duplicate_prob=0.0),
    )
    fleet, runs = TaxiFleetSimulator(city, spec).simulate()
    segments = CleaningPipeline().run(fleet).segments
    return fleet, runs, segments


def match_segments(city, segments, matcher):
    projector = city.projector

    def to_xy(p):
        return projector.to_xy(p.lat, p.lon)

    return [
        matcher.match(seg.points, to_xy, seg.segment_id, seg.car_id)
        for seg in segments
    ]


def segment_truth(runs, seg):
    """Ground-truth run of the same car overlapping a segment in time."""
    best, overlap = None, 0.0
    for run in runs:
        if run.car_id != seg.car_id:
            continue
        lo = max(run.start_time_s, seg.start_time_s)
        hi = min(run.end_time_s, seg.end_time_s)
        if hi - lo > overlap:
            overlap = hi - lo
            best = run
    return best


class TestNoiseFreeAccuracy:
    def test_all_segments_match(self, city, noise_free):
        __, __, segments = noise_free
        routes = match_segments(city, segments[:60], IncrementalMatcher(city.graph))
        assert all(r is not None and r.edge_sequence for r in routes)

    def test_match_distance_tiny_without_noise(self, city, noise_free):
        __, __, segments = noise_free
        routes = match_segments(city, segments[:60], IncrementalMatcher(city.graph))
        mean_d = sum(r.mean_match_distance_m for r in routes) / len(routes)
        assert mean_d < 2.0

    def test_edges_agree_with_ground_truth(self, city, noise_free):
        __, runs, segments = noise_free
        matcher = IncrementalMatcher(city.graph)
        jaccards = []
        for seg in segments[:60]:
            run = segment_truth(runs, seg)
            if run is None:
                continue
            route = matcher.match(
                seg.points, lambda p: city.projector.to_xy(p.lat, p.lon),
                seg.segment_id, seg.car_id,
            )
            got = set(route.edge_ids)
            truth = set(run.edge_ids)
            jaccards.append(len(got & truth) / len(got | truth))
        assert sum(jaccards) / len(jaccards) > 0.85

    def test_matched_points_in_time_order(self, city, noise_free):
        __, __, segments = noise_free
        matcher = IncrementalMatcher(city.graph)
        route = match_segments(city, segments[:5], matcher)[0]
        times = [m.point.time_s for m in route.matched]
        assert times == sorted(times)


class TestNoisyAccuracy:
    def test_accuracy_with_gps_noise(self, city, fleet_and_runs, clean_result):
        fleet, runs = fleet_and_runs
        matcher = IncrementalMatcher(city.graph)
        jaccards = []
        for seg in clean_result.segments[:50]:
            run = segment_truth(runs, seg)
            if run is None:
                continue
            route = matcher.match(
                seg.points, lambda p: city.projector.to_xy(p.lat, p.lon),
                seg.segment_id, seg.car_id,
            )
            if route is None or not route.edge_sequence:
                continue
            got = set(route.edge_ids)
            truth = set(run.edge_ids)
            jaccards.append(len(got & truth) / len(got | truth))
        assert len(jaccards) >= 30
        assert sum(jaccards) / len(jaccards) > 0.7

    def test_match_distance_reflects_gps_sigma(self, city, clean_result):
        matcher = IncrementalMatcher(city.graph)
        routes = match_segments(city, clean_result.segments[:40], matcher)
        routes = [r for r in routes if r is not None and r.matched]
        mean_d = sum(r.mean_match_distance_m for r in routes) / len(routes)
        assert 1.0 < mean_d < 10.0  # sigma is 4 m


class TestConfig:
    def test_look_ahead_validation(self):
        with pytest.raises(ValueError):
            IncrementalConfig(look_ahead=-1)

    def test_zero_look_ahead_still_matches(self, city, noise_free):
        __, __, segments = noise_free
        matcher = IncrementalMatcher(city.graph, IncrementalConfig(look_ahead=0))
        routes = match_segments(city, segments[:10], matcher)
        assert all(r is not None for r in routes)

    def test_empty_points_returns_none(self, city):
        matcher = IncrementalMatcher(city.graph)
        assert matcher.match([], lambda p: (0.0, 0.0)) is None

    def test_off_network_returns_none(self, city):
        from repro.traces.model import RoutePoint

        matcher = IncrementalMatcher(city.graph)
        # A point 100 km away from the city.
        far = RoutePoint(point_id=1, trip_id=1, lat=66.0, lon=25.0, time_s=0.0)
        result = matcher.match([far], lambda p: city.projector.to_xy(p.lat, p.lon))
        assert result is None


class TestConnectivity:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_two_hop_set_is_the_two_hop_walk(self, seed):
        """An edge is connected to ``a`` exactly when it shares a node
        with ``a`` or with an edge sharing a node with ``a`` (directions
        ignored), and the memoised set says so in one lookup."""
        graph = build_random_city(seed, oneway_fraction=0.4, components=2)
        matcher = IncrementalMatcher(graph)

        def touching(edge_id):
            edge = graph.edge(edge_id)
            return {e.edge_id for e in graph.edges() if {e.u, e.v} & {edge.u, edge.v}}

        second_hop_reached = False
        for a in (e.edge_id for e in graph.edges()):
            one_hop = touching(a)
            two_hop = set().union(*(touching(mid) for mid in one_hop))
            assert matcher._two_hop(a) == two_hop
            second_hop_reached |= two_hop > one_hop
        assert second_hop_reached
