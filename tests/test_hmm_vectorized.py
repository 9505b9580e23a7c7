"""The Viterbi decode must be bitwise-identical to the scalar oracle.

``HmmMatcher`` replaces the per-candidate capped Dijkstras of the
reference decode (``tests/oracles/hmm.py``) with one batched query per
trip (``RouteBatch.resolve_costs``) and the pure-Python forward pass with a
NumPy one.  Exactness is the contract: with the oracle monkeypatched in,
``match()`` must return the same matched points (edge, arc, score), edge
sequences and gap counts — on random graphs with one-way edges and
disconnected components, and through whole study runs, serial and
parallel.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import OuluStudy, StudyConfig
from repro.parallel import ExecutorConfig
from repro.matching.hmm import HmmConfig, HmmMatcher
from repro.obs.report import render_report
from repro.traces import FleetSpec
from repro.traces.model import RoutePoint
from tests.helpers import build_random_city, study_fingerprint
from tests.test_parallel_executor import _comparable_counters
from tests.oracles import hmm as hmm_oracle


def _to_xy(p: RoutePoint) -> tuple[float, float]:
    """Test points carry plane coordinates directly in (lat, lon)."""
    return (p.lat, p.lon)


def make_trip(graph, seed: int, n_points: int = 8,
              jitter_m: float = 6.0) -> list[RoutePoint]:
    """A noisy walk along graph edges (deterministic per seed)."""
    rng = random.Random(seed)
    edges = sorted(graph.edges(), key=lambda e: e.edge_id)
    points = []
    edge = rng.choice(edges)
    for i in range(n_points):
        # Mostly follow adjacent edges; sometimes teleport (forces gaps
        # and occasionally unreachable transitions on split graphs).
        if rng.random() < 0.2:
            edge = rng.choice(edges)
        else:
            near = [e for node in (edge.u, edge.v)
                    for e in graph.out_edges(node, respect_oneway=False)]
            edge = rng.choice(sorted(near, key=lambda e: e.edge_id) or [edge])
        arc = rng.uniform(0.0, edge.length)
        x, y = edge.geometry.interpolate(arc)
        points.append(RoutePoint(
            point_id=i, trip_id=seed, time_s=float(i),
            lat=x + rng.gauss(0.0, jitter_m),
            lon=y + rng.gauss(0.0, jitter_m),
        ))
    return points


def route_key(route):
    if route is None:
        return None
    return (
        tuple(route.edge_sequence),
        route.gaps_filled,
        tuple(
            (m.edge_id, m.arc_m, m.score, m.match_distance_m, m.snapped_xy)
            for m in route.matched
        ),
    )


def decode_both(graph, trips, config=None):
    """(oracle keys, vectorized keys), each from a fresh matcher."""

    def decode():
        matcher = HmmMatcher(graph, config=config)
        return [route_key(matcher.match(t, _to_xy)) for t in trips]

    vectorized = decode()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(HmmMatcher, "_viterbi", hmm_oracle.viterbi)
        scalar = decode()
    return scalar, vectorized


class TestBitwiseEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        oneway=st.sampled_from([0.0, 0.4]),
        components=st.sampled_from([1, 2]),
    )
    @settings(max_examples=12, deadline=None)
    def test_random_graphs_flat_engine(self, seed, oneway, components):
        graph = build_random_city(
            seed, oneway_fraction=oneway, components=components
        )
        trips = [make_trip(graph, seed * 7 + k) for k in range(3)]
        scalar, vectorized = decode_both(graph, trips)
        assert scalar == vectorized

    def test_disconnected_layers(self):
        """Transitions across components are unreachable in both paths."""
        graph = build_random_city(3, components=2)
        trips = [make_trip(graph, 90 + k, n_points=10) for k in range(4)]
        scalar, vectorized = decode_both(graph, trips)
        assert scalar == vectorized

    def test_single_point_trip(self):
        graph = build_random_city(5)
        trips = [make_trip(graph, 17, n_points=1)]
        scalar, vectorized = decode_both(graph, trips)
        assert scalar == vectorized
        assert scalar[0] is not None

    def test_all_empty_layers_return_none(self):
        """Fixes far off the network find no candidates in either path."""
        graph = build_random_city(5)
        far = [
            RoutePoint(point_id=i, trip_id=0, time_s=float(i),
                       lat=1e6 + 100.0 * i, lon=1e6)
            for i in range(4)
        ]
        scalar, vectorized = decode_both(graph, [far])
        assert scalar == vectorized == [None]

    def test_tight_network_factor_masks_transitions(self):
        """A small cap exercises the ``through > cap`` mask everywhere."""
        graph = build_random_city(9)
        config = HmmConfig(max_network_factor=1.05)
        trips = [make_trip(graph, 23 + k) for k in range(3)]
        scalar, vectorized = decode_both(graph, trips, config=config)
        assert scalar == vectorized


class TestStudyByteIdentity:
    def test_hmm_study_flag_on_off_serial_parallel(self, monkeypatch):
        """`repro study --matcher hmm` artefacts must not depend on the
        decoder implementation or the scheduling."""

        def run(workers: int):
            config = StudyConfig(
                fleet=FleetSpec(n_days=2, seed=7),
                matcher="hmm",
                executor=ExecutorConfig(workers=workers),
            )
            return OuluStudy(config).run()

        on = run(0)
        par = run(2)
        monkeypatch.setattr(HmmMatcher, "_viterbi", hmm_oracle.viterbi)
        off = run(0)

        assert study_fingerprint(on) == study_fingerprint(off)
        assert study_fingerprint(on) == study_fingerprint(par)
        # matching.* counters (hmm_layers / hmm_transition_pairs /
        # hmm_dijkstra_avoided included) are comparable: deterministic
        # per trip, independent of decoder and scheduling.
        assert _comparable_counters(on) == _comparable_counters(off)
        assert _comparable_counters(on) == _comparable_counters(par)


class TestReportRendering:
    def test_hmm_batching_block(self):
        metrics = {"counters": {
            "matching.hmm_layers": 120,
            "matching.hmm_transition_pairs": 950,
            "matching.hmm_dijkstra_avoided": 431,
        }}
        out = render_report([], metrics)
        assert "HMM batching:" in out
        assert "120" in out
        assert "950" in out
        assert "431" in out

    def test_block_absent_without_hmm_counters(self):
        out = render_report([], {"counters": {"matching.calls": 3}})
        assert "HMM batching:" not in out
