"""The Viterbi decode must be bitwise-identical to the scalar oracle.

``HmmMatcher`` replaces the per-candidate capped Dijkstras of the
reference decode (``tests/oracles/hmm.py``) with one gather of tree cost
rows per trip (``RouteBatch.resolve_costs`` over the trip's
``TransitionPlan``) and the pure-Python forward pass with a NumPy one.
Exactness is the contract: with the oracle monkeypatched in, ``match()``
must return the same matched points (edge, arc, score), edge sequences
and gap counts — on random graphs with one-way edges and disconnected
components, on self-loops, at the cap's boundary, and through whole
study runs, serial and parallel.  The plan's query set must be the one
the per-candidate walk collects.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.experiments import OuluStudy, StudyConfig
from repro.geo.geometry import LineString
from repro.parallel import ExecutorConfig
from repro.matching.candidates import candidates_for_points
from repro.matching.hmm import HmmConfig, HmmMatcher, transition_plan
from repro.matching.types import movement_directions
from repro.obs.report import render_report
from repro.roadnet.graph import ElementSpan, RoadEdge, RoadGraph, RoadNode
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


def _graph(nodes, edges) -> RoadGraph:
    """A hand-made graph: ``edges`` are ``(u, v, coords, forward,
    backward)``, numbered from 1."""
    g = RoadGraph()
    for node_id, pos in nodes.items():
        g.add_node(RoadNode(node_id, pos))
    for edge_id, (u, v, coords, forward, backward) in enumerate(edges, start=1):
        geom = LineString(coords)
        g.add_edge(RoadEdge(
            edge_id=edge_id, u=u, v=v, geometry=geom,
            spans=(ElementSpan(edge_id, 0.0, geom.length, False, 40.0),),
            forward_allowed=forward, backward_allowed=backward,
        ))
    return g


def _fix(i: int, x: float, y: float) -> RoutePoint:
    return RoutePoint(point_id=i, trip_id=0, time_s=float(i), lat=x, lon=y)


class TestEdgeCases:
    def test_distance_equal_to_the_cap_counts(self):
        """Exit node 2 to entry node 3 is exactly the 300 m cap: the
        scalar decode's capped search admits it, so must the mask."""
        p = {1: (0.0, 0.0), 2: (100.0, 0.0), 3: (400.0, 0.0), 4: (500.0, 0.0)}
        graph = _graph(p, [
            (1, 2, [p[1], p[2]], True, True),
            (2, 3, [p[2], p[3]], True, True),
            (3, 4, [p[3], p[4]], True, True),
        ])
        config = HmmConfig(max_network_factor=0.3)  # cap = 300 m
        trip = [_fix(0, 95.0, 3.0), _fix(1, 405.0, 3.0)]
        scalar, vectorized = decode_both(graph, [trip], config=config)
        assert scalar == vectorized
        # The cap-length route wins: edge 1, then edge 3.
        assert [m[0] for m in vectorized[0][2]] == [1, 3]

    def test_self_loops_and_one_way_edges(self):
        """Self-loops (``u == v``) and one-way edges in both directions
        of digitisation take the variant and arc conventions of
        ``edge_exits``/``edge_entries``."""
        p = {1: (0.0, 0.0), 2: (200.0, 0.0), 3: (200.0, 200.0),
             4: (0.0, 200.0)}
        graph = _graph(p, [
            (1, 2, [p[1], p[2]], True, False),           # forward only
            (2, 3, [p[2], p[3]], False, True),           # backward only
            (3, 4, [p[3], p[4]], True, True),
            (4, 1, [p[4], p[1]], True, True),
            (3, 3, [p[3], (260.0, 230.0), (230.0, 260.0), p[3]], True, True),
            (1, 1, [p[1], (-50.0, -30.0), (-30.0, -50.0), p[1]], True, False),
            (2, 2, [p[2], (250.0, -40.0), (260.0, 10.0), p[2]], False, True),
        ])
        trips = [make_trip(graph, seed, n_points=12, jitter_m=4.0)
                 for seed in range(12)]
        scalar, vectorized = decode_both(graph, trips)
        assert scalar == vectorized


def _layers_and_caps(graph, points, config=HmmConfig()):
    """:meth:`HmmMatcher.match` up to the plan: non-empty candidate
    layers and their transition caps."""
    xys = [_to_xy(p) for p in points]
    per_fix = candidates_for_points(
        graph, xys, movement_directions(xys), config.candidates
    )
    kept = [(xy, cands) for xy, cands in zip(xys, per_fix) if cands]
    caps = [
        max(300.0, math.hypot(b[0] - a[0], b[1] - a[1]) * config.max_network_factor)
        for (a, __), (b, ___) in zip(kept, kept[1:])
    ]
    return [cands for __, cands in kept], caps


class TestTransitionPlan:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        oneway=st.sampled_from([0.4, 0.9]),
    )
    @settings(max_examples=15, deadline=None)
    def test_pairs_equal_the_per_candidate_walk(self, seed, oneway):
        """The plan queries exactly the oracle's pairs, so the
        ``matching.hmm_transition_pairs`` counter and the trees looked up
        (one per exit serving a different-edge candidate) do not move."""
        graph = build_random_city(seed, oneway_fraction=oneway, components=2)
        ids = list(graph.node_index)
        for k in range(3):
            trip = make_trip(graph, seed * 11 + k, n_points=10)
            layers, caps = _layers_and_caps(graph, trip)
            if not layers:
                continue
            plan = transition_plan(graph, layers)
            pairs, source_caps = hmm_oracle.collect_transition_pairs(layers, caps)
            got = [(ids[s], ids[t])
                   for s, t in zip(plan.sources.tolist(), plan.targets.tolist())]
            assert len(got) == len(pairs)
            assert set(got) == set(pairs)
            assert {s for s, __ in got} == set(source_caps)
            registry = obs.MetricsRegistry()
            with obs.use_registry(registry):
                HmmMatcher(graph).match(trip, _to_xy)
            counters = registry.snapshot()["counters"]
            assert counters.get("matching.hmm_transition_pairs", 0) == len(pairs)


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
        # matching.* counters (hmm_layers and hmm_transition_pairs
        # included) are comparable: deterministic per trip, independent
        # of decoder and scheduling.
        assert _comparable_counters(on) == _comparable_counters(off)
        assert _comparable_counters(on) == _comparable_counters(par)


class TestReportRendering:
    def test_hmm_batching_block(self):
        metrics = {"counters": {
            "matching.hmm_layers": 120,
            "matching.hmm_transition_pairs": 950,
        }}
        out = render_report([], metrics)
        block = out[out.index("HMM batching:"):].split("\n\n")[0].splitlines()
        assert block == [
            "HMM batching:",
            "  layers decoded      120",
            "  transition pairs    950 (batched per trip)",
        ]

    def test_block_absent_without_hmm_counters(self):
        out = render_report([], {"counters": {"matching.calls": 3}})
        assert "HMM batching:" not in out
