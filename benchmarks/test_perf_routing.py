"""Engineering benches: flat Dijkstra vs CH on the city graph.

This module is the engine-comparison suite for the pgRouting role: every
engine answers the same query workload so the BENCH_routing.json medians
are directly comparable, and the contraction hierarchy's preprocessing
cost is benched separately from its per-query cost.
"""

import random
import statistics
import time
from pathlib import Path

import pytest

from repro.roadnet.ch import prepare_ch, save_ch
from repro.roadnet.routing import shortest_path

OUT_DIR = Path(__file__).parent / "out"


def _node_pairs(city, n=50, seed=4):
    rng = random.Random(seed)
    nodes = [node.node_id for node in city.graph.nodes()]
    return [(rng.choice(nodes), rng.choice(nodes)) for __ in range(n)]


@pytest.fixture(scope="session")
def bench_ch(bench_city):
    """The hierarchy all CH benches query (prepared once, ``time`` weight
    to match the flat-engine benches); persisted so CI can archive it."""
    engine = prepare_ch(bench_city.graph, weight="time")
    OUT_DIR.mkdir(exist_ok=True)
    save_ch(engine, OUT_DIR / "ch_oulu.npz")
    return engine


def test_perf_dijkstra(benchmark, bench_city):
    pairs = _node_pairs(bench_city)

    def run():
        found = 0
        for s, t in pairs:
            if shortest_path(bench_city.graph, s, t, weight="time").found:
                found += 1
        return found

    found = benchmark(run)
    assert found >= len(pairs) * 0.9  # the city is essentially connected


def test_perf_ch_queries(benchmark, bench_city, bench_ch):
    pairs = _node_pairs(bench_city)

    def run():
        return sum(1 for s, t in pairs if bench_ch.shortest_path(s, t).found)

    found = benchmark(run)
    assert found >= len(pairs) * 0.9


def test_perf_ch_prepare(benchmark, bench_city):
    engine = benchmark(prepare_ch, bench_city.graph, "time")
    assert engine.node_ids.shape[0] == len(bench_city.graph.nodes())


def test_ch_at_least_5x_faster_than_dijkstra(bench_city, bench_ch):
    # The acceptance bar for the hierarchy: once preprocessing is paid,
    # queries must beat flat Dijkstra by >= 5x on the synthetic city.
    # Medians over repeated sweeps of the same workload keep this stable.
    pairs = _node_pairs(bench_city, n=100, seed=17)

    def sweep(query):
        start = time.perf_counter()
        for s, t in pairs:
            query(s, t)
        return time.perf_counter() - start

    flat = statistics.median(
        sweep(lambda s, t: shortest_path(bench_city.graph, s, t, weight="time"))
        for __ in range(7)
    )
    ch = statistics.median(
        sweep(bench_ch.shortest_path) for __ in range(7)
    )
    assert flat / ch >= 5.0, f"CH speedup only {flat / ch:.2f}x"


def test_ch_costs_match_dijkstra_on_bench_workload(bench_city, bench_ch):
    for s, t in _node_pairs(bench_city, n=100, seed=8):
        plain = shortest_path(bench_city.graph, s, t, weight="time")
        ch = bench_ch.shortest_path(s, t)
        assert ch.found == plain.found
        if plain.found:
            assert ch.cost == pytest.approx(plain.cost, rel=1e-9)

