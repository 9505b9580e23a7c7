"""Engineering bench: flat Dijkstra on the city graph.

Times the pgRouting role's point-to-point query, the gap-fill router's
per-miss cost, over a fixed random workload of node pairs.
"""

import random

from repro.roadnet.routing import shortest_path


def _node_pairs(city, n=50, seed=4):
    rng = random.Random(seed)
    nodes = [node.node_id for node in city.graph.nodes()]
    return [(rng.choice(nodes), rng.choice(nodes)) for __ in range(n)]


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
