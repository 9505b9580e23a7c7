"""Engineering benches: simulator, cleaning, grid and REML throughput."""

import random

from repro.experiments import OuluStudy, StudyConfig
from repro.faults import RobustnessConfig
from repro.features import GridAccumulator, GridSpec
from repro.parallel import ExecutorConfig
from repro.roadnet import build_synthetic_oulu
from repro.stats import RandomInterceptModel
from repro.traces import FleetSpec, TaxiFleetSimulator

#: Scale of the serial and pooled study benches below, small enough to
#: keep the bench job quick.  Only map-matching is pooled, and at this
#: scale it is a few percent of the study, so the pooled bench measures
#: the pool's overhead, not a speedup.
_PAR_DAYS = 3


def test_perf_city_build(benchmark):
    city = benchmark(build_synthetic_oulu)
    assert city.graph.edge_count > 150


def test_perf_simulator_day(benchmark, bench_city):
    spec = FleetSpec(n_days=1, seed=77)

    def run():
        fleet, runs = TaxiFleetSimulator(bench_city, spec).simulate()
        return fleet.point_count

    points = benchmark(run)
    assert points > 500


def test_perf_grid_accumulation(benchmark):
    rng = random.Random(0)
    points = [
        ((rng.uniform(-1000, 1000), rng.uniform(-1000, 1000)), rng.uniform(0, 60))
        for __ in range(20_000)
    ]

    def run():
        grid = GridAccumulator(GridSpec(200.0))
        for xy, v in points:
            grid.add_point(xy, v)
        return len(grid)

    cells = benchmark(run)
    assert cells > 50


def test_perf_reml_fit(benchmark):
    rng = random.Random(1)
    y = []
    groups = []
    for g in range(120):
        effect = rng.gauss(0.0, 4.0)
        for __ in range(rng.randint(3, 60)):
            y.append(25.0 + effect + rng.gauss(0.0, 6.0))
            groups.append(g)

    result = benchmark(RandomInterceptModel().fit, y, groups)
    assert result.sigma2_u > 1.0


def _study_transitions(workers: int, guarded: bool = True) -> int:
    config = StudyConfig(
        fleet=FleetSpec(n_days=_PAR_DAYS, seed=31),
        executor=ExecutorConfig(workers=workers),
        robustness=RobustnessConfig() if guarded else None,
    )
    return len(OuluStudy(config).run().kept_transitions)


def _journaled_study(out_dir) -> int:
    """The serial study with the run journal on."""
    from repro.obs import FileJournal, RunContext, use_journal

    config = StudyConfig(
        fleet=FleetSpec(n_days=_PAR_DAYS, seed=31),
        executor=ExecutorConfig(workers=0),
        robustness=RobustnessConfig(),
    )
    ctx = RunContext.create()
    journal = FileJournal(out_dir / "events.jsonl", ctx)
    try:
        with use_journal(journal):
            result = OuluStudy(config).run(run_context=ctx)
        journal.close("ok")
    except Exception:
        journal.close("error")
        raise
    return len(result.kept_transitions)


def _interleaved_overhead(
    base, instrumented, pairs: int = 24, trials: int = 3, settled: float = 1.02
) -> float:
    """Overhead ratio of two workloads, measured noise-robustly.

    Each trial runs the pair back-to-back ``pairs`` times and compares
    the sides' quiet-machine floors (mean of the 3 smallest timings).
    Interleaving matters: timing all rounds of one side, then all rounds
    of the other (what separate benchmarks do) bakes any machine-load
    drift between the two blocks into the ratio — observed at 10%+ on
    shared runners, swamping the few-percent structural overhead being
    priced.

    The gate this feeds is one-sided (only a *high* ratio fails), so a
    high trial is re-measured and the best trial wins: a load burst that
    covers one whole trial window inflates that trial only, while a real
    regression exceeds the limit in every trial.  Trials stop early once
    the ratio is comfortably inside the limit (``settled``).
    """
    from time import perf_counter

    def floor(times: list[float]) -> float:
        return sum(sorted(times)[:3]) / 3

    base()
    instrumented()  # warm both paths (imports, caches)
    best = float("inf")
    for __ in range(trials):
        base_times, instrumented_times = [], []
        for ___ in range(pairs):
            t0 = perf_counter()
            base()
            base_times.append(perf_counter() - t0)
            t0 = perf_counter()
            instrumented()
            instrumented_times.append(perf_counter() - t0)
        best = min(best, floor(instrumented_times) / floor(base_times))
        if best <= settled:
            break
    return best


def test_perf_study_serial(benchmark):
    """Baseline for the parallel bench: the same study, one process.

    Runs with the default degradation guards on — this is the
    production configuration.  ``extra_info['guard_overhead']`` carries
    the interleaved guarded/unguarded ratio that
    ``tools/bench_compare.py`` gates at ≤1.03 (the guards' happy-path
    cost).
    """
    kept = benchmark.pedantic(
        _study_transitions, args=(0,), rounds=5, warmup_rounds=1, iterations=1
    )
    benchmark.extra_info["guard_overhead"] = round(
        _interleaved_overhead(
            lambda: _study_transitions(0, False), lambda: _study_transitions(0)
        ),
        4,
    )
    assert kept > 0


def test_perf_study_unguarded(benchmark):
    """Reference without degradation guards (``robustness=None``).

    Identical work to ``test_perf_study_serial`` minus the per-unit
    guard wrappers; tracked against the committed baseline like every
    other bench (the guard-cost *ratio* gate lives in
    ``test_perf_study_serial``'s ``extra_info``, measured interleaved).
    """
    kept = benchmark.pedantic(
        _study_transitions, args=(0, False), rounds=5, warmup_rounds=1, iterations=1
    )
    assert kept == _study_transitions(0)


def test_perf_study_journaled(benchmark, tmp_path):
    """The serial study with the run journal on.

    Identical work to ``test_perf_study_serial`` plus everything the
    observability layer adds per unit (journal span/lineage events,
    detail spans).
    ``extra_info['journal_overhead']`` carries the interleaved
    journaled/serial ratio that ``tools/bench_compare.py`` gates at
    ≤1.03.
    """
    kept = benchmark.pedantic(
        _journaled_study, args=(tmp_path,), rounds=5, warmup_rounds=1, iterations=1
    )
    benchmark.extra_info["journal_overhead"] = round(
        _interleaved_overhead(
            lambda: _study_transitions(0), lambda: _journaled_study(tmp_path)
        ),
        4,
    )
    assert kept == _study_transitions(0)


def test_perf_study_workers4(benchmark):
    """Map-matching pooled over 4 workers (pool startup included).

    The bench records both timings rather than asserting a ratio, and
    ``tools/bench_compare.py`` gates each against its own committed
    baseline.
    """
    kept = benchmark.pedantic(_study_transitions, args=(4,), rounds=3, iterations=1)
    assert kept == _study_transitions(0)


def test_perf_spatial_edge_queries(benchmark, bench_city):
    rng = random.Random(2)
    queries = [
        (rng.uniform(-1000, 1000), rng.uniform(-1000, 1000)) for __ in range(500)
    ]

    def run():
        return sum(len(bench_city.graph.edges_near(q, 60.0)) for q in queries)

    hits = benchmark(run)
    assert hits > 500
