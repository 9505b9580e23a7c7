"""Benchmark fixtures.

The bench study runs at a larger scale than the test suite (60 simulated
days, deterministic seed).  Every table/figure bench renders the same rows
the paper reports, asserts the reproduction's *shape*, and persists the
rendered artefact under ``benchmarks/out/``.

Perf benches additionally dump their timing stats as ``BENCH_<name>.json``
files under ``benchmarks/out/`` (one per bench module), which
``tools/bench_compare.py`` reads against ``benchmarks/baseline.json``.
``benchmarks/out/`` is gitignored: the dumps are one run's scratch
output (CI uploads them as an artifact), not a committed trajectory.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.experiments import OuluStudy, StudyConfig
from repro.obs import RunContext, run_metadata
from repro.roadnet import build_synthetic_oulu
from repro.traces import FleetSpec

#: Scale of the bench study; the paper's corpus is a full year (365).
BENCH_DAYS = 60

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def bench_city():
    return build_synthetic_oulu()


@pytest.fixture(scope="session")
def bench_study():
    config = StudyConfig(fleet=FleetSpec(n_days=BENCH_DAYS, seed=2012))
    return OuluStudy(config).run()


@pytest.fixture(scope="session")
def year_study():
    """A study over the full paper period (used by the seasonal benches)."""
    config = StudyConfig(fleet=FleetSpec(n_days=365, seed=2012))
    return OuluStudy(config).run()


@pytest.fixture(scope="session")
def save_artifact():
    """Callable fixture: persist a rendered table/series and echo it."""
    OUT_DIR.mkdir(exist_ok=True)

    def save(name: str, text: str) -> None:
        (OUT_DIR / name).write_text(text + "\n")
        print(f"\n=== {name} (bench scale: {BENCH_DAYS} days vs paper's 365) ===")
        print(text)

    return save


#: Timing fields exported per benchmark into the BENCH_*.json dumps.
_STAT_FIELDS = ("min", "max", "mean", "median", "stddev", "rounds", "iterations")


def pytest_sessionfinish(session, exitstatus):
    """Persist every collected benchmark's timings as BENCH_<module>.json."""
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not getattr(bench_session, "benchmarks", None):
        return
    by_module: dict[str, list[dict]] = {}
    for bench in bench_session.benchmarks:
        stats = getattr(bench, "stats", None)
        if stats is None:
            continue
        module = Path(bench.fullname.split("::")[0]).stem.removeprefix("test_")
        entry = {"name": bench.name, "fullname": bench.fullname}
        for field in _STAT_FIELDS:
            value = getattr(stats, field, None)
            if value is not None:
                entry[field] = value
        extra = getattr(bench, "extra_info", None)
        if extra:
            # Benches attach derived measurements here (e.g. the
            # interleaved overhead ratios bench_compare gates on).
            entry["extra_info"] = dict(extra)
        by_module.setdefault(module, []).append(entry)
    OUT_DIR.mkdir(exist_ok=True)
    # One identity block per dump (run_id, git SHA, Python, wall clock)
    # so BENCH_*.json files are comparable across machines and PRs;
    # tools/bench_compare.py echoes it and ignores it for gating.
    meta = {**run_metadata(RunContext.create()), "ended": round(time.time(), 3)}
    for module, entries in by_module.items():
        path = OUT_DIR / f"BENCH_{module}.json"
        # Stage + atomic rename: an interrupt mid-dump must never leave a
        # truncated BENCH_*.json for bench_compare to choke on.
        tmp = path.with_suffix(f".json.tmp-{os.getpid()}")
        tmp.write_text(
            json.dumps({"meta": meta, "benchmarks": entries}, indent=2) + "\n"
        )
        os.replace(tmp, path)
