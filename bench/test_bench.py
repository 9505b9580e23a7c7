"""Smoke tests of the benchmark itself: ``python -m pytest bench/``.

Every workload runs once untraced and once traced at two simulated days,
which takes under a minute; the emitted metrics must be exactly the ones
BENCHMARK.json declares, with its units.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
DECLARED = {0: SPEC["end_to_end"], 1: SPEC["per_layer"]}


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert len(SPEC["end_to_end"]) <= 16 and len(SPEC["per_layer"]) <= 128
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert all(m["better"] in ("lower", "higher")
               for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_workload_emits_the_declared_metrics(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--days", "2", "--repeats", "1",
         "--seconds", "0", "--out", str(tmp_path)],
        stdout=subprocess.PIPE, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout
    runs = json.loads((tmp_path / "results.json").read_text())["runs"]
    assert sorted((r["workload"], r["trace"]) for r in runs) == sorted(
        (w["name"], trace) for w in SPEC["workloads"] for trace in (0, 1)
    )
    for run in runs:
        result = run["result"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in DECLARED[run["trace"]]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        if run["trace"]:
            assert (tmp_path / f"{run['workload']}.trace.json").exists()
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    printed = [line.split() for line in proc.stdout.splitlines()]
    metric_lines = [p for p in printed if len(p) == 4 and p[1] in units]
    assert len(metric_lines) == sum(len(r["result"]["metrics"]) for r in runs)
    assert all(unit == units[metric] for __, metric, __, unit in metric_lines)


def _results(tmp_path: Path, name: str, values: list[float]) -> Path:
    runs = [{"workload": "study", "trace": 0, "result": {
        "correct": True, "attempted": 1, "failed": 0,
        "metrics": {"us_per_point": {"value": v, "unit": "us"}},
    }} for v in values]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"runs": runs}))
    return path


def test_compare_flags_a_regression_beyond_the_bound(tmp_path):
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "us_per_point")
    parent = _results(tmp_path, "a", [80.0, 80.5, 81.0])
    same = _results(tmp_path, "b", [80.5, 80.0, 81.0])
    slower = _results(tmp_path, "c", [v * (1 + 2 * bound) for v in (80.0, 80.5, 81.0)])

    def compare(a, b):
        return subprocess.run([sys.executable, str(BENCH / "compare.py"), str(a), str(b)],
                              stdout=subprocess.PIPE, text=True)

    assert compare(parent, same).returncode == 0
    flagged = compare(parent, slower)
    assert flagged.returncode == 1 and "regressed" in flagged.stdout
