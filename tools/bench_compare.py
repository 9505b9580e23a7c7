"""Compare perf-bench timings against a committed baseline.

CI's ``bench`` job runs the ``benchmarks/test_perf_*.py`` modules (which
dump ``benchmarks/out/BENCH_<module>.json``; see ``benchmarks/conftest``)
and then calls this script.  A benchmark *regresses* when its median
timing exceeds the committed baseline median by more than the threshold
(default +25%); any regression fails the job.

Benchmarks absent from the baseline (newly added) or absent from the
results (not collected on this run) are reported but never fail — the
gate only guards benchmarks both sides know about.  Refresh the baseline
with ``--update`` after an intentional perf change:

    python tools/bench_compare.py --update
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO / "benchmarks" / "baseline.json"
DEFAULT_RESULTS = REPO / "benchmarks" / "out"

#: The stat the baseline gate compares.  Median is robust to scheduler
#: noise on shared CI runners; min/mean travel along in the dumps.
STAT = "median"

#: Overhead ratio gates, read from a benchmark's ``extra_info``.  A
#: ratio prices a small structural overhead (a few %), which machine-load
#: drift between two separately-timed benchmarks easily dwarfs — so the
#: benchmarks measure each ratio themselves with *interleaved* pairs
#: (both workloads back-to-back under the same load; quiet-machine
#: floors compared) and publish the result in ``extra_info``.  This gate just
#: compares the published number against the limit.  A missing bench or
#: key is reported and skipped, not failed.
RATIO_GATES = [
    {
        "name": "robustness guard overhead",
        "bench": "test_perf_study_serial",
        "key": "guard_overhead",
        "limit": 1.03,
    },
    {
        "name": "journal overhead",
        "bench": "test_perf_study_journaled",
        "key": "journal_overhead",
        "limit": 1.03,
    },
    {
        # A warm shard-store rerun must stay at least 2x faster than a
        # cold populate, or delta recomputation has regressed into
        # overhead (decode slower than compute, spurious misses, ...).
        "name": "warm store speedup",
        "bench": "test_perf_study_warm_store",
        "key": "warm_cold_ratio",
        "limit": 0.5,
    },
    {
        # Micro-batch streaming folds the identical stage functions one
        # trip at a time; per-row ingest and open-trip bookkeeping must
        # stay within 1.5x of the batch fold on the same CSV (measured
        # ~1.1-1.3 interleaved).
        "name": "stream fold overhead",
        "bench": "test_perf_stream_replay",
        "key": "stream_overhead",
        "limit": 1.5,
    },
]


def _find_extra(results: dict[str, dict], test_name: str, key: str) -> float | None:
    """The ``extra_info[key]`` of the benchmark named ``test_name``."""
    for fullname, entry in results.items():
        if fullname.split("::")[-1] == test_name:
            value = entry.get("extra_info", {}).get(key)
            if isinstance(value, (int, float)):
                return float(value)
    return None


def compare_ratios(results: dict[str, dict]) -> tuple[list[str], bool]:
    """Render one report line per ratio gate; True when any gate failed."""
    lines = []
    failed = False
    for gate in RATIO_GATES:
        ratio = _find_extra(results, gate["bench"], gate["key"])
        if ratio is None:
            lines.append(
                f"  SKIPPED  {gate['name']}: "
                f"{gate['bench']} extra_info[{gate['key']!r}] not in this run (not gated)"
            )
            continue
        verdict = "ok      " if ratio <= gate["limit"] else "EXCEEDED"
        if ratio > gate["limit"]:
            failed = True
        lines.append(
            f"  {verdict} {gate['name']}: "
            f"{gate['bench']}.{gate['key']} = {ratio:.3f} "
            f"(limit {gate['limit']:.2f})"
        )
    return lines, failed


def load_results(results_dir: Path) -> dict[str, dict]:
    """All benchmark entries from ``BENCH_*.json`` dumps, by fullname."""
    entries: dict[str, dict] = {}
    for path in sorted(results_dir.glob("BENCH_*.json")):
        doc = json.loads(path.read_text())
        for entry in doc.get("benchmarks", []):
            entries[entry["fullname"]] = entry
    return entries


def load_meta(results_dir: Path) -> dict:
    """The run-identity block of the dumps (all modules share one run)."""
    for path in sorted(results_dir.glob("BENCH_*.json")):
        meta = json.loads(path.read_text()).get("meta")
        if meta:
            return meta
    return {}


def load_baseline(path: Path) -> dict[str, dict]:
    if not path.exists():
        return {}
    return json.loads(path.read_text()).get("benchmarks", {})


def write_baseline(path: Path, results: dict[str, dict]) -> None:
    doc = {
        "stat": STAT,
        "benchmarks": {
            fullname: {STAT: entry[STAT]}
            for fullname, entry in sorted(results.items())
            if STAT in entry
        },
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")


def compare(
    baseline: dict[str, dict],
    results: dict[str, dict],
    threshold: float,
) -> tuple[list[str], bool]:
    """Render one report line per benchmark; True when anything regressed."""
    lines = []
    failed = False
    for fullname in sorted(set(baseline) | set(results)):
        base = baseline.get(fullname, {}).get(STAT)
        current = results.get(fullname, {}).get(STAT)
        if base is None:
            lines.append(f"  NEW      {fullname}: {current:.4f}s (no baseline; not gated)")
            continue
        if current is None:
            lines.append(f"  MISSING  {fullname}: in baseline but not in this run")
            continue
        ratio = current / base if base > 0 else float("inf")
        delta = f"{(ratio - 1) * 100:+.1f}%"
        if ratio > 1 + threshold:
            failed = True
            lines.append(f"  REGRESSED {fullname}: {base:.4f}s -> {current:.4f}s ({delta})")
        else:
            lines.append(f"  ok       {fullname}: {base:.4f}s -> {current:.4f}s ({delta})")
    return lines, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument("--results", type=Path, default=DEFAULT_RESULTS)
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional slowdown of the median (default 0.25 = +25%%)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline from the current results instead of comparing",
    )
    args = parser.parse_args(argv)

    results = load_results(args.results)
    if not results:
        print(f"bench_compare: no BENCH_*.json files under {args.results}", file=sys.stderr)
        return 2

    if args.update:
        write_baseline(args.baseline, results)
        print(f"bench_compare: wrote {len(results)} baseline medians to {args.baseline}")
        return 0

    baseline = load_baseline(args.baseline)
    if not baseline:
        print(f"bench_compare: no baseline at {args.baseline}; run with --update", file=sys.stderr)
        return 2

    meta = load_meta(args.results)
    if meta:
        ident = " ".join(
            f"{key}={meta[key]}"
            for key in ("run_id", "git_sha", "python")
            if meta.get(key)
        )
        print(f"bench_compare: results from {ident}")
    lines, failed = compare(baseline, results, args.threshold)
    print(f"bench_compare: {STAT} vs {args.baseline.name}, threshold +{args.threshold:.0%}")
    print("\n".join(lines))
    ratio_lines, ratio_failed = compare_ratios(results)
    print("bench_compare: same-run ratio gates")
    print("\n".join(ratio_lines))
    if failed or ratio_failed:
        print("bench_compare: FAIL — at least one gate exceeded", file=sys.stderr)
        return 1
    print("bench_compare: all benchmarks within threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
