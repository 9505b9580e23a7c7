"""Compare two benchmark result sets metric by metric.

    python3 bench/compare.py A/results.json B/results.json

A is the parent, B the change; each is a ``results.json`` that
``bench/run.py`` wrote.  One row per (workload, metric) gives each
side's median and quartiles over its runs, and B's change against A's
median, signed so that positive is worse.  An end-to-end row is
``regressed`` when that change exceeds the metric's bound in
BENCHMARK.json, and ``unresolved`` when either side's run-to-run spread
(quartile distance over median) exceeds the bound and not every run of
B beats every run of A.  Per-layer rows carry no bound and no verdict.
Exits 1 when any row regressed or any run failed its checks.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def collect(doc: dict, trace: int) -> dict[tuple[str, str], list[float]]:
    """Metric values per (workload, metric) over the runs of one kind."""
    out: dict[tuple[str, str], list[float]] = {}
    for run in doc["runs"]:
        if run["trace"] == trace:
            for metric, m in run["result"]["metrics"].items():
                out.setdefault((run["workload"], metric), []).append(m["value"])
    return out


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median, first and third quartile."""
    mid = median(values)
    if len(values) < 2:
        return mid, mid, mid
    q1, __, q3 = quantiles(values, n=4)
    return mid, q1, q3


def verdict(metric: dict, a: list[float], b: list[float]) -> tuple[float | None, str]:
    """B's change against A (positive is worse) and the row's verdict."""
    (ma, a1, a3), (mb, b1, b3) = spread(a), spread(b)
    sign = 1.0 if metric["better"] == "lower" else -1.0
    delta = sign * (mb - ma) / abs(ma) if ma else None
    bound = metric.get("bound")
    if bound is None or delta is None:
        return delta, ""
    if delta > bound:
        return delta, "regressed"
    wide = max((a3 - a1) / abs(ma), (b3 - b1) / abs(mb) if mb else 0.0) > bound
    b_always_better = (max(b) < min(a)) if sign > 0 else (min(b) > max(a))
    if wide and not b_always_better:
        return delta, "unresolved"
    return delta, "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = [json.loads(Path(p).read_text()) for p in argv]
    failed = [
        f"{side}: {run['workload']} trace={run['trace']}"
        for side, doc in zip("AB", docs)
        for run in doc["runs"]
        if not run["result"]["correct"]
    ]
    regressed = 0
    print(f"{'workload':<15} {'metric':<30} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'change':>8} {'bound':>6}  verdict")
    for trace, metrics in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        a_values, b_values = (collect(doc, trace) for doc in docs)
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for metric in metrics:
                key = (workload, metric["name"])
                if key not in a_values or key not in b_values:
                    continue
                a, b = a_values[key], b_values[key]
                if not any(a + b):
                    continue  # a layer this workload does not run
                delta, mark = verdict(metric, a, b)
                regressed += mark == "regressed"
                cells = ["{:.4g} [{:.4g}, {:.4g}]".format(*spread(v)) for v in (a, b)]
                change = f"{delta:+.1%}" if delta is not None else "-"
                bound = f"{metric['bound']:.0%}" if "bound" in metric else ""
                print(f"{workload:<15} {metric['name']:<30} {cells[0]:>32} "
                      f"{cells[1]:>32} {change:>8} {bound:>6}  {mark}")
    for line in failed:
        print(f"run failed its checks: {line}")
    print(f"{regressed} regressed row(s)")
    return 1 if regressed or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
