"""Run the repository benchmark (workloads and metrics: BENCHMARK.json).

One workload in this process; it prints every metric as ``workload
metric value unit`` and, last, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``::

    python3 bench/run.py --workload study --seed 2012 --seconds 12 --trace 0

Without ``--trace``, every workload (or the ones named) runs in a fresh
child process per run: ``--repeats`` untraced runs, then one traced run.
The runs land in ``<out>/results.json`` for ``bench/compare.py``::

    python3 bench/run.py [--seed 2012] [--repeats 3] [--workload NAME ...]

``--trace 1`` writes the traced run's spans to ``<out>/<workload>.trace.json``.
The exit status is non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

from tracer import Tracer

STARTED = perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fewest timed units per run, however short ``--seconds`` is: the
#: repeat check compares at least two.
MIN_UNITS = 2
#: A child run that takes longer than this is killed and counted failed.
CHILD_TIMEOUT_S = 900

#: Layers named after the ``src/repro`` packages the proxies sit on.
LAYERS = ("roadnet", "traces", "cleaning", "od", "matching", "features",
          "stats", "parallel", "stream", "store")

#: Program stage (a child of the study's own root span) -> the bench
#: spans that time the same calls.
STAGE_SPANS = {
    "build_city": ("build_city",),
    "simulate": ("simulate_init", "simulate"),
    "clean": ("clean",),
    "extract": ("extract",),
    "match": ("match_task", "pool_match"),
    "features": ("route_stats", "cell_features"),
    "mixed_model": ("mixed_model",),
}
#: How far a bench-measured stage may sit from the program's own span of
#: it in the same traced unit: a share, plus a slack for stages of a few
#: milliseconds.
AGREEMENT_SHARE = 0.15
AGREEMENT_SLACK_S = 0.005


def med(values) -> float:
    values = list(values)
    return float(median(values)) if values else 0.0


def repeat(seconds: float, *units) -> list[list]:
    """Call the units in turn until ``seconds`` pass (at least twice each)."""
    results: list[list] = [[] for _ in units]
    start = perf_counter()
    while len(results[0]) < MIN_UNITS or perf_counter() - start < seconds:
        for unit, out in zip(units, results):
            out.append(unit())
    return results


def timed_pass(workload, seconds: float, imported_s: float):
    """Untraced run: set-up several times, then the timed units."""
    generate = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        inputs = workload.setup(Tracer(workload.name))
        generate.append(perf_counter() - t0)
    plain = Tracer(workload.name)
    (reps,) = repeat(seconds, lambda: workload.unit(inputs, plain))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = workload.check(inputs, reps)
    # Timings are the run's fastest unit.  Neighbours on a shared machine
    # only ever add time: identical units vary up to 2x within one run,
    # so the minimum repeats across runs where the median does not.
    metrics = {
        "setup_s": imported_s + med(generate),
        "us_per_point": min(r.seconds * 1e6 / r.points for r in reps),
        "peak_rss_mb": peak_rss_mb,
    }
    return failures, reps, metrics


def agreement(tracer, reps) -> list[str]:
    """Bench-measured stages against the program's own stage spans."""
    failures = []
    for rep in reps:
        if not rep.spans:
            continue
        program = {c["name"]: c["seconds"] for c in rep.spans[0].get("children", ())}
        for stage, names in STAGE_SPANS.items():
            measured = tracer.inclusive_seconds(rep.root, names)
            want = program.get(stage, 0.0)
            if abs(measured - want) > AGREEMENT_SHARE * want + AGREEMENT_SLACK_S:
                failures.append(
                    f"traced {stage} took {measured:.4f} s, the program's "
                    f"own span {want:.4f} s"
                )
    return failures


def layer_metrics(workload, tracer, setup_root: int, traced, untraced) -> dict:
    from workloads import ratio

    def durations(name):
        return [s["end"] - s["start"] for s in tracer.spans if s["name"] == name]

    def counter(rep, *names):
        return sum(rep.counters.get(n, 0) for n in names)

    def per_rep(fn):
        return med(fn(r) for r in traced)

    self_fracs = []
    for rep in traced:
        by_layer = tracer.layer_self_seconds(rep.root)
        self_fracs.append({k: v / rep.seconds for k, v in by_layer.items()})

    def per_pass(**match):
        """Median over the set-up and timed passes that did this work."""
        roots = [setup_root] + [r.root for r in traced]
        seconds = (tracer.inclusive_seconds(root, **match) for root in roots)
        return med(s for s in seconds if s > 0)

    cleaning_s = per_pass(layer="cleaning")
    simulate_s = per_pass(names=("simulate_init", "simulate"))
    report = workload.clean_report
    metrics = {
        "roadnet.build_s": med(durations("build_city")),
        "roadnet.settled_nodes": per_rep(
            lambda r: counter(r, "routing.settled_nodes", "routing.ch_settled_nodes")),
        "roadnet.route_cache_hit_frac": per_rep(lambda r: ratio(
            counter(r, "routing.route_cache_hits"),
            counter(r, "routing.route_cache_hits", "routing.route_cache_misses"))),
        "traces.simulate_s": simulate_s,
        "traces.us_per_point": simulate_s * 1e6 / workload.points,
        "cleaning.run_s": cleaning_s,
        "cleaning.us_per_point": cleaning_s * 1e6 / workload.points,
        "cleaning.points_kept_frac": ratio(report.points_out, report.points_in),
        "od.transitions": per_rep(lambda r: counter(r, "od.transitions_total")),
        "matching.ms_p50": per_rep(lambda r: r.match_ms[0]),
        "matching.ms_p90": per_rep(lambda r: r.match_ms[1]),
        "matching.calls": per_rep(
            lambda r: r.info.get("matching.calls", counter(r, "matching.calls"))),
        "matching.candidates_evaluated":
            per_rep(lambda r: counter(r, "matching.candidates_evaluated")),
        "matching.gaps_filled": per_rep(lambda r: counter(r, "matching.gaps_filled")),
        "matching.hmm_transition_pairs":
            per_rep(lambda r: counter(r, "matching.hmm_transition_pairs")),
        "matching.points_matched_frac": per_rep(lambda r: ratio(
            counter(r, "matching.points_matched"), counter(r, "matching.points_in"))),
        "stream.checkpoint_frac": per_rep(
            lambda r: tracer.inclusive_seconds(r.root, ("checkpoint",)) / r.seconds),
        "trace.overhead_frac":
            min(r.seconds for r in traced) / min(r.seconds for r in untraced) - 1.0,
        "trace.unaccounted_frac": med(f.get(None, 0.0) for f in self_fracs),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_frac"] = med(f.get(layer, 0.0) for f in self_fracs)
    # The rest come from the units' own numbers; a layer the workload
    # does not run reports 0.
    for metric in SPEC["per_layer"]:
        if metric["name"] not in metrics:
            metrics[metric["name"]] = per_rep(lambda r: r.info.get(metric["name"], 0))
    return metrics


def trace_pass(workload, seconds: float, out: Path):
    """Traced run: untraced and traced units alternate; spans are dumped."""
    from workloads import layer_targets

    tracer = Tracer(workload.name, layer_targets())
    plain = Tracer(workload.name)
    with tracer.span("setup", None) as setup_root:
        inputs = workload.setup(tracer)
    untraced, traced = repeat(
        seconds,
        lambda: workload.unit(inputs, plain),
        lambda: workload.unit(inputs, tracer),
    )
    failures = workload.check(inputs, untraced + traced) + agreement(tracer, traced)
    metrics = layer_metrics(workload, tracer, setup_root["id"], traced, untraced)
    tracer.dump(out / f"{workload.name}.trace.json")
    return failures, untraced + traced, metrics


def info_lines(name: str, reps) -> list[str]:
    """Workload-specific numbers beyond the declared metrics."""
    keys = sorted({k for r in reps for k, v in r.info.items()
                   if k not in UNITS and isinstance(v, (int, float))
                   and not isinstance(v, bool)})
    return [f"{name} info.unit_s {min(r.seconds for r in reps):.6g}"] + [
        f"{name} info.{k} {med(r.info[k] for r in reps if k in r.info):.6g}"
        for k in keys
    ]


def measure(args) -> int:
    """Run one workload here and print its result line."""
    name = args.workload[0]
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"bench: {src / 'repro'} not found; run from a repository checkout")
    out = Path(args.out)
    work = out / f"work-{name}-{os.getpid()}"
    work.mkdir(parents=True)
    # The program and its pool write temporary files inside the checkout.
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    try:
        sys.path.insert(0, str(src))
        import workloads

        imported_s = perf_counter() - STARTED
        logging.getLogger("repro").setLevel(logging.ERROR)
        workload = workloads.WORKLOADS[name](args.seed, args.days, work)
        if args.trace:
            failures, reps, metrics = trace_pass(workload, args.seconds, out)
        else:
            failures, reps, metrics = timed_pass(workload, args.seconds, imported_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    declared = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    if sorted(declared) != sorted(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} != BENCHMARK.json {sorted(declared)}")
    for metric in declared:
        print(f"{name} {metric} {metrics[metric]:.6g} {UNITS[metric]}")
    for line in info_lines(name, reps):
        print(line)
    for failure in failures:
        print(f"{name} CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed for r in reps),
        "metrics": {
            m: {"value": metrics[m], "unit": UNITS[m]} for m in declared
        },
    }))
    return 1 if failures else 0


def orchestrate(args) -> int:
    """Every requested workload in fresh child processes; results.json."""
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    runs, ok = [], True
    for name in names:
        for trace in [0] * args.repeats + [1]:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", str(out)]
            if args.days:
                cmd += ["--days", str(args.days)]
            try:
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                      timeout=CHILD_TIMEOUT_S)
                lines, returncode = proc.stdout.splitlines(), proc.returncode
            except subprocess.TimeoutExpired:
                lines, returncode = [], None
            try:
                result = json.loads(lines[-1])
                lines = lines[:-1]
            except (IndexError, ValueError):
                result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            if lines:
                print("\n".join(lines), flush=True)
            ok = ok and returncode == 0 and result["correct"]
            runs.append({"workload": name, "trace": trace, "seed": args.seed,
                         "returncode": returncode, "result": result})
    doc = {"seed": args.seed, "seconds": args.seconds, "days": args.days, "runs": runs}
    (out / "results.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{'all checks passed' if ok else 'CORRECTNESS CHECK FAILED'}; "
          f"results in {out / 'results.json'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", nargs="+",
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="how long each run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run one workload here: 0 end-to-end, 1 per-layer")
    parser.add_argument("--repeats", type=int, default=3,
                        help="untraced runs per workload (without --trace)")
    parser.add_argument("--days", type=int,
                        help="simulated days for every workload (smoke runs)")
    parser.add_argument("--out", default=str(BENCH / "out"))
    args = parser.parse_args(argv)
    if args.trace is None:
        return orchestrate(args)
    if not args.workload or len(args.workload) != 1:
        parser.error("--trace runs exactly one --workload")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
