"""Command-line interface.

``python -m repro <command>`` drives the pipeline without writing code:

* ``simulate`` — build the synthetic city, run the fleet simulator and
  dump raw route points (CSV) and trip headers (JSONL);
* ``clean`` — run the cleaning pipeline over a route-point CSV and print
  the per-stage report (counts and wall time);
* ``study`` — run the full end-to-end study and write every table and
  figure artefact (text, optionally SVG) into an output directory; with
  ``--input`` the fleet is read back from a route-point CSV instead of
  simulated (the batch half of the stream differential harness);
* ``serve`` — run the streaming micro-batch service over a replayed,
  tailed or fifo route-point feed, folding the same artefacts online
  with bounded memory and optional crash-safe checkpoints;
* ``obs`` — inspect finished runs: ``report`` (funnel waterfall, stage
  tree, slowest units), ``tail``, ``trip`` (one unit's lineage) and
  ``diff`` (two runs' artefacts and comparable metrics);
* ``store`` — inspect (``ls``) and garbage-collect (``gc``) the shard
  store behind ``study --store-dir`` delta recomputation.

Observability: every command accepts ``--log-level``/``--log-json``
(structured logs on stderr) and ``--quiet`` (suppress the human-mode
accounting tables; logging is unaffected).  ``clean``/``study``/
``serve`` accept ``--metrics-out FILE`` to dump the run's metrics
registry (counters, latency histograms, stage-timing tree, run
metadata) as JSON, and ``clean``/``study``/``serve``/``report`` accept
``--journal-out FILE`` for the append-only run journal (``study`` and
``serve`` always write ``events.jsonl`` into ``--out``).

A bad flag value or a missing input file is reported as one
``repro <command>: <message>`` line on stderr with exit status 2,
before the command writes anything.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from pathlib import Path

from repro import obs
from repro.cleaning import CleaningPipeline
from repro.faults import (
    ErrorRateExceeded,
    FaultPlan,
    Quarantine,
    RobustnessConfig,
    inject_faults,
)
from repro.parallel import ExecutorConfig
from repro.experiments import (
    OuluStudy,
    StudyConfig,
    fig10_weather_low_speed,
    format_table,
    render_funnel,
    render_table4,
    render_table5,
    seasonal_speed_deltas,
    table2_rule_hits,
    table4_route_summaries,
    table5_cell_speed_strata,
)
from repro.roadnet import build_synthetic_oulu
from repro.store.shards import ShardStore, StoreConfig, StoreError
from repro.stream import StreamConfig, StreamService
from repro.traces import FleetSpec, TaxiFleetSimulator
from repro.traces.io import read_points_csv, write_points_csv, write_trips_jsonl


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Logging flags, accepted both before and after the subcommand.

    ``SUPPRESS`` keeps a subparser from clobbering a value already parsed
    by the root parser (the classic argparse default-override gotcha).
    """
    parser.add_argument(
        "--log-level", default=argparse.SUPPRESS, metavar="LEVEL",
        help="enable pipeline logging at LEVEL (DEBUG/INFO/WARNING/...)",
    )
    parser.add_argument(
        "--log-json", action="store_true", default=argparse.SUPPRESS,
        help="emit logs as one JSON object per line",
    )
    parser.add_argument(
        "--quiet", action="store_true", default=argparse.SUPPRESS,
        help="suppress human-readable accounting output (stdout only; "
             "log level is unaffected)",
    )


def _add_journal_flags(parser: argparse.ArgumentParser) -> None:
    """Run-journal flag (clean, study, serve, report)."""
    parser.add_argument(
        "--journal-out", type=Path, default=None, metavar="FILE",
        help="write the append-only run journal (events JSONL; study and "
             "serve: defaults to events.jsonl in --out)",
    )


def _add_executor_flags(parser: argparse.ArgumentParser) -> None:
    """Map-matching pool flag (default: serial, identical results)."""
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="map-match over N worker processes (default: serial)",
    )


def _add_robustness_flags(parser: argparse.ArgumentParser) -> None:
    """Degraded-mode execution flags (see docs/robustness.md)."""
    parser.add_argument(
        "--max-error-rate", type=float, default=0.05, metavar="RATE",
        help="quarantined fraction of processed units above which the "
             "run fails (default 0.05)",
    )
    parser.add_argument(
        "--fault-plan", type=Path, default=None, metavar="FILE",
        help="JSON fault plan to inject (chaos testing; see "
             "docs/robustness.md for the schema)",
    )
    parser.add_argument(
        "--errors-out", type=Path, default=None, metavar="FILE",
        help="write quarantined-unit records as JSONL (study: defaults "
             "to errors.jsonl in --out)",
    )


def _add_store_flags(parser: argparse.ArgumentParser) -> None:
    """Shard-store flags (delta recomputation; see docs/performance.md)."""
    parser.add_argument(
        "--store-dir", type=Path, default=None, metavar="DIR",
        help="persist per-(city, day) stage artefacts in DIR and "
             "recompute only dirty shards on reruns (byte-identical "
             "results; default: $REPRO_STORE_DIR, else disabled)",
    )
    parser.add_argument(
        "--no-store", action="store_true",
        help="disable the shard store even if $REPRO_STORE_DIR is set",
    )


def _store_config(args: argparse.Namespace) -> StoreConfig | None:
    if getattr(args, "no_store", False):
        return None
    path = getattr(args, "store_dir", None)
    if path is None:
        env = os.environ.get("REPRO_STORE_DIR")
        path = Path(env) if env else None
    return StoreConfig(dir=str(path)) if path is not None else None


def _robustness(args: argparse.Namespace) -> RobustnessConfig:
    return RobustnessConfig(max_error_rate=args.max_error_rate)


def _fault_plan(args: argparse.Namespace) -> FaultPlan | None:
    path = getattr(args, "fault_plan", None)
    if path is None:
        return None
    return FaultPlan.from_json(Path(path).read_text())


def _executor_config(args: argparse.Namespace) -> ExecutorConfig:
    return ExecutorConfig(workers=getattr(args, "workers", 0))


class _UsageError(Exception):
    """A flag value or input path the command cannot run with."""


@contextlib.contextmanager
def _checking_flags():
    """Turn a config's rejection of a flag value (``ValueError`` from
    its ``__post_init__``) or an unreadable ``--fault-plan`` into a
    :class:`_UsageError`; commands build their configs inside this
    before writing anything."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise _UsageError(str(exc)) from exc


def _require_inputs(*paths: Path | None) -> None:
    """Raise :class:`_UsageError` for the first given path that is missing."""
    for path in paths:
        if path is not None and not path.exists():
            raise _UsageError(f"no such file or directory: {path}")


def _require_dir(path: str | Path | None) -> None:
    """Raise :class:`_UsageError` when a given directory path names, or
    lies under, something other than a directory."""
    if path is None:
        return
    path = Path(path)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise _UsageError(f"not a directory: {existing}")


_JOURNAL_HELP = "a run's events.jsonl, or the run directory holding it"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Taxi-trace cleaning, map fusion and information discovery",
    )
    _add_obs_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate the taxi fleet and dump traces")
    sim.add_argument("--days", type=int, default=14)
    sim.add_argument("--seed", type=int, default=42)
    sim.add_argument("--points", type=Path, default=Path("points.csv"))
    sim.add_argument("--trips", type=Path, default=None,
                     help="optional trips JSONL output")
    _add_obs_flags(sim)

    clean = sub.add_parser("clean", help="clean and segment a route-point CSV")
    clean.add_argument("points", type=Path)
    clean.add_argument("--metrics-out", type=Path, default=None,
                       help="write the run's metrics registry as JSON")
    _add_obs_flags(clean)
    _add_journal_flags(clean)
    _add_robustness_flags(clean)

    study = sub.add_parser("study", help="run the full study, write artefacts")
    study.add_argument("--days", type=int, default=30)
    study.add_argument("--seed", type=int, default=42)
    study.add_argument("--out", type=Path, default=Path("study_out"))
    study.add_argument("--svg", action="store_true",
                       help="also render Figs. 3/6/9 as SVG")
    study.add_argument("--geojson", action="store_true",
                       help="also export roads/gates/routes/cells as GeoJSON")
    study.add_argument("--metrics-out", type=Path, default=None,
                       help="also write the metrics JSON to this path "
                            "(a metrics.json is always written to --out)")
    study.add_argument("--matcher", choices=("incremental", "hmm"),
                       default="incremental",
                       help="map-matching algorithm (default: incremental)")
    study.add_argument("--input", type=Path, default=None, metavar="CSV",
                       help="read the fleet back from this route-point CSV "
                            "instead of simulating (reader quarantine "
                            "records are prepended to errors.jsonl)")
    _add_obs_flags(study)
    _add_journal_flags(study)
    _add_executor_flags(study)
    _add_robustness_flags(study)
    _add_store_flags(study)

    serve = sub.add_parser(
        "serve", help="stream a route-point feed through the study fold")
    serve.add_argument("--input", type=Path, required=True, metavar="PATH",
                       help="route-point feed: a CSV (replay), a growing "
                            "CSV (tail) or a named pipe (fifo)")
    serve.add_argument("--mode", choices=("replay", "tail", "fifo"),
                       default="replay",
                       help="how to consume --input (default: replay)")
    serve.add_argument("--days", type=int, default=30)
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument("--out", type=Path, default=Path("serve_out"))
    serve.add_argument("--batch-size", type=int, default=64, metavar="N",
                       help="rows per micro-batch (default: 64)")
    serve.add_argument("--trip-timeout", type=float, default=1800.0,
                       metavar="SECONDS",
                       help="watermark lag that closes a stale open trip")
    serve.add_argument("--window", type=float, default=86_400.0,
                       metavar="SECONDS",
                       help="width of the windowed aggregates (event time)")
    serve.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                       help="checkpoint every N micro-batches (0: disabled)")
    serve.add_argument("--checkpoint-dir", type=Path, default=None,
                       metavar="DIR",
                       help="checkpoint directory; holds the latest "
                            "checkpoint as one keyed file (required with "
                            "--checkpoint-every)")
    serve.add_argument("--no-resume", action="store_true",
                       help="ignore an existing checkpoint and start fresh")
    serve.add_argument("--idle-timeout", type=float, default=5.0,
                       metavar="SECONDS",
                       help="tail mode: stop after this long without growth")
    serve.add_argument("--matcher", choices=("incremental", "hmm"),
                       default="incremental",
                       help="map-matching algorithm (default: incremental)")
    serve.add_argument("--metrics-out", type=Path, default=None,
                       help="also write the metrics JSON to this path "
                            "(a metrics.json is always written to --out)")
    _add_obs_flags(serve)
    _add_journal_flags(serve)
    _add_robustness_flags(serve)

    report = sub.add_parser("report", help="run a study and write REPORT.md")
    report.add_argument("--days", type=int, default=30)
    report.add_argument("--seed", type=int, default=42)
    report.add_argument("--out", type=Path, default=Path("REPORT.md"))
    _add_obs_flags(report)
    _add_journal_flags(report)
    _add_executor_flags(report)
    _add_robustness_flags(report)

    obs_p = sub.add_parser("obs", help="inspect run journals and metrics")
    _add_obs_flags(obs_p)
    obs_sub = obs_p.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report", help="render the run report from an events journal")
    obs_report.add_argument("journal", type=Path, help=_JOURNAL_HELP)
    obs_report.add_argument("--top", type=int, default=10, metavar="N",
                            help="slowest units to list (default 10)")
    obs_tail = obs_sub.add_parser(
        "tail", help="print the last N journal events, one line each")
    obs_tail.add_argument("journal", type=Path, help=_JOURNAL_HELP)
    obs_tail.add_argument("-n", "--lines", type=int, default=20, metavar="N")
    obs_trip = obs_sub.add_parser(
        "trip", help="full lineage of one unit (trip/segment/transition id)")
    obs_trip.add_argument("journal", type=Path, help=_JOURNAL_HELP)
    obs_trip.add_argument("unit_id", type=int)
    obs_diff = obs_sub.add_parser(
        "diff", help="compare two run output directories "
                     "(artefacts + comparable metrics; exit 1 on divergence)")
    obs_diff.add_argument("run_a", type=Path)
    obs_diff.add_argument("run_b", type=Path)

    store_p = sub.add_parser("store", help="inspect / maintain a shard store")
    _add_obs_flags(store_p)
    store_sub = store_p.add_subparsers(dest="store_command", required=True)
    store_ls = store_sub.add_parser(
        "ls", help="print the store manifest (one line per artefact)")
    store_ls.add_argument("--store-dir", type=Path, default=None, metavar="DIR",
                          help="store root (default: $REPRO_STORE_DIR)")
    store_ls.add_argument("--json", action="store_true",
                          help="emit the manifest as JSON lines")
    store_gc = store_sub.add_parser(
        "gc", help="evict least-recently-used artefacts")
    store_gc.add_argument("--store-dir", type=Path, default=None, metavar="DIR",
                          help="store root (default: $REPRO_STORE_DIR)")
    store_gc.add_argument("--max-bytes", type=int, default=None, metavar="N",
                          help="evict oldest-used artefacts until the store "
                               "fits in N bytes")
    store_gc.add_argument("--max-age", type=float, default=None,
                          metavar="SECONDS",
                          help="evict artefacts not hit within SECONDS")
    return parser


def _say(args: argparse.Namespace, *values) -> None:
    """``print`` unless ``--quiet`` asked for machine-only output."""
    if not getattr(args, "quiet", False):
        print(*values)


def _open_journal(
    args: argparse.Namespace,
    run_ctx: obs.RunContext,
    command: str,
    journal_default: Path | None = None,
) -> obs.FileJournal | None:
    """Open the run journal, if ``--journal-out`` or a default asks for one."""
    path = args.journal_out or journal_default
    if path is None:
        return None
    return obs.FileJournal(path, run_ctx, extra_meta={"command": command})


def _close_journal(
    args: argparse.Namespace, journal: obs.FileJournal | None, status: str
) -> None:
    if journal is not None:
        journal.close(status)
        _say(args, f"wrote run journal to {journal.path}")


def _run_meta(run_ctx: obs.RunContext, started: float, ended: float) -> dict:
    return {
        **obs.run_metadata(run_ctx),
        "started": round(started, 3),
        "ended": round(ended, 3),
        "wall_seconds": round(ended - started, 3),
    }


def _cmd_simulate(args: argparse.Namespace) -> int:
    with _checking_flags():
        spec = FleetSpec(n_days=args.days, seed=args.seed)
    city = build_synthetic_oulu()
    fleet, runs = TaxiFleetSimulator(city, spec).simulate()
    n = write_points_csv(fleet, args.points)
    _say(args, f"wrote {n} route points ({len(fleet)} trips) to {args.points}")
    if args.trips is not None:
        m = write_trips_jsonl(fleet, args.trips)
        _say(args, f"wrote {m} trip headers to {args.trips}")
    return 0


def _cmd_clean(args: argparse.Namespace) -> int:
    with _checking_flags():
        robustness = _robustness(args)
        plan = _fault_plan(args)
    _require_inputs(args.points)
    registry = obs.MetricsRegistry()
    quarantine = Quarantine(robustness.max_error_rate)
    run_ctx = obs.RunContext.create()
    # The journal rides alongside metrics.json when one is requested.
    journal_default = (
        args.metrics_out.parent / "events.jsonl"
        if args.metrics_out is not None else None
    )
    journal = _open_journal(args, run_ctx, "clean", journal_default)
    started = time.time()
    status = "error"
    try:
        with obs.use_run_context(run_ctx), obs.use_registry(registry), \
                obs.use_journal(journal or obs.Journal()), inject_faults(plan):
            fleet = read_points_csv(args.points, quarantine=quarantine)
            rows_quarantined = len(quarantine)
            if not len(fleet):
                print(f"no trips in {args.points}", file=sys.stderr)
                return 1
            result = CleaningPipeline(robustness=robustness).run(
                fleet, quarantine=quarantine
            )
            try:
                quarantine.check(len(fleet) + rows_quarantined)
            except ErrorRateExceeded as exc:
                _write_errors(args, args.errors_out, quarantine)
                print(f"repro clean: {exc}", file=sys.stderr)
                return 1
        status = "ok"
    finally:
        _close_journal(args, journal, status)
    ended = time.time()
    r = result.report

    def sec(stage: str) -> str:
        return format(r.stage_seconds.get(stage, 0.0), ".3f")

    _say(args, format_table(
        ["Stage", "Count", "Seconds"],
        [
            ["trips in", r.trips_in, "-"],
            ["points in", r.points_in, "-"],
            ["reordered trips repaired", r.reordered_trips, sec("ordering")],
            ["duplicates removed", r.duplicates_removed, sec("duplicates")],
            ["glitches removed", r.outliers_removed, sec("outliers")],
            ["out-of-bounds removed", r.out_of_bounds_removed, sec("bounds")],
            ["segments out", r.segments_out, sec("segmentation")],
            ["dropped (<5 points)", r.segments_dropped_short, sec("segment_filter")],
            ["dropped (>30 km)", r.segments_dropped_long, "-"],
            ["points out", r.points_out, "-"],
        ],
    ))
    _say(args, "rule firings:", dict(r.segmentation.rule_hits))
    if quarantine.errors:
        _say(args, f"quarantined: {len(quarantine)} units "
             f"({rows_quarantined} at ingest, {r.trips_quarantined} trips)")
    _write_errors(args, args.errors_out, quarantine)
    snapshot = registry.snapshot()
    snapshot["meta"] = _run_meta(run_ctx, started, ended)
    if args.metrics_out is not None:
        _write_metrics(args.metrics_out, json.dumps(snapshot, indent=2))
        _say(args, f"wrote metrics to {args.metrics_out}")
    return 0


def _write_metrics(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")


def _write_errors(
    args: argparse.Namespace, path: Path | None, quarantine: Quarantine
) -> None:
    if path is not None:
        quarantine.write_jsonl(path)
        _say(args, f"wrote {len(quarantine)} quarantine records to {path}")


def _cmd_study(args: argparse.Namespace) -> int:
    with _checking_flags():
        config = StudyConfig(
            fleet=FleetSpec(n_days=args.days, seed=args.seed),
            matcher=args.matcher,
            executor=_executor_config(args),
            robustness=_robustness(args),
            faults=_fault_plan(args),
            store=_store_config(args),
        )
    _require_inputs(args.input)
    _require_dir(config.store.dir if config.store is not None else None)
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    errors_path: Path = args.errors_out or (out / "errors.jsonl")
    fleet = None
    reader_errors: list = []
    if args.input is not None:
        reader_quarantine = Quarantine()
        # Read under the fault plan so --fault-plan io chaos hits the
        # reader exactly as it hits the streaming service's ingest.
        with inject_faults(config.faults):
            fleet = read_points_csv(args.input, quarantine=reader_quarantine)
        reader_errors = list(reader_quarantine.errors)
        if not len(fleet):
            print(f"no trips in {args.input}", file=sys.stderr)
            return 1
    run_ctx = obs.RunContext.create()
    journal = _open_journal(
        args, run_ctx, "study", journal_default=out / "events.jsonl"
    )
    status = "error"
    try:
        with obs.use_journal(journal or obs.Journal()):
            result = OuluStudy(config).run(run_context=run_ctx, fleet=fleet)
        status = "ok"
    except ErrorRateExceeded as exc:
        quarantine = Quarantine()
        quarantine.errors = reader_errors + list(exc.errors)
        quarantine.write_jsonl(errors_path)
        print(f"repro study: {exc}", file=sys.stderr)
        print(f"quarantine records in {errors_path}", file=sys.stderr)
        return 1
    finally:
        _close_journal(args, journal, status)

    def save(name: str, text: str) -> None:
        (out / name).write_text(text + "\n")

    save("table2.txt", format_table(
        ["Rule", "Description", "Firings"],
        [[r["rule"], r["description"], r["hits"]]
         for r in table2_rule_hits(result.clean)],
    ))
    save("table3.txt", render_funnel(result))
    save("table4.txt", render_table4(table4_route_summaries(result)))
    save("table5.txt", render_table5(table5_cell_speed_strata(result)))
    deltas = seasonal_speed_deltas(result)
    save("fig5.txt", format_table(
        ["Season", "Delta (km/h)"], [[s, round(d, 2)] for s, d in deltas.items()]
    ))
    weather = fig10_weather_low_speed(result, lights_threshold=5)
    save("fig10.txt", format_table(
        ["Temp class", "few lights", "many lights"],
        [[cls, *(("-" if v is None else round(v, 1)) for v in groups.values())]
         for cls, groups in weather.items()],
    ))
    metrics_json = json.dumps(result.metrics, indent=2)
    save("metrics.json", metrics_json)
    quarantine = Quarantine()
    quarantine.errors = reader_errors + list(result.errors)
    quarantine.write_jsonl(errors_path)
    if args.metrics_out is not None:
        _write_metrics(args.metrics_out, metrics_json)
    if args.svg:
        from repro.experiments.svgmap import (
            render_fig3_svg,
            render_fig6_svg,
            render_fig9_svg,
        )

        cars = sorted({t.segment.car_id for t, __ in result.kept()})
        if cars:
            save("fig3.svg", render_fig3_svg(result, cars[0]))
        directions = {t.direction for t, __ in result.kept()}
        if directions:
            direction = "L-T" if "L-T" in directions else sorted(directions)[0]
            save("fig6.svg", render_fig6_svg(result, direction))
        if result.mixed is not None:
            save("fig9.svg", render_fig9_svg(result))
    if args.geojson:
        from repro.experiments.geojson import study_geojson

        for name, fc in study_geojson(result).items():
            save(f"{name}.geojson", json.dumps(fc))
    verdict = f"{len(result.errors)} quarantined" if result.errors else "no errors"
    _say(args, f"study complete: {len(result.kept_transitions)} transitions; "
         f"{verdict}; artefacts in {out}/")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    with _checking_flags():
        study = StudyConfig(
            fleet=FleetSpec(n_days=args.days, seed=args.seed),
            matcher=args.matcher,
            robustness=_robustness(args),
            faults=_fault_plan(args),
        )
        config = StreamConfig(
            study=study,
            input=str(args.input),
            mode=args.mode,
            batch_size=args.batch_size,
            trip_timeout_s=args.trip_timeout,
            window_s=args.window,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=(
                str(args.checkpoint_dir)
                if args.checkpoint_dir is not None else None
            ),
            idle_timeout_s=args.idle_timeout,
        )
    if args.mode != "tail":  # a tailed file may appear later
        _require_inputs(args.input)
    _require_dir(config.checkpoint_dir)
    service = StreamService(config)
    if not args.no_resume:
        with _checking_flags():
            service.resume_checkpoint()  # refuses an incompatible checkpoint
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    errors_path: Path = args.errors_out or (out / "errors.jsonl")
    run_ctx = obs.RunContext.create()
    journal = _open_journal(
        args, run_ctx, "serve", journal_default=out / "events.jsonl"
    )
    status = "error"
    try:
        with obs.use_journal(journal or obs.Journal()):
            result = service.run(run_context=run_ctx, resume=not args.no_resume)
        status = "ok"
    except ErrorRateExceeded as exc:
        quarantine = Quarantine()
        quarantine.errors = list(exc.errors)
        quarantine.write_jsonl(errors_path)
        print(f"repro serve: {exc}", file=sys.stderr)
        print(f"quarantine records in {errors_path}", file=sys.stderr)
        return 1
    finally:
        _close_journal(args, journal, status)

    def save(name: str, text: str) -> None:
        (out / name).write_text(text + "\n")

    # The same table artefacts as ``repro study`` (StreamResult is
    # duck-typed to the renderers); the figure generators need retained
    # matched routes, which bounded-memory streaming deliberately drops.
    save("table2.txt", format_table(
        ["Rule", "Description", "Firings"],
        [[r["rule"], r["description"], r["hits"]]
         for r in table2_rule_hits(result.clean)],
    ))
    save("table3.txt", render_funnel(result))
    save("table4.txt", render_table4(table4_route_summaries(result)))
    save("table5.txt", render_table5(table5_cell_speed_strata(result)))
    (out / "windows.jsonl").write_text(
        "".join(json.dumps(w, sort_keys=True) + "\n" for w in result.windows)
    )
    metrics_json = json.dumps(result.metrics, indent=2)
    save("metrics.json", metrics_json)
    quarantine = Quarantine()
    quarantine.errors = list(result.errors)
    quarantine.write_jsonl(errors_path)
    if args.metrics_out is not None:
        _write_metrics(args.metrics_out, metrics_json)
    verdict = f"{len(result.errors)} quarantined" if result.errors else "no errors"
    _say(args, f"stream drained: {result.rows_ingested} rows, "
         f"{result.trips_seen} trips, {result.kept_count} kept transitions; "
         f"{result.checkpoints_written} checkpoints; {verdict}; "
         f"artefacts in {out}/")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import study_report

    with _checking_flags():
        config = StudyConfig(
            fleet=FleetSpec(n_days=args.days, seed=args.seed),
            executor=_executor_config(args),
            robustness=_robustness(args),
            faults=_fault_plan(args),
        )
    run_ctx = obs.RunContext.create()
    journal = _open_journal(args, run_ctx, "report")
    status = "error"
    try:
        with obs.use_journal(journal or obs.Journal()):
            result = OuluStudy(config).run(run_context=run_ctx)
        status = "ok"
    except ErrorRateExceeded as exc:
        if args.errors_out is not None:
            quarantine = Quarantine()
            quarantine.errors = list(exc.errors)
            quarantine.write_jsonl(args.errors_out)
        print(f"repro report: {exc}", file=sys.stderr)
        return 1
    finally:
        _close_journal(args, journal, status)
    text = study_report(result)
    args.out.write_text(text)
    _say(args, f"wrote {args.out} ({len(text.splitlines())} lines)")
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    path = args.store_dir or (
        Path(os.environ["REPRO_STORE_DIR"])
        if os.environ.get("REPRO_STORE_DIR") else None
    )
    if path is None:
        print("repro store: no --store-dir given and $REPRO_STORE_DIR unset",
              file=sys.stderr)
        return 2
    try:
        store = ShardStore(path)
    except StoreError as exc:
        print(f"repro store: {exc}", file=sys.stderr)
        return 2
    if args.store_command == "ls":
        records = store.ls()
        if args.json:
            for record in records:
                print(json.dumps(record, sort_keys=True))
        else:
            _say(args, format_table(
                ["Shard", "Stage", "Key", "Bytes"],
                [[r["shard"], r["stage"], r["key"][:12], r["bytes"]]
                 for r in records],
            ))
            _say(args, f"{len(records)} artefacts, "
                 f"{sum(r['bytes'] for r in records)} bytes in {path}")
        return 0
    evicted = store.gc(max_bytes=args.max_bytes, max_age_s=args.max_age)
    _say(args, f"evicted {len(evicted)} artefacts "
         f"({sum(r['bytes'] for r in evicted)} bytes) from {path}")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import report as obs_report

    if args.obs_command == "diff":
        _require_inputs(args.run_a, args.run_b)
        result = obs_report.diff_runs(args.run_a, args.run_b)
        print("\n".join(result.lines))
        return 1 if result.divergent else 0
    journal = args.journal
    if journal.is_dir():  # a run directory, as ``diff`` takes
        journal = journal / "events.jsonl"
    _require_inputs(journal)
    if args.obs_command == "report":
        events, metrics = obs_report.load_run(journal)
        print(obs_report.render_report(events, metrics, top=args.top))
    elif args.obs_command == "tail":
        print(obs_report.render_tail(obs.read_journal(journal), n=args.lines))
    else:
        print(obs_report.render_trip(obs.read_journal(journal), args.unit_id))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    log_level = getattr(args, "log_level", None)
    log_json = getattr(args, "log_json", False)
    if log_level is not None or log_json:
        try:
            obs.configure(level=log_level or "INFO", json_mode=log_json)
        except ValueError as exc:
            print(f"repro: {exc}", file=sys.stderr)
            return 2
    handlers = {
        "simulate": _cmd_simulate,
        "clean": _cmd_clean,
        "study": _cmd_study,
        "serve": _cmd_serve,
        "report": _cmd_report,
        "obs": _cmd_obs,
        "store": _cmd_store,
    }
    try:
        return handlers[args.command](args)
    except _UsageError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The stdout reader went away (e.g. `repro obs report | head`).
        # Point stdout at devnull so the interpreter's exit flush does
        # not raise a second time, and exit cleanly like other CLIs.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
