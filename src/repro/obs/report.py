"""Render run journals and metrics into the ``repro obs`` CLI outputs.

Four views over the artefacts a run leaves behind (``events.jsonl``,
``metrics.json``, tables):

* :func:`render_report` — one-screen run report: identity header, the
  Table 3 funnel as a waterfall, the reconstructed stage-timing tree,
  top-N slowest units, quarantine/retry/fault accounting;
* :func:`render_tail` — the last N journal events, one line each;
* :func:`render_trip` — everything the journal knows about one unit
  (lineage, detail spans, quarantine records) by trip/segment id;
* :func:`diff_runs` — artefact + counter comparison of two run
  directories, the acceptance check that two runs (say serial vs
  ``--workers 4``) produced the same science, followed by their
  stage-time deltas.

Everything here is pure text rendering over already-loaded data; the CLI
wiring lives in :mod:`repro.cli`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.journal import SpanNode, lineage_records, read_journal, reconstruct_spans

#: Counter prefixes whose values legitimately differ between equivalent
#: runs (scheduling artefacts: chunk counts, cache hit/miss splits per
#: process, pool restarts).  Mirrors the serial-vs-parallel equivalence
#: tests; everything else diverging means the runs did different science.
SCHEDULING_PREFIXES = ("parallel.", "routing.", "worker.")

#: Counters of bytes, not of units: a serve checkpoint's size varies with
#: the wall-clock stage seconds its cleaning report carries.
SIZE_COUNTERS = frozenset({"stream.checkpoint_bytes"})

#: Artefact files compared byte-wise by :func:`diff_runs` when present.
ARTEFACT_GLOBS = ("table*.txt", "fig*.txt", "errors.jsonl")


def run_meta(events: list[dict]) -> dict:
    """The journal's ``run_start`` header (empty dict if truncated away)."""
    for event in events:
        if event.get("kind") == "run_start":
            return event
    return {}


def run_status(events: list[dict]) -> dict | None:
    """The ``run_end`` footer, or ``None`` for a crashed/live run."""
    for event in reversed(events):
        if event.get("kind") == "run_end":
            return event
    return None


# -- run report --------------------------------------------------------------

_FUNNEL_STAGES = (
    ("trips ingested", "clean.trips_in"),
    ("segments cleaned", "clean.segments_out"),
    ("segments gate-crossing", "od.filtered_cleaned"),
    ("transitions (studied pairs)", "od.transitions_total"),
    ("within city centre", "od.within_centre"),
    ("post-filtered (kept)", "od.post_filter_kept"),
)


def _funnel_lines(counters: dict) -> list[str]:
    lines = ["Funnel (Table 3 waterfall):"]
    previous: int | None = None
    width = max(len(label) for label, _ in _FUNNEL_STAGES)
    for label, counter in _FUNNEL_STAGES:
        if counter not in counters:
            continue
        value = int(counters[counter])
        drop = "" if previous is None else f"  (-{previous - value})"
        bar = "#" * max(1, round(40 * value / max(1, int(counters[_FUNNEL_STAGES[0][1]]) or 1))) if value else ""
        lines.append(f"  {label:<{width}} {value:>7}{drop:<10} {bar}")
        previous = value
    quarantined = counters.get("trips.quarantined")
    if quarantined:
        lines.append(f"  {'quarantined units':<{width}} {int(quarantined):>7}")
    return lines if len(lines) > 1 else []


def _tree_lines(nodes: list[SpanNode], indent: int = 0) -> list[str]:
    lines: list[str] = []
    for node in nodes:
        seconds = "   never closed" if node.seconds is None else f"{node.seconds:9.3f}s"
        detail = ""
        if node.span_kind == "chunk":
            detail = "  [chunk]"
        lines.append(f"  {'  ' * indent}{node.name:<{28 - 2 * indent}} {seconds}{detail}")
        # Detail spans are numerous (one per unit); summarise instead of listing.
        stage_children = [c for c in node.children if c.span_kind != "detail"]
        detail_children = [c for c in node.children if c.span_kind == "detail"]
        lines.extend(_tree_lines(stage_children, indent + 1))
        if detail_children:
            closed = [c.seconds for c in detail_children if c.seconds is not None]
            total = sum(closed)
            lines.append(
                f"  {'  ' * (indent + 1)}"
                f"({len(detail_children)} {detail_children[0].name} spans, "
                f"{total:.3f}s total)"
            )
    return lines


def _detail_spans(events: list[dict]) -> list[dict]:
    """Closed detail spans (self-contained ``span_close`` events)."""
    return [
        event
        for event in events
        if event.get("kind") == "span_close"
        and event.get("span_kind") == "detail"
    ]


def _unit_label(event: dict) -> str:
    for key in ("trip_id", "segment_id", "transition_index", "row",
                "checkpoint_seq"):
        if event.get(key) is not None:
            return f"{key}={event[key]}"
    return "unit=?"


def render_report(
    events: list[dict], metrics: dict | None = None, top: int = 10
) -> str:
    """The one-screen run report ``repro obs report`` prints."""
    meta = run_meta(events)
    status = run_status(events)
    lines = ["Run report", "=========="]
    for key in ("run_id", "git_sha", "python", "command"):
        if meta.get(key):
            lines.append(f"{key:<9} {meta[key]}")
    if status is not None:
        lines.append(
            f"status    {status.get('status', '?')} "
            f"({status.get('wall_seconds', '?')}s wall)"
        )
    else:
        lines.append("status    incomplete (no run_end event — crashed or live)")
    lines.append("")

    counters = (metrics or {}).get("counters", {})
    funnel = _funnel_lines(counters)
    if funnel:
        lines.extend(funnel)
        lines.append("")

    roots = reconstruct_spans(events)
    if roots:
        lines.append("Stage tree (from journal spans):")
        lines.extend(_tree_lines(roots))
        lines.append("")

    details = _detail_spans(events)
    if details and top > 0:
        slowest = sorted(details, key=lambda d: -d.get("seconds", 0.0))[:top]
        lines.append(f"Slowest {len(slowest)} units:")
        for d in slowest:
            lines.append(
                f"  {d.get('seconds', 0.0):9.4f}s  {d.get('name', '?'):<16} "
                f"{_unit_label(d)}"
            )
        lines.append("")

    hmm_layers = counters.get("matching.hmm_layers")
    if hmm_layers:
        pairs = int(counters.get("matching.hmm_transition_pairs", 0))
        lines.append("HMM batching:")
        lines.append(f"  layers decoded      {int(hmm_layers)}")
        lines.append(f"  transition pairs    {pairs} (batched per trip)")
        lines.append("")

    quarantines = [e for e in events if e.get("kind") == "quarantine"]
    retries = sum(1 for e in events if e.get("kind") == "retry")
    injected = sum(1 for e in events if e.get("kind") == "fault_injected")
    restarts = sum(1 for e in events if e.get("kind") == "worker_restart")
    if quarantines or retries or injected or restarts:
        lines.append("Degraded-mode accounting:")
        if quarantines:
            by_stage: dict[str, int] = {}
            for q in quarantines:
                by_stage[q.get("stage", "?")] = by_stage.get(q.get("stage", "?"), 0) + 1
            per_stage = ", ".join(f"{s}={n}" for s, n in sorted(by_stage.items()))
            lines.append(f"  quarantined   {len(quarantines)}  ({per_stage})")
        if retries:
            lines.append(f"  retries       {retries}")
        if injected:
            lines.append(f"  faults        {injected} injected")
        if restarts:
            lines.append(f"  pool restarts {restarts}")
        lines.append("")

    lineage = lineage_records(events)
    if lineage:
        lines.append(f"Lineage records: {len(lineage)} "
                     f"(query one with `repro obs trip <journal> <id>`)")
    return "\n".join(lines).rstrip() + "\n"


# -- tail --------------------------------------------------------------------


def _event_line(event: dict) -> str:
    kind = event.get("kind", "?")
    skip = {"kind", "i", "ts", "run_id"}
    fields = " ".join(
        f"{k}={event[k]}" for k in event if k not in skip and event[k] is not None
    )
    seq = event.get("i", "")
    return f"{seq:>6} {kind:<14} {fields}"


def render_tail(events: list[dict], n: int = 20) -> str:
    """The last ``n`` journal events, one formatted line each."""
    return "\n".join(_event_line(e) for e in events[-n:]) + "\n" if events else ""


# -- per-unit view -----------------------------------------------------------


def render_trip(events: list[dict], unit_id: int) -> str:
    """Everything the journal recorded about one trip/segment/transition."""
    lineage = lineage_records(events, unit_id=unit_id)
    quarantines = [
        e
        for e in events
        if e.get("kind") == "quarantine"
        and unit_id in (e.get("trip_id"), e.get("segment_id"), e.get("transition_index"))
    ]
    details = [
        d
        for d in _detail_spans(events)
        if unit_id in (d.get("trip_id"), d.get("segment_id"), d.get("transition_index"))
    ]
    if not lineage and not quarantines and not details:
        return f"no journal records for unit id {unit_id}\n"
    lines = [f"Unit {unit_id}", "--------"]
    for record in lineage:
        skip = {"kind", "i", "ts", "run_id"}
        fields = " ".join(
            f"{k}={record[k]}" for k in record if k not in skip and record[k] is not None
        )
        lines.append(f"lineage    {fields}")
    for d in details:
        lines.append(
            f"span       {d.get('name', '?')} {d.get('seconds', 0.0):.4f}s"
        )
    for q in quarantines:
        lines.append(
            f"quarantine stage={q.get('stage')} kind={q.get('qkind') or q.get('error_kind')} "
            f"message={q.get('message')!r}"
        )
    return "\n".join(lines) + "\n"


# -- run diff ----------------------------------------------------------------


@dataclass
class DiffResult:
    """Outcome of :func:`diff_runs`."""

    lines: list[str] = field(default_factory=list)
    divergent: bool = False

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def _comparable_counters(metrics: dict) -> dict:
    return {
        name: value
        for name, value in metrics.get("counters", {}).items()
        if not name.startswith(SCHEDULING_PREFIXES) and name not in SIZE_COUNTERS
    }


def _stage_seconds(metrics: dict) -> tuple[dict[str, float], float]:
    """Stage -> seconds of the first root span, plus the root's seconds."""
    spans = metrics.get("spans") or [{}]
    root = spans[0]
    stages = {c["name"]: c.get("seconds", 0.0) for c in root.get("children", ())}
    return stages, root.get("seconds", 0.0)


def _stage_time_lines(metrics_a: dict, metrics_b: dict) -> list[str]:
    """One informational line per stage of either run's span tree.

    Shows both sides' seconds, the change, and each side's share of its
    root span; ``-`` where a run lacks the stage.
    """
    stages_a, root_a = _stage_seconds(metrics_a)
    stages_b, root_b = _stage_seconds(metrics_b)
    names = [*stages_a, *(n for n in stages_b if n not in stages_a)]
    if not names:
        return []

    def seconds(stages: dict, name: str) -> str:
        return f"{stages[name]:.4f}" if name in stages else "-"

    def share(stages: dict, name: str, root: float) -> str:
        return f"{stages[name] / root:.1%}" if name in stages and root else "-"

    width = max(12, *(len(n) for n in names))
    lines = [f"  time {'stage':<{width}} {'A s':>9} {'B s':>9} {'change':>8} "
             f"{'A share':>8} {'B share':>8}"]
    for name in names:
        a, b = stages_a.get(name), stages_b.get(name)
        change = f"{(b - a) / a:+.1%}" if a and b is not None else "-"
        lines.append(
            f"  time {name:<{width}} {seconds(stages_a, name):>9} "
            f"{seconds(stages_b, name):>9} {change:>8} "
            f"{share(stages_a, name, root_a):>8} {share(stages_b, name, root_b):>8}"
        )
    return lines


def diff_runs(dir_a: str | Path, dir_b: str | Path) -> DiffResult:
    """Compare two run directories' artefacts and structural counters.

    Byte-compares every Table/figure artefact and ``errors.jsonl``, then
    the comparable (non-scheduling) counters of the two ``metrics.json``
    files.  Timings, ids and scheduling counters are out of scope — two
    runs *diverge* only if they produced different science.  The stage
    times of both span trees follow as information (``time`` lines);
    they never make runs diverge.
    """
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    result = DiffResult()
    names: list[str] = []
    for pattern in ARTEFACT_GLOBS:
        names.extend(
            sorted({p.name for p in (*dir_a.glob(pattern), *dir_b.glob(pattern))})
        )
    for name in names:
        a, b = dir_a / name, dir_b / name
        if not a.exists() or not b.exists():
            result.divergent = True
            missing = dir_a if not a.exists() else dir_b
            result.lines.append(f"DIFF {name}: missing in {missing}")
            continue
        if a.read_bytes() != b.read_bytes():
            result.divergent = True
            result.lines.append(f"DIFF {name}: contents differ")
        else:
            result.lines.append(f"  ok {name}")
    metrics_a, metrics_b = dir_a / "metrics.json", dir_b / "metrics.json"
    if metrics_a.exists() and metrics_b.exists():
        doc_a = json.loads(metrics_a.read_text())
        doc_b = json.loads(metrics_b.read_text())
        counters_a = _comparable_counters(doc_a)
        counters_b = _comparable_counters(doc_b)
        diverged = sorted(
            name
            for name in {*counters_a, *counters_b}
            if counters_a.get(name) != counters_b.get(name)
        )
        for name in diverged:
            result.divergent = True
            result.lines.append(
                f"DIFF counter {name}: "
                f"{counters_a.get(name)} != {counters_b.get(name)}"
            )
        if not diverged:
            result.lines.append(
                f"  ok metrics.json ({len(counters_a)} comparable counters)"
            )
        result.lines.extend(_stage_time_lines(doc_a, doc_b))
    result.lines.append(
        "runs diverge" if result.divergent else "zero artefact divergence"
    )
    return result


def load_run(journal_path: str | Path) -> tuple[list[dict], dict | None]:
    """Load a journal plus its sibling ``metrics.json`` (if present)."""
    journal_path = Path(journal_path)
    events = read_journal(journal_path)
    metrics = None
    metrics_path = journal_path.parent / "metrics.json"
    if metrics_path.exists():
        metrics = json.loads(metrics_path.read_text())
    return events, metrics
