"""The durable run journal — an append-only JSONL event log per run.

``metrics.json`` answers *how many*; the journal answers *which unit,
why, where, and how slow*.  Every ``repro study``/``clean``/``report``
writes an ``events.jsonl`` next to its artefacts: one JSON object per
line, schema-versioned, containing

* a ``run_start`` header (run id, git SHA, Python version, config hints)
  and a ``run_end`` footer (status, wall time);
* ``span_open``/``span_close`` pairs for every stage/detail/chunk span,
  carrying ``trace_id``/``span_id``/``parent_id`` so the stage tree is
  reconstructable from the flat stream even across worker processes;
* ``lineage`` records — per-trip/per-transition provenance (which
  Table 2 rule fired, which gates were crossed, match latency, route
  source, quarantine reason);
* operational events: ``quarantine``, ``retry``, ``fault_injected``,
  ``worker_restart``.

Instrumented code resolves the ambient journal via :func:`get_journal`
(a contextvar, like the metrics registry); without an orchestrator-bound
journal, emission is a no-op attribute check.  Worker processes buffer
events (:class:`BufferJournal`) into their chunk-local registry; the
executor replays them into the orchestrator's file in chunk order, so
the journal layout is deterministic for any worker count.

Reading is crash-tolerant: a truncated final line (the writing process
died mid-record) is dropped rather than failing the read, mirroring the
robust CSV ingest.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterator

from repro.obs.context import RunContext, run_metadata

#: Journal line schema version (stamped into the ``run_start`` header).
JOURNAL_SCHEMA_VERSION = 1

#: Compact encoder for the hot emit path.  A ``default=`` hook would
#: force :mod:`json` off its C fast path for *every* event, so the
#: ``repr`` fallback is applied only when an event actually contains a
#: non-serialisable value.
_ENCODE_FAST = json.JSONEncoder(separators=(",", ":")).encode


def _encode_event(event: dict) -> str:
    try:
        return _ENCODE_FAST(event)
    except (TypeError, ValueError):
        return json.dumps(event, separators=(",", ":"), default=repr)

#: Event kinds a conforming journal may contain (``tools/validate_journal.py``
#: rejects anything else).
EVENT_KINDS = frozenset({
    "run_start",
    "run_end",
    "span_open",
    "span_close",
    "lineage",
    "quarantine",
    "retry",
    "fault_injected",
    "worker_restart",
    "cache",
    "store",
    "note",
    # Streaming service (repro.stream): micro-batch progress, trip
    # lifecycle, checkpoint/resume and dead-letter provenance.
    "stream.batch",
    "stream.trip_open",
    "stream.trip_close",
    "stream.window_close",
    "stream.checkpoint",
    "stream.resume",
    "stream.dead_letter",
})


class Journal:
    """No-op base journal; also the disabled default."""

    #: Emission guard: call sites skip building event payloads when False.
    enabled: bool = False

    def emit(self, kind: str, **fields) -> None:  # noqa: ARG002 - no-op base
        pass

    def close(self, status: str = "ok") -> None:  # noqa: ARG002 - no-op base
        pass


#: Shared disabled journal (the ambient default).
NULL_JOURNAL = Journal()


class FileJournal(Journal):
    """Append-only JSONL journal for one run.

    Writes the ``run_start`` header immediately (flushed) so a crashed
    run still leaves an identifiable journal.  Events are block-buffered
    — one flush per buffer, not per line, keeping the overhead gate in
    ``tools/bench_compare.py`` honest — so a hard crash can lose the
    buffered tail; the flush boundary cuts at worst mid-line, which
    :func:`read_journal` tolerates (truncated final line).  Events are
    stamped with a wall-clock ``ts`` and a monotonically increasing
    ``i`` sequence number.
    """

    enabled = True

    def __init__(
        self,
        path: str | Path,
        run: RunContext | None = None,
        extra_meta: dict | None = None,
    ) -> None:
        self.path = Path(path)
        self.run = run
        self._seq = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._stream: IO[str] | None = self.path.open("w")
        self._t0 = time.time()
        header = {"journal_schema": JOURNAL_SCHEMA_VERSION, **run_metadata(run)}
        if extra_meta:
            header.update(extra_meta)
        self.emit("run_start", **header)
        self._stream.flush()

    def emit(self, kind: str, **fields) -> None:
        stream = self._stream
        if stream is None:
            return
        event = {"kind": kind, "i": self._seq, "ts": round(time.time(), 6)}
        if self.run is not None:
            event["run_id"] = self.run.run_id
        event.update(fields)
        self._seq += 1
        try:
            stream.write(_encode_event(event) + "\n")
        except ValueError:
            # Closed-stream writes must never take the pipeline down.
            self._stream = None

    def close(self, status: str = "ok") -> None:
        if self._stream is None:
            return
        self.emit("run_end", status=status, wall_seconds=round(time.time() - self._t0, 6))
        self._stream.close()
        self._stream = None

    def __enter__(self) -> "FileJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(status="ok" if exc_type is None else "error")


class BufferJournal(Journal):
    """In-memory journal used inside pool workers.

    Events accumulate into ``buffer`` (typically the chunk registry's
    ``events`` list) and travel back to the orchestrator with the chunk
    results, which replays them into its own journal in chunk order.
    """

    enabled = True

    def __init__(self, buffer: list | None = None) -> None:
        self.buffer: list[dict] = buffer if buffer is not None else []

    def emit(self, kind: str, **fields) -> None:
        self.buffer.append({"kind": kind, "ts": round(time.time(), 6), **fields})


_active_journal: ContextVar[Journal | None] = ContextVar("repro_obs_journal", default=None)


def get_journal() -> Journal:
    """The ambient journal instrumented code emits into."""
    journal = _active_journal.get()
    return journal if journal is not None else NULL_JOURNAL


def clear_journal() -> None:
    """Drop any ambient binding (worker initialiser hook)."""
    _active_journal.set(None)


@contextmanager
def use_journal(journal: Journal) -> Iterator[Journal]:
    """Scope ``journal`` as ambient; restores the previous one on exit."""
    token = _active_journal.set(journal)
    try:
        yield journal
    finally:
        _active_journal.reset(token)


# -- reading -----------------------------------------------------------------


def read_journal(path: str | Path) -> list[dict]:
    """Load a journal back into event dicts, tolerating a write crash.

    A truncated or corrupt *final* line — the writer died mid-record —
    is silently dropped.  Corruption earlier in the file raises
    ``ValueError`` (that is damage, not an interrupted write).
    """
    lines = Path(path).read_text().splitlines()
    events: list[dict] = []
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except ValueError:
            if index == len(lines) - 1:
                break  # interrupted final write: keep the valid prefix
            raise ValueError(
                f"{path}: corrupt journal line {index + 1} (not the final line)"
            ) from None
        if isinstance(event, dict):
            events.append(event)
    return events


# -- span-tree reconstruction ------------------------------------------------


@dataclass
class SpanNode:
    """One reconstructed span of a journal's trace."""

    name: str
    span_id: str
    parent_id: str | None = None
    span_kind: str = "stage"
    seconds: float | None = None  # None: span never closed (crash)
    children: list["SpanNode"] = field(default_factory=list)

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "seconds": self.seconds, "kind": self.span_kind}
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out


def reconstruct_spans(events: list[dict]) -> list[SpanNode]:
    """Rebuild the span forest of a journal from its flat event stream.

    Children keep journal order (deterministic: chunk-ordered replay).
    Detail spans appear as a single self-contained ``span_close`` (no
    open event) and become leaf nodes in place.  Spans whose parent
    never appears become roots — that happens only when a journal is
    truncated below the parent's ``span_open``.
    """
    nodes: dict[str, SpanNode] = {}
    order: list[SpanNode] = []
    for event in events:
        kind = event.get("kind")
        if kind == "span_open":
            node = SpanNode(
                name=str(event.get("name", "?")),
                span_id=str(event.get("span_id", "")),
                parent_id=event.get("parent_id"),
                span_kind=str(event.get("span_kind", "stage")),
            )
            if node.span_id:
                nodes[node.span_id] = node
            order.append(node)
        elif kind == "span_close":
            node = nodes.get(str(event.get("span_id", "")))
            if node is not None:
                node.seconds = event.get("seconds")
            else:
                # Self-contained close (a detail span): node in place.
                node = SpanNode(
                    name=str(event.get("name", "?")),
                    span_id=str(event.get("span_id", "")),
                    parent_id=event.get("parent_id"),
                    span_kind=str(event.get("span_kind", "detail")),
                    seconds=event.get("seconds"),
                )
                if node.span_id:
                    nodes[node.span_id] = node
                order.append(node)
    roots: list[SpanNode] = []
    for node in order:
        parent = nodes.get(node.parent_id) if node.parent_id else None
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)
    return roots


def structural_signature(
    roots: list[SpanNode], collapse_kinds: tuple[str, ...] = ("chunk",)
) -> tuple:
    """Scheduling-independent shape of a span forest.

    Returns nested ``(name, (children...))`` tuples with ids and timings
    stripped.  Spans whose kind is in ``collapse_kinds`` (the executor's
    synthetic per-chunk spans) are spliced out, their children promoted
    in place — which is exactly the serial tree, since chunk replay is
    input-ordered.  Equality of two signatures is the acceptance check
    that a 4-worker run traced the same work as a serial one.
    """

    def signature(node: SpanNode) -> tuple:
        return (node.name, expand(node.children))

    def expand(children: list[SpanNode]) -> tuple:
        out: list[tuple] = []
        for child in children:
            if child.span_kind in collapse_kinds:
                out.extend(expand(child.children))
            else:
                out.append(signature(child))
        return tuple(out)

    return expand(roots)


def lineage_records(
    events: list[dict],
    unit: str | None = None,
    unit_id: int | None = None,
) -> list[dict]:
    """The journal's ``lineage`` events, optionally filtered.

    ``unit`` is ``"trip"`` or ``"transition"``; ``unit_id`` matches the
    record's ``trip_id``/``segment_id``/``transition_index`` — any hit
    keeps the record, so a bare id query works without knowing which
    stage produced the record.
    """
    out: list[dict] = []
    for event in events:
        if event.get("kind") != "lineage":
            continue
        if unit is not None and event.get("unit") != unit:
            continue
        if unit_id is not None and unit_id not in (
            event.get("trip_id"),
            event.get("segment_id"),
            event.get("transition_index"),
        ):
            continue
        out.append(event)
    return out
