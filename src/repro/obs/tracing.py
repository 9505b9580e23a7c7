"""Stage tracing — nested wall-time spans feeding the metrics registry.

:class:`span` is both a context manager and a decorator::

    with span("match"):
        with span("candidates"):
            ...

    @span("extract")
    def extract(...): ...

Spans nest per thread: a span opened inside another becomes its child,
building a stage tree.  When a *root* span closes, its finished
:class:`SpanRecord` tree is attached to the ambient registry
(:func:`repro.obs.get_registry`), and every span also feeds a
``stage.<name>.seconds`` histogram so repeated stages get latency
quantiles for free.

Two orthogonal extensions serve the run journal:

* **identity** — when a journal is bound (:func:`repro.obs.get_journal`)
  each span draws a ``span_id``, inherits the run's ``trace_id`` and
  resolves its ``parent_id`` from the enclosing span — or, at stack
  bottom inside a worker, from the cross-process parent installed by
  :func:`repro.obs.context.use_parent_span` — and emits
  ``span_open``/``span_close`` journal events.  Without a journal none
  of this runs and a span costs what it did before.
* **detail spans** — ``span(name, detail=True)`` times one *unit* of a
  stage (one trip cleaned, one route matched).  Detail spans feed the
  ``stage.<name>.seconds`` histogram and the journal but never enter the
  thread's span stack, so they cannot appear in the registry's stage
  tree (tests pin that tree's exact shape) and cost nothing when no
  journal is bound beyond the histogram observation.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field

from repro.obs.context import current_parent_span_id, current_run, new_span_id
from repro.obs.journal import get_journal
from repro.obs.metrics import get_registry


@dataclass
class SpanRecord:
    """One finished (or running) stage timing node."""

    name: str
    duration_s: float = 0.0
    children: list["SpanRecord"] = field(default_factory=list)
    # Trace identity (populated only while a journal is bound; never part
    # of to_dict(), whose exact shape is pinned by tests and metrics.json).
    span_id: str | None = None
    trace_id: str | None = None
    parent_id: str | None = None

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "seconds": round(self.duration_s, 6)}
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def find(self, name: str) -> "SpanRecord | None":
        """Depth-first lookup of a descendant (or self) by name."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None


class _SpanStack(threading.local):
    def __init__(self) -> None:
        self.stack: list[SpanRecord] = []


_stack = _SpanStack()


def current_span() -> SpanRecord | None:
    """The innermost open span of this thread, if any."""
    return _stack.stack[-1] if _stack.stack else None


def reset_span_stack() -> None:
    """Forget any open spans of this thread.

    A worker process forked while the parent was inside a span inherits
    those open frames; spans the worker then finishes would attach to a
    phantom parent and never reach a registry.  Worker initialisers call
    this (via :func:`repro.obs.reset_worker_state`) so worker spans are
    roots again.
    """
    _stack.stack.clear()


class span:
    """Time a stage; use as ``with span("x"):`` or ``@span("x")``.

    ``detail=True`` marks a per-unit span (kept out of the stage tree,
    see module docstring); ``kind`` overrides the journal ``span_kind``
    (the executor uses ``"chunk"`` for its synthetic per-chunk spans);
    ``attrs`` are extra fields inlined into the span's journal event
    (unit ids, chunk indices).  Stage spans emit an open/close event
    pair; detail spans emit one self-contained ``span_close``.
    """

    def __init__(
        self,
        name: str,
        detail: bool = False,
        kind: str | None = None,
        attrs: dict | None = None,
    ) -> None:
        self.name = name
        self.detail = detail
        self.kind = kind if kind is not None else ("detail" if detail else "stage")
        self.attrs = attrs
        self.record: SpanRecord | None = None
        self._journal = None
        self._t0 = 0.0

    def __enter__(self) -> SpanRecord:
        record = SpanRecord(name=self.name)
        journal = get_journal()
        if journal.enabled:
            self._journal = journal
            stack = _stack.stack
            record.span_id = new_span_id()
            run = current_run()
            record.trace_id = run.trace_id if run is not None else None
            if stack:
                record.parent_id = stack[-1].span_id
            else:
                record.parent_id = current_parent_span_id()
            if not self.detail:
                journal.emit(
                    "span_open",
                    name=record.name,
                    span_id=record.span_id,
                    parent_id=record.parent_id,
                    trace_id=record.trace_id,
                    span_kind=self.kind,
                    **(self.attrs or {}),
                )
        if not self.detail:
            _stack.stack.append(record)
        self.record = record
        self._t0 = time.perf_counter()
        return record

    def __exit__(self, exc_type, exc, tb) -> None:
        record = self.record
        assert record is not None
        record.duration_s = time.perf_counter() - self._t0
        registry = get_registry()
        registry.histogram(f"stage.{record.name}.seconds").observe(record.duration_s)
        journal = self._journal
        if journal is not None:
            if self.detail:
                # Detail spans are leaves timing one unit; a single
                # self-contained close event (identity + attrs + timing)
                # halves their journal traffic vs an open/close pair.
                journal.emit(
                    "span_close",
                    name=record.name,
                    span_id=record.span_id,
                    parent_id=record.parent_id,
                    trace_id=record.trace_id,
                    span_kind=self.kind,
                    seconds=round(record.duration_s, 6),
                    status="ok" if exc_type is None else "error",
                    **(self.attrs or {}),
                )
            else:
                journal.emit(
                    "span_close",
                    name=record.name,
                    span_id=record.span_id,
                    seconds=round(record.duration_s, 6),
                    status="ok" if exc_type is None else "error",
                )
            self._journal = None
        if not self.detail:
            stack = _stack.stack
            if record in stack:
                # Normally ``record`` is the top frame; anything above it means
                # the stack desynchronised (e.g. reset_span_stack raced a fork)
                # and those stale frames are dropped with it.
                del stack[stack.index(record):]
            if stack:
                stack[-1].children.append(record)
            else:
                registry.record_span(record)
        self.record = None

    def __call__(self, fn):
        name, detail, kind, attrs = self.name, self.detail, self.kind, self.attrs

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with span(name, detail=detail, kind=kind, attrs=attrs):
                return fn(*args, **kwargs)

        return wrapped
