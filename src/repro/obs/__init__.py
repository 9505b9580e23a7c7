"""Observability: structured logging, metrics, tracing and the run journal.

The pipeline's audit spine.  Every preparation stage of the paper filters
data; this package makes those effects observable without a debugger:

* :mod:`repro.obs.log` — one :func:`configure` call turns on structured
  (optionally JSON) logging for every ``repro.*`` logger;
* :mod:`repro.obs.metrics` — a process-local :class:`MetricsRegistry` of
  counters/gauges/histograms with a JSON snapshot;
* :mod:`repro.obs.tracing` — :class:`span` context manager/decorator
  building a nested stage-timing tree that feeds the registry;
* :mod:`repro.obs.context` — run/trace identity (``run_id``, span ids)
  and the :class:`TraceCarrier` that ships it across process boundaries;
* :mod:`repro.obs.journal` — durable append-only ``events.jsonl`` run
  journal (span events, lineage, quarantines, retries, restarts);
* :mod:`repro.obs.report` — renderers behind the ``repro obs`` CLI.

Typical orchestration::

    from repro import obs

    obs.configure(level="INFO")
    registry = obs.MetricsRegistry()
    run = obs.RunContext.create()
    with obs.use_registry(registry), obs.use_run_context(run), \\
            obs.use_journal(obs.FileJournal("events.jsonl", run)) as journal, \\
            obs.span("my-pipeline"):
        ...                       # instrumented stages record into both
    journal.close()
    print(registry.to_json())     # counters + histograms + stage tree
"""

from repro.obs.context import (
    SCHEMA_VERSION,
    RunContext,
    TraceCarrier,
    current_parent_span_id,
    current_run,
    git_sha,
    new_run_id,
    new_span_id,
    reset_context,
    run_metadata,
    set_run_context,
    use_parent_span,
    use_run_context,
)
from repro.obs.journal import (
    EVENT_KINDS,
    JOURNAL_SCHEMA_VERSION,
    BufferJournal,
    FileJournal,
    Journal,
    clear_journal,
    get_journal,
    lineage_records,
    read_journal,
    reconstruct_spans,
    structural_signature,
    use_journal,
)
from repro.obs.log import configure, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    clear_registry,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs.tracing import (
    SpanRecord,
    current_span,
    reset_span_stack,
    span,
)

__all__ = [
    "EVENT_KINDS",
    "JOURNAL_SCHEMA_VERSION",
    "SCHEMA_VERSION",
    "BufferJournal",
    "Counter",
    "FileJournal",
    "Gauge",
    "Histogram",
    "Journal",
    "MetricsRegistry",
    "RunContext",
    "SpanRecord",
    "TraceCarrier",
    "clear_journal",
    "clear_registry",
    "configure",
    "current_parent_span_id",
    "current_run",
    "current_span",
    "get_journal",
    "get_logger",
    "get_registry",
    "git_sha",
    "lineage_records",
    "new_run_id",
    "new_span_id",
    "read_journal",
    "reconstruct_spans",
    "reset_context",
    "reset_span_stack",
    "reset_worker_state",
    "run_metadata",
    "set_registry",
    "set_run_context",
    "span",
    "structural_signature",
    "use_journal",
    "use_parent_span",
    "use_registry",
    "use_run_context",
]


def reset_worker_state() -> None:
    """Make observability safe inside a freshly forked/spawned worker.

    Drops the contextvar registry/journal/run-context bindings and any
    open span frames the worker may have inherited from its parent
    process, so worker metrics are neither written into an orphaned copy
    of the parent's registry nor attached below phantom parent spans,
    and worker journal events cannot leak into a parent's file handle.
    Idempotent; call it first thing in every process-pool initialiser.
    (The parent re-propagates identity explicitly via
    :class:`TraceCarrier`.)
    """
    clear_registry()
    reset_span_stack()
    clear_journal()
    reset_context()
