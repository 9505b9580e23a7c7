"""The process-local fault injector.

One plan is *active* per process at a time.  Orchestrators scope it with
:func:`inject_faults`; pool workers activate the plan shipped in their
:class:`~repro.parallel.WorkerPayload` at init (:func:`activate`).
Instrumented code calls :func:`maybe_inject` at its failure points —
a single module-global ``None`` check when no chaos is configured, so
the production path pays nothing measurable.

Transient faults raise on the first attempt for a given ``(stage, key)``
and pass on re-attempts (per-process attempt counts), which is what the
bounded retry layer in :mod:`repro.faults.guard` recovers from.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.faults.plan import FaultPlan
from repro.obs import get_journal, get_logger, get_registry

_log = get_logger(__name__)


class InjectedFault(RuntimeError):
    """A deliberately injected failure (chaos testing only).

    ``transient`` marks faults that clear on retry; ``fault_tag``
    (``injected:<stage>``) travels into the quarantine record so the
    chaos suite can account for every injection.
    """

    def __init__(self, stage: str, key: object, transient: bool = False) -> None:
        super().__init__(f"injected {stage} fault for {key!r}")
        self.stage = stage
        self.key = key
        self.transient = transient
        self.fault_tag = f"injected:{stage}"


class InjectedTimeout(InjectedFault, TimeoutError):
    """An injected routing-query timeout (always retry-eligible)."""


#: The process's active plan plus per-(stage, key) attempt counts.
_active_plan: FaultPlan | None = None
_attempts: dict[tuple[str, object], int] = {}

#: Depth of degradation guards currently on the stack (see guard.py).
#: Deep injection points (routing) only fire inside a guard, so an
#: injected fault is always isolatable to one quarantined unit.
_guard_depth = 0


def activate(plan: FaultPlan | None) -> None:
    """Install ``plan`` as this process's active plan (None clears)."""
    global _active_plan
    _active_plan = plan
    _attempts.clear()


def deactivate() -> None:
    activate(None)


def active_plan() -> FaultPlan | None:
    return _active_plan


@contextmanager
def inject_faults(plan: FaultPlan | None) -> Iterator[FaultPlan | None]:
    """Scope ``plan`` as active; restores the previous plan on exit."""
    global _active_plan
    previous = _active_plan
    activate(plan)
    try:
        yield plan
    finally:
        activate(previous)


def enter_guard() -> None:
    global _guard_depth
    _guard_depth += 1


def exit_guard() -> None:
    global _guard_depth
    _guard_depth -= 1


def in_guard() -> bool:
    return _guard_depth > 0


def maybe_inject(stage: str, key: object, require_guard: bool = False) -> None:
    """Raise an :class:`InjectedFault` when the active plan picks this unit.

    ``require_guard=True`` suppresses injection outside a degradation
    guard — used by deep shared code (routing queries) that is also
    called from unguarded analysis paths.
    """
    plan = _active_plan
    if plan is None:
        return
    if require_guard and not in_guard():
        return
    if not plan.picks(stage, key):
        return
    transient = plan.is_transient(stage, key)
    if transient:
        count = _attempts[(stage, key)] = _attempts.get((stage, key), 0) + 1
        if count > 1:
            return  # transient fault clears on the retry
    registry = get_registry()
    registry.counter("faults.injected").inc()
    registry.counter(f"faults.injected.{stage}").inc()
    journal = get_journal()
    if journal.enabled:
        journal.emit(
            "fault_injected", stage=stage, key=repr(key), transient=transient
        )
    _log.info(
        "fault injected",
        extra={"stage": stage, "key": repr(key), "transient": transient},
    )
    if stage == "routing":
        raise InjectedTimeout(stage, key, transient)
    raise InjectedFault(stage, key, transient)


# -- ingest corruption (non-raising faults) ---------------------------------


def corrupt_row(index: int, row: dict) -> dict | None:
    """Return a corrupted copy of a raw CSV row when the plan picks it.

    Ingest faults do not raise — they damage the data (the paper's
    garbage fixes) and rely on the robust reader to quarantine the row.
    Returns ``None`` when no corruption applies.
    """
    plan = _active_plan
    if plan is None or not plan.picks("io", index):
        return None
    get_registry().counter("faults.injected").inc()
    get_registry().counter("faults.injected.io").inc()
    damaged = dict(row)
    # Rotate through the corruption modes deterministically by key hash.
    mode = int(plan.roll("io_mode", index) * 3)
    if mode == 0:
        damaged["lat"] = "nan"
    elif mode == 1:
        damaged["time_s"] = "garbage�"
    else:
        damaged["point_id"] = None  # truncated line: field missing entirely
    return damaged


def truncate_at(index: int) -> bool:
    """True when the plan truncates the input before raw row ``index``."""
    plan = _active_plan
    if plan is None or plan.truncate_after_rows is None:
        return False
    if index < plan.truncate_after_rows:
        return False
    get_registry().counter("faults.injected").inc()
    get_registry().counter("faults.injected.io").inc()
    return True
