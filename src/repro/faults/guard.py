"""Degradation guards: per-unit isolation plus bounded retry-with-backoff.

:func:`guarded_call` is the pipeline's failure boundary.  It runs one
unit of work (one trip's cleaning, one transition's matching); a raised
exception becomes a :class:`~repro.faults.errors.TripError` *value*
instead of propagating, after transient failures (timeouts, injected
transient faults) have been retried a bounded number of times with
exponential backoff.  Backoff delays never influence results — they only
pace re-attempts — so the layer adds no wall-clock dependence to
artefacts (enforced by ``tools/lint_nondeterminism.py``).
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.faults.errors import TripError
from repro.faults import injector
from repro.obs import get_journal, get_registry

#: Exception types treated as transient (retried) even without an
#: explicit ``transient`` attribute.  Injected timeouts are TimeoutError
#: subclasses, so chaos and organic timeouts take the same path.
TRANSIENT_TYPES: tuple[type[BaseException], ...] = (
    TimeoutError,
    ConnectionError,
    InterruptedError,
)


@dataclass(frozen=True)
class RobustnessConfig:
    """Degraded-mode execution knobs (CLI ``--max-error-rate`` etc.).

    ``max_error_rate`` is the quarantined fraction of processed units
    above which the run fails; ``retries`` bounds re-attempts of
    *transient* failures, paced by ``backoff_base_s * multiplier**n``.
    """

    max_error_rate: float = 0.05
    retries: int = 2
    backoff_base_s: float = 0.01
    backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.max_error_rate <= 1.0:
            raise ValueError("max_error_rate must be in [0, 1]")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be non-negative")


def is_transient(exc: BaseException) -> bool:
    """Retry-eligible: marked transient, or a known transient type."""
    if getattr(exc, "transient", False):
        return True
    return isinstance(exc, TRANSIENT_TYPES)


def guarded_call(
    stage: str,
    fn: Callable,
    *args,
    robustness: RobustnessConfig,
    trip_id: int | None = None,
    segment_id: int | None = None,
    transition_index: int | None = None,
    sleep: Callable[[float], None] = time.sleep,
):
    """Run ``fn(*args)`` inside a degradation guard.

    Returns ``(result, None)`` on success or ``(None, TripError)`` when
    the unit fails after bounded retries.  Only transient exceptions are
    retried; everything else quarantines immediately (replaying a
    deterministic failure is wasted work).  The guard does not log the
    failure: every caller's fold passes the error to
    :meth:`~repro.faults.errors.Quarantine.add`, which logs and journals
    it once, in the parent process for pooled work too.
    """
    registry = get_registry()
    last_exc: BaseException | None = None
    for attempt in range(robustness.retries + 1):
        injector.enter_guard()
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - the guard is the boundary
            last_exc = exc
            if attempt < robustness.retries and is_transient(exc):
                registry.counter("faults.retries").inc()
                journal = get_journal()
                if journal.enabled:
                    journal.emit(
                        "retry",
                        stage=stage,
                        attempt=attempt + 1,
                        error_kind=type(exc).__name__,
                        trip_id=trip_id,
                        segment_id=segment_id,
                        transition_index=transition_index,
                    )
                delay = robustness.backoff_base_s * (
                    robustness.backoff_multiplier**attempt
                )
                if delay > 0:
                    sleep(delay)
                continue
            break
        else:
            if attempt > 0:
                registry.counter("faults.retry_success").inc()
            return result, None
        finally:
            injector.exit_guard()
    return None, TripError.from_exception(
        stage,
        last_exc,
        trip_id=trip_id,
        segment_id=segment_id,
        transition_index=transition_index,
    )
