"""Quarantine records — structured per-unit failure accounting.

The paper's raw feed is unreliable by construction (Sec. IV.B: delayed,
out-of-order and plain wrong fixes); at production scale the pipeline
itself is, too — a worker dies, an input file is truncated, a routing
query times out.  Degraded-mode execution turns each of those into a
:class:`TripError` record collected by a :class:`Quarantine` instead of
an aborted run; the run only fails when the *rate* of quarantined units
exceeds the configured threshold (:class:`ErrorRateExceeded`).

Every record is one JSON object in ``errors.jsonl``::

    {"stage": "match", "kind": "InjectedFault", "message": "...",
     "trip_id": null, "segment_id": 17, "transition_index": 4,
     "fault_tag": "injected:match"}

``fault_tag`` distinguishes deterministic test chaos (``injected:*``,
see :mod:`repro.faults.plan`) from organic failures (``None``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.obs import get_journal, get_logger, get_registry

_log = get_logger(__name__)

#: Record kinds that describe *kept* data (a repair stage handles them
#: downstream).  They appear in ``errors.jsonl`` for auditability but do
#: not count toward the ``--max-error-rate`` verdict — healthy feeds
#: contain arrival reordering by design (paper Sec. IV.B).
ADVISORY_KINDS = frozenset({"non_monotonic_ids"})


class ErrorRateExceeded(RuntimeError):
    """Raised when quarantined units exceed ``max_error_rate``.

    Carries the quarantine's records so orchestrators (the CLI) can still
    persist ``errors.jsonl`` for a failed run.
    """

    def __init__(self, rate: float, max_rate: float, errors: list["TripError"]) -> None:
        super().__init__(
            f"error rate {rate:.3f} exceeds --max-error-rate {max_rate:.3f} "
            f"({len(errors)} units quarantined)"
        )
        self.rate = rate
        self.max_rate = max_rate
        self.errors = errors


@dataclass(frozen=True)
class TripError:
    """One quarantined unit of work (a trip, row or transition).

    ``stage`` names the pipeline stage that failed (``io``, ``clean``,
    ``match``, ``routing``); ``kind`` is the exception type (or a
    symbolic kind for ingest problems like ``truncated_row``).  Exactly
    one of the identity fields is usually set, matching the stage's unit.
    """

    stage: str
    kind: str
    message: str
    trip_id: int | None = None
    segment_id: int | None = None
    transition_index: int | None = None
    row: int | None = None
    fault_tag: str | None = None

    @classmethod
    def from_exception(
        cls,
        stage: str,
        exc: BaseException,
        *,
        trip_id: int | None = None,
        segment_id: int | None = None,
        transition_index: int | None = None,
        row: int | None = None,
    ) -> "TripError":
        return cls(
            stage=stage,
            kind=type(exc).__name__,
            message=str(exc),
            trip_id=trip_id,
            segment_id=segment_id,
            transition_index=transition_index,
            row=row,
            fault_tag=getattr(exc, "fault_tag", None),
        )

    def to_dict(self) -> dict:
        return asdict(self)


class Quarantine:
    """Collector of :class:`TripError` records for one run.

    Records accumulate in fold order (the orchestrator adds worker-side
    errors while folding chunk results by input position), so the
    ``errors.jsonl`` it writes is deterministic for any worker count.
    """

    def __init__(self, max_error_rate: float | None = None) -> None:
        self.max_error_rate = max_error_rate
        self.errors: list[TripError] = []

    def __len__(self) -> int:
        return len(self.errors)

    def add(self, error: TripError) -> None:
        self.errors.append(error)
        get_registry().counter("trips.quarantined").inc()
        journal = get_journal()
        if journal.enabled:
            journal.emit(
                "quarantine",
                stage=error.stage,
                error_kind=error.kind,
                message=error.message,
                trip_id=error.trip_id,
                segment_id=error.segment_id,
                transition_index=error.transition_index,
                row=error.row,
                fault_tag=error.fault_tag,
            )
        _log.info(
            "unit quarantined",
            extra={"stage": error.stage, "kind": error.kind,
                   "fault_tag": error.fault_tag or "organic",
                   "trip_id": error.trip_id, "segment_id": error.segment_id,
                   "transition_index": error.transition_index,
                   "row": error.row},
        )

    def extend(self, errors: list[TripError]) -> None:
        for error in errors:
            self.add(error)

    def dropped(self) -> list[TripError]:
        """Records whose unit was actually lost (advisory kinds excluded)."""
        return [e for e in self.errors if e.kind not in ADVISORY_KINDS]

    def rate(self, total_units: int) -> float:
        """Dropped fraction of ``total_units`` processed units."""
        return len(self.dropped()) / max(1, total_units)

    def check(self, total_units: int) -> None:
        """Fail the run if the error rate exceeds the threshold."""
        if self.max_error_rate is None:
            return
        rate = self.rate(total_units)
        if rate > self.max_error_rate:
            raise ErrorRateExceeded(rate, self.max_error_rate, list(self.errors))

    def by_stage(self) -> dict[str, list[TripError]]:
        out: dict[str, list[TripError]] = {}
        for error in self.errors:
            out.setdefault(error.stage, []).append(error)
        return out

    def write_jsonl(self, path: str | Path) -> int:
        """Write one JSON object per quarantined unit; returns the count."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for error in self.errors:
                f.write(json.dumps(error.to_dict()))
                f.write("\n")
        return len(self.errors)


def read_errors_jsonl(path: str | Path) -> list[TripError]:
    """Load an ``errors.jsonl`` back into records (for tests/tooling)."""
    out: list[TripError] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            out.append(TripError(**json.loads(line)))
    return out
