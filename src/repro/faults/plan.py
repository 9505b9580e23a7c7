"""Seeded fault plans — deterministic chaos, no RNG state.

A :class:`FaultPlan` decides *up front* which units of a run fail and
how, using a keyed hash of ``(seed, stage, unit key)`` rather than any
mutable random state.  That makes chaos runs reproducible across
processes and replayable across machines: the same plan injects exactly
the same faults into the same trips whether the pipeline runs serially
or across a worker pool, which is what lets the chaos suite assert that
surviving-trip artefacts are bitwise identical to a fault-free run.

Fault taxonomy (see ``docs/robustness.md``):

* ``corrupt_row_rate`` / ``truncate_after_rows`` — ingest faults applied
  while :func:`repro.traces.io.read_points_csv` reads raw rows;
* ``clean_error_rate`` — exceptions raised inside per-trip cleaning;
* ``match_error_rate`` — exceptions raised inside map-matching of chosen
  transitions;
* ``route_error_rate`` — timeouts raised inside gap-fill shortest-path queries
  (only while a degradation guard is active, so they are isolatable);
* ``transient_rate`` — fraction of raising faults that succeed when the
  bounded retry layer re-attempts them;
* ``kill_chunk`` — ``{kind: index}`` of a process killed mid-run
  (``os._exit``): ``"match"`` names a worker-pool chunk, exercising pool
  replacement and exactly-once chunk resubmission; ``"stream"`` names a
  streaming checkpoint after which ``repro serve`` dies.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields

#: What a ``kill_chunk`` entry can name: the worker pool's one task kind,
#: and the streaming service's checkpoint sequence.
KILL_KINDS = ("match", "stream")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, picklable description of the faults to inject."""

    seed: int = 0
    corrupt_row_rate: float = 0.0
    truncate_after_rows: int | None = None
    clean_error_rate: float = 0.0
    match_error_rate: float = 0.0
    route_error_rate: float = 0.0
    transient_rate: float = 0.0
    kill_chunk: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("corrupt_row_rate", "clean_error_rate", "match_error_rate",
                     "route_error_rate", "transient_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        for kind, index in self.kill_chunk.items():
            if kind not in KILL_KINDS:
                raise ValueError(
                    f"kill_chunk kind must be one of {list(KILL_KINDS)}, got {kind!r}"
                )
            if index < 0:
                raise ValueError(
                    f"kill_chunk index must be non-negative, got {kind!r}: {index!r}"
                )

    # -- deterministic selection --------------------------------------------

    def roll(self, stage: str, key: object) -> float:
        """Uniform-in-[0,1) hash of ``(seed, stage, key)``; pure function."""
        digest = hashlib.blake2b(
            f"{self.seed}|{stage}|{key!r}".encode(), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") / 2**64

    def rate_for(self, stage: str) -> float:
        return {
            "io": self.corrupt_row_rate,
            "clean": self.clean_error_rate,
            "match": self.match_error_rate,
            "routing": self.route_error_rate,
        }.get(stage, 0.0)

    def picks(self, stage: str, key: object) -> bool:
        """True when the plan injects a fault into this stage/unit."""
        rate = self.rate_for(stage)
        return rate > 0.0 and self.roll(stage, key) < rate

    def is_transient(self, stage: str, key: object) -> bool:
        """Whether a picked fault clears on retry (a second roll)."""
        return (
            self.transient_rate > 0.0
            and self.roll("transient", (stage, key)) < self.transient_rate
        )

    # -- serialisation (CLI --fault-plan) -----------------------------------

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "corrupt_row_rate": self.corrupt_row_rate,
            "truncate_after_rows": self.truncate_after_rows,
            "clean_error_rate": self.clean_error_rate,
            "match_error_rate": self.match_error_rate,
            "route_error_rate": self.route_error_rate,
            "transient_rate": self.transient_rate,
            "kill_chunk": dict(self.kill_chunk),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultPlan":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError(f"unknown fault plan keys: {unknown}")
        kwargs = dict(doc)
        if kwargs.get("kill_chunk") is None:
            kwargs.pop("kill_chunk", None)  # JSON null: kill nothing
        else:
            kwargs["kill_chunk"] = {
                str(kind): int(index) for kind, index in kwargs["kill_chunk"].items()
            }
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))
