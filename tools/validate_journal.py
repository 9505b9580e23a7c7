"""Validate run journals (``events.jsonl``) and JSON log streams.

CI's ``obs-smoke`` job runs a small study with ``--log-json``, then
checks that every line the run produced is machine-consumable:

* **journal**: each line is one JSON object; the first event is a
  ``run_start`` header carrying ``journal_schema``/``run_id``; every
  ``kind`` is one of :data:`repro.obs.journal.EVENT_KINDS`; sequence
  numbers ``i`` increase strictly; every ``span_close`` closes a span
  that was opened; every ``lineage`` record names its unit (``trip``,
  ``segment`` or ``transition``) with an integer id, and a trip's
  ``disposition`` is ``cleaned`` or ``quarantined``; the file ends with
  ``run_end``.  (The *read* path
  tolerates a truncated final line — a crashed run is still inspectable
  — but a run that claims success must produce a complete journal,
  which is what this validator enforces.)
* **log** (``--log FILE``): each non-empty line is one JSON object with
  the ``ts``/``level``/``logger``/``event`` keys the
  :class:`~repro.obs.log.JsonFormatter` guarantees.

Usage::

    python tools/validate_journal.py out/events.jsonl [--log study.log]

Exit 0 when everything conforms; each violation prints one line and
fails the run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.obs.journal import EVENT_KINDS, JOURNAL_SCHEMA_VERSION  # noqa: E402

#: Keys every JSON log line carries (see ``repro.obs.log.JsonFormatter``).
LOG_KEYS = ("ts", "level", "logger", "event")

#: Lineage unit -> the key carrying that unit's integer id.
LINEAGE_IDS = {
    "trip": "trip_id",
    "segment": "segment_id",
    "transition": "transition_index",
}


def validate_journal(path: Path) -> list[str]:
    """All conformance violations of one journal file (empty = valid)."""
    problems: list[str] = []
    lines = path.read_text().splitlines()
    if not lines:
        return [f"{path}: empty journal"]
    events = []
    for index, line in enumerate(lines, start=1):
        if not line.strip():
            problems.append(f"{path}:{index}: blank line")
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"{path}:{index}: not valid JSON ({exc.msg})")
            continue
        if not isinstance(event, dict):
            problems.append(f"{path}:{index}: not a JSON object")
            continue
        events.append((index, event))

    last_seq = None
    open_spans: dict[str, int] = {}
    run_id = None
    last_checkpoint_seq = 0
    for position, (index, event) in enumerate(events):
        kind = event.get("kind")
        if kind not in EVENT_KINDS:
            problems.append(f"{path}:{index}: unknown event kind {kind!r}")
            continue
        seq = event.get("i")
        if not isinstance(seq, int):
            problems.append(f"{path}:{index}: missing integer sequence 'i'")
        elif last_seq is not None and seq <= last_seq:
            problems.append(
                f"{path}:{index}: sequence 'i' not increasing "
                f"({seq} after {last_seq})"
            )
        if isinstance(seq, int):
            last_seq = seq
        if not isinstance(event.get("ts"), (int, float)):
            problems.append(f"{path}:{index}: missing numeric 'ts'")
        if position == 0:
            if kind != "run_start":
                problems.append(f"{path}:{index}: first event is not run_start")
            elif event.get("journal_schema") != JOURNAL_SCHEMA_VERSION:
                problems.append(
                    f"{path}:{index}: journal_schema "
                    f"{event.get('journal_schema')!r} != {JOURNAL_SCHEMA_VERSION}"
                )
            run_id = event.get("run_id")
            if not run_id:
                problems.append(f"{path}:{index}: run_start has no run_id")
        elif run_id and event.get("run_id") not in (None, run_id):
            problems.append(
                f"{path}:{index}: run_id {event.get('run_id')!r} != header's"
            )
        if kind == "span_open":
            span_id = event.get("span_id")
            if not span_id:
                problems.append(f"{path}:{index}: span_open without span_id")
            else:
                open_spans[span_id] = index
        elif kind == "span_close":
            span_id = event.get("span_id")
            if span_id in open_spans:
                del open_spans[span_id]
            elif event.get("span_kind") == "detail":
                # Detail spans emit one self-contained close, no open.
                if not span_id or not event.get("name"):
                    problems.append(
                        f"{path}:{index}: detail span_close without "
                        f"span_id/name"
                    )
            else:
                problems.append(
                    f"{path}:{index}: span_close for never-opened "
                    f"span {span_id!r}"
                )
        elif kind == "lineage":
            problems.extend(
                f"{path}:{index}: {problem}" for problem in _lineage_problems(event)
            )
        elif kind == "stream.checkpoint":
            # Checkpoints carry their content key and a strictly
            # increasing sequence — resume provenance depends on both.
            if not event.get("key"):
                problems.append(
                    f"{path}:{index}: stream.checkpoint without key"
                )
            seq = event.get("checkpoint_seq")
            if not isinstance(seq, int) or seq <= last_checkpoint_seq:
                problems.append(
                    f"{path}:{index}: checkpoint_seq {seq!r} not above "
                    f"{last_checkpoint_seq}"
                )
            else:
                last_checkpoint_seq = seq
        elif kind == "stream.resume":
            if not isinstance(event.get("checkpoint_seq"), int) or \
                    not isinstance(event.get("rows_ingested"), int):
                problems.append(
                    f"{path}:{index}: stream.resume missing "
                    f"checkpoint_seq/rows_ingested"
                )
            else:
                # A resumed service continues the restored sequence.
                last_checkpoint_seq = event["checkpoint_seq"]
        elif kind == "stream.trip_close":
            if not isinstance(event.get("trip_id"), int) or \
                    not event.get("reason"):
                problems.append(
                    f"{path}:{index}: stream.trip_close missing "
                    f"trip_id/reason"
                )
        elif kind == "stream.dead_letter":
            if not event.get("reason_kind"):
                problems.append(
                    f"{path}:{index}: stream.dead_letter without reason_kind"
                )
        elif kind == "stream.batch":
            if not isinstance(event.get("batch_seq"), int) or \
                    not isinstance(event.get("rows_ingested"), int):
                problems.append(
                    f"{path}:{index}: stream.batch missing "
                    f"batch_seq/rows_ingested"
                )
    if events and events[-1][1].get("kind") != "run_end":
        problems.append(f"{path}: does not end with run_end (incomplete run)")
    for span_id, index in sorted(open_spans.items(), key=lambda kv: kv[1]):
        problems.append(f"{path}:{index}: span {span_id!r} never closed")
    return problems


def _lineage_problems(event: dict) -> list[str]:
    unit = event.get("unit")
    if unit not in LINEAGE_IDS:
        return [f"lineage unit {unit!r} is not trip, segment or transition"]
    key = LINEAGE_IDS[unit]
    unit_id = event.get(key)
    # bool is an int subclass, but never an id.
    if not isinstance(unit_id, int) or isinstance(unit_id, bool):
        return [f"{unit} lineage {key} {unit_id!r} is not an integer"]
    if unit == "trip" and event.get("disposition") not in ("cleaned", "quarantined"):
        return [
            f"trip lineage disposition {event.get('disposition')!r} is not "
            "cleaned or quarantined"
        ]
    return []


def validate_log(path: Path) -> list[str]:
    """All violations of one JSON-mode log stream (empty = valid)."""
    problems: list[str] = []
    for index, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"{path}:{index}: not valid JSON ({exc.msg})")
            continue
        if not isinstance(record, dict):
            problems.append(f"{path}:{index}: not a JSON object")
            continue
        missing = [key for key in LOG_KEYS if key not in record]
        if missing:
            problems.append(
                f"{path}:{index}: log line missing {', '.join(missing)}"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("journals", type=Path, nargs="+",
                        help="events.jsonl journal file(s) to validate")
    parser.add_argument("--log", type=Path, action="append", default=[],
                        metavar="FILE",
                        help="also validate a JSON-mode log stream")
    args = parser.parse_args(argv)

    problems: list[str] = []
    for path in args.journals:
        problems.extend(validate_journal(path))
    for path in args.log:
        problems.extend(validate_log(path))
    if problems:
        print("\n".join(problems), file=sys.stderr)
        print(f"validate_journal: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    checked = len(args.journals) + len(args.log)
    print(f"validate_journal: ok ({checked} file(s))")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
