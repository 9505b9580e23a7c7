"""Lint: no ambient nondeterminism inside the fault-injection layer.

The whole point of ``repro.faults`` is *replayable* chaos: every fault
decision flows from a seeded :class:`~repro.faults.FaultPlan`, so a
failing chaos run reproduces bit-for-bit from its seed.  A stray
``time.time()`` / ``random.random()`` / ``os.getpid()`` in that layer
(or in the chaos test suite) silently re-introduces run-to-run variance
— the flake class this PR exists to eliminate.

Call sites that are *intentional* (asserting that worker PIDs differ,
injectable sleep hooks) carry a ``# nondet-ok: <reason>`` marker on the
line.  Everything else fails this check:

    python tools/lint_nondeterminism.py

Run by the CI lint job next to ruff and lint_cache_keys.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Where determinism is load-bearing: the fault layer itself and the
#: chaos suite that replays it.
DEFAULT_TARGETS = (
    REPO / "src" / "repro" / "faults",
    *sorted((REPO / "tests").glob("test_faults_*.py")),
    REPO / "tests" / "conftest.py",
)

#: Ambient-entropy call sites.  ``time.sleep`` is deliberately absent —
#: backoff pacing never feeds a decision (and tests inject a fake sleep).
FORBIDDEN = re.compile(
    r"\b(?:time\.time|time\.time_ns|time\.monotonic|time\.perf_counter"
    r"|random\.\w+|datetime\.now|datetime\.utcnow"
    r"|os\.getpid|os\.urandom|uuid\.uuid[14])\s*\("
)
MARKER = "# nondet-ok"


def _python_files(target: Path) -> list[Path]:
    if target.is_dir():
        return sorted(target.rglob("*.py"))
    return [target] if target.suffix == ".py" else []


def find_offenders(targets: tuple[Path, ...] | list[Path]) -> list[tuple[Path, int, str]]:
    """``(path, lineno, line)`` for every unmarked entropy call."""
    offenders: list[tuple[Path, int, str]] = []
    for target in targets:
        for path in _python_files(target):
            for lineno, line in enumerate(path.read_text().splitlines(), start=1):
                if FORBIDDEN.search(line) and MARKER not in line:
                    offenders.append((path, lineno, line.strip()))
    return offenders


def main(argv: list[str] | None = None) -> int:
    targets = tuple(Path(a) for a in argv) if argv else DEFAULT_TARGETS
    offenders = find_offenders(targets)
    if offenders:
        print("lint_nondeterminism: ambient entropy in a determinism-critical path:")
        for path, lineno, line in offenders:
            rel = path.relative_to(REPO) if path.is_relative_to(REPO) else path
            print(f"  {rel}:{lineno}: {line}")
        print(
            "Derive the value from the FaultPlan seed, inject it as a "
            f"parameter, or mark the line '{MARKER}: <reason>'."
        )
        return 1
    print("lint_nondeterminism: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
