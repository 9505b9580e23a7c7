"""Differential harness: streaming replay == batch study, byte for byte.

The stream folds with the *same stage functions* the batch study calls,
in the same per-trip order, so every artefact — cleaning report, Table 3
funnel, Table 4 route stats, the Welford grid down to its raw ``_m2``
partials, cell features, the mixed model and the quarantine ledger —
must be **bit-identical** at any micro-batch size.  Fingerprints render
floats as ``float.hex`` so "close" can never pass for "equal".

Hypothesis drives the micro-batch size; the pinned examples are the
ISSUE's contract points (1, 7, 64, whole-file).  One case streams under
a seeded chaos plan (same injections on both sides), one runs with the
live matcher enabled (observational: artefacts must not move), and one
follows a growing CSV in ``tail`` mode while a writer appends.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments import OuluStudy, StudyConfig
from repro.faults import FaultPlan, Quarantine, inject_faults
from repro.stream import (
    StreamConfig,
    StreamService,
    stream_fingerprint,
    study_fingerprint,
)
from repro.traces.io import read_points_csv

REPO = Path(__file__).resolve().parent.parent

#: Whole-file micro-batch: larger than any test CSV.
WHOLE_FILE = 1_000_000_000


def run_stream(config, path, **overrides):
    kwargs = dict(study=config, input=str(path), mode="replay", batch_size=64)
    kwargs.update(overrides)
    return StreamService(StreamConfig(**kwargs)).run()


def assert_same_artefacts(got: dict, want: dict) -> None:
    # Component-first so a failure names the diverging artefact.
    for name in want:
        assert got[name] == want[name], f"artefact {name!r} diverged"
    assert got == want


class TestReplayEquivalence:
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(batch_size=st.integers(min_value=1, max_value=WHOLE_FILE))
    @example(batch_size=1)
    @example(batch_size=7)
    @example(batch_size=64)
    @example(batch_size=WHOLE_FILE)
    def test_any_micro_batch_size_matches_batch_study(
        self, stream_case, batch_size
    ):
        config, path, baseline = stream_case
        result = run_stream(config, path, batch_size=batch_size)
        assert_same_artefacts(stream_fingerprint(result), baseline)

    def test_live_matching_is_observational(self, stream_case):
        config, path, baseline = stream_case
        result = run_stream(config, path, batch_size=32, live_match=True)
        assert_same_artefacts(stream_fingerprint(result), baseline)
        assert result.metrics["counters"]["stream.live_points"] > 0

    def test_stream_counters_account_every_row(self, stream_case):
        config, path, baseline = stream_case
        result = run_stream(config, path, batch_size=64)
        counters = result.metrics["counters"]
        assert counters["stream.rows_in"] == result.rows_ingested
        assert counters["stream.trips_folded"] == result.trips_seen
        assert counters["od.within_centre"] == result.transitions_total
        assert result.kept_count == sum(
            row.post_filtered for row in result.funnel
        )

    def test_windows_partition_the_fold(self, stream_case):
        config, path, __ = stream_case
        result = run_stream(config, path, batch_size=64, window_s=21_600.0)
        assert result.windows, "a multi-day fleet must close windows"
        assert [w["window"] for w in result.windows] == sorted(
            w["window"] for w in result.windows
        )
        assert sum(w["trips"] for w in result.windows) == result.trips_seen
        assert sum(w["kept"] for w in result.windows) == result.kept_count


class TestChaosEquivalence:
    def test_same_fault_plan_same_artefacts(self, stream_case, chaos_seed):
        """Injected io/clean/match faults hit identical units on both
        sides: fault keys are row indices, trip ids and transition
        indices, all of which the stream preserves."""
        config, path, __ = stream_case
        plan = FaultPlan(
            seed=chaos_seed,
            corrupt_row_rate=0.005,
            clean_error_rate=0.02,
            match_error_rate=0.02,
        )
        faulty = type(config)(
            fleet=config.fleet, faults=plan, robustness=config.robustness
        )
        quarantine = Quarantine()
        with inject_faults(plan):  # the stream's reader sees the plan too
            injected = read_points_csv(path, quarantine=quarantine)
        batch = OuluStudy(faulty).run(fleet=injected)
        baseline = study_fingerprint(batch, quarantine.errors)
        result = run_stream(faulty, path, batch_size=17)
        assert_same_artefacts(stream_fingerprint(result), baseline)
        assert any(e.fault_tag for e in result.errors), \
            "the seeded plan must inject at least one fault"


class TestTailMode:
    def test_tailed_growing_csv_matches_batch(self, stream_case, tmp_path):
        config, path, baseline = stream_case
        target = tmp_path / "growing.csv"
        lines = Path(path).read_text().splitlines(keepends=True)
        target.write_text("".join(lines[:1]))  # header only

        def writer():
            with target.open("a") as f:
                for start in range(1, len(lines), 499):
                    f.write("".join(lines[start:start + 499]))
                    f.flush()
                    time.sleep(0.01)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            result = run_stream(
                config, target, mode="tail", batch_size=64, idle_timeout_s=2.0
            )
        finally:
            thread.join()
        assert_same_artefacts(stream_fingerprint(result), baseline)


class TestServeCli:
    def test_serve_writes_study_identical_tables(self, stream_case, tmp_path):
        """``repro serve`` on a replayed CSV must emit the same table
        artefacts and error ledger as ``repro study --input`` on it."""
        config, path, __ = stream_case
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        batch_out = tmp_path / "batch"
        serve_out = tmp_path / "serve"
        for argv in (
            ["study", "--input", str(path), "--out", str(batch_out)],
            ["serve", "--input", str(path), "--out", str(serve_out),
             "--batch-size", "64"],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *argv, "--quiet"],
                cwd=REPO, env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
        for name in ("table2.txt", "table3.txt", "table4.txt", "table5.txt",
                      "errors.jsonl"):
            assert (serve_out / name).read_bytes() == \
                (batch_out / name).read_bytes(), f"{name} diverged"
        assert (serve_out / "windows.jsonl").exists()
        assert (serve_out / "metrics.json").exists()


class TestMalformedInput:
    def test_bad_car_id_rows_are_quarantined_not_raised(self):
        # The stream shares the batch reader's row parser: a non-integer
        # car id on a trip's first row, or on a later row, is a
        # parse_error record with its row index, not a crash.
        path = REPO / "tests" / "data" / "corrupt_traces" / "bad_car_id.csv"
        result = run_stream(StudyConfig(), path)
        io_errors = [e for e in result.errors if e.stage == "io"]
        assert [(e.kind, e.row) for e in io_errors] == [
            ("parse_error", 2), ("parse_error", 3),
        ]
        quarantine = Quarantine()
        read_points_csv(path, quarantine=quarantine)
        assert io_errors == quarantine.errors
        assert result.trips_seen == 2
