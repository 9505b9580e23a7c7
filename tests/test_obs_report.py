"""``repro obs`` renderers plus the journal acceptance scenarios.

The unit half exercises :mod:`repro.obs.report` on hand-built events.
The end-to-end half runs one faulted study twice — serial and across a
worker pool, both journaled — and pins the PR's acceptance criteria:

* the two journals reconstruct *structurally identical* span trees
  (chunk spans collapse away);
* every quarantined unit in ``errors.jsonl`` has a matching journal
  lineage record;
* ``repro obs diff`` of the two run directories reports zero artefact
  divergence;
* both journals pass ``tools/validate_journal.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.experiments import OuluStudy, StudyConfig
from repro.faults import FaultPlan, RobustnessConfig
from repro.obs import (
    FileJournal,
    RunContext,
    lineage_records,
    read_journal,
    reconstruct_spans,
    structural_signature,
    use_journal,
)
from repro.obs.report import (
    diff_runs,
    load_run,
    render_report,
    render_tail,
    render_trip,
    run_meta,
    run_status,
)
from repro.parallel import ExecutorConfig
from repro.traces import FleetSpec

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from validate_journal import validate_journal  # noqa: E402


def _events() -> list[dict]:
    return [
        {"kind": "run_start", "i": 0, "ts": 1.0, "run_id": "r1",
         "journal_schema": 1, "git_sha": "abc1234", "command": "study"},
        {"kind": "span_open", "i": 1, "ts": 1.0, "name": "study", "span_id": "s1"},
        {"kind": "lineage", "i": 2, "ts": 1.1, "unit": "trip", "trip_id": 7,
         "kept": False, "quarantined": True},
        {"kind": "span_close", "i": 3, "ts": 1.2, "name": "clean_trip",
         "span_id": "d1", "parent_id": "s1", "span_kind": "detail",
         "seconds": 0.2, "trip_id": 7},
        {"kind": "quarantine", "i": 4, "ts": 1.2, "stage": "clean",
         "error_kind": "SpikeError", "message": "speed spike", "trip_id": 7},
        {"kind": "retry", "i": 5, "ts": 1.3, "stage": "match", "attempt": 1},
        {"kind": "span_close", "i": 6, "ts": 1.5, "name": "study",
         "span_id": "s1", "seconds": 0.5},
        {"kind": "run_end", "i": 7, "ts": 1.5, "status": "ok",
         "wall_seconds": 0.5},
    ]


class TestRenderReport:
    def test_header_funnel_tree_and_accounting(self):
        metrics = {"counters": {
            "clean.trips_in": 100, "clean.segments_out": 80,
            "od.post_filter_kept": 10, "trips.quarantined": 1,
        }}
        text = render_report(_events(), metrics)
        assert "run_id" in text and "r1" in text
        assert "git_sha" in text and "abc1234" in text
        assert "status    ok" in text
        assert "Funnel" in text and "trips ingested" in text
        assert "Stage tree" in text and "study" in text
        assert "Degraded-mode accounting:" in text
        assert "quarantined   1" in text and "retries       1" in text
        assert "Slowest" in text and "clean_trip" in text

    def test_incomplete_run_flagged(self):
        events = _events()[:-1]  # no run_end
        assert "incomplete" in render_report(events)

    def test_run_meta_and_status_helpers(self):
        assert run_meta(_events())["run_id"] == "r1"
        assert run_status(_events())["status"] == "ok"
        assert run_status(_events()[:-1]) is None
        assert run_meta([]) == {}


class TestRenderTail:
    def test_last_n_lines_in_order(self):
        text = render_tail(_events(), n=3)
        lines = text.splitlines()
        assert len(lines) == 3
        assert "retry" in lines[0]
        assert "run_end" in lines[2]

    def test_empty_journal(self):
        assert render_tail([]) == ""


class TestRenderTrip:
    def test_collects_lineage_spans_and_quarantines(self):
        text = render_trip(_events(), 7)
        assert "lineage" in text and "quarantined=True" in text
        assert "span" in text and "clean_trip" in text
        assert "quarantine" in text and "SpikeError" in text

    def test_unknown_unit(self):
        assert "no journal records" in render_trip(_events(), 404)


class TestDiffRuns:
    def _run_dir(self, tmp_path, name, counters, table="t"):
        d = tmp_path / name
        d.mkdir()
        (d / "table3.txt").write_text(table)
        (d / "metrics.json").write_text(json.dumps({"counters": counters}))
        return d

    def test_identical_runs_do_not_diverge(self, tmp_path):
        counters = {"od.post_filter_kept": 5, "parallel.clean_chunks": 3}
        a = self._run_dir(tmp_path, "a", counters)
        b = self._run_dir(tmp_path, "b", {**counters, "parallel.clean_chunks": 9})
        result = diff_runs(a, b)  # scheduling counters are out of scope
        assert not result.divergent
        assert "zero artefact divergence" in result.render()

    def test_artefact_and_counter_divergence(self, tmp_path):
        a = self._run_dir(tmp_path, "a", {"od.post_filter_kept": 5}, table="x")
        b = self._run_dir(tmp_path, "b", {"od.post_filter_kept": 6}, table="y")
        result = diff_runs(a, b)
        assert result.divergent
        text = result.render()
        assert "DIFF table3.txt" in text
        assert "DIFF counter od.post_filter_kept" in text

    def test_stage_time_deltas_are_informational(self, tmp_path):
        spans_a = [{"name": "study", "seconds": 2.0, "children": [
            {"name": "simulate", "seconds": 1.0},
            {"name": "clean", "seconds": 0.5},
        ]}]
        spans_b = [{"name": "study", "seconds": 1.6, "children": [
            {"name": "simulate", "seconds": 1.0},
            {"name": "clean", "seconds": 0.1},
            {"name": "extract", "seconds": 0.4},
        ]}]
        dirs = []
        for name, spans in (("a", spans_a), ("b", spans_b)):
            d = tmp_path / name
            d.mkdir()
            (d / "metrics.json").write_text(
                json.dumps({"counters": {"od.post_filter_kept": 5}, "spans": spans})
            )
            dirs.append(d)
        result = diff_runs(*dirs)
        assert not result.divergent
        lines = result.render().splitlines()
        assert not any(line.startswith("DIFF") for line in lines)
        rows = {
            line.split()[1]: line.split()[2:]
            for line in lines if line.startswith("  time ")
        }
        assert list(rows) == ["stage", "simulate", "clean", "extract"]
        assert rows["simulate"] == ["1.0000", "1.0000", "+0.0%", "50.0%", "62.5%"]
        assert rows["clean"] == ["0.5000", "0.1000", "-80.0%", "25.0%", "6.2%"]
        assert rows["extract"] == ["-", "0.4000", "-", "-", "25.0%"]

    def test_missing_artefact_diverges(self, tmp_path):
        a = self._run_dir(tmp_path, "a", {})
        b = tmp_path / "b"
        b.mkdir()
        assert diff_runs(a, b).divergent


# -- end-to-end acceptance ----------------------------------------------------

#: Small-but-faulted: 8 transitions of which the seeded plan dooms 2 —
#: quarantines exist, survivors exist, and the suite stays quick.
_FLEET = FleetSpec(n_days=6, seed=13)
_PLAN = FaultPlan(seed=5, match_error_rate=0.3)


def _journaled_run(out_dir: Path, workers: int):
    ctx = RunContext.create()
    config = StudyConfig(
        fleet=_FLEET,
        executor=ExecutorConfig(workers=workers, chunk_size=8),
        robustness=RobustnessConfig(max_error_rate=0.5, backoff_base_s=0.0),
        faults=_PLAN,
    )
    journal = FileJournal(out_dir / "events.jsonl", ctx)
    try:
        with use_journal(journal):
            result = OuluStudy(config).run(run_context=ctx)
        journal.close("ok")
    except Exception:
        journal.close("error")
        raise
    (out_dir / "metrics.json").write_text(json.dumps(result.metrics, default=repr))
    from repro.faults.errors import Quarantine

    quarantine = Quarantine()
    quarantine.errors.extend(result.errors)
    quarantine.write_jsonl(out_dir / "errors.jsonl")
    return result


@pytest.fixture(scope="module")
def journaled_pair(tmp_path_factory):
    base = tmp_path_factory.mktemp("obs_accept")
    serial_dir = base / "serial"
    workers_dir = base / "workers"
    serial_dir.mkdir()
    workers_dir.mkdir()
    serial = _journaled_run(serial_dir, workers=0)
    parallel = _journaled_run(workers_dir, workers=4)
    return serial_dir, workers_dir, serial, parallel


def test_serial_and_parallel_span_trees_structurally_identical(journaled_pair):
    serial_dir, workers_dir, *_ = journaled_pair
    sig_serial = structural_signature(
        reconstruct_spans(read_journal(serial_dir / "events.jsonl"))
    )
    sig_parallel = structural_signature(
        reconstruct_spans(read_journal(workers_dir / "events.jsonl"))
    )
    assert sig_serial == sig_parallel


def test_every_quarantined_unit_has_a_lineage_record(journaled_pair):
    serial_dir, workers_dir, serial, parallel = journaled_pair
    assert serial.errors, "fault plan must quarantine at least one unit"
    for out_dir, result in ((serial_dir, serial), (workers_dir, parallel)):
        events = read_journal(out_dir / "events.jsonl")
        for error in result.errors:
            records = lineage_records(events, unit_id=error.transition_index)
            assert records, f"no lineage for quarantined unit {error.transition_index}"
            assert any(r.get("quarantined") for r in records)


def test_quarantine_events_mirror_errors_jsonl(journaled_pair):
    serial_dir, __, serial, __unused = journaled_pair
    events = read_journal(serial_dir / "events.jsonl")
    journal_ids = {
        e.get("transition_index") for e in events if e.get("kind") == "quarantine"
    }
    assert journal_ids == {e.transition_index for e in serial.errors}


def test_run_diff_reports_zero_divergence(journaled_pair):
    serial_dir, workers_dir, *_ = journaled_pair
    result = diff_runs(serial_dir, workers_dir)
    assert not result.divergent, result.render()


def test_journals_pass_the_validator(journaled_pair):
    serial_dir, workers_dir, *_ = journaled_pair
    for out_dir in (serial_dir, workers_dir):
        assert validate_journal(out_dir / "events.jsonl") == []


def test_load_run_pairs_journal_with_metrics(journaled_pair):
    serial_dir, *_ = journaled_pair
    events, metrics = load_run(serial_dir / "events.jsonl")
    assert events[0]["kind"] == "run_start"
    assert metrics is not None and "counters" in metrics
    report = render_report(events, metrics)
    assert "Funnel" in report and "Lineage records" in report
