"""Crash safety: kill the service at every checkpoint boundary, resume,
and require byte-identical artefacts to an uninterrupted run.

Two kill mechanisms are exercised:

* **in-process** — ``StreamService.run(stop_after_checkpoints=k)`` ends
  the run right after the k-th checkpoint lands (returns ``None``), for
  *every* k the full run produces;
* **hard kill** — a fault plan with ``kill_chunk={"stream": N}`` makes
  the service ``os._exit(1)`` right after checkpoint N, exactly like an
  OOM kill; a rerun of ``repro serve`` must resume and finish.

Resumption is exactly-once: already-ingested rows are skipped by index,
Welford partials continue bit-identically (checkpoints serialise the
raw per-cell speeds), and the fingerprints — floats rendered as
``float.hex`` — must equal the no-checkpoint baseline.

Every checkpoint body must also equal the whole state's canonical JSON
as ``tests/oracles/checkpoint.py`` encodes it afresh, although the
service encodes each append-only list item once; and a damaged, torn or
old-layout checkpoint must never be resumed from.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import heapq
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.stream.checkpoint as checkpoint_module
from repro.parallel import ExecutorConfig
from repro.stream import (
    CheckpointStore,
    StreamConfig,
    StreamService,
    load_checkpoint,
    stream_fingerprint,
)
from repro.stream.checkpoint import CHECKPOINT_NAME, CHECKPOINT_SCHEMA_VERSION
from tests.oracles.checkpoint import canonical, checkpoint_payload

REPO = Path(__file__).resolve().parent.parent

BATCH_SIZE = 64
CHECKPOINT_EVERY = 6


def make_config(config, path, checkpoint_dir, **overrides):
    kwargs = dict(
        study=config, input=str(path), mode="replay",
        batch_size=BATCH_SIZE, checkpoint_every=CHECKPOINT_EVERY,
        checkpoint_dir=str(checkpoint_dir),
    )
    kwargs.update(overrides)
    return StreamConfig(**kwargs)


def read_body(ckdir: Path) -> dict:
    """The checkpoint file's body, after its key check."""
    head, __, body = (ckdir / CHECKPOINT_NAME).read_bytes().partition(b"\n")
    assert head == hashlib.blake2b(body, digest_size=16).hexdigest().encode()
    return json.loads(body)


def interleave(path: Path, out: Path) -> Path:
    """``path``'s trips as a live feed delivers them: taxis interleaved
    by the running maximum of each trip's fix times, trip ids renumbered
    by first arrival (the stream's ordering contract)."""
    with path.open(newline="") as f:
        reader = csv.DictReader(f)
        fieldnames = reader.fieldnames
        trips: dict[str, list[dict]] = {}
        for row in reader:
            trips.setdefault(row["trip_id"], []).append(row)

    def keyed(rows):
        latest = float("-inf")
        for seq, row in enumerate(rows):
            latest = max(latest, float(row["time_s"]))
            yield latest, int(row["trip_id"]), seq, row

    renumbered: dict[str, int] = {}
    with out.open("w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fieldnames)
        writer.writeheader()
        for *__, row in heapq.merge(*map(keyed, trips.values())):
            row["trip_id"] = renumbered.setdefault(row["trip_id"], len(renumbered) + 1)
            writer.writerow(row)
    return out


@pytest.fixture(scope="module")
def full_run(stream_case, tmp_path_factory):
    """One uninterrupted checkpointed run: the resume tests' reference."""
    config, path, baseline = stream_case
    ckdir = tmp_path_factory.mktemp("ck-full")
    result = StreamService(make_config(config, path, ckdir)).run()
    return result, baseline


class TestCheckpointing:
    def test_checkpoints_do_not_perturb_artefacts(self, full_run):
        result, baseline = full_run
        assert result.checkpoints_written >= 3
        got = stream_fingerprint(result)
        for name in baseline:
            assert got[name] == baseline[name], f"artefact {name!r} diverged"

    def test_pointer_names_the_last_checkpoint(
        self, stream_case, tmp_path
    ):
        config, path, __ = stream_case
        result = StreamService(make_config(config, path, tmp_path)).run()
        assert read_body(tmp_path)["checkpoint_seq"] == result.checkpoints_written
        payload = load_checkpoint(tmp_path)
        assert payload["checkpoint_seq"] == result.checkpoints_written
        assert payload["checkpoint_schema"] == CHECKPOINT_SCHEMA_VERSION
        assert [p.name for p in tmp_path.iterdir()] == [CHECKPOINT_NAME]

    def test_identical_state_dedupes_by_content(self, stream_case, tmp_path):
        config, path, __ = stream_case
        store = CheckpointStore(tmp_path)
        payload = {"checkpoint_seq": 1, "rows_ingested": 10, "state": [1, 2]}
        assert store.write(dict(payload)) == store.write(dict(payload))

    @pytest.mark.parametrize("feed", ["trip_major", "interleaved"])
    def test_every_body_encodes_the_whole_state(
        self, stream_case, tmp_path, monkeypatch, feed
    ):
        """A checkpoint after every micro-batch: each body equals the
        whole state encoded afresh, before a kill and after the resume
        (whose encoders start over on the restored lists), and the run's
        own metrics count each checkpoint's time and the bytes written."""
        config, path, __ = stream_case
        if feed == "interleaved":
            path = interleave(path, tmp_path / "live.csv")
        ckdir = tmp_path / "ck"
        written, diverged = [], []
        write_checkpoint = StreamService._write_checkpoint

        def checked(service):
            write_checkpoint(service)
            data = (ckdir / CHECKPOINT_NAME).read_bytes()
            written.append(len(data))
            if data.partition(b"\n")[2] != canonical(checkpoint_payload(service)):
                diverged.append(service._checkpoint_seq)

        monkeypatch.setattr(StreamService, "_write_checkpoint", checked)
        sc = make_config(config, path, ckdir, checkpoint_every=1)
        assert StreamService(sc).run(stop_after_checkpoints=10) is None
        written.clear()
        result = StreamService(sc).run()
        assert result.metrics["counters"]["stream.resumes"] == 1
        assert diverged == []
        assert len(written) == result.checkpoints_written >= 20
        counters = result.metrics["counters"]
        if feed == "trip_major":  # closed windows updated in place
            assert counters["stream.window_late_folds"] > 0
        assert counters["stream.checkpoint_bytes"] == sum(written)
        histogram = result.metrics["histograms"]["stage.checkpoint.seconds"]
        assert histogram["count"] == len(written)
        assert [p.name for p in ckdir.iterdir()] == [CHECKPOINT_NAME]


class TestKillAndResume:
    def test_every_checkpoint_boundary_resumes_identically(
        self, stream_case, full_run, tmp_path
    ):
        config, path, baseline = stream_case
        reference, __ = full_run
        total = reference.checkpoints_written
        failures = []
        for k in range(1, total + 1):
            ckdir = tmp_path / f"boundary-{k}"
            sc = make_config(config, path, ckdir)
            killed = StreamService(sc).run(stop_after_checkpoints=k)
            assert killed is None, "a stopped run must not return a result"
            resumed = StreamService(sc).run()
            assert resumed.metrics["counters"]["stream.resumes"] == 1
            got = stream_fingerprint(resumed)
            failures += [
                (k, name) for name in baseline if got[name] != baseline[name]
            ]
        assert failures == []

    def test_resume_skips_ingested_rows_exactly_once(
        self, stream_case, full_run, tmp_path
    ):
        config, path, __ = stream_case
        reference, __ = full_run
        sc = make_config(config, path, tmp_path)
        assert StreamService(sc).run(stop_after_checkpoints=2) is None
        skipped = read_body(tmp_path)["rows_ingested"]
        resumed = StreamService(sc).run()
        assert skipped == 2 * CHECKPOINT_EVERY * BATCH_SIZE
        assert resumed.rows_ingested == reference.rows_ingested
        assert resumed.metrics["counters"]["stream.rows_in"] == \
            reference.rows_ingested - skipped

    def test_no_resume_flag_starts_from_scratch(
        self, stream_case, full_run, tmp_path
    ):
        config, path, baseline = stream_case
        sc = make_config(config, path, tmp_path)
        assert StreamService(sc).run(stop_after_checkpoints=1) is None
        # What a write killed before its rename leaves: replaced, never read.
        (tmp_path / f"{CHECKPOINT_NAME}.tmp").write_bytes(b"torn")
        result = StreamService(sc).run(resume=False)
        assert "stream.resumes" not in result.metrics["counters"]
        got = stream_fingerprint(result)
        assert got == baseline
        assert [p.name for p in tmp_path.iterdir()] == [CHECKPOINT_NAME]


class TestHardKill:
    def test_fault_plan_kill_then_serve_rerun_resumes(
        self, stream_case, tmp_path, chaos_seed
    ):
        """The chaos path: ``kill_chunk={"stream": 2}`` hard-exits the
        process right after checkpoint 2; rerunning the *same* command
        (plan included — the resume guard fingerprints the study config
        except its executor, and the kill cannot refire: the sequence
        continues past 2)
        resumes and must write the artefacts of an uninterrupted serve.
        """
        config, path, __ = stream_case
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(
            {"seed": chaos_seed, "kill_chunk": {"stream": 2}}
        ))
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        ckdir = tmp_path / "ck"
        out = tmp_path / "out"
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--input", str(path), "--out", str(out),
            "--batch-size", str(BATCH_SIZE),
            "--checkpoint-every", str(CHECKPOINT_EVERY),
            "--checkpoint-dir", str(ckdir), "--quiet",
            "--fault-plan", str(plan_path),
        ]
        killed = subprocess.run(
            argv, cwd=REPO, env=env, capture_output=True, text=True,
        )
        assert killed.returncode == 1, killed.stderr
        assert read_body(ckdir)["checkpoint_seq"] == 2
        assert not (out / "table3.txt").exists(), \
            "a killed service must not have written artefacts"
        rerun = subprocess.run(
            argv, cwd=REPO, env=env, capture_output=True, text=True
        )
        assert rerun.returncode == 0, rerun.stderr
        assert [p.name for p in ckdir.iterdir()] == [CHECKPOINT_NAME]
        clean_out = tmp_path / "clean-out"
        uninterrupted = subprocess.run(
            [sys.executable, "-m", "repro", "serve",
             "--input", str(path), "--out", str(clean_out),
             "--batch-size", str(BATCH_SIZE), "--quiet"],
            cwd=REPO, env=env, capture_output=True, text=True,
        )
        assert uninterrupted.returncode == 0, uninterrupted.stderr
        for name in ("table2.txt", "table3.txt", "table4.txt", "table5.txt",
                      "windows.jsonl", "errors.jsonl"):
            assert (out / name).read_bytes() == \
                (clean_out / name).read_bytes(), f"{name} diverged"


class TestResumeSafety:
    def test_mismatched_config_is_refused(self, stream_case, tmp_path):
        config, path, __ = stream_case
        sc = make_config(config, path, tmp_path)
        assert StreamService(sc).run(stop_after_checkpoints=1) is None
        other = make_config(config, path, tmp_path, window_s=3600.0)
        with pytest.raises(ValueError, match="refusing to resume"):
            StreamService(other).run()

    def test_pool_settings_change_still_resumes(self, stream_case, tmp_path):
        """Executor settings do not shape artefacts, so a checkpoint
        written serially resumes under ``--workers 2``."""
        config, path, baseline = stream_case
        sc = make_config(config, path, tmp_path)
        assert StreamService(sc).run(stop_after_checkpoints=2) is None
        pooled = dataclasses.replace(config, executor=ExecutorConfig(workers=2))
        resumed = StreamService(make_config(pooled, path, tmp_path)).run()
        assert resumed.metrics["counters"]["stream.resumes"] == 1
        assert stream_fingerprint(resumed) == baseline

    def test_wrong_schema_version_is_refused(
        self, stream_case, tmp_path, monkeypatch
    ):
        config, path, __ = stream_case
        sc = make_config(config, path, tmp_path)
        assert StreamService(sc).run(stop_after_checkpoints=1) is None
        monkeypatch.setattr(
            checkpoint_module, "CHECKPOINT_SCHEMA_VERSION",
            CHECKPOINT_SCHEMA_VERSION + 1,
        )
        with pytest.raises(ValueError, match="schema"):
            load_checkpoint(tmp_path)

    def test_corrupt_or_missing_pointer_reads_as_fresh(self, tmp_path):
        assert load_checkpoint(tmp_path) is None
        (tmp_path / CHECKPOINT_NAME).write_text("not json {")
        assert load_checkpoint(tmp_path) is None

    @pytest.mark.parametrize("damage", ["flipped_byte", "truncated", "torn_write"])
    def test_damaged_checkpoint_reads_as_fresh_start(
        self, stream_case, tmp_path, caplog, monkeypatch, damage
    ):
        """A checkpoint that fails its key check, and the temp file a kill
        mid-write leaves, are discarded with one WARNING: the run starts
        from scratch and still writes the baseline's artefacts."""
        config, path, baseline = stream_case
        sc = make_config(config, path, tmp_path)
        assert StreamService(sc).run(stop_after_checkpoints=2) is None
        checkpoint = tmp_path / CHECKPOINT_NAME
        data = checkpoint.read_bytes()
        middle = len(data) // 2
        if damage == "flipped_byte":
            checkpoint.write_bytes(
                data[:middle] + bytes([data[middle] ^ 1]) + data[middle + 1:]
            )
        elif damage == "truncated":
            checkpoint.write_bytes(data[:middle])
        else:  # killed while writing its first checkpoint
            checkpoint.unlink()
            (tmp_path / f"{CHECKPOINT_NAME}.tmp").write_bytes(data[:middle])
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        caplog.set_level(logging.WARNING, logger="repro.stream")
        result = StreamService(sc).run()
        warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert [r.getMessage() for r in warnings] == ["discarding corrupt checkpoint"]
        counters = result.metrics["counters"]
        assert counters["stream.checkpoint_corrupt"] == 1
        assert "stream.resumes" not in counters
        assert stream_fingerprint(result) == baseline
        assert [p.name for p in tmp_path.iterdir()] == [CHECKPOINT_NAME]
