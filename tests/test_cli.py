"""Tests for the command-line interface."""

import pytest

import repro.stream.checkpoint as checkpoint_module
from repro.cli import main
from repro.stream import CheckpointStore


class TestSimulate:
    def test_writes_points_and_trips(self, tmp_path, capsys):
        points = tmp_path / "p.csv"
        trips = tmp_path / "t.jsonl"
        code = main([
            "simulate", "--days", "1", "--seed", "3",
            "--points", str(points), "--trips", str(trips),
        ])
        assert code == 0
        assert points.exists() and points.stat().st_size > 1000
        assert trips.exists()
        out = capsys.readouterr().out
        assert "route points" in out


class TestClean:
    def test_reports_stages(self, tmp_path, capsys):
        points = tmp_path / "p.csv"
        assert main(["simulate", "--days", "1", "--seed", "3",
                     "--points", str(points)]) == 0
        capsys.readouterr()
        assert main(["clean", str(points)]) == 0
        out = capsys.readouterr().out
        assert "segments out" in out
        assert "rule firings" in out
        # Full accounting: bounds filter, points out, and a time column.
        assert "out-of-bounds removed" in out
        assert "points out" in out
        assert "Seconds" in out

    def test_metrics_out_writes_json(self, tmp_path, capsys):
        import json

        points = tmp_path / "p.csv"
        metrics = tmp_path / "clean_metrics.json"
        assert main(["simulate", "--days", "1", "--seed", "3",
                     "--points", str(points)]) == 0
        assert main(["clean", str(points), "--metrics-out", str(metrics)]) == 0
        doc = json.loads(metrics.read_text())
        assert doc["counters"]["clean.trips_in"] > 0
        assert "clean.out_of_bounds_removed" in doc["counters"]
        assert [s["name"] for s in doc["spans"]] == ["clean"]

    def test_empty_csv_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text(
            "car_id,point_id,trip_id,lat,lon,time_s,speed_kmh,fuel_ml\n"
        )
        assert main(["clean", str(empty)]) == 1


class TestStudy:
    def test_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "study"
        code = main([
            "study", "--days", "8", "--seed", "9", "--out", str(out), "--svg",
        ])
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert {"table2.txt", "table3.txt", "table4.txt", "table5.txt",
                "fig5.txt", "fig10.txt"} <= names
        # SVG artefacts for the map figures.
        assert "fig9.svg" in names
        assert (out / "table3.txt").read_text().startswith("Car")

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_metrics_out_and_log_level(self, tmp_path, capsys):
        import json
        import logging

        out = tmp_path / "study"
        metrics = tmp_path / "m.json"
        code = main([
            "study", "--days", "4", "--seed", "9", "--out", str(out),
            "--metrics-out", str(metrics), "--log-level", "INFO",
        ])
        # Leave global logging unconfigured for subsequent tests.
        root = logging.getLogger("repro")
        root.handlers = []
        root.setLevel(logging.NOTSET)
        root.propagate = True
        assert code == 0
        # Always written next to the tables, and to --metrics-out.
        assert (out / "metrics.json").exists()
        doc = json.loads(metrics.read_text())
        assert doc == json.loads((out / "metrics.json").read_text())
        counters = doc["counters"]
        assert counters["clean.trips_in"] > 0
        assert counters["od.segments_total"] > 0
        assert "od.within_centre" in counters
        latency = doc["histograms"]["matching.match_seconds"]
        assert latency["count"] > 0 and "p99" in latency
        (root_span,) = doc["spans"]
        assert root_span["name"] == "study"
        assert {c["name"] for c in root_span["children"]} >= {
            "simulate", "clean", "extract", "match",
        }
        # Per-stage log lines went to stderr.
        err = capsys.readouterr().err
        assert "cleaning stage complete" in err


class TestStudyGeojson:
    def test_geojson_exports(self, tmp_path):
        import json

        out = tmp_path / "study"
        assert main(["study", "--days", "8", "--seed", "9",
                     "--out", str(out), "--geojson"]) == 0
        for name in ("roads", "gates", "routes", "cells"):
            path = out / f"{name}.geojson"
            assert path.exists()
            fc = json.loads(path.read_text())
            assert fc["type"] == "FeatureCollection"



class TestBadFlagValues:
    """A bad flag value or a missing input file is one ``repro <cmd>:``
    line on stderr and exit 2, with nothing written."""

    @pytest.mark.parametrize("argv, message", [
        (["study", "--workers", "-1"],
         "repro study: workers must be non-negative"),
        (["study", "--fault-plan", "PLAN"],
         "repro study: kill_chunk kind must be one of ['match', 'stream'], "
         "got 'mach'"),
        (["study", "--days", "0"],
         "repro study: need at least one taxi and one day"),
        (["study", "--max-error-rate", "2"],
         "repro study: max_error_rate must be in [0, 1]"),
        (["serve", "--input", "POINTS", "--batch-size", "0"],
         "repro serve: batch_size must be at least 1"),
        (["clean", "MISSING.csv"],
         "repro clean: no such file or directory: MISSING.csv"),
        (["study", "--input", "MISSING.csv"],
         "repro study: no such file or directory: MISSING.csv"),
        (["serve", "--input", "MISSING.csv"],
         "repro serve: no such file or directory: MISSING.csv"),
        (["obs", "report", "MISSING.jsonl"],
         "repro obs: no such file or directory: MISSING.jsonl"),
        (["obs", "diff", "MISSING_A", "MISSING_B"],
         "repro obs: no such file or directory: MISSING_A"),
        (["clean", "POINTS", "--max-error-rate", "2"],
         "repro clean: max_error_rate must be in [0, 1]"),
        (["report", "--workers", "-1"],
         "repro report: workers must be non-negative"),
        (["simulate", "--days", "0"],
         "repro simulate: need at least one taxi and one day"),
        (["study", "--days", "2", "--routing-engine", "ch"],
         "repro: error: unrecognized arguments: --routing-engine ch"),
        (["serve", "--input", "POINTS", "--window", "0"],
         "repro serve: window_s must be positive and finite"),
        (["serve", "--input", "POINTS", "--window", "nan"],
         "repro serve: window_s must be positive and finite"),
        (["serve", "--input", "POINTS", "--window", "-3600"],
         "repro serve: window_s must be positive and finite"),
        (["serve", "--input", "POINTS", "--trip-timeout", "-5"],
         "repro serve: trip_timeout_s must be positive and finite"),
        (["serve", "--input", "POINTS", "--trip-timeout", "nan"],
         "repro serve: trip_timeout_s must be positive and finite"),
        (["serve", "--input", "POINTS", "--checkpoint-every", "-3"],
         "repro serve: checkpoint_every must be at least 0"),
        (["serve", "--input", "POINTS", "--checkpoint-dir", "CK"],
         "repro serve: checkpoint was written under a different "
         "stream/study configuration; refusing to resume"),
        (["serve", "--input", "POINTS", "--checkpoint-dir", "OLD_CK"],
         "repro serve: checkpoint schema 1 != "
         f"{checkpoint_module.CHECKPOINT_SCHEMA_VERSION} "
         "(incompatible checkpoint dir)"),
    ])
    def test_reported_in_one_line_with_exit_2(
        self, argv, message, tmp_path, monkeypatch, capsys
    ):
        self._check_exit_2(argv, message, tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("argv", [
        ["clean", "POINTS", "--workers", "2"],
        ["clean", "POINTS", "--chunk-size", "4"],
        ["clean", "POINTS", "--route-cache", "routes.json"],
        ["study", "--days", "2", "--route-cache", "routes.json"],
        ["serve", "--input", "POINTS", "--route-cache", "routes.json"],
        ["report", "--days", "2", "--route-cache", "routes.json"],
        ["serve", "--input", "POINTS", "--workers", "3"],
        ["serve", "--input", "POINTS", "--chunk-size", "4"],
        ["study", "--days", "2", "--chunk-size", "4"],
        ["report", "--days", "2", "--chunk-size", "4"],
        ["serve", "--input", "POINTS", "--live-match"],
    ])
    def test_removed_flag_exits_2(self, argv, tmp_path, monkeypatch, capsys):
        """Flags that chose nothing (cleaning never routes or pools, the
        stream folds serially, chunking never changed an output, the
        live matcher reached no artefact, routes come from the graph's
        own shortest-path trees) are gone: passing one is a usage error,
        not a silent no-op."""
        flag = max(i for i, arg in enumerate(argv) if arg.startswith("--"))
        message = f"repro: error: unrecognized arguments: {' '.join(argv[flag:])}"
        self._check_exit_2(argv, message, tmp_path, monkeypatch, capsys)

    @staticmethod
    def _check_exit_2(argv, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "POINTS").write_text(
            "car_id,point_id,trip_id,lat,lon,time_s,speed_kmh,fuel_ml\n"
        )
        (tmp_path / "PLAN").write_text('{"kill_chunk": {"mach": 0}}')
        # A checkpoint written under another configuration, and one of an
        # older checkpoint schema: resuming from either is refused.
        checkpoint = {"fingerprint": "another configuration",
                      "checkpoint_seq": 1, "rows_ingested": 0}
        CheckpointStore(tmp_path / "CK").write(checkpoint)
        with monkeypatch.context() as patch:
            patch.setattr(checkpoint_module, "CHECKPOINT_SCHEMA_VERSION", 1)
            CheckpointStore(tmp_path / "OLD_CK").write(checkpoint)
        before = sorted(tmp_path.rglob("*"))
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
        assert code == 2
        *usage, last = capsys.readouterr().err.splitlines()
        assert last == message
        # Only argparse prints anything (its usage text) before the line.
        assert all(line.startswith(("usage:", " ")) for line in usage)
        assert sorted(tmp_path.rglob("*")) == before
