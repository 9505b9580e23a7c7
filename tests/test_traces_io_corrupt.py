"""Malformed-input corpus: ingest quarantines damage, never raises.

Each file under ``tests/data/corrupt_traces/`` reproduces one class of
raw-feed damage the paper's preprocessing contends with (truncated
lines, NaN coordinates, NaN/inf speed or fuel, non-monotonic ids,
fully-garbled trips, UTF-8 damage).  The table-driven test asserts
that :func:`read_points_csv` survives every one, keeps the parseable
rows, and leaves a precise :class:`TripError` record per problem.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.faults import FaultPlan, Quarantine, inject_faults
from repro.obs import MetricsRegistry, use_registry
from repro.traces.io import read_points_csv, write_points_csv

CORPUS = Path(__file__).parent / "data" / "corrupt_traces"

#: file -> (expected trips, expected total points, expected error kinds)
CASES = {
    "truncated_line.csv": ([10], 2, {"truncated_row"}),
    "nan_coords.csv": ([20], 2, {"non_finite"}),
    "non_finite_speed.csv": ([70], 2, {"non_finite"}),
    "non_monotonic.csv": ([30], 3, {"non_monotonic_ids"}),
    "empty_trip.csv": ([40], 1, {"parse_error", "truncated_row", "empty_trip"}),
    "utf8_garbage.csv": ([60], 2, {"parse_error"}),
    "bad_car_id.csv": ([80, 90], 3, {"parse_error"}),
}


@pytest.mark.parametrize("filename", sorted(CASES))
def test_corrupt_corpus_quarantines_instead_of_raising(filename):
    expected_trips, expected_points, expected_kinds = CASES[filename]
    quarantine = Quarantine()
    registry = MetricsRegistry()
    with use_registry(registry):
        fleet = read_points_csv(CORPUS / filename, quarantine=quarantine)
    assert [t.trip_id for t in fleet.trips] == expected_trips
    assert fleet.point_count == expected_points
    kinds = {e.kind for e in quarantine.errors}
    assert kinds == expected_kinds
    # Every record is precise: stage, message, and a row or trip anchor.
    for error in quarantine.errors:
        assert error.stage == "io"
        assert error.message
        assert error.row is not None or error.trip_id is not None


def test_corrupt_corpus_counts_quarantined_rows():
    registry = MetricsRegistry()
    with use_registry(registry):
        read_points_csv(CORPUS / "truncated_line.csv")
    assert registry.counter("io.rows_quarantined").value == 1


def test_corrupt_rows_attribute_trip_ids():
    quarantine = Quarantine()
    read_points_csv(CORPUS / "empty_trip.csv", quarantine=quarantine)
    empties = [e for e in quarantine.errors if e.kind == "empty_trip"]
    assert [e.trip_id for e in empties] == [50]


def test_bad_car_id_rows_quarantined_with_their_row():
    # A non-integer car id on a trip's first row and on a later row of
    # another trip: both rows are dropped and recorded, never raised.
    quarantine = Quarantine()
    fleet = read_points_csv(CORPUS / "bad_car_id.csv", quarantine=quarantine)
    assert [(e.kind, e.row, e.trip_id) for e in quarantine.errors] == [
        ("parse_error", 2, 80), ("parse_error", 3, 90),
    ]
    assert [(t.trip_id, t.car_id, len(t.points)) for t in fleet.trips] == [
        (80, 8, 2), (90, 9, 1),
    ]


def test_without_explicit_quarantine_still_returns_survivors():
    fleet = read_points_csv(CORPUS / "nan_coords.csv")
    assert [t.trip_id for t in fleet.trips] == [20]
    assert [p.point_id for p in fleet.trips[0].points] == [1, 4]


# -- injected ingest faults --------------------------------------------------


def test_injected_row_corruption_is_deterministic(tmp_path, fleet, chaos_seed):
    path = tmp_path / "points.csv"
    write_points_csv(fleet, path)
    plan = FaultPlan(seed=chaos_seed, corrupt_row_rate=0.05)
    quarantine = Quarantine()
    with inject_faults(plan):
        damaged = read_points_csv(path, quarantine=quarantine)
    clean = read_points_csv(path)
    expected = sum(
        1 for index in range(clean.point_count) if plan.picks("io", index)
    )
    assert expected > 0
    corrupted = [e for e in quarantine.errors if e.fault_tag == "injected:io"]
    assert len(corrupted) == expected
    assert damaged.point_count == clean.point_count - expected
    # Replay: the same plan quarantines the same rows.
    replay = Quarantine()
    with inject_faults(plan):
        read_points_csv(path, quarantine=replay)
    assert [e.row for e in replay.errors] == [e.row for e in quarantine.errors]


def test_injected_truncation_stops_reading(tmp_path, fleet):
    path = tmp_path / "points.csv"
    write_points_csv(fleet, path)
    plan = FaultPlan(truncate_after_rows=25)
    quarantine = Quarantine()
    with inject_faults(plan):
        truncated = read_points_csv(path, quarantine=quarantine)
    assert truncated.point_count == 25
    kinds = [e.kind for e in quarantine.errors]
    assert "truncated_file" in kinds
