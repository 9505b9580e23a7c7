"""Trace serialization: CSV for route points, JSONL for trips.

The paper's ingest pools device data over HTTP into PostgreSQL; here the
equivalent durable format is a flat route-point CSV (one row per point)
plus a trips JSONL with the per-trip header records.  Round-tripping is
lossless to float precision.

Reading is *robust by default*: the paper's feed contains garbage fixes
and so do real dumps (truncated lines, NaN coordinates, UTF-8 damage).
A malformed row never aborts ingestion — it is quarantined as a precise
:class:`~repro.faults.TripError` record (stage ``io``) and counted on
the ``io.rows_quarantined`` metric, while every parseable row still
lands in the returned fleet.  An active :class:`~repro.faults.FaultPlan`
can corrupt or truncate rows on the way in, exercising exactly this
path.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from repro.faults import Quarantine, TripError
from repro.faults import injector as _injector
from repro.obs import get_logger, get_registry
from repro.traces.model import FleetData, RoutePoint, Trip

_log = get_logger(__name__)

_POINT_FIELDS = ["point_id", "trip_id", "lat", "lon", "time_s", "speed_kmh", "fuel_ml"]


def write_points_csv(fleet: FleetData, path: str | Path) -> int:
    """Write all route points as CSV; returns the row count."""
    path = Path(path)
    count = 0
    with path.open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["car_id"] + _POINT_FIELDS)
        for trip in fleet.trips:
            for p in trip.points:
                writer.writerow(
                    [trip.car_id, p.point_id, p.trip_id, repr(p.lat), repr(p.lon),
                     repr(p.time_s), repr(p.speed_kmh), repr(p.fuel_ml)]
                )
                count += 1
    return count


def parse_point_row(row: dict) -> tuple[RoutePoint, int]:
    """Parse one CSV row strictly into ``(point, car_id)``; raises
    ValueError on any damage.

    Shared by the batch reader below and the streaming ingest
    (:mod:`repro.stream.service`), so a row is judged malformed by
    exactly one definition on both paths.
    """
    missing = [name for name in ("car_id", *_POINT_FIELDS)
               if row.get(name) in (None, "")]
    if missing:
        raise ValueError(f"truncated_row: missing fields {missing}")
    try:
        car_id = int(row["car_id"])
        point = RoutePoint(
            point_id=int(row["point_id"]),
            trip_id=int(row["trip_id"]),
            lat=float(row["lat"]),
            lon=float(row["lon"]),
            time_s=float(row["time_s"]),
            speed_kmh=float(row["speed_kmh"]),
            fuel_ml=float(row["fuel_ml"]),
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"parse_error: {exc}") from exc
    if not all(map(math.isfinite, (point.lat, point.lon, point.time_s,
                                   point.speed_kmh, point.fuel_ml))):
        raise ValueError("non_finite: lat/lon/time/speed/fuel must be finite")
    return point, car_id


#: Backwards-compatible alias (pre-streaming name).
_parse_point = parse_point_row


def row_trip_id(row: dict) -> int | None:
    """Best-effort trip id of a damaged row (for the error record)."""
    try:
        return int(row.get("trip_id") or "")
    except (TypeError, ValueError):
        return None


def read_points_csv(
    path: str | Path, quarantine: Quarantine | None = None
) -> FleetData:
    """Read a route-point CSV back into trips (grouped by trip id).

    Malformed rows (truncated lines, unparseable or non-finite values,
    UTF-8 garbage) are quarantined — recorded on ``quarantine`` when
    given, otherwise logged — never raised.  Trips whose rows were *all*
    malformed produce an ``empty_trip`` record; trips whose point ids
    regress produce a ``non_monotonic_ids`` record (the points are kept:
    ordering repair downstream handles them).
    """
    path = Path(path)
    quarantine = quarantine if quarantine is not None else Quarantine()
    registry = get_registry()
    trips: dict[int, Trip] = {}
    damaged_trip_ids: set[int] = set()
    with path.open(newline="", encoding="utf-8", errors="replace") as f:
        reader = csv.DictReader(f)
        for index, row in enumerate(reader):
            if _injector.truncate_at(index):
                quarantine.add(TripError(
                    stage="io", kind="truncated_file",
                    message=f"input truncated before row {index}",
                    row=index, fault_tag="injected:io",
                ))
                break
            fault_tag = None
            corrupted = _injector.corrupt_row(index, row)
            if corrupted is not None:
                row = corrupted
                fault_tag = "injected:io"
            try:
                point, car_id = parse_point_row(row)
            except ValueError as exc:
                registry.counter("io.rows_quarantined").inc()
                trip_id = row_trip_id(row)
                if trip_id is not None:
                    damaged_trip_ids.add(trip_id)
                quarantine.add(TripError(
                    stage="io", kind=str(exc).split(":", 1)[0],
                    message=str(exc), trip_id=trip_id, row=index,
                    fault_tag=fault_tag,
                ))
                continue
            trip = trips.get(point.trip_id)
            if trip is None:
                trip = Trip(trip_id=point.trip_id, car_id=car_id)
                trips[point.trip_id] = trip
            trip.points.append(point)
    for trip_id in sorted(damaged_trip_ids - set(trips)):
        quarantine.add(TripError(
            stage="io", kind="empty_trip",
            message=f"trip {trip_id}: every row was malformed",
            trip_id=trip_id,
        ))
    for trip in trips.values():
        ids = [p.point_id for p in trip.points]
        if any(b <= a for a, b in zip(ids, ids[1:])):
            quarantine.add(TripError(
                stage="io", kind="non_monotonic_ids",
                message=f"trip {trip.trip_id}: point ids not strictly "
                        "increasing (kept; ordering repair applies)",
                trip_id=trip.trip_id,
            ))
    if quarantine.errors:
        _log.warning(
            "rows quarantined during read",
            extra={"path": str(path), "errors": len(quarantine.errors)},
        )
    return FleetData(trips=sorted(trips.values(), key=lambda t: t.trip_id))


def write_trips_jsonl(fleet: FleetData, path: str | Path) -> int:
    """Write per-trip header records (summaries) as JSONL."""
    path = Path(path)
    count = 0
    with path.open("w") as f:
        for trip in fleet.trips:
            s = trip.summary()
            f.write(
                json.dumps(
                    {
                        "trip_id": s.trip_id,
                        "car_id": s.car_id,
                        "start_time_s": s.start_time_s,
                        "end_time_s": s.end_time_s,
                        "start_point": list(s.start_point),
                        "end_point": list(s.end_point),
                        "total_time_s": s.total_time_s,
                        "total_distance_m": s.total_distance_m,
                        "total_fuel_ml": s.total_fuel_ml,
                        "point_count": s.point_count,
                    }
                )
            )
            f.write("\n")
            count += 1
    return count


def read_trips_jsonl(path: str | Path) -> list[dict]:
    """Read trip header records (as dicts) from JSONL."""
    path = Path(path)
    out = []
    with path.open() as f:
        for line in f:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
