"""Whole-state reference for the streaming checkpoint body.

The service once rebuilt its full checkpoint payload as plain JSON
values at every checkpoint and encoded it in one ``json.dumps``;
:class:`repro.stream.checkpoint.CheckpointStore` now splices cached
fragments of the append-only lists instead.  These are the bodies it
replaced: :func:`checkpoint_payload` reads a service's state the old
way, and :func:`canonical` is the old encoding.  Every checkpoint body
must equal ``canonical(checkpoint_payload(service))`` byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import asdict

from repro.stream.checkpoint import CHECKPOINT_SCHEMA_VERSION
from repro.traces.io import _POINT_FIELDS


def canonical(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()


def trip_payload(trip) -> dict:
    return {
        "trip_id": trip.trip_id,
        "car_id": trip.car_id,
        "points": [[getattr(p, name) for name in _POINT_FIELDS] for p in trip.points],
        "last_event_s": trip.last_event_s,
    }


def match_payload(fold) -> dict:
    return {
        "transitions": fold.transitions,
        "kept": list(fold.kept),
        "post_per_car": [[car, n] for car, n in fold.post_per_car.items()],
        "route_stats": [asdict(s) for s in fold.route_stats],
        "speeds": list(fold.speeds),
        "cells": [list(key) for key in fold.cells],
    }


def checkpoint_payload(service) -> dict:
    """A :class:`~repro.stream.StreamService`'s state as its checkpoint
    payload of plain JSON values, schema field included."""
    return {
        "checkpoint_schema": CHECKPOINT_SCHEMA_VERSION,
        "fingerprint": service.config.fingerprint(),
        "checkpoint_seq": service._checkpoint_seq,
        "batch_seq": service._batch_seq,
        "rows_ingested": service._rows_ingested,
        "watermark": service._watermark
        if service._watermark != float("-inf") else None,
        "truncated": service._truncated,
        "max_opened": int(service._max_opened)
        if service._max_opened != float("-inf") else None,
        "damaged_trip_ids": sorted(service._damaged_trip_ids),
        "retired": sorted(service._retired),
        "dead": sorted(service._dead),
        "open": [trip_payload(service._open[t]) for t in sorted(service._open)],
        "pending": [
            trip_payload(service._pending[t]) for t in sorted(service._pending)
        ],
        "windows_open": [
            service._windows_open[i] for i in sorted(service._windows_open)
        ],
        "windows_closed": [
            service._windows_closed[i] for i in sorted(service._windows_closed)
        ],
        "errors": {
            name: [e.to_dict() for e in q.errors]
            for name, q in service._ledger.items()
        },
        "cleaning": service._cleaning.to_payload(),
        "funnel": service._funnel.to_payload(),
        "match": match_payload(service._match),
    }
