"""Content-hash keys for the sharded study store.

Every artefact in :class:`~repro.store.shards.ShardStore` is addressed by
a blake2b key derived from three ingredients:

1. the **input shard bytes** — the raw route points of the shard's trips,
   hashed column-by-column (:func:`shard_input_hash`);
2. the **canonicalised study config** — the subset of
   :class:`~repro.experiments.study.StudyConfig` fields the producing
   stage actually depends on (:data:`STAGE_FIELDS`), rendered to
   canonical JSON (:func:`canonical`);
3. the **code version** — a hash over every ``repro`` source file
   (:func:`code_version`), so any code change is a full cache miss.

Stage keys chain (:func:`chain_key`): the ``extract`` key hashes the
``clean`` key, which hashes the input shard — a config change dirties a
stage and everything downstream of it, and nothing upstream.

Every ``StudyConfig`` field MUST appear either in :data:`STAGE_FIELDS`
or in :data:`EXCLUDED_FIELDS` (with a reason); ``tools/lint_cache_keys.py``
enforces this, so a newly added config knob cannot silently produce
stale cache hits.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from functools import lru_cache
from pathlib import Path

#: Bumped whenever the artefact layout or codecs change shape; part of
#: every key, so old stores simply miss instead of mis-decoding.
SCHEMA_VERSION = 1

#: The cached pipeline stages, in DAG order.
STAGES = ("clean", "extract", "match", "features")

#: Which ``StudyConfig`` fields each stage's key hashes.  A stage's key
#: also chains the previous stage's key, so fields only need to appear
#: at the first stage that consumes them — e.g. ``city`` first matters
#: when gate geometry enters at ``extract``.
STAGE_FIELDS: dict[str, tuple[str, ...]] = {
    "clean": ("robustness", "faults"),
    "extract": ("city", "transition"),
    "match": ("city", "transition", "matcher", "robustness", "faults"),
    # Chained off the match key, which already covers everything the
    # Table 4 route statistics depend on.
    "features": (),
}

#: ``StudyConfig`` fields that never enter a key, with the reason why.
#: The lint accepts a field here as covered; keep the reasons honest.
EXCLUDED_FIELDS: dict[str, str] = {
    "fleet": "captured by the input shard bytes every key already hashes",
    "executor": "worker count only; serial/parallel byte-identity is "
                "enforced by tests",
    "store": "where artefacts live, not what they contain",
    "grid": "consumed only by the orchestrator fold (grid replay, Table 5); "
            "no shard artefact depends on it",
}


def canonical(obj) -> object:
    """A JSON-serialisable canonical form of a config value.

    Dataclasses become sorted field dicts, dict keys are stringified and
    sorted at serialisation time, tuples become lists.  Floats pass
    through untouched — ``json.dumps`` renders the shortest round-trip
    repr, so distinct doubles always produce distinct key material.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.init
        }
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(
        f"cannot canonicalise {type(obj).__name__!r} for cache keying"
    )


def _hash_doc(doc: object) -> str:
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(payload.encode(), digest_size=20).hexdigest()


def config_key(config, stage: str) -> str:
    """Key material for one stage's slice of the study config."""
    doc = {
        "schema": SCHEMA_VERSION,
        "stage": stage,
        "fields": {
            name: canonical(getattr(config, name))
            for name in STAGE_FIELDS[stage]
        },
    }
    return _hash_doc(doc)


def city_key(config) -> str:
    """Short identity of the city spec — the shard label's city half."""
    return _hash_doc(canonical(config.city))


def shard_input_hash(trips) -> str:
    """Content hash of a shard's raw input trips.

    Hashes the columnar bytes of every route point (ids, coordinates,
    timestamps, speeds, fuel) plus the trip identities — exactly the
    data the pipeline consumes, so byte-identical inputs always hit and
    any edited fix is a miss.  The columns come from one
    :class:`~repro.traces.arrays.FleetArrays` per shard, hashed one
    trip's slice at a time.
    """
    from repro.traces.arrays import FleetArrays

    arrays = FleetArrays.from_trips(trips)
    columns = sorted(arrays.columns().items())
    bounds = arrays.offsets.tolist()
    h = hashlib.blake2b(digest_size=20)
    for trip, lo, hi in zip(trips, bounds, bounds[1:]):
        h.update(f"t|{trip.trip_id}|{trip.car_id}|{len(trip.points)}".encode())
        for name, column in columns:
            h.update(name.encode())
            h.update(column[lo:hi].tobytes())
    return h.hexdigest()


def chain_key(*parts: str) -> str:
    """Key of a stage artefact from its upstream key and config key."""
    h = hashlib.blake2b(digest_size=20)
    for part in parts:
        h.update(part.encode())
        h.update(b"|")
    return h.hexdigest()


@lru_cache(maxsize=1)
def _source_version() -> str:
    """blake2b over every ``repro`` source file (path + bytes)."""
    root = Path(__file__).resolve().parent.parent  # src/repro
    h = hashlib.blake2b(digest_size=20)
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def code_version() -> str:
    """The code-version ingredient of every cache key.

    Any change to a ``repro`` source file produces a new version — a
    coarse but safe invalidation (a full miss beats a stale hit).  The
    ``REPRO_CODE_VERSION`` environment variable overrides it, which is
    how tests and CI simulate version bumps without editing files.
    """
    override = os.environ.get("REPRO_CODE_VERSION")
    if override:
        return override
    return _source_version()
