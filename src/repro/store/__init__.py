"""Sharded, content-addressed artefact store behind ``repro study``.

The store makes study reruns incremental: inputs are sharded by
(city, day), each shard's stage outputs are persisted under a content
key, and a rerun recomputes only the shards whose key changed.

* :class:`~repro.store.shards.ShardStore` — the on-disk artefact store
  (atomic writes, mmap reads, corrupt-artefact recovery, LRU ``gc``);
* :mod:`repro.store.cachekey` — content keys chaining shard input bytes,
  the per-stage :class:`~repro.experiments.study.StudyConfig` slice and
  the source-tree code version;
* :class:`~repro.store.planner.StudyPlanner` (imported directly, not
  re-exported — it pulls in the pipeline stages) — recomputes only dirty
  shards and merges hits and recomputes into byte-identical artefacts.

The map data the paper keeps in PostGIS lives in
:class:`~repro.roadnet.digiroad.MapDatabase`, not here.
"""

from repro.store.cachekey import (
    EXCLUDED_FIELDS,
    STAGE_FIELDS,
    STAGES,
    canonical,
    chain_key,
    code_version,
    config_key,
    shard_input_hash,
)
from repro.store.shards import ShardArtefact, ShardStore, StoreConfig, StoreError

__all__ = [
    "EXCLUDED_FIELDS",
    "STAGES",
    "STAGE_FIELDS",
    "ShardArtefact",
    "ShardStore",
    "StoreConfig",
    "StoreError",
    "canonical",
    "chain_key",
    "code_version",
    "config_key",
    "shard_input_hash",
]
