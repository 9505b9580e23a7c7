"""Checkpoint persistence for the streaming service.

A checkpoint is one JSON payload — ingest counters, open and pending
trip buffers, window partials, the error ledger and each fold's own
payload — persisted content-addressed through the shard store: the
payload's canonical-JSON hash is the artefact key, so identical states
dedupe and a torn write can never be mistaken for a valid checkpoint.
A small ``CHECKPOINT`` pointer file (written atomically via tmp+rename)
names the latest key; resume reads the pointer, loads the artefact, and
the service skips every ingested row below ``rows_ingested``.

Floats survive exactly: canonical JSON uses Python ``repr`` floats both
ways, and the match fold stores each matched speed once, in add order,
so a resumed Welford fold replays to bit-identical partials.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.obs import get_journal, get_registry
from repro.store.shards import ShardStore

#: Payload layout version; resume rejects anything else loudly.
CHECKPOINT_SCHEMA_VERSION = 2

#: Name of the latest-checkpoint pointer file inside the checkpoint dir.
POINTER_NAME = "CHECKPOINT"


def _canonical(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()


class CheckpointStore:
    """Content-addressed checkpoints in one directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.store = ShardStore(self.root)

    def write(self, payload: dict) -> str:
        """Persist one checkpoint payload; returns its content key."""
        payload = dict(payload)
        payload["checkpoint_schema"] = CHECKPOINT_SCHEMA_VERSION
        blob = _canonical(payload)
        key = hashlib.blake2b(blob, digest_size=16).hexdigest()
        seq = payload.get("checkpoint_seq", 0)
        self.store.put(
            key,
            stage="stream_checkpoint",
            shard=f"ckpt-{seq}",
            meta=payload,
            columns={},
        )
        pointer = {
            "key": key,
            "checkpoint_seq": seq,
            "rows_ingested": payload.get("rows_ingested", 0),
        }
        tmp = self.root / f"{POINTER_NAME}.tmp-{os.getpid()}"
        tmp.write_text(json.dumps(pointer, sort_keys=True) + "\n")
        tmp.rename(self.root / POINTER_NAME)
        registry = get_registry()
        registry.counter("stream.checkpoints").inc()
        journal = get_journal()
        if journal.enabled:
            journal.emit(
                "stream.checkpoint",
                key=key,
                checkpoint_seq=seq,
                rows_ingested=pointer["rows_ingested"],
                bytes=len(blob),
            )
        return key

    def latest(self) -> dict | None:
        """The newest checkpoint payload, or ``None`` when absent/corrupt.

        A missing artefact behind a valid pointer (e.g. the store was
        garbage-collected) reads as "no checkpoint" — the service then
        starts from scratch, which is always safe.
        """
        pointer_path = self.root / POINTER_NAME
        if not pointer_path.exists():
            return None
        try:
            pointer = json.loads(pointer_path.read_text())
            key = pointer["key"]
        except (ValueError, KeyError):
            return None
        artefact = self.store.get(key, stage="stream_checkpoint")
        if artefact is None:
            return None
        payload = artefact.meta
        if payload.get("checkpoint_schema") != CHECKPOINT_SCHEMA_VERSION:
            raise ValueError(
                f"checkpoint schema {payload.get('checkpoint_schema')!r} != "
                f"{CHECKPOINT_SCHEMA_VERSION} (incompatible checkpoint dir)"
            )
        return payload


def load_checkpoint(root: str | Path) -> dict | None:
    """The latest payload under ``root`` (None when fresh).

    A fresh ``root`` is left as it was: no store directory is created.
    """
    if not (Path(root) / POINTER_NAME).exists():
        return None
    return CheckpointStore(root).latest()
