"""Checkpoint persistence for the streaming service.

A checkpoint is one canonical-JSON body — ingest counters, open and
pending trip buffers, window partials, the error ledger and each fold's
own payload — kept in one file, ``CHECKPOINT``: a header line holding
the body's blake2b key, then the body.  Each write goes to a temp file
that is renamed over the previous checkpoint, so the directory holds
exactly one checkpoint, and a file that fails its key check (a torn or
corrupt write) reads as a fresh start; resume loads the body, and the
service skips every ingested row below ``rows_ingested``.

A checkpoint costs what changed since the previous one.  The lists that
only grow — a trip's fixes, the error ledger, the match fold's kept
routes, speeds and cells — are :class:`JsonList` sections, which encode
each item once and splice their cached text into every later body.  The
body is byte-identical to ``json.dumps(payload, sort_keys=True,
separators=(",", ":"))`` of the same state as plain JSON values.

Floats survive exactly: canonical JSON uses Python ``repr`` floats both
ways, and the match fold stores each matched speed once, in add order,
so a resumed Welford fold replays to bit-identical partials.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, is_dataclass
from pathlib import Path

from repro.obs import get_journal, get_logger, get_registry

_log = get_logger(__name__)

#: Body layout version; resume rejects anything else loudly.  Schema 3
#: keeps the body in one keyed file; schemas 1 and 2 kept a pointer file
#: naming a shard-store object.
CHECKPOINT_SCHEMA_VERSION = 3

#: Name of the checkpoint file inside the checkpoint dir.
CHECKPOINT_NAME = "CHECKPOINT"


def _fields(value):
    """The encoder's fallback: a dataclass is the dict of its fields."""
    if is_dataclass(value) and not isinstance(value, type):
        return asdict(value)
    raise TypeError(f"{type(value).__name__} is not JSON serialisable")


#: Canonical JSON: sorted keys, no spaces, ``repr`` floats.
_encode = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=_fields
).encode


class JsonList:
    """Canonical JSON of a list that only grows, each item encoded once.

    ``items`` is the live list; ``item`` maps one item to its JSON value
    (default: the item itself, a dataclass as its fields).  :meth:`json`
    encodes the items appended since its previous call and returns the
    whole list's text.  The list must change only by appending.
    """

    __slots__ = ("items", "item", "_text", "_count")

    def __init__(self, items: list, item=None) -> None:
        self.items = items
        self.item = item
        self._text = "[]"
        self._count = 0

    def json(self) -> str:
        count = len(self.items)
        if count > self._count:
            new = self.items[self._count:]
            if self.item is not None:
                new = list(map(self.item, new))
            text = _encode(new)[1:-1]
            self._text = f"{self._text[:-1]},{text}]" if self._count else f"[{text}]"
            self._count = count
        return self._text


class JsonObject(dict):
    """A payload dict whose fragments keep their cached text.

    Spliced key by key: a fragment (a :class:`JsonList`, or anything
    with a ``json()`` method returning canonical JSON) and a list of
    fragments contribute their own text; any other value, a plain dict
    included, is encoded whole.
    """

    def json(self) -> str:
        return "{" + ",".join(
            f"{_encode(key)}:{_json(value)}" for key, value in sorted(self.items())
        ) + "}"


def _json(value) -> str:
    encoded = getattr(value, "json", None)
    if encoded is not None:
        return encoded()
    if type(value) is list and value and hasattr(value[0], "json"):
        # A list of fragments (the trip buffers).
        return "[" + ",".join(item.json() for item in value) + "]"
    return _encode(value)


def _key(body: bytes) -> bytes:
    return hashlib.blake2b(body, digest_size=16).hexdigest().encode()


class CheckpointStore:
    """The latest checkpoint of one directory, in one keyed file."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.path = self.root / CHECKPOINT_NAME
        #: Where a write goes before its rename; one fixed name, so the
        #: next write replaces whatever a killed one left.
        self.tmp = self.root / f"{CHECKPOINT_NAME}.tmp"

    def write(self, sections: dict) -> str:
        """Persist one checkpoint over the previous one; returns its key.

        ``sections`` is the payload; fragments in it (see
        :class:`JsonObject`) contribute their cached text.
        """
        body = JsonObject(
            sections, checkpoint_schema=CHECKPOINT_SCHEMA_VERSION
        ).json().encode()
        key = _key(body)
        self.root.mkdir(parents=True, exist_ok=True)
        with self.tmp.open("wb") as f:
            f.write(key + b"\n")
            f.write(body)
        self.tmp.replace(self.path)
        registry = get_registry()
        registry.counter("stream.checkpoints").inc()
        registry.counter("stream.checkpoint_bytes").inc(len(key) + 1 + len(body))
        journal = get_journal()
        if journal.enabled:
            journal.emit(
                "stream.checkpoint",
                key=key.decode(),
                checkpoint_seq=sections.get("checkpoint_seq", 0),
                rows_ingested=sections.get("rows_ingested", 0),
                bytes=len(body),
            )
        return key.decode()

    def latest(self) -> dict | None:
        """The checkpoint's payload, or ``None`` when there is none.

        A file that fails its key check (a torn or corrupt write), and a
        temp file a killed write left behind, is removed with a WARNING
        and counted in ``stream.checkpoint_corrupt``: the service then
        starts from scratch, which is always safe.
        """
        if self.tmp.exists():
            self._discard(self.tmp, "interrupted checkpoint write")
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return None
        head, __, body = data.partition(b"\n")
        if head.startswith(b"{"):
            # Schemas 1 and 2 kept a JSON pointer file under this name.
            raise ValueError(
                f"checkpoint schema 2 or older != {CHECKPOINT_SCHEMA_VERSION} "
                "(incompatible checkpoint dir)"
            )
        if head != _key(body):
            self._discard(self.path, "checkpoint fails its key check")
            return None
        payload = json.loads(body)
        if payload.get("checkpoint_schema") != CHECKPOINT_SCHEMA_VERSION:
            raise ValueError(
                f"checkpoint schema {payload.get('checkpoint_schema')!r} != "
                f"{CHECKPOINT_SCHEMA_VERSION} (incompatible checkpoint dir)"
            )
        return payload

    def _discard(self, path: Path, reason: str) -> None:
        get_registry().counter("stream.checkpoint_corrupt").inc()
        _log.warning(
            "discarding corrupt checkpoint",
            extra={"path": str(path), "reason": reason},
        )
        path.unlink(missing_ok=True)


def load_checkpoint(root: str | Path) -> dict | None:
    """The latest payload under ``root`` (None when fresh).

    A fresh ``root`` is left as it was: no directory is created.
    """
    return CheckpointStore(root).latest()
