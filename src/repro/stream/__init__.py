"""Streaming micro-batch ingestion (``repro serve``).

Turns the batch study pipeline into a long-running service: route points
arrive in order, each taxi's open trip is buffered, and every closed
trip runs through the study's own stage functions and folds, so the
cleaning report, funnel and grid artefacts accumulate online with
bounded memory.  A replayed fleet produces artefacts byte-identical to
``repro study`` on the same input — enforced by the differential suites
in ``tests/test_stream_equivalence.py``.

* :mod:`repro.stream.sources` — replay / csv-tail / fifo row sources;
* :mod:`repro.stream.service` — the micro-batch service and its result;
* :mod:`repro.stream.checkpoint` — the one-file keyed checkpoint, each
  checkpoint encoding only what changed, and the resume path;
* :mod:`repro.stream.compare` — artefact fingerprints for the
  differential harness.
"""

from repro.stream.checkpoint import CheckpointStore, load_checkpoint
from repro.stream.compare import (
    artefact_fingerprint,
    stream_fingerprint,
    study_fingerprint,
)
from repro.stream.service import StreamConfig, StreamResult, StreamService
from repro.stream.sources import open_source, replay_rows, tail_rows

__all__ = [
    "CheckpointStore",
    "StreamConfig",
    "StreamResult",
    "StreamService",
    "artefact_fingerprint",
    "load_checkpoint",
    "open_source",
    "replay_rows",
    "stream_fingerprint",
    "study_fingerprint",
]
