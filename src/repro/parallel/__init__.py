"""Pooled map-matching.

The paper's pipeline is per trip: clean, segment, gate-check, then
map-match with Dijkstra gap fill.  Only matching does enough work per
unit to pay for shipping it to another process, so it is the pool's one
task kind; cleaning and gate extraction run serially as one batch.

* :mod:`repro.parallel.executor` — :class:`TripExecutor`, a chunked
  :class:`~concurrent.futures.ProcessPoolExecutor` fan-out whose workers
  build the road network / spatial index / route cache once each;
* :mod:`repro.parallel.worker` — the worker-process context and chunk
  runner (returns results plus a chunk-local metrics registry);
* :mod:`repro.parallel.tasks` — the picklable :class:`MatchTask` unit
  and :func:`match_task`, the one function serial and pooled runs share.

Results are byte-identical to serial execution for any worker count:
outputs are re-ordered by input position and worker metrics merge in
chunk order (see ``docs/performance.md``).
"""

from repro.parallel.executor import ExecutorConfig, TripExecutor
from repro.parallel.tasks import MatchOutcome, MatchTask, match_task, study_gates
from repro.parallel.worker import WorkerContext, WorkerPayload, init_worker, run_chunk

__all__ = [
    "ExecutorConfig",
    "MatchOutcome",
    "MatchTask",
    "TripExecutor",
    "WorkerContext",
    "WorkerPayload",
    "init_worker",
    "match_task",
    "run_chunk",
    "study_gates",
]
