"""The match task unit shared by the serial path and pool workers.

The executor ships these across process boundaries, so everything here is
plain picklable data plus pure functions over it.  The serial study runs
the *same* :func:`match_task` inline — one code path, two schedulers —
which is what makes serial/parallel byte-identity a structural property
rather than a test-enforced hope.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from repro.faults import RobustnessConfig, TripError, guarded_call, maybe_inject
from repro.matching.types import MatchedRoute
from repro.obs import get_registry, span
from repro.od import Gate, TransitionConfig, endpoints_near_gates
from repro.traces.model import RoutePoint

#: Route-provenance counters, in reporting priority order: the per-task
#: delta of each classifies where the task's routing answers came from
#: (the ``route_source`` field of :class:`MatchOutcome`): a shortest-path
#: tree already on the graph, or one the task built.
_ROUTE_SOURCE_COUNTERS = (
    ("cache", "routing.route_cache_hits"),
    ("dijkstra", "routing.dijkstra_calls"),
)


@dataclass(frozen=True)
class MatchTask:
    """One transition to map-match: funnel stage 5's unit of work.

    Carries only the data a worker needs (the points and identity of the
    transition), not the orchestrator's ``Transition`` object — workers
    report back by ``index``.
    """

    index: int
    points: tuple[RoutePoint, ...]
    segment_id: int
    car_id: int
    origin: str
    destination: str

    @classmethod
    def from_transition(cls, index: int, transition) -> MatchTask:
        """The task for ``transition``, the ``index``-th of its run."""
        return cls(
            index=index,
            points=tuple(transition.points()),
            segment_id=transition.segment.segment_id,
            car_id=transition.segment.car_id,
            origin=transition.origin,
            destination=transition.destination,
        )


@dataclass
class MatchOutcome:
    """What matching one transition produced.

    ``route`` is ``None`` when no point found a candidate or the edge
    sequence came back empty (off-network data); ``kept`` is the stage 5
    post-filter verdict, always ``False`` without a route.  ``error`` is
    set when the transition was quarantined by the degradation guard
    (the orchestrator folds it into the run's ``errors.jsonl``).
    """

    index: int
    route: MatchedRoute | None
    kept: bool
    error: TripError | None = None
    #: Wall time this task took on whichever process ran it — worker
    #: facts travel home on the outcome so orchestrator-side lineage is
    #: identical for serial and parallel runs.
    elapsed_s: float = 0.0
    #: Where routing answers came from: ``"cache"`` (a memoised
    #: shortest-path tree) / ``"dijkstra"`` (a tree built for this task),
    #: joined with ``+`` when mixed, ``"none"`` when no shortest-path
    #: query was needed.
    route_source: str = "none"


def match_task(
    matcher,
    to_xy,
    gates_by_name: dict[str, Gate],
    config: TransitionConfig | None,
    task: MatchTask,
    robustness: RobustnessConfig | None = None,
) -> MatchOutcome:
    """Match one transition and post-filter it (funnel stage 5).

    Deterministic given the matcher's graph and configs, so any worker —
    or the orchestrator itself — computes the same outcome.  With
    ``robustness`` set, a raising transition (including injected match
    faults and routing timeouts bubbling up from gap-fill) is retried if
    transient and otherwise returned as a quarantined outcome rather
    than propagating.
    """

    def attempt() -> MatchOutcome:
        maybe_inject("match", task.index)
        route = matcher.match(list(task.points), to_xy, task.segment_id, task.car_id)
        if route is None or not route.edge_sequence:
            return MatchOutcome(index=task.index, route=None, kept=False)
        kept = endpoints_near_gates(
            gates_by_name[task.origin],
            gates_by_name[task.destination],
            route.matched[0].snapped_xy,
            route.matched[-1].snapped_xy,
            config,
        )
        return MatchOutcome(index=task.index, route=route, kept=kept)

    registry = get_registry()
    before = [registry.counter(name).value for _, name in _ROUTE_SOURCE_COUNTERS]
    t0 = perf_counter()
    with span(
        "match_one",
        detail=True,
        attrs={"transition_index": task.index, "segment_id": task.segment_id},
    ):
        if robustness is None:
            outcome = attempt()
        else:
            outcome, error = guarded_call(
                "match",
                attempt,
                robustness=robustness,
                segment_id=task.segment_id,
                transition_index=task.index,
            )
            if error is not None:
                outcome = MatchOutcome(
                    index=task.index, route=None, kept=False, error=error
                )
    outcome.elapsed_s = perf_counter() - t0
    sources = [
        label
        for (label, name), start in zip(_ROUTE_SOURCE_COUNTERS, before)
        if registry.counter(name).value > start
    ]
    outcome.route_source = "+".join(sources) if sources else "none"
    return outcome


def study_gates(city) -> list[Gate]:
    """The study's OD gates for a (rebuilt) synthetic city.

    Shared by the orchestrator and worker initialisers so both sides
    derive identical gate geometry from the same :class:`CitySpec`.
    """
    return [
        Gate(name=name, road=road, half_width_m=city.spec.gate_half_width_m)
        for name, road in city.gate_roads.items()
    ]
