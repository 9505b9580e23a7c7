"""Route-frequency analysis and route recommendation.

Li et al. [18] mine how frequently taxis drive different routes between
the same endpoints; the paper's conclusions see "personalised route
recommendation" as the application of its map-context pipeline.  This
module canonicalises matched routes into edge-sequence signatures, counts
route variants per OD direction, and recommends the variant with the best
observed travel time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.matching.types import MatchedRoute
from repro.od.transitions import Transition

RouteSignature = tuple[int, ...]


@dataclass(frozen=True)
class RouteVariant:
    """One distinct route between an OD pair."""

    direction: str
    signature: RouteSignature
    count: int
    share: float
    mean_time_s: float
    best_time_s: float


@dataclass(frozen=True)
class DirectionProfile:
    """All observed route variants of one direction."""

    direction: str
    n_trips: int
    variants: tuple[RouteVariant, ...]

    @property
    def n_variants(self) -> int:
        return len(self.variants)

    @property
    def diversity(self) -> float:
        """Effective number of routes (inverse Simpson index).

        1.0 means everyone drives the same route; the paper's drivers
        "freely selected the routes", so values above 1 are expected.
        """
        if not self.variants:
            return 0.0
        return 1.0 / sum(v.share**2 for v in self.variants)

    def most_frequent(self) -> RouteVariant:
        return max(self.variants, key=lambda v: v.count)

    def fastest(self) -> RouteVariant:
        """The recommendation: the variant with the best mean time."""
        return min(self.variants, key=lambda v: v.mean_time_s)


def route_signature(route: MatchedRoute) -> RouteSignature:
    """Canonical signature: the ordered edge-id sequence, deduplicated of
    immediate repeats (matching noise can re-enter an edge)."""
    out: list[int] = []
    for edge_id in route.edge_ids:
        if not out or out[-1] != edge_id:
            out.append(edge_id)
    return tuple(out)


def build_direction_profiles(
    pairs: list[tuple[Transition, MatchedRoute]],
) -> dict[str, DirectionProfile]:
    """Group matched transitions into per-direction route profiles."""
    grouped: dict[str, dict[RouteSignature, list[float]]] = {}
    for transition, route in pairs:
        signature = route_signature(route)
        duration = route.end_time_s - route.start_time_s
        grouped.setdefault(transition.direction, {}).setdefault(
            signature, []
        ).append(duration)
    profiles: dict[str, DirectionProfile] = {}
    for direction, variants in grouped.items():
        n_trips = sum(len(times) for times in variants.values())
        rows = []
        for signature, times in variants.items():
            rows.append(
                RouteVariant(
                    direction=direction,
                    signature=signature,
                    count=len(times),
                    share=len(times) / n_trips,
                    mean_time_s=sum(times) / len(times),
                    best_time_s=min(times),
                )
            )
        rows.sort(key=lambda v: -v.count)
        profiles[direction] = DirectionProfile(
            direction=direction, n_trips=n_trips, variants=tuple(rows)
        )
    return profiles


def overlap_fraction(a: RouteSignature, b: RouteSignature) -> float:
    """Shared-edge fraction of two routes (Jaccard on edge sets)."""
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


@dataclass(frozen=True)
class DirectionDetour:
    """How far one direction's observed routes stray from the shortest.

    ``shortest_m`` is the gate-to-gate network distance from a
    :class:`~repro.analysis.odflows.GateDistanceMatrix`; ``typical_m``
    and ``fastest_m`` are the driven lengths of the direction's most
    frequent and recommended (fastest mean time) variants.
    """

    direction: str
    shortest_m: float
    typical_m: float
    fastest_m: float

    @property
    def typical_detour(self) -> float:
        """Driven/shortest length ratio of the most frequent variant."""
        return self.typical_m / self.shortest_m if self.shortest_m else 1.0


def route_length_m(graph, signature: RouteSignature) -> float:
    """Driven length of a route signature (sum of edge lengths)."""
    return sum(graph.edge(edge_id).length for edge_id in signature)


def direction_detours(
    graph,
    profiles: dict[str, DirectionProfile],
    matrix,
) -> dict[str, DirectionDetour]:
    """Detour statistics per direction against one gate-to-gate matrix.

    ``matrix`` is a :class:`~repro.analysis.odflows.GateDistanceMatrix`
    (built once, from a single batched query) keyed by the same gate
    names the direction labels are made of; directions whose gates are
    not in the matrix — or with no finite shortest distance — are
    skipped.
    """
    out: dict[str, DirectionDetour] = {}
    for direction, profile in sorted(profiles.items()):
        if not profile.variants:
            continue
        try:
            shortest = matrix.direction_distance(direction)
        except (KeyError, ValueError):
            continue
        if shortest == float("inf"):
            continue
        out[direction] = DirectionDetour(
            direction=direction,
            shortest_m=shortest,
            typical_m=route_length_m(graph, profile.most_frequent().signature),
            fastest_m=route_length_m(graph, profile.fastest().signature),
        )
    return out
