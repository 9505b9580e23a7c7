"""Transition extraction and the Table 3 funnel.

A *transition* is the part of a trip segment between an origin-gate
crossing and a destination-gate crossing, for the four studied ordered
pairs (T-L, L-T, T-S, S-T).  The funnel stages mirror Table 3:

1. *trip segments (total)* — all cleaned segments;
2. *filtered and cleaned* — segments crossing at least one thick gate
   road within the angle window;
3. *transitions total* — segments forming one of the studied ordered
   pairs (first origin, then destination);
4. *within city centre* — transitions whose route stays inside the
   central area between the two crossings;
5. *post-filtered* — transitions whose matched start and end fixes lie
   close to the origin/destination roads (applied after map matching).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.cleaning.segmentation import TripSegment
from repro.geo.polygon import Polygon
from repro.obs import get_journal, get_logger, get_registry, span
from repro.od.gates import CrossingEvent, Gate, crossing_events

_log = get_logger(__name__)

#: The ordered OD pairs the paper studies.
STUDIED_PAIRS = (("T", "L"), ("L", "T"), ("T", "S"), ("S", "T"))


@dataclass(frozen=True)
class TransitionConfig:
    """Extraction parameters."""

    pairs: tuple[tuple[str, str], ...] = STUDIED_PAIRS
    post_filter_distance_m: float = 150.0

    def __post_init__(self) -> None:
        if self.post_filter_distance_m <= 0:
            raise ValueError("post_filter_distance_m must be positive")


@dataclass
class Transition:
    """One origin->destination transition of a trip segment."""

    segment: TripSegment
    origin: str
    destination: str
    origin_event: CrossingEvent
    destination_event: CrossingEvent
    within_centre: bool = False
    post_filtered_ok: bool | None = None  # set by the post-filter stage

    @property
    def direction(self) -> str:
        """The paper's direction label, e.g. ``"T-S"``."""
        return f"{self.origin}-{self.destination}"

    def point_slice(self) -> slice:
        """Indices of the segment's points that belong to the transition.

        Includes the fixes straddling both crossings.
        """
        return slice(self.origin_event.index, self.destination_event.index + 2)

    def points(self) -> list:
        return self.segment.points[self.point_slice()]


@dataclass(frozen=True)
class FunnelRow:
    """One car's row of Table 3."""

    car_id: int
    total_segments: int
    filtered_cleaned: int
    transitions_total: int
    within_centre: int
    post_filtered: int


@dataclass
class SegmentExtraction:
    """Funnel outcome of one trip segment — the extractor's unit of work.

    ``crossed`` means at least one gate crossing was found (funnel stage
    2); ``transition`` is set when a studied ordered pair was formed
    (stage 3), with ``within_centre`` already evaluated (stage 4).
    """

    car_id: int
    crossed: bool = False
    transition: Transition | None = None


#: Per-car funnel stages 1-4, each with its fleet-total counter.
_FUNNEL_STAGES = {
    "total": "od.segments_total",
    "filtered": "od.filtered_cleaned",
    "transitions": "od.transitions_total",
    "centre": "od.within_centre",
}


class FunnelFold:
    """Per-segment accounting behind Table 3's stages 1-4.

    The one fold behind :meth:`TransitionExtractor.extract` (a whole
    fleet's segments) and the streaming service (one closed trip's
    segments at a time).  Each :meth:`add` takes a segment's
    :class:`SegmentExtraction` as its caller computed it, counts it per
    car and emits the segment's lineage.
    """

    def __init__(self) -> None:
        self.per_car: dict[int, dict[str, int]] = {}

    def add(self, seg: TripSegment, extraction: SegmentExtraction) -> Transition | None:
        """Fold one segment; returns its transition when it stays within
        the centre (the ones that go on to map matching)."""
        stats = self.per_car.setdefault(
            extraction.car_id, dict.fromkeys(_FUNNEL_STAGES, 0)
        )
        stats["total"] += 1
        transition = extraction.transition
        journal = get_journal()
        if journal.enabled:
            # Funnel stages 2-4 provenance per segment: did it cross a
            # gate, which studied pair did it form, did it stay inside
            # the centre — folded in segment order, so the lineage
            # stream is identical for batch, stream and warm store runs.
            journal.emit(
                "lineage",
                unit="segment",
                segment_id=seg.segment_id,
                car_id=extraction.car_id,
                gate_crossed=extraction.crossed,
                direction=transition.direction if transition else None,
                within_centre=bool(transition.within_centre)
                if transition
                else False,
            )
        if not extraction.crossed:
            return None
        stats["filtered"] += 1
        if transition is None:
            return None
        stats["transitions"] += 1
        if not transition.within_centre:
            return None
        stats["centre"] += 1
        return transition

    def rows(self) -> list[FunnelRow]:
        """Table 3 rows per car; the post-filter column holds the
        within-centre count until the match fold refines it."""
        return [
            FunnelRow(
                car_id=car,
                total_segments=s["total"],
                filtered_cleaned=s["filtered"],
                transitions_total=s["transitions"],
                within_centre=s["centre"],
                post_filtered=s["centre"],
            )
            for car, s in sorted(self.per_car.items())
        ]

    def publish(self) -> dict[str, int]:
        """Add the fleet totals to the ``od.*`` counters; returns them."""
        totals = {
            name: sum(s[stage] for s in self.per_car.values())
            for stage, name in _FUNNEL_STAGES.items()
        }
        registry = get_registry()
        for name, value in totals.items():
            registry.counter(name).inc(value)
        return totals

    def to_payload(self) -> dict:
        return {"per_car": [[car, stats] for car, stats in self.per_car.items()]}

    def restore(self, payload: dict) -> None:
        self.per_car = {car: dict(stats) for car, stats in payload["per_car"]}


@dataclass
class ExtractionResult:
    """Everything the extractor produces for a fleet."""

    transitions: list[Transition] = field(default_factory=list)
    funnel: list[FunnelRow] = field(default_factory=list)

    def by_direction(self) -> dict[str, list[Transition]]:
        out: dict[str, list[Transition]] = {}
        for t in self.transitions:
            out.setdefault(t.direction, []).append(t)
        return out


class TransitionExtractor:
    """Runs the funnel stages 1-4 (stage 5 needs matched routes)."""

    def __init__(
        self,
        gates: list[Gate],
        central_area: Polygon,
        config: TransitionConfig | None = None,
    ) -> None:
        self.gates = gates
        self.gates_by_name = {g.name: g for g in gates}
        self.central_area = central_area
        self.config = config or TransitionConfig()

    def extract_segment(self, seg: TripSegment, to_xy) -> SegmentExtraction:
        """Run funnel stages 2-4 on one segment — the one-segment form of
        :meth:`compute_units`, timed by an ``extract_segment`` detail
        span (the streaming service's unit)."""
        with span(
            "extract_segment", detail=True, attrs={"segment_id": seg.segment_id}
        ):
            return self.compute_units([seg], to_xy)[0]

    def compute_units(
        self, segments: list[TripSegment], to_xy
    ) -> list[SegmentExtraction]:
        """Run funnel stages 2-4 on a batch of segments, aligned with ``segments``.

        The compute half of :meth:`extract`, factored out so the shard
        store planner can run it over only the dirty segments and pass
        the folded whole back through ``extractions``.  Every point goes
        through ``to_xy`` once, into one ``(n, 2)`` array; the gate
        prefilter then runs over all of the batch's movements at once
        (:func:`~repro.od.gates.crossing_events`).  A batch records no
        per-segment detail spans.
        """
        points = [p for seg in segments for p in seg.points]
        xy = np.fromiter(
            chain.from_iterable(map(to_xy, points)),
            dtype=np.float64,
            count=2 * len(points),
        ).reshape(-1, 2)
        times = [p.time_s for p in points]
        offsets = [0]
        for seg in segments:
            offsets.append(offsets[-1] + len(seg.points))
        events = crossing_events(xy, times, offsets, self.gates)
        out = []
        for seg, seg_events, lo, hi in zip(segments, events, offsets, offsets[1:]):
            if not seg_events:
                out.append(SegmentExtraction(car_id=seg.car_id))
                continue
            transition = self._first_studied_pair(seg, seg_events)
            if transition is None:
                out.append(SegmentExtraction(car_id=seg.car_id, crossed=True))
                continue
            transition.within_centre = self._within_centre(transition, xy[lo:hi].tolist())
            out.append(
                SegmentExtraction(car_id=seg.car_id, crossed=True, transition=transition)
            )
        return out

    def extract(
        self,
        segments: list[TripSegment],
        to_xy,
        extractions: list[SegmentExtraction] | None = None,
    ) -> ExtractionResult:
        """Extract transitions from cleaned segments.

        ``to_xy`` converts a route point to plane coordinates.  The
        segments go through one :class:`FunnelFold`; its rows leave the
        post-filter column at the within-centre count until the match
        fold refines it (:meth:`repro.experiments.study.MatchFold.funnel`).

        ``extractions`` optionally supplies precomputed outcomes aligned
        with ``segments`` (the shard store's delta path) — the funnel fold
        is identical either way.
        """
        if extractions is None:
            extractions = self.compute_units(segments, to_xy)
        fold = FunnelFold()
        transitions = [
            transition
            for transition in map(fold.add, segments, extractions)
            if transition is not None
        ]
        funnel = fold.rows()
        totals = fold.publish()
        _log.info(
            "transition extraction complete",
            extra={**{k.split(".")[1]: v for k, v in totals.items()},
                   "cars": len(funnel)},
        )
        return ExtractionResult(transitions=transitions, funnel=funnel)

    def _first_studied_pair(
        self, seg: TripSegment, events: list[CrossingEvent]
    ) -> Transition | None:
        """First ordered studied pair among the crossing events."""
        for i, origin in enumerate(events):
            for destination in events[i + 1:]:
                if destination.gate == origin.gate:
                    continue
                if (origin.gate, destination.gate) in self.config.pairs:
                    return Transition(
                        segment=seg,
                        origin=origin.gate,
                        destination=destination.gate,
                        origin_event=origin,
                        destination_event=destination,
                    )
        return None

    def _within_centre(self, transition: Transition, xys: list) -> bool:
        """All fixes strictly between the crossings are inside the centre."""
        i0 = transition.origin_event.index + 1
        i1 = transition.destination_event.index + 1
        return all(self.central_area.contains(xys[i]) for i in range(i0, i1))


def endpoints_near_gates(
    origin_gate: Gate,
    dest_gate: Gate,
    matched_start_xy,
    matched_end_xy,
    config: TransitionConfig | None = None,
) -> bool:
    """Stage 5 predicate: matched endpoints lie near the OD roads.

    Pure (no Transition mutation) so map-matching workers can evaluate it
    without holding the orchestrator's transition objects; the kept/
    rejected counters go to the ambient registry.
    """
    config = config or TransitionConfig()
    d0 = origin_gate.distance_to(matched_start_xy)
    d1 = dest_gate.distance_to(matched_end_xy)
    ok = (
        d0 <= origin_gate.half_width_m + config.post_filter_distance_m
        and d1 <= dest_gate.half_width_m + config.post_filter_distance_m
    )
    get_registry().counter(
        "od.post_filter_kept" if ok else "od.post_filter_rejected"
    ).inc()
    return ok


def post_filter_transition(
    transition: Transition,
    matched_start_xy,
    matched_end_xy,
    gates_by_name: dict[str, Gate],
    config: TransitionConfig | None = None,
) -> bool:
    """Stage 5: matched endpoints must lie near the OD roads.

    The paper map-matches the within-centre transitions and keeps those
    whose start and end route points are close to the origin/destination
    roads.  Sparse event sampling means the first fix after a crossing can
    be far from the gate; such transitions are discarded.
    """
    ok = endpoints_near_gates(
        gates_by_name[transition.origin],
        gates_by_name[transition.destination],
        matched_start_xy,
        matched_end_xy,
        config,
    )
    transition.post_filtered_ok = ok
    return ok
