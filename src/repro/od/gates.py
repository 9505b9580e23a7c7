"""Gate roads and crossing detection.

A :class:`Gate` is a road segment at a key entry/exit point of the study
area, artificially thickened ("thick geometry") so that routes deviating
from the exact road are still caught.  A crossing is a movement between
two consecutive route points that passes through the thick region at an
angle within the configured window (the paper only keeps crossings "on an
angle within a predefined range").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo.geometry import LineString, Point
from repro.geo.polygon import ThickLine
from repro.obs import get_registry


@dataclass(frozen=True)
class Gate:
    """One thickened origin/destination road."""

    name: str
    road: LineString
    half_width_m: float = 60.0
    min_angle_deg: float = 45.0
    max_angle_deg: float = 90.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "_thick", ThickLine(self.road, self.half_width_m))
        object.__setattr__(self, "_bounds", self._thick.bounds())

    @property
    def thick(self) -> ThickLine:
        return self._thick

    def crossed_by(self, a: Point, b: Point) -> bool:
        """Does movement a->b cross this gate within the angle window?"""
        x0, y0, x1, y1 = self._bounds
        if max(a[0], b[0]) < x0 or min(a[0], b[0]) > x1:
            return False
        if max(a[1], b[1]) < y0 or min(a[1], b[1]) > y1:
            return False
        return self._thick.crossed_by(
            a, b, min_angle_deg=self.min_angle_deg, max_angle_deg=self.max_angle_deg
        )

    def distance_to(self, p: Point) -> float:
        """Distance from ``p`` to the gate road axis."""
        return self.road.distance_to(p)


@dataclass(frozen=True)
class CrossingEvent:
    """One detected gate crossing of a trip segment."""

    gate: str
    index: int        # crossing happened between points[index] and [index+1]
    time_s: float     # timestamp of the fix before the crossing


def find_crossings(
    xys: list[Point],
    times: list[float],
    gates: list[Gate],
) -> list[CrossingEvent]:
    """All gate crossings of a point sequence, in time order.

    Consecutive hits of the same gate are collapsed into the first one, so
    a slow passage (several fixes inside the thick region) counts once.

    The bounding-box prefilter of every gate runs as one array comparison
    over the segment-endpoint columns (built once for all gates); only the
    few surviving movements pay for the exact thick-line test.  The bbox
    test is the same comparison :meth:`Gate.crossed_by` short-circuits on.
    """
    events: list[CrossingEvent] = []
    if len(xys) >= 2 and gates:
        xy = np.asarray(xys, dtype=np.float64)
        ax, ay = xy[:-1, 0], xy[:-1, 1]
        bx, by = xy[1:, 0], xy[1:, 1]
        seg_xmin = np.minimum(ax, bx)
        seg_xmax = np.maximum(ax, bx)
        seg_ymin = np.minimum(ay, by)
        seg_ymax = np.maximum(ay, by)
        for gate in gates:
            x0, y0, x1, y1 = gate._bounds
            mask = (
                (seg_xmax >= x0) & (seg_xmin <= x1)
                & (seg_ymax >= y0) & (seg_ymin <= y1)
            )
            last_hit = -10
            for i in map(int, np.flatnonzero(mask)):
                if gate._thick.crossed_by(
                    xys[i], xys[i + 1],
                    min_angle_deg=gate.min_angle_deg,
                    max_angle_deg=gate.max_angle_deg,
                ):
                    if i - last_hit > 1:
                        events.append(
                            CrossingEvent(gate=gate.name, index=i, time_s=times[i])
                        )
                    last_hit = i
    events.sort(key=lambda e: (e.time_s, e.index))
    if events:
        get_registry().counter("od.crossings_detected").inc(len(events))
    return events
