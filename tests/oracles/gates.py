"""Scalar reference for gate-crossing detection.

Tests every movement against every gate through :meth:`Gate.crossed_by`
(bounding-box short-circuit, then the exact thick-line test); the
production :func:`repro.od.gates.find_crossings` runs the bounding-box
test as one array comparison per gate instead.
"""

from __future__ import annotations

from repro.geo.geometry import Point
from repro.obs import get_registry
from repro.od.gates import CrossingEvent, Gate


def find_crossings(
    xys: list[Point],
    times: list[float],
    gates: list[Gate],
) -> list[CrossingEvent]:
    """All gate crossings of a point sequence, in time order."""
    events: list[CrossingEvent] = []
    for gate in gates:
        last_hit = -10
        for i in range(len(xys) - 1):
            if gate.crossed_by(xys[i], xys[i + 1]):
                if i - last_hit > 1:
                    events.append(
                        CrossingEvent(gate=gate.name, index=i, time_s=times[i])
                    )
                last_hit = i
    events.sort(key=lambda e: (e.time_s, e.index))
    if events:
        get_registry().counter("od.crossings_detected").inc(len(events))
    return events
