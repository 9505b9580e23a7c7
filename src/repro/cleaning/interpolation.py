"""Gap restoration by linear interpolation.

Jiang et al. [17] (the paper's related work on sensor-data errors)
restore lost traffic data with linear interpolation; the analogue for
trajectories is filling long gaps between route points with straight-line
interpolated fixes, so downstream per-point analyses (the 200 m grid)
are not starved where the device dropped points.  Interpolated points are
flagged by a dedicated id range so they can be excluded where raw
measurements are required.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geo.distance import haversine_m
from repro.traces.model import RoutePoint

#: Interpolated points get ids offset by this, keeping them recognisable.
INTERPOLATED_ID_BASE = 10_000_000


@dataclass(frozen=True)
class InterpolationConfig:
    """When and how densely to fill gaps."""

    max_gap_s: float = 60.0        # gaps longer than this get filled
    target_spacing_s: float = 30.0  # one synthetic fix per this interval
    max_gap_fill_s: float = 600.0  # do not invent data across real stops

    def __post_init__(self) -> None:
        if self.target_spacing_s <= 0 or self.max_gap_s <= 0:
            raise ValueError("spacings must be positive")
        if self.max_gap_s < self.target_spacing_s:
            raise ValueError("max_gap_s must be at least target_spacing_s")


def is_interpolated(point: RoutePoint) -> bool:
    """Was this point synthesised by :func:`interpolate_gaps`?"""
    return point.point_id >= INTERPOLATED_ID_BASE


def interpolate_gaps(
    points: list[RoutePoint], config: InterpolationConfig | None = None
) -> tuple[list[RoutePoint], int]:
    """Fill long time gaps with linearly interpolated fixes.

    Returns ``(points_with_fills, n_added)``.  Gaps longer than
    ``max_gap_fill_s`` are left untouched (they are genuine stops, not
    transmission losses), as are gaps where the vehicle did not move.
    """
    config = config or InterpolationConfig()
    if len(points) < 2:
        return list(points), 0
    out: list[RoutePoint] = [points[0]]
    added = 0
    next_id = INTERPOLATED_ID_BASE
    for a, b in zip(points, points[1:]):
        gap = b.time_s - a.time_s
        moved = haversine_m(a.lat, a.lon, b.lat, b.lon)
        if config.max_gap_s < gap <= config.max_gap_fill_s and moved > 50.0:
            n_fill = int(gap // config.target_spacing_s)
            for k in range(1, n_fill + 1):
                t = k / (n_fill + 1)
                out.append(
                    RoutePoint(
                        point_id=next_id,
                        trip_id=a.trip_id,
                        lat=a.lat + t * (b.lat - a.lat),
                        lon=a.lon + t * (b.lon - a.lon),
                        time_s=a.time_s + t * gap,
                        speed_kmh=a.speed_kmh + t * (b.speed_kmh - a.speed_kmh),
                        fuel_ml=a.fuel_ml + t * (b.fuel_ml - a.fuel_ml),
                    )
                )
                next_id += 1
                added += 1
        out.append(b)
    return out, added


def strip_interpolated(points: list[RoutePoint]) -> list[RoutePoint]:
    """Remove synthetic fixes, recovering the raw measurement sequence."""
    return [p for p in points if not is_interpolated(p)]
