"""Point- and segment-level filters.

The paper filters "the most obvious errors" before analysis: duplicated
uploads, impossible coordinate jumps, and — at the segment level — trip
segments with fewer than five route points or longer than 30 km
(Sec. IV.C: "five measurements for the whole run may give poor
information"; "trips longer than 30 km are unlikely in the local
region").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geo.distance import haversine_m
from repro.traces.model import RoutePoint, trip_distance_m


@dataclass(frozen=True)
class FilterConfig:
    """Thresholds of the point/segment filters (paper defaults)."""

    max_implied_speed_mps: float = 38.0      # ~137 km/h, impossible downtown
    duplicate_epsilon_m: float = 1.0
    duplicate_epsilon_s: float = 0.5
    min_segment_points: int = 5              # Table 2 post-rule
    max_segment_length_m: float = 30_000.0   # Table 2 post-rule
    bounds: tuple[float, float, float, float] | None = None  # lat0, lon0, lat1, lon1

    def __post_init__(self) -> None:
        if self.max_implied_speed_mps <= 0:
            raise ValueError("max_implied_speed_mps must be positive")
        if self.min_segment_points < 2:
            raise ValueError("min_segment_points must be at least 2")


def drop_duplicates(points: list[RoutePoint], config: FilterConfig) -> list[RoutePoint]:
    """Remove consecutive duplicated fixes (same place, same instant)."""
    if not points:
        return []
    out = [points[0]]
    for p in points[1:]:
        prev = out[-1]
        same_time = abs(p.time_s - prev.time_s) <= config.duplicate_epsilon_s
        same_place = (
            haversine_m(p.lat, p.lon, prev.lat, prev.lon) <= config.duplicate_epsilon_m
        )
        if same_time and same_place:
            continue
        out.append(p)
    return out


def remove_position_outliers(
    points: list[RoutePoint], config: FilterConfig
) -> list[RoutePoint]:
    """Drop coordinate glitches by the implied-speed test.

    A point requiring an impossible speed to reach from the last accepted
    point is a glitch and is dropped.  The first point is trusted unless
    *it* is the glitch — detected by checking whether dropping it makes the
    second hop feasible while keeping it does not.
    """
    if len(points) < 3:
        return list(points)
    pts = list(points)
    # A glitched first point would poison the whole chain; check it first.
    v01 = _implied_speed(pts[0], pts[1])
    v02 = _implied_speed(pts[0], pts[2])
    v12 = _implied_speed(pts[1], pts[2])
    if v01 > config.max_implied_speed_mps and v02 > config.max_implied_speed_mps \
            and v12 <= config.max_implied_speed_mps:
        pts = pts[1:]
    out = [pts[0]]
    for p in pts[1:]:
        if _implied_speed(out[-1], p) <= config.max_implied_speed_mps:
            out.append(p)
    return out


def _implied_speed(a: RoutePoint, b: RoutePoint) -> float:
    dt = abs(b.time_s - a.time_s)
    d = haversine_m(a.lat, a.lon, b.lat, b.lon)
    if dt <= 0.0:
        return float("inf") if d > 1.0 else 0.0
    return d / dt


def within_bounds(points: list[RoutePoint], config: FilterConfig) -> list[RoutePoint]:
    """Drop points outside the configured lat/lon bounding box (if any)."""
    if config.bounds is None:
        return list(points)
    lat0, lon0, lat1, lon1 = config.bounds
    return [
        p for p in points if lat0 <= p.lat <= lat1 and lon0 <= p.lon <= lon1
    ]


def filter_segments(segments: list, config: FilterConfig) -> tuple[list, int, int]:
    """Apply the segment-level filters.

    Returns ``(kept, dropped_short, dropped_long)``.  ``segments`` are
    :class:`~repro.cleaning.segmentation.TripSegment` (duck-typed on
    ``points``).
    """
    kept = []
    dropped_short = 0
    dropped_long = 0
    for seg in segments:
        if len(seg.points) < config.min_segment_points:
            dropped_short += 1
            continue
        # TripSegment memoizes its length (seeded by segmentation); fall
        # back to a fresh walk for bare duck types.
        length = getattr(seg, "distance_m", None)
        if length is None:
            length = trip_distance_m(seg.points)
        if length > config.max_segment_length_m:
            dropped_long += 1
            continue
        kept.append(seg)
    return kept, dropped_short, dropped_long
