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

import numpy as np

from repro.geo.distance import haversine_m
from repro.traces.arrays import FleetArrays
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


#: Relative half-width of the band around a filter threshold inside
#: which the array haversine does not decide.  ``haversine_m_vec`` may
#: differ from the scalar :func:`~repro.geo.distance.haversine_m` in the
#: last few ulps (about 4e-16 relative), so a gap that close to a
#: threshold sends its trip through the scalar rule instead.
GUARD_BAND = 1e-9


def duplicate_rows(arrays: FleetArrays, config: FilterConfig) -> np.ndarray:
    """Keep mask of the duplicate filter over a batch of trips.

    A fix is a duplicate of the last *kept* fix when it lies within
    ``duplicate_epsilon_s`` and ``duplicate_epsilon_m`` of it.  While no
    fix of a trip is dropped, the last kept fix is simply the previous
    one, so one array pass over consecutive gaps decides every trip with
    no flagged gap.  Trips with a flagged gap, or a gap distance inside
    :data:`GUARD_BAND` of the threshold, run the sequential rule.
    """
    keep = np.ones(len(arrays), dtype=bool)
    dist, dt = arrays.gaps()
    eps_m = config.duplicate_epsilon_m
    flagged = (np.abs(dt) <= config.duplicate_epsilon_s) & (dist <= eps_m)
    near = np.abs(dist - eps_m) <= GUARD_BAND * eps_m
    for lo, hi, lat, lon, t in _suspect_trips(arrays, flagged | near, 2):
        keep[lo:hi] = _duplicates_keep(lat, lon, t, config)
    return keep


def outlier_rows(arrays: FleetArrays, config: FilterConfig) -> np.ndarray:
    """Keep mask of the implied-speed glitch filter over a batch of trips.

    A fix needing an impossible speed to reach from the last accepted fix
    is a glitch; the first fix is dropped instead when *it* is the
    glitch.  Both only act on a gap whose implied speed exceeds the
    limit, so one array pass clears every trip with no such gap; trips
    with one, or with a speed (or zero-time hop) inside
    :data:`GUARD_BAND` of its threshold, run the sequential rule.  Trips
    under three fixes are never filtered.
    """
    keep = np.ones(len(arrays), dtype=bool)
    dist, dt = arrays.gaps()
    vmax = config.max_implied_speed_mps
    elapsed = np.abs(dt)
    still = elapsed <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        speed = dist / elapsed
    # ``~(speed <= vmax)`` also flags NaN speeds, which the scalar rule drops.
    flagged = np.where(still, dist > 1.0, ~(speed <= vmax))
    near = np.where(
        still,
        np.abs(dist - 1.0) <= GUARD_BAND,
        np.abs(speed - vmax) <= GUARD_BAND * vmax,
    )
    for lo, hi, lat, lon, t in _suspect_trips(arrays, flagged | near, 3):
        keep[lo:hi] = _outliers_keep(lat, lon, t, vmax)
    return keep


def bounds_rows(arrays: FleetArrays, config: FilterConfig) -> np.ndarray:
    """Keep mask of the bounding-box filter (all rows when unset)."""
    if config.bounds is None:
        return np.ones(len(arrays), dtype=bool)
    lat0, lon0, lat1, lon1 = config.bounds
    lat, lon = arrays.lat, arrays.lon
    return (lat0 <= lat) & (lat <= lat1) & (lon0 <= lon) & (lon <= lon1)


def _suspect_trips(arrays: FleetArrays, suspect_gaps: np.ndarray, min_points: int):
    """``(lo, hi, lat, lon, time)`` of each trip of at least ``min_points``
    rows with a suspect inner gap.

    The columns come back as Python float lists, the operands the
    scalar rules below take.
    """
    trips = arrays.trip_index()[1:][suspect_gaps & arrays.inner_gaps()]
    if not trips.size:
        return
    offsets = arrays.offsets.tolist()
    for k in np.unique(trips).tolist():
        lo, hi = offsets[k], offsets[k + 1]
        if hi - lo >= min_points:
            yield (
                lo, hi, arrays.lat[lo:hi].tolist(), arrays.lon[lo:hi].tolist(),
                arrays.time_s[lo:hi].tolist(),
            )


def _duplicates_keep(lat, lon, t, config: FilterConfig) -> list[bool]:
    """The sequential duplicate rule over one trip's columns."""
    keep = [True] * len(lat)
    last = 0
    for i in range(1, len(lat)):
        same_time = abs(t[i] - t[last]) <= config.duplicate_epsilon_s
        same_place = (
            haversine_m(lat[i], lon[i], lat[last], lon[last])
            <= config.duplicate_epsilon_m
        )
        if same_time and same_place:
            keep[i] = False
        else:
            last = i
    return keep


def _outliers_keep(lat, lon, t, vmax: float) -> list[bool]:
    """The sequential implied-speed rule over one trip's columns."""

    def implied_speed(a: int, b: int) -> float:
        dt = abs(t[b] - t[a])
        d = haversine_m(lat[a], lon[a], lat[b], lon[b])
        if dt <= 0.0:
            return float("inf") if d > 1.0 else 0.0
        return d / dt

    keep = [True] * len(lat)
    if len(lat) < 3:
        return keep
    last = 0
    # A glitched first point would poison the whole chain; check it first.
    if implied_speed(0, 1) > vmax and implied_speed(0, 2) > vmax \
            and implied_speed(1, 2) <= vmax:
        keep[0] = False
        last = 1
    for i in range(last + 1, len(lat)):
        if implied_speed(last, i) <= vmax:
            last = i
        else:
            keep[i] = False
    return keep


def _filtered(points: list[RoutePoint], keep: np.ndarray) -> list[RoutePoint]:
    return [points[i] for i in keep.nonzero()[0].tolist()]


def drop_duplicates(points: list[RoutePoint], config: FilterConfig) -> list[RoutePoint]:
    """Remove consecutive duplicated fixes (same place, same instant).

    The one-trip form of :func:`duplicate_rows`.
    """
    return _filtered(points, duplicate_rows(FleetArrays.from_points(points), config))


def remove_position_outliers(
    points: list[RoutePoint], config: FilterConfig
) -> list[RoutePoint]:
    """Drop coordinate glitches by the implied-speed test.

    The one-trip form of :func:`outlier_rows`.
    """
    return _filtered(points, outlier_rows(FleetArrays.from_points(points), config))


def within_bounds(points: list[RoutePoint], config: FilterConfig) -> list[RoutePoint]:
    """Drop points outside the configured lat/lon bounding box (if any).

    The one-trip form of :func:`bounds_rows`.
    """
    return _filtered(points, bounds_rows(FleetArrays.from_points(points), config))


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
