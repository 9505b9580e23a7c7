"""Error injection — the data problems the paper's cleaning stage removes.

Real Driveco data suffers (Sec. IV.B and related work [17][21]):

* *arrival reordering* — device-to-server latency scrambles the stored
  sequence, so point id order and timestamp order disagree;
* *GPS jitter* — a few metres of position noise on every fix;
* *coordinate glitches* — rare large position jumps;
* *duplicate points* — the same fix uploaded twice.

:func:`apply_noise` injects all of these into a clean simulated trip, in a
way the cleaning pipeline can provably undo (the true sequence survives in
whichever ordering was not corrupted).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.geo.distance import destination_point
from repro.traces.model import RoutePoint, Trip


@dataclass(frozen=True)
class NoiseSpec:
    """Error-injection parameters (all probabilities per trip or per point)."""

    gps_sigma_m: float = 4.0
    reorder_prob: float = 0.25          # per trip: scramble id-vs-time order
    reorder_swaps: int = 3              # adjacent swaps applied when scrambling
    glitch_prob: float = 0.004          # per point: large coordinate jump
    glitch_distance_m: float = 500.0
    duplicate_prob: float = 0.003       # per point: duplicated upload
    dropout_prob: float = 0.0           # per point: fix lost in transmission

    def __post_init__(self) -> None:
        for name in ("reorder_prob", "glitch_prob", "duplicate_prob", "dropout_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")


def apply_noise(trip: Trip, spec: NoiseSpec, rng: random.Random) -> Trip:
    """Return a noisy copy of ``trip``.

    GPS jitter perturbs every fix.  With probability ``reorder_prob`` the
    trip's orderings are de-synchronised: either a few *point ids* are
    swapped (server assigned arrival order wrongly — timestamps remain
    correct) or a few *timestamps* are swapped (device clock latency — ids
    remain correct).  Glitches and duplicates are appended per point.
    """
    points = [_jitter(p, spec.gps_sigma_m, rng) for p in trip.points]

    if spec.dropout_prob > 0.0 and len(points) > 2:
        # First and last fixes always arrive (trip boundary records).
        kept = [points[0]]
        kept.extend(
            p for p in points[1:-1] if rng.random() >= spec.dropout_prob
        )
        kept.append(points[-1])
        points = kept

    noisy: list[RoutePoint] = []
    for p in points:
        if rng.random() < spec.glitch_prob:
            bearing = rng.uniform(0.0, 360.0)
            lat, lon = destination_point(p.lat, p.lon, bearing, spec.glitch_distance_m)
            p = replace(p, lat=lat, lon=lon)
        noisy.append(p)
        if rng.random() < spec.duplicate_prob:
            noisy.append(replace(p, point_id=p.point_id))

    if len(noisy) >= 4 and rng.random() < spec.reorder_prob:
        corrupt_ids = rng.random() < 0.5
        for __ in range(spec.reorder_swaps):
            i = rng.randrange(0, len(noisy) - 1)
            a, b = noisy[i], noisy[i + 1]
            if corrupt_ids:
                noisy[i] = replace(a, point_id=b.point_id)
                noisy[i + 1] = replace(b, point_id=a.point_id)
            else:
                noisy[i] = replace(a, time_s=b.time_s)
                noisy[i + 1] = replace(b, time_s=a.time_s)
        # Store rows in arrival order (by the possibly-corrupted ids), the
        # order the server would materialise them in.
        noisy.sort(key=lambda p: p.point_id)

    return trip.with_points(noisy)


def _jitter(p: RoutePoint, sigma_m: float, rng: random.Random) -> RoutePoint:
    if sigma_m <= 0.0:
        return p
    distance = abs(rng.gauss(0.0, sigma_m))
    bearing = rng.uniform(0.0, 360.0)
    lat, lon = destination_point(p.lat, p.lon, bearing, distance)
    return RoutePoint(p.point_id, p.trip_id, lat, lon, p.time_s, p.speed_kmh, p.fuel_ml)


def reordering_damage(trip: Trip) -> int:
    """Count of adjacent pairs whose id order and time order disagree.

    A diagnostic used in tests and the ordering-repair ablation: zero means
    the two candidate orderings agree.
    """
    damage = 0
    pts = trip.points
    for a, b in zip(pts, pts[1:]):
        if (a.point_id < b.point_id) != (a.time_s <= b.time_s):
            damage += 1
    return damage
