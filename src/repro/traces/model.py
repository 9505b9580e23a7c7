"""Trace data model — the record schema of Sec. III.

A *trip* is a run between two consecutive engine-off events, identified by
a trip id and carrying start/end time, total time, total distance and
total fuel.  A trip contains *route points*: there is no fixed sampling
rate — a point is generated when some significant change in driving
behaviour (a turn, a speed change) is registered.  Each route point stores
point id, trip id, latitude, longitude, timestamp, instantaneous speed and
cumulative fuel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geo.distance import haversine_m


@dataclass(frozen=True)
class RoutePoint:
    """One measurement of the on-board device.

    ``point_id`` is the server-assigned sequence number; ``time_s`` is a
    Unix timestamp.  ``speed_kmh`` is the instantaneous measured speed and
    ``fuel_ml`` the cumulative fuel used since the trip started.
    """

    point_id: int
    trip_id: int
    lat: float
    lon: float
    time_s: float
    speed_kmh: float = 0.0
    fuel_ml: float = 0.0

    def position(self) -> tuple[float, float]:
        return (self.lat, self.lon)


@dataclass
class Trip:
    """A run between two consecutive engine-off events."""

    trip_id: int
    car_id: int
    points: list[RoutePoint] = field(default_factory=list)

    @property
    def start_time_s(self) -> float:
        return self.points[0].time_s if self.points else 0.0

    @property
    def end_time_s(self) -> float:
        return self.points[-1].time_s if self.points else 0.0

    @property
    def total_time_s(self) -> float:
        return self.end_time_s - self.start_time_s

    @property
    def total_distance_m(self) -> float:
        return trip_distance_m(self.points)

    @property
    def total_fuel_ml(self) -> float:
        if not self.points:
            return 0.0
        return self.points[-1].fuel_ml - self.points[0].fuel_ml

    def __len__(self) -> int:
        return len(self.points)

    def summary(self) -> "TripSummary":
        """The per-trip header record the device uploads."""
        first = self.points[0] if self.points else None
        last = self.points[-1] if self.points else None
        return TripSummary(
            trip_id=self.trip_id,
            car_id=self.car_id,
            start_time_s=self.start_time_s,
            end_time_s=self.end_time_s,
            start_point=(first.lat, first.lon) if first else (0.0, 0.0),
            end_point=(last.lat, last.lon) if last else (0.0, 0.0),
            total_time_s=self.total_time_s,
            total_distance_m=self.total_distance_m,
            total_fuel_ml=self.total_fuel_ml,
            point_count=len(self.points),
        )

    def with_points(self, points: list[RoutePoint]) -> "Trip":
        """A copy of this trip with a different point list."""
        return Trip(trip_id=self.trip_id, car_id=self.car_id, points=list(points))


@dataclass(frozen=True)
class TripSummary:
    """The trip-level measurement record (paper Sec. III)."""

    trip_id: int
    car_id: int
    start_time_s: float
    end_time_s: float
    start_point: tuple[float, float]
    end_point: tuple[float, float]
    total_time_s: float
    total_distance_m: float
    total_fuel_ml: float
    point_count: int


@dataclass
class FleetData:
    """Everything a simulation (or ingest) produces: trips per car."""

    trips: list[Trip] = field(default_factory=list)

    def car_ids(self) -> list[int]:
        return sorted({t.car_id for t in self.trips})

    @property
    def point_count(self) -> int:
        return sum(len(t) for t in self.trips)

    def __len__(self) -> int:
        return len(self.trips)


def trip_distance_m(points: list[RoutePoint]) -> float:
    """Sum of great-circle hops between consecutive route points."""
    total = 0.0
    for a, b in zip(points, points[1:]):
        total += haversine_m(a.lat, a.lon, b.lat, b.lon)
    return total

