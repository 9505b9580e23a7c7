"""Taxi trace substrate — the Driveco on-board logger substitute.

The paper's corpus is seven taxis logging GPS + OBD-II for a year in Oulu.
This package provides the same data in synthetic form:

* :mod:`repro.traces.model` — the record schema the paper describes
  (trips bounded by engine-off events; route points emitted on significant
  driving changes, carrying point id, trip id, lat/lon, timestamp, speed
  and fuel);
* :mod:`repro.traces.noise` — the error classes the cleaning stage must
  survive (arrival reordering, GPS jitter, coordinate glitches,
  duplicates);
* :mod:`repro.traces.simulator` — a stochastic fleet simulator driving the
  synthetic city with light stops, pedestrian hotspots, seasonal effects
  and event-based sampling;
* :mod:`repro.traces.io` — CSV/JSONL round-tripping;
* :mod:`repro.traces.arrays` — the struct-of-arrays batch of trips the
  cleaning kernels consume.
"""

from repro.traces.arrays import FleetArrays
from repro.traces.model import FleetData, RoutePoint, Trip, TripSummary, trip_distance_m
from repro.traces.noise import NoiseSpec, apply_noise
from repro.traces.simulator import CustomerRun, FleetSpec, TaxiFleetSimulator

__all__ = [
    "CustomerRun",
    "FleetArrays",
    "FleetData",
    "FleetSpec",
    "NoiseSpec",
    "RoutePoint",
    "TaxiFleetSimulator",
    "Trip",
    "TripSummary",
    "apply_noise",
    "trip_distance_m",
]
