"""Reference fleet simulator: the per-edge-callback, per-step Python body.

:class:`ReferenceSimulator` drives the fleet the way
:class:`repro.traces.simulator.TaxiFleetSimulator` did before its hot
path was tightened: the route weight re-sums the edge's free-flow time
and recounts its traffic lights on every relaxation, every step
recomputes its turn angle, samples are :class:`_Sample` records, and
every gate tests every movement behind a per-pair bounding-box check.
It also carries the jitter and the thick-line crossing test of that
time (:func:`_jitter`, :func:`crossed_by`).

The reference collects its street furniture itself, filtering
candidate edges through ``edges_near`` before projecting them again,
and reads the other tables the production constructor builds (dead-end
edges, region node pools and gates).  Both simulators must then draw
the same random stream and produce the same floats.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from repro.geo.distance import destination_point
from repro.geo.geometry import Point, crossing_angle_deg
from repro.geo.polygon import ThickLine
from repro.roadnet.graph import RoadEdge
from repro.roadnet.synthcity import SyntheticCity
from repro.traces.model import FleetData, RoutePoint, Trip
from repro.traces.noise import apply_noise
from repro.traces.simulator import (
    ACCELERATION_FUEL_ML,
    IDLE_FUEL_ML_S,
    REGION_TRANSITIONS,
    CustomerRun,
    FleetSpec,
    Region,
    TaxiFleetSimulator,
    diurnal_speed_factor,
)
from repro.weather.seasons import season_speed_factor
from tests.oracles.routing import dijkstra


def crossed_by(
    gate: ThickLine,
    a: Point,
    b: Point,
    min_angle_deg: float = 0.0,
    max_angle_deg: float = 90.0,
) -> bool:
    """:meth:`ThickLine.crossed_by`, projecting an endpoint up to twice."""
    move = (b[0] - a[0], b[1] - a[1])
    if move == (0.0, 0.0):
        return False
    inside_a = gate.contains(a)
    inside_b = gate.contains(b)
    touches = inside_a or inside_b
    arc = None
    if inside_a:
        __, arc, __ = gate.line.project(a)
    elif inside_b:
        __, arc, __ = gate.line.project(b)
    if not touches:
        hits = gate.line.crossings(a, b)
        if hits:
            touches = True
            arc = hits[0][1]
        else:
            mid = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
            if gate.contains(mid):
                touches = True
                __, arc, __ = gate.line.project(mid)
    if not touches or arc is None:
        return False
    heading = gate.line.heading_at(arc)
    ang = crossing_angle_deg(move, heading)
    return min_angle_deg <= ang <= max_angle_deg


def _jitter(p: RoutePoint, sigma_m: float, rng: random.Random) -> RoutePoint:
    """:func:`repro.traces.noise._jitter` through ``dataclasses.replace``."""
    if sigma_m <= 0.0:
        return p
    distance = abs(rng.gauss(0.0, sigma_m))
    bearing = rng.uniform(0.0, 360.0)
    lat, lon = destination_point(p.lat, p.lon, bearing, distance)
    return replace(p, lat=lat, lon=lon)


def _noisy(trip: Trip, spec, rng: random.Random) -> Trip:
    """:func:`apply_noise` with the reference jitter.

    ``apply_noise`` jitters every fix before it draws anything else, so
    jittering here and handing it a zero sigma leaves every later draw
    in place.
    """
    jittered = trip.with_points([_jitter(p, spec.gps_sigma_m, rng) for p in trip.points])
    return apply_noise(jittered, replace(spec, gps_sigma_m=0.0), rng)


@dataclass
class _Sample:
    """One dense kinematic sample along a drive."""

    x: float
    y: float
    t: float
    v_kmh: float
    fuel_ml: float


class ReferenceSimulator:
    """The fleet simulator's reference body over the production tables."""

    def __init__(self, city: SyntheticCity, spec: FleetSpec | None = None) -> None:
        tables = TaxiFleetSimulator(city, spec)
        self.city = city
        self.spec = tables.spec
        self.weather = tables.weather
        self._start_s = tables._start_s
        self._furniture = self._collect_furniture()
        self._deadend_edges = tables._deadend_edges
        self._region_nodes = tables._region_nodes
        self._gates = tables._gates
        self._step_cache: dict[tuple[int, bool], tuple[float, list[tuple]]] = {}

    def _collect_furniture(self) -> dict[int, list[tuple[float, str, float]]]:
        spec = self.spec
        furniture: dict[int, list[tuple[float, str, float]]] = {}
        for obj in self.city.map_db.point_objects():
            r = math.hypot(obj.position[0], obj.position[1])
            t = min(1.0, r / 900.0)
            stop_prob = (
                spec.light_stop_prob * (1.0 - t) + spec.light_stop_prob_periphery * t
            )
            for edge in self.city.graph.edges_near(obj.position, 25.0):
                __, arc, dist = edge.geometry.project(obj.position)
                if dist <= 20.0:
                    furniture.setdefault(edge.edge_id, []).append(
                        (arc, obj.kind.value, stop_prob)
                    )
        for arcs in furniture.values():
            arcs.sort()
        return furniture

    def simulate(self) -> tuple[FleetData, list[CustomerRun]]:
        fleet = FleetData()
        runs: list[CustomerRun] = []
        trip_counter = 1
        for car_id in range(1, self.spec.n_taxis + 1):
            car_rng = random.Random(self.spec.seed * 1000 + car_id)
            activity = 0.7 + 0.6 * car_rng.random()
            car_speed_factor = 0.95 + 0.1 * car_rng.random()
            point_counter = 1
            region = Region.CORE
            node = car_rng.choice(self._region_nodes[region])
            for day in range(self.spec.n_days):
                day_t0 = self._start_s + day * 86_400.0 + 6.5 * 3600.0
                for shift in range(self.spec.shifts_per_day):
                    shift_t0 = day_t0 + shift * 7.0 * 3600.0 + car_rng.uniform(0, 1800)
                    trips, shift_runs, node, region, point_counter, trip_counter = (
                        self._simulate_shift(
                            car_id,
                            trip_counter,
                            shift_t0,
                            node,
                            region,
                            point_counter,
                            activity,
                            car_speed_factor,
                            car_rng,
                        )
                    )
                    for trip in trips:
                        if len(trip) >= 2:
                            fleet.trips.append(_noisy(trip, self.spec.noise, car_rng))
                    runs.extend(shift_runs)
        return fleet, runs

    def _simulate_shift(
        self,
        car_id: int,
        trip_counter: int,
        t0: float,
        node: int,
        region: Region,
        point_counter: int,
        activity: float,
        car_speed_factor: float,
        rng: random.Random,
    ) -> tuple[list[Trip], list[CustomerRun], int, Region, int, int]:
        spec = self.spec
        n_runs = max(1, round(rng.gauss(spec.runs_per_shift_mean * activity, 1.2)))
        trips: list[Trip] = []
        trip = Trip(trip_id=trip_counter, car_id=car_id)
        trip_counter += 1
        runs: list[CustomerRun] = []
        t = t0
        fuel = 0.0
        for __ in range(n_runs):
            next_region = self._pick_region(region, rng)
            target = rng.choice(self._region_nodes[next_region])
            if target == node:
                continue
            path_edges = self._route(node, target, rng)
            if not path_edges:
                continue
            samples = self._drive(node, path_edges, t, fuel, car_speed_factor, rng)
            if len(samples) < 2:
                continue
            emitted = self._emit(samples)
            for s in emitted:
                lat, lon = self.city.projector.to_latlon(s.x, s.y)
                trip.points.append(
                    RoutePoint(
                        point_id=point_counter,
                        trip_id=trip.trip_id,
                        lat=lat,
                        lon=lon,
                        time_s=s.t,
                        speed_kmh=max(0.0, s.v_kmh + rng.gauss(0.0, 0.8)),
                        fuel_ml=s.fuel_ml,
                    )
                )
                point_counter += 1
            gates = self._gates_crossed(samples)
            runs.append(
                CustomerRun(
                    car_id=car_id,
                    trip_id=trip.trip_id,
                    start_time_s=samples[0].t,
                    end_time_s=samples[-1].t,
                    origin_region=region,
                    dest_region=next_region,
                    edge_ids=tuple(e.edge_id for e, __ in path_edges),
                    path_length_m=sum(e.length for e, __ in path_edges),
                    gates_crossed=gates,
                )
            )
            t = samples[-1].t
            fuel = samples[-1].fuel_ml
            node = target
            region = next_region
            dwell = rng.uniform(*spec.dwell_range_s)
            engine_off = (
                dwell >= spec.engine_off_dwell_s
                and rng.random() < spec.engine_off_prob
            )
            pos = self.city.graph.node(node).position
            lat, lon = self.city.projector.to_latlon(pos[0], pos[1])
            if engine_off:
                trip.points.append(
                    RoutePoint(point_id=point_counter, trip_id=trip.trip_id,
                               lat=lat, lon=lon, time_s=t + 1.0,
                               speed_kmh=0.0, fuel_ml=fuel)
                )
                point_counter += 1
                if len(trip) >= 2:
                    trips.append(trip)
                trip = Trip(trip_id=trip_counter, car_id=car_id)
                trip_counter += 1
                fuel = 0.0
            else:
                fuel_after = fuel + IDLE_FUEL_ML_S * dwell
                for dwell_t in (t + 1.0, t + dwell):
                    trip.points.append(
                        RoutePoint(
                            point_id=point_counter,
                            trip_id=trip.trip_id,
                            lat=lat,
                            lon=lon,
                            time_s=dwell_t,
                            speed_kmh=0.0,
                            fuel_ml=fuel if dwell_t == t + 1.0 else fuel_after,
                        )
                    )
                    point_counter += 1
                fuel = fuel_after
            t += dwell
        if len(trip) >= 2:
            trips.append(trip)
        return trips, runs, node, region, point_counter, trip_counter

    def _pick_region(self, current: Region, rng: random.Random) -> Region:
        choices = REGION_TRANSITIONS[current]
        u = rng.random()
        acc = 0.0
        for region, p in choices:
            acc += p
            if u <= acc:
                return region
        return choices[-1][0]

    def _route(
        self, source: int, target: int, rng: random.Random
    ) -> list[tuple[RoadEdge, int]]:
        noise_cache: dict[int, float] = {}

        def weight(edge: RoadEdge) -> float:
            mult = noise_cache.get(edge.edge_id)
            if mult is None:
                mult = math.exp(rng.gauss(0.0, 0.18))
                noise_cache[edge.edge_id] = mult
            lights = sum(
                1
                for __, kind, ___ in self._furniture.get(edge.edge_id, ())
                if kind == "traffic_light"
            )
            return (edge.travel_time_s + 6.0 * lights) * mult

        dist = dijkstra(self.city.graph, source, target, weight_fn=weight)
        if target not in dist:
            return []
        seq: list[tuple[RoadEdge, int]] = []
        node = target
        while True:
            __, prev_node, prev_edge = dist[node]
            if prev_node is None:
                break
            seq.append((self.city.graph.edge(prev_edge), prev_node))
            node = prev_node
        seq.reverse()
        return seq

    def _edge_steps(self, edge: RoadEdge, from_node: int) -> tuple[float, list[tuple]]:
        forward = from_node == edge.u
        key = (edge.edge_id, forward)
        cached = self._step_cache.get(key)
        if cached is not None:
            return cached
        geom = edge.geometry_from(from_node)
        length = geom.length
        furniture = self._oriented_furniture(edge, from_node)
        n_steps = max(1, int(math.ceil(length / self.spec.step_m)))
        step = length / n_steps
        steps = []
        fi = 0
        for k in range(n_steps):
            arc = (k + 0.5) * step
            x, y = geom.interpolate(arc)
            heading = geom.heading_at(arc)
            canonical_arc = arc if forward else length - arc
            limit = edge.span_at(canonical_arc).speed_limit_kmh
            hot = self.city.in_hotspot((x, y))
            kinds = []
            while fi < len(furniture) and furniture[fi][0] <= (k + 1) * step:
                kinds.append((furniture[fi][1], furniture[fi][2]))
                fi += 1
            steps.append((x, y, heading, limit, hot, tuple(kinds)))
        result = (step, steps)
        self._step_cache[key] = result
        return result

    def _drive(
        self,
        start_node: int,
        path: list[tuple[RoadEdge, int]],
        t0: float,
        fuel0: float,
        car_speed_factor: float,
        rng: random.Random,
    ) -> list[_Sample]:
        spec = self.spec
        base_factor = (
            spec.cruise_factor
            * season_speed_factor(t0)
            * self.weather.grip_factor(t0)
            * diurnal_speed_factor(t0)
            * car_speed_factor
        )
        samples: list[_Sample] = []
        t = t0
        fuel = fuel0
        prev_heading: Point | None = None
        for edge, from_node in path:
            step, steps = self._edge_steps(edge, from_node)
            is_deadend = edge.edge_id in self._deadend_edges
            for x, y, heading, limit, hot, kinds in steps:
                v = limit * base_factor * math.exp(rng.gauss(0.0, 0.07))
                if hot:
                    v = min(v, spec.hotspot_cap_kmh * math.exp(rng.gauss(0.0, 0.25)))
                if is_deadend:
                    v = min(v, spec.deadend_cap_kmh)
                if prev_heading is not None:
                    turn = crossing_angle_deg(prev_heading, heading)
                    if turn > 40.0:
                        v = min(v, 18.0)
                prev_heading = heading
                wait = 0.0
                for kind, stop_prob in kinds:
                    if kind == "traffic_light":
                        if rng.random() < spec.light_error_prob:
                            v = min(v, rng.uniform(3.0, 8.0))
                            wait += rng.uniform(100.0, spec.light_error_wait_s)
                        elif rng.random() < stop_prob:
                            v = min(v, rng.uniform(3.0, 8.0))
                            wait += rng.uniform(*spec.light_wait_range_s)
                        else:
                            v = min(v, 15.0)
                    elif kind == "bus_stop":
                        if rng.random() < spec.bus_stop_slow_prob:
                            v = min(v, 20.0)
                    elif kind == "pedestrian_crossing":
                        if rng.random() < spec.crossing_slow_prob:
                            v = min(v, 20.0)
                v = max(v, 3.0)
                v_mps = v / 3.6
                dt = step / v_mps
                fuel += dt * (IDLE_FUEL_ML_S + v_mps * (0.055 + 0.0012 * v_mps))
                t += dt
                samples.append(_Sample(x=x, y=y, t=t, v_kmh=v, fuel_ml=fuel))
                if wait > 0.0:
                    fuel += IDLE_FUEL_ML_S * wait + ACCELERATION_FUEL_ML
                    t += wait
                    samples.append(_Sample(x=x, y=y, t=t, v_kmh=0.0, fuel_ml=fuel))
        return samples

    def _oriented_furniture(
        self, edge: RoadEdge, from_node: int
    ) -> list[tuple[float, str, float]]:
        arcs = self._furniture.get(edge.edge_id, [])
        if from_node == edge.u:
            return arcs
        return sorted((edge.length - arc, kind, prob) for arc, kind, prob in arcs)

    def _emit(self, samples: list[_Sample]) -> list[_Sample]:
        spec = self.spec
        if not samples:
            return []
        emitted = [samples[0]]
        last = samples[0]
        last_heading: Point | None = None
        dist_acc = 0.0
        prev = samples[0]
        for s in samples[1:-1]:
            dx = s.x - prev.x
            dy = s.y - prev.y
            dist_acc += math.hypot(dx, dy)
            heading = (dx, dy) if (dx, dy) != (0.0, 0.0) else last_heading
            trigger = False
            if last_heading is not None and heading is not None:
                if crossing_angle_deg(last_heading, heading) > spec.emit_heading_deg:
                    trigger = True
            if abs(s.v_kmh - last.v_kmh) > spec.emit_speed_kmh:
                trigger = True
            if dist_acc > spec.emit_dist_m:
                trigger = True
            if s.t - last.t > spec.emit_time_s:
                trigger = True
            if trigger:
                emitted.append(s)
                last = s
                last_heading = heading
                dist_acc = 0.0
            prev = s
        emitted.append(samples[-1])
        return emitted

    def _gates_crossed(self, samples: list[_Sample]) -> tuple[str, ...]:
        crossed: list[tuple[float, str]] = []
        for name, gate in self._gates.items():
            x0, y0, x1, y1 = gate.bounds()
            for a, b in zip(samples, samples[1:]):
                if max(a.x, b.x) < x0 or min(a.x, b.x) > x1:
                    continue
                if max(a.y, b.y) < y0 or min(a.y, b.y) > y1:
                    continue
                if crossed_by(
                    gate, (a.x, a.y), (b.x, b.y), min_angle_deg=45.0, max_angle_deg=90.0
                ):
                    crossed.append((a.t, name))
                    break
        crossed.sort()
        return tuple(name for __, name in crossed)
