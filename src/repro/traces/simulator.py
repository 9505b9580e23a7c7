"""Taxi fleet simulator — the Driveco data source substitute.

Simulates seven taxis serving customers in the synthetic city for a study
period.  The output has exactly the properties the paper's pipeline is
built to handle:

* raw *trips* are whole engine-on shifts chaining several customer runs
  with idle waits between them (taxis "can drive almost the whole day
  without turning off the car engine"), so time-based segmentation is
  genuinely needed;
* route points are emitted *event-based* — on significant heading or speed
  changes, or after distance/time gaps — so there is no fixed sampling
  rate and map-matching gaps occur;
* driving speed reacts to the map: traffic-light stops, bus-stop and
  pedestrian-crossing interference, a crowded downtown hotspot, dead-end
  streets, seasonal and road-weather effects;
* route choice is noisy expected-time shortest path, so drivers "freely
  select routes" and occasionally take the eastern outer arterial that
  leaves the central area (feeding the Table 3 within-centre filter);
* every error class of Sec. IV.B is injected on top
  (:mod:`repro.traces.noise`).

The simulator also returns per-customer-run ground truth (edges driven,
gates crossed in order) so tests can verify the pipeline end to end.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from repro.geo.geometry import Point, crossing_angle_deg
from repro.geo.polygon import ThickLine
from repro.roadnet.graph import RoadEdge
from repro.roadnet.routing import dijkstra
from repro.roadnet.synthcity import SyntheticCity
from repro.traces.model import FleetData, RoutePoint, Trip
from repro.traces.noise import NoiseSpec, apply_noise
from repro.weather.roadweather import RoadWeatherModel
from repro.weather.seasons import season_speed_factor


#: Fuel model constants: idle burn and the surcharge of accelerating back
#: to cruise after a full stop (kinetic energy refill) — low speed and
#: stop-and-go driving dominate fuel use, as in the paper's reference [28].
IDLE_FUEL_ML_S = 0.35
ACCELERATION_FUEL_ML = 10.0


def diurnal_speed_factor(time_s: float) -> float:
    """Mild time-of-day traffic effect on achievable speed.

    Morning and afternoon rush hours slow the fleet a few percent; the
    near-empty night streets are slightly faster.  Kept mild so the map
    effects (lights, hotspot) remain the dominant signal, as in the paper.
    """
    hour = datetime.fromtimestamp(time_s, tz=timezone.utc).hour
    if hour in (7, 8, 16, 17):
        return 0.94
    if hour >= 22 or hour <= 5:
        return 1.04
    return 1.0


class Region(enum.Enum):
    """Coarse origin/destination regions of the synthetic city."""

    CORE = "core"
    NORTH = "north"        # beyond gate T
    SOUTH_S = "south_s"    # beyond gate S
    SOUTH_L = "south_l"    # beyond gate L
    EAST_OUT = "east_out"  # outside the central area to the east


#: Markov chain over customer-run destination regions, conditioned on the
#: taxi's current region.  Calibrated so the Table 3 funnel proportions
#: (share of gate-crossing segments, share of studied transitions) match
#: the paper's shape.
REGION_TRANSITIONS: dict[Region, list[tuple[Region, float]]] = {
    Region.CORE: [
        (Region.CORE, 0.84),
        (Region.NORTH, 0.055),
        (Region.SOUTH_S, 0.05),
        (Region.SOUTH_L, 0.045),
        (Region.EAST_OUT, 0.01),
    ],
    Region.NORTH: [
        (Region.CORE, 0.63),
        (Region.SOUTH_S, 0.12),
        (Region.SOUTH_L, 0.09),
        (Region.NORTH, 0.14),
        (Region.EAST_OUT, 0.02),
    ],
    Region.SOUTH_S: [
        (Region.CORE, 0.61),
        (Region.NORTH, 0.11),
        (Region.SOUTH_L, 0.12),
        (Region.SOUTH_S, 0.14),
        (Region.EAST_OUT, 0.02),
    ],
    Region.SOUTH_L: [
        (Region.CORE, 0.63),
        (Region.NORTH, 0.12),
        (Region.SOUTH_S, 0.11),
        (Region.SOUTH_L, 0.14),
    ],
    Region.EAST_OUT: [
        (Region.CORE, 0.70),
        (Region.SOUTH_S, 0.15),
        (Region.NORTH, 0.15),
    ],
}


@dataclass(frozen=True)
class FleetSpec:
    """Parameters of the simulated study.

    Defaults are a scaled-down study (30 days); the paper's year-long
    corpus corresponds to ``n_days=365``.  All statistical shapes are
    scale-invariant; only absolute counts grow with ``n_days``.
    """

    n_taxis: int = 7
    n_days: int = 30
    start_date: str = "2012-10-01"
    seed: int = 42
    shifts_per_day: int = 2
    runs_per_shift_mean: float = 3.5
    step_m: float = 25.0
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    #: Cruise speed as a fraction of the speed limit (drivers hover a bit
    #: below the limit; season/weather factors multiply on top).
    cruise_factor: float = 0.88
    # Traffic-light behaviour (paper: unfavourable wait 50-60 s, error
    # situations up to 200 s before blinking yellow).  The stop
    # probability is the *central* value; lights far from the centre stop
    # traffic less (fewer pedestrians, green waves), which reproduces the
    # paper's finding that light counts alone do not explain low speed.
    light_stop_prob: float = 0.55
    light_stop_prob_periphery: float = 0.15
    light_wait_range_s: tuple[float, float] = (8.0, 70.0)
    light_error_prob: float = 0.01
    light_error_wait_s: float = 200.0
    bus_stop_slow_prob: float = 0.25
    crossing_slow_prob: float = 0.12
    hotspot_cap_kmh: float = 10.0
    deadend_cap_kmh: float = 20.0
    # Event-based emission thresholds.
    emit_heading_deg: float = 28.0
    emit_speed_kmh: float = 12.0
    emit_dist_m: float = 230.0
    emit_time_s: float = 40.0
    # Idle dwell between customer runs, seconds.
    dwell_range_s: tuple[float, float] = (120.0, 1200.0)
    # Engine-off behaviour: a dwell at least this long may end the raw
    # trip (drivers cut the engine while queueing at ranks), producing the
    # many short engine-bounded trips the paper's corpus consists of.
    engine_off_dwell_s: float = 180.0
    engine_off_prob: float = 0.8

    def __post_init__(self) -> None:
        if self.n_taxis < 1 or self.n_days < 1:
            raise ValueError("need at least one taxi and one day")
        if self.step_m <= 0:
            raise ValueError("step_m must be positive")


@dataclass(frozen=True)
class CustomerRun:
    """Ground truth for one customer run inside a raw trip."""

    car_id: int
    trip_id: int
    start_time_s: float
    end_time_s: float
    origin_region: Region
    dest_region: Region
    edge_ids: tuple[int, ...]
    path_length_m: float
    gates_crossed: tuple[str, ...]


#: One dense kinematic sample along a drive: ``(x, y, t, v_kmh, fuel_ml)``.
Sample = tuple[float, float, float, float, float]

#: An oriented edge's step table: ``(step_length, first_heading,
#: last_heading, steps)``, see :meth:`TaxiFleetSimulator._edge_steps`.
EdgeSteps = tuple[float, Point, Point, list[tuple]]


class TaxiFleetSimulator:
    """Drives a synthetic fleet and emits Driveco-style raw data."""

    def __init__(self, city: SyntheticCity, spec: FleetSpec | None = None) -> None:
        self.city = city
        self.spec = spec or FleetSpec()
        self.weather = RoadWeatherModel(seed=self.spec.seed)
        self._furniture = self._collect_furniture()
        self._deadend_edges = self._collect_deadend_edges()
        self._region_nodes = self._classify_nodes()
        self._gates = {
            name: ThickLine(geom, city.spec.gate_half_width_m)
            for name, geom in city.gate_roads.items()
        }
        self._gate_bounds = {name: gate.bounds() for name, gate in self._gates.items()}
        # Expected route cost of each edge before route-choice noise:
        # free-flow time plus 6 s per traffic light on it.
        self._route_base = {
            edge.edge_id: edge.travel_time_s + 6.0 * sum(
                1
                for __, kind, ___ in self._furniture.get(edge.edge_id, ())
                if kind == "traffic_light"
            )
            for edge in city.graph.edges()
        }
        start = datetime.strptime(self.spec.start_date, "%Y-%m-%d")
        self._start_s = start.replace(tzinfo=timezone.utc).timestamp()
        # Per-(edge, direction) kinematic step tables, built lazily: edges
        # are traversed thousands of times, their geometry never changes.
        self._step_cache: dict[tuple[int, bool], EdgeSteps] = {}

    # -- precomputation -----------------------------------------------------

    def _collect_furniture(self) -> dict[int, list[tuple[float, str, float]]]:
        """Per-edge sorted (arc, kind, stop_prob) of nearby point objects.

        ``stop_prob`` only matters for traffic lights: it interpolates from
        the central to the peripheral value with the light's distance from
        the city centre (pedestrian pressure falls off outward).
        """
        spec = self.spec
        furniture: dict[int, list[tuple[float, str, float]]] = {}
        objects = self.city.map_db.point_objects()
        # Bounding-box candidates; the one projection per pair below is
        # the exact distance test.
        candidates = self.city.graph.edges_near_many(
            [obj.position for obj in objects], 20.0, exact=False
        )
        for obj, edges in zip(objects, candidates):
            r = math.hypot(obj.position[0], obj.position[1])
            t = min(1.0, r / 900.0)
            stop_prob = (
                spec.light_stop_prob * (1.0 - t) + spec.light_stop_prob_periphery * t
            )
            for edge in edges:
                __, arc, dist = edge.geometry.project(obj.position)
                if dist <= 20.0:
                    furniture.setdefault(edge.edge_id, []).append(
                        (arc, obj.kind.value, stop_prob)
                    )
        for arcs in furniture.values():
            arcs.sort()
        return furniture

    def _collect_deadend_edges(self) -> set[int]:
        graph = self.city.graph
        dead = set()
        for edge in graph.edges():
            if graph.degree(edge.u) == 1 or graph.degree(edge.v) == 1:
                dead.add(edge.edge_id)
        return dead

    def _classify_nodes(self) -> dict[Region, list[int]]:
        pools: dict[Region, list[int]] = {r: [] for r in Region}
        for node in self.city.graph.nodes():
            x, y = node.position
            if y >= 1800.0:
                pools[Region.NORTH].append(node.node_id)
            elif y <= -1600.0 and x > 0.0:
                pools[Region.SOUTH_S].append(node.node_id)
            elif y <= -1600.0 and x < 0.0:
                pools[Region.SOUTH_L].append(node.node_id)
            elif x >= 1300.0:
                pools[Region.EAST_OUT].append(node.node_id)
            elif abs(x) <= 1100.0 and abs(y) <= 1100.0:
                pools[Region.CORE].append(node.node_id)
        for region, nodes in pools.items():
            if not nodes:
                raise RuntimeError(f"region {region} has no nodes; city layout broken")
        return pools

    # -- public API -------------------------------------------------------------

    def simulate(self) -> tuple[FleetData, list[CustomerRun]]:
        """Run the whole study; returns (raw fleet data, ground-truth runs)."""
        fleet = FleetData()
        runs: list[CustomerRun] = []
        trip_counter = 1
        for car_id in range(1, self.spec.n_taxis + 1):
            car_rng = random.Random(self.spec.seed * 1000 + car_id)
            activity = 0.7 + 0.6 * car_rng.random()  # cars differ in workload
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
                            fleet.trips.append(
                                apply_noise(trip, self.spec.noise, car_rng)
                            )
                    runs.extend(shift_runs)
        return fleet, runs

    # -- shift simulation ---------------------------------------------------------

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
        """One shift: customer runs with dwells, split into engine-bounded
        trips (drivers cut the engine during long waits)."""
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
            for x, y, t_s, v_kmh, fuel_ml in self._emit(samples):
                lat, lon = self.city.projector.to_latlon(x, y)
                trip.points.append(
                    RoutePoint(
                        point_id=point_counter,
                        trip_id=trip.trip_id,
                        lat=lat,
                        lon=lon,
                        time_s=t_s,
                        speed_kmh=max(0.0, v_kmh + rng.gauss(0.0, 0.8)),
                        fuel_ml=fuel_ml,
                    )
                )
                point_counter += 1
            gates = self._gates_crossed(samples)
            runs.append(
                CustomerRun(
                    car_id=car_id,
                    trip_id=trip.trip_id,
                    start_time_s=samples[0][2],
                    end_time_s=samples[-1][2],
                    origin_region=region,
                    dest_region=next_region,
                    edge_ids=tuple(e.edge_id for e, __ in path_edges),
                    path_length_m=sum(e.length for e, __ in path_edges),
                    gates_crossed=gates,
                )
            )
            __, __, t, __, fuel = samples[-1]
            node = target
            region = next_region
            # Idle dwell waiting for the next customer.
            dwell = rng.uniform(*spec.dwell_range_s)
            engine_off = (
                dwell >= spec.engine_off_dwell_s
                and rng.random() < spec.engine_off_prob
            )
            pos = self.city.graph.node(node).position
            lat, lon = self.city.projector.to_latlon(pos[0], pos[1])
            if engine_off:
                # The trip ends here; the next run starts a fresh one with
                # its own engine-start fuel counter.
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

    # -- routing --------------------------------------------------------------------

    def _route(
        self, source: int, target: int, rng: random.Random
    ) -> list[tuple[RoadEdge, int]]:
        """Noisy expected-time shortest path as (edge, from_node) pairs.

        Each edge's noise multiplier is drawn the first time Dijkstra
        weighs it, so the random stream follows the search's relaxation
        order.
        """
        base = self._route_base
        gauss = rng.gauss
        exp = math.exp
        noise_cache: dict[int, float] = {}

        def weight(edge: RoadEdge) -> float:
            edge_id = edge.edge_id
            mult = noise_cache.get(edge_id)
            if mult is None:
                mult = noise_cache[edge_id] = exp(gauss(0.0, 0.18))
            return base[edge_id] * mult

        graph = self.city.graph
        dist = dijkstra(graph, source, target, weight_fn=weight)
        if target not in dist:
            return []
        # Reconstruct as (edge, from_node) pairs.
        seq: list[tuple[RoadEdge, int]] = []
        node = target
        while True:
            __, prev_node, prev_edge = dist[node]
            if prev_node is None:
                break
            seq.append((graph.edge(prev_edge), prev_node))
            node = prev_node
        seq.reverse()
        return seq

    # -- driving --------------------------------------------------------------------

    def _edge_steps(self, edge: RoadEdge, from_node: int) -> EdgeSteps:
        """Cached per-step static data of an oriented edge traversal.

        Returns ``(step_length, first_heading, last_heading, steps)`` where
        each step is ``(x, y, limit_kmh, in_hotspot, furniture_kinds,
        sharp_turn)`` — everything about the step that does not depend on
        the trip.  ``sharp_turn`` says whether the heading turns more than
        40 degrees from the previous step; the first step has no previous
        step on the edge, so its flag is None and the drive compares it
        with the edge it came from.
        """
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
        headings = []
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
            sharp = crossing_angle_deg(headings[-1], heading) > 40.0 if headings else None
            headings.append(heading)
            steps.append((x, y, limit, hot, tuple(kinds), sharp))
        result = (step, headings[0], headings[-1], steps)
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
    ) -> list[Sample]:
        """Dense kinematic simulation along a path."""
        spec = self.spec
        base_factor = (
            spec.cruise_factor
            * season_speed_factor(t0)
            * self.weather.grip_factor(t0)
            * diurnal_speed_factor(t0)
            * car_speed_factor
        )
        gauss = rng.gauss
        uniform = rng.uniform
        draw = rng.random
        exp = math.exp
        hotspot_cap = spec.hotspot_cap_kmh
        deadend_cap = spec.deadend_cap_kmh
        light_error_prob = spec.light_error_prob
        light_error_wait = spec.light_error_wait_s
        wait_lo, wait_hi = spec.light_wait_range_s
        bus_stop_prob = spec.bus_stop_slow_prob
        crossing_prob = spec.crossing_slow_prob
        deadend_edges = self._deadend_edges
        samples: list[Sample] = []
        append = samples.append
        t = t0
        fuel = fuel0
        prev_heading: Point | None = None
        for edge, from_node in path:
            step, first_heading, last_heading, steps = self._edge_steps(edge, from_node)
            is_deadend = edge.edge_id in deadend_edges
            for x, y, limit, hot, kinds, sharp in steps:
                v = limit * base_factor * exp(gauss(0.0, 0.07))
                if hot:
                    v = min(v, hotspot_cap * exp(gauss(0.0, 0.25)))
                if is_deadend:
                    v = min(v, deadend_cap)
                if sharp is None:
                    sharp = (
                        prev_heading is not None
                        and crossing_angle_deg(prev_heading, first_heading) > 40.0
                    )
                if sharp:
                    v = min(v, 18.0)
                wait = 0.0
                for kind, stop_prob in kinds:
                    if kind == "traffic_light":
                        if draw() < light_error_prob:
                            v = min(v, uniform(3.0, 8.0))  # queue crawl
                            wait += uniform(100.0, light_error_wait)
                        elif draw() < stop_prob:
                            v = min(v, uniform(3.0, 8.0))  # queue crawl
                            wait += uniform(wait_lo, wait_hi)
                        else:
                            v = min(v, 15.0)
                    elif kind == "bus_stop":
                        if draw() < bus_stop_prob:
                            v = min(v, 20.0)
                    elif kind == "pedestrian_crossing":
                        if draw() < crossing_prob:
                            v = min(v, 20.0)
                v = max(v, 3.0)
                v_mps = v / 3.6
                dt = step / v_mps
                fuel += dt * (IDLE_FUEL_ML_S + v_mps * (0.055 + 0.0012 * v_mps))
                t += dt
                append((x, y, t, v, fuel))
                if wait > 0.0:
                    # Idling at the light plus the acceleration surcharge of
                    # getting back up to speed afterwards.
                    fuel += IDLE_FUEL_ML_S * wait + ACCELERATION_FUEL_ML
                    t += wait
                    append((x, y, t, 0.0, fuel))
            prev_heading = last_heading
        return samples

    def _oriented_furniture(
        self, edge: RoadEdge, from_node: int
    ) -> list[tuple[float, str, float]]:
        arcs = self._furniture.get(edge.edge_id, [])
        if from_node == edge.u:
            return arcs
        return sorted((edge.length - arc, kind, prob) for arc, kind, prob in arcs)

    # -- emission --------------------------------------------------------------------

    def _emit(self, samples: list[Sample]) -> list[Sample]:
        """Event-based route-point emission (no fixed sampling rate).

        A sample is emitted when the speed, the distance or the time since
        the last emitted one passes its threshold, or the heading turns;
        the turn angle is only computed when the cheaper triggers stay
        quiet.
        """
        spec = self.spec
        if not samples:
            return []
        emit_heading = spec.emit_heading_deg
        emit_speed = spec.emit_speed_kmh
        emit_dist = spec.emit_dist_m
        emit_time = spec.emit_time_s
        hypot = math.hypot
        first = samples[0]
        emitted = [first]
        last_t, last_v = first[2], first[3]
        last_heading: Point | None = None
        dist_acc = 0.0
        px, py = first[0], first[1]
        for s in samples[1:-1]:
            x, y, t, v, __ = s
            dx = x - px
            dy = y - py
            px, py = x, y
            dist_acc += hypot(dx, dy)
            heading = (dx, dy) if dx != 0.0 or dy != 0.0 else last_heading
            if (
                abs(v - last_v) > emit_speed
                or dist_acc > emit_dist
                or t - last_t > emit_time
                or (
                    last_heading is not None
                    and heading is not None
                    and crossing_angle_deg(last_heading, heading) > emit_heading
                )
            ):
                emitted.append(s)
                last_t, last_v = t, v
                last_heading = heading
                dist_acc = 0.0
        emitted.append(samples[-1])
        return emitted

    # -- ground truth ------------------------------------------------------------------

    def _gates_crossed(self, samples: list[Sample]) -> tuple[str, ...]:
        """Ordered gate crossings of a dense sample sequence.

        Each gate's bounding-box rejection runs as one array comparison
        over the movement columns; the exact capsule test then walks the
        surviving movements in order and stops at the gate's first
        crossing.
        """
        xs = np.array([s[0] for s in samples])
        ys = np.array([s[1] for s in samples])
        seg_xmin = np.minimum(xs[:-1], xs[1:])
        seg_xmax = np.maximum(xs[:-1], xs[1:])
        seg_ymin = np.minimum(ys[:-1], ys[1:])
        seg_ymax = np.maximum(ys[:-1], ys[1:])
        crossed: list[tuple[float, str]] = []
        for name, gate in self._gates.items():
            x0, y0, x1, y1 = self._gate_bounds[name]
            mask = (seg_xmax >= x0) & (seg_xmin <= x1) & (seg_ymax >= y0) & (seg_ymin <= y1)
            for i in np.flatnonzero(mask).tolist():
                a = samples[i]
                b = samples[i + 1]
                if gate.crossed_by(
                    (a[0], a[1]), (b[0], b[1]), min_angle_deg=45.0, max_angle_deg=90.0
                ):
                    crossed.append((a[2], name))
                    break  # first crossing of this gate is enough
        crossed.sort()
        return tuple(name for __, name in crossed)
