"""Tests for repro.traces.simulator (using the session fleet fixture)."""

import pytest

from repro.obs import MetricsRegistry, use_registry
from repro.traces import FleetSpec, TaxiFleetSimulator
from repro.traces.noise import NoiseSpec
from repro.traces.simulator import REGION_TRANSITIONS, Region
from tests.oracles.simulator import ReferenceSimulator

ROUTING_COUNTERS = ("routing.dijkstra_calls", "routing.settled_nodes")


class TestFleetSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FleetSpec(n_taxis=0)
        with pytest.raises(ValueError):
            FleetSpec(step_m=0.0)

    def test_region_transition_probabilities_sum_to_one(self):
        for region, choices in REGION_TRANSITIONS.items():
            assert sum(p for __, p in choices) == pytest.approx(1.0, abs=1e-9)


class TestSimulatedFleet:
    def test_all_cars_present(self, fleet):
        assert fleet.car_ids() == [1, 2, 3, 4, 5, 6, 7]

    def test_trips_have_points(self, fleet):
        assert all(len(t) >= 2 for t in fleet.trips)

    def test_trip_ids_unique(self, fleet):
        ids = [t.trip_id for t in fleet.trips]
        assert len(ids) == len(set(ids))

    def test_points_carry_trip_id(self, fleet):
        for trip in fleet.trips[:20]:
            assert all(p.trip_id == trip.trip_id for p in trip.points)

    def test_speeds_non_negative(self, fleet):
        assert all(p.speed_kmh >= 0.0 for t in fleet.trips for p in t.points)

    def test_coordinates_near_oulu(self, fleet):
        for trip in fleet.trips:
            for p in trip.points:
                assert 64.9 < p.lat < 65.1
                assert 25.2 < p.lon < 25.8

    def test_fuel_monotonic_in_true_order(self, city):
        # Without reordering noise the cumulative fuel never decreases.
        from repro.traces.noise import NoiseSpec

        spec = FleetSpec(n_days=2, seed=3, noise=NoiseSpec(
            gps_sigma_m=0.0, reorder_prob=0.0, glitch_prob=0.0, duplicate_prob=0.0))
        fleet, __ = TaxiFleetSimulator(city, spec).simulate()
        for trip in fleet.trips:
            fuels = [p.fuel_ml for p in trip.points]
            assert fuels == sorted(fuels)

    def test_times_monotonic_without_noise(self, city):
        from repro.traces.noise import NoiseSpec

        spec = FleetSpec(n_days=2, seed=3, noise=NoiseSpec(
            gps_sigma_m=0.0, reorder_prob=0.0, glitch_prob=0.0, duplicate_prob=0.0))
        fleet, __ = TaxiFleetSimulator(city, spec).simulate()
        for trip in fleet.trips:
            times = [p.time_s for p in trip.points]
            assert times == sorted(times)

    def test_event_sampling_has_no_fixed_rate(self, fleet):
        # Gaps between consecutive points vary a lot (event-based emission).
        gaps = []
        for trip in fleet.trips[:20]:
            times = sorted(p.time_s for p in trip.points)
            gaps.extend(b - a for a, b in zip(times, times[1:]))
        distinct = {round(g, 1) for g in gaps}
        assert len(distinct) > 20

    def test_deterministic(self, city):
        spec = FleetSpec(n_days=2, seed=99)
        f1, r1 = TaxiFleetSimulator(city, spec).simulate()
        f2, r2 = TaxiFleetSimulator(city, spec).simulate()
        assert len(f1) == len(f2)
        assert [len(t) for t in f1.trips] == [len(t) for t in f2.trips]
        assert [r.gates_crossed for r in r1] == [r.gates_crossed for r in r2]


class TestGroundTruthRuns:
    def test_runs_reference_trips(self, fleet, runs):
        trip_ids = {t.trip_id for t in fleet.trips}
        assert all(r.trip_id in trip_ids for r in runs)

    def test_run_times_ordered(self, runs):
        assert all(r.end_time_s > r.start_time_s for r in runs)

    def test_edges_non_empty(self, runs):
        assert all(len(r.edge_ids) >= 1 for r in runs)

    def test_path_lengths_positive(self, runs):
        assert all(r.path_length_m > 0 for r in runs)

    def test_gate_names_valid(self, runs):
        for r in runs:
            assert all(g in ("T", "S", "L") for g in r.gates_crossed)

    def test_studied_pairs_occur(self, runs):
        pairs = {r.gates_crossed for r in runs if len(r.gates_crossed) == 2}
        studied = {("T", "S"), ("S", "T"), ("T", "L"), ("L", "T")}
        assert pairs & studied, "no studied OD pair in 12 simulated days"

    def test_north_to_south_crosses_t_first(self, runs):
        for r in runs:
            if r.origin_region is Region.NORTH and r.dest_region is Region.SOUTH_S:
                if len(r.gates_crossed) == 2:
                    assert r.gates_crossed[0] == "T"

    def test_core_runs_mostly_gate_free(self, runs):
        core = [r for r in runs
                if r.origin_region is Region.CORE and r.dest_region is Region.CORE]
        gate_free = sum(1 for r in core if not r.gates_crossed)
        assert gate_free / max(1, len(core)) > 0.9


def simulate_counted(simulator):
    """One simulation and the routing counters it recorded."""
    registry = MetricsRegistry()
    with use_registry(registry):
        fleet, runs = simulator.simulate()
    return fleet, runs, [registry.counter(name).value for name in ROUTING_COUNTERS]


class TestReferenceEquivalence:
    """The simulator draws the reference's random stream and floats exactly."""

    @pytest.mark.parametrize(
        "spec",
        [
            FleetSpec(n_days=3, seed=2012),
            FleetSpec(n_days=3, seed=7),
            FleetSpec(n_days=3, seed=99),
            FleetSpec(n_days=3, seed=5, noise=NoiseSpec(dropout_prob=0.1)),
            FleetSpec(n_days=3, seed=5, noise=NoiseSpec(
                gps_sigma_m=0.0, reorder_prob=0.0, glitch_prob=0.0,
                duplicate_prob=0.0)),
            FleetSpec(n_days=3, seed=11, n_taxis=3, step_m=12.0),
            FleetSpec(n_days=3, seed=13, light_error_prob=0.2),
        ],
        ids=["seed2012", "seed7", "seed99", "dropout", "no_noise", "fine_steps",
             "light_errors"],
    )
    def test_identical_to_reference(self, city, spec):
        simulator = TaxiFleetSimulator(city, spec)
        reference = ReferenceSimulator(city, spec)
        assert repr(simulator._furniture) == repr(reference._furniture)
        fleet, runs, counters = simulate_counted(simulator)
        ref_fleet, ref_runs, ref_counters = simulate_counted(reference)
        assert [(t.trip_id, t.car_id) for t in fleet.trips] == [
            (t.trip_id, t.car_id) for t in ref_fleet.trips
        ]
        # repr shows every field, each float exactly (-0.0 included).
        assert [repr(t.points) for t in fleet.trips] == [
            repr(t.points) for t in ref_fleet.trips
        ]
        assert repr(runs) == repr(ref_runs)
        assert counters == ref_counters
        assert counters[0] > 0
