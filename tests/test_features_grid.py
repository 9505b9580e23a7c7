"""Tests for repro.features.grid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.grid import (
    CellStats,
    GridAccumulator,
    GridSpec,
    cell_feature_counts,
    stratify_cells_by_features,
)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(cell_size_m=0.0)

    def test_cell_of(self):
        spec = GridSpec(200.0)
        assert spec.cell_of((50.0, 50.0)) == (0, 0)
        assert spec.cell_of((250.0, -50.0)) == (1, -1)
        assert spec.cell_of((-0.1, 0.0)) == (-1, 0)

    def test_cell_centre_roundtrip(self):
        spec = GridSpec(200.0)
        centre = spec.cell_centre((3, -2))
        assert spec.cell_of(centre) == (3, -2)


class TestCellStats:
    def test_welford_matches_numpy(self):
        values = [3.0, 7.5, 1.2, 9.9, 4.4, 5.5]
        stats = CellStats()
        for v in values:
            stats.add(v)
        assert stats.n == 6
        assert stats.mean == pytest.approx(np.mean(values))
        assert stats.variance == pytest.approx(np.var(values, ddof=1))

    def test_variance_of_singleton_is_zero(self):
        stats = CellStats()
        stats.add(5.0)
        assert stats.variance == 0.0

    @given(values=st.lists(st.floats(min_value=0.0, max_value=100.0),
                           min_size=2, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_welford_property(self, values):
        stats = CellStats()
        for v in values:
            stats.add(v)
        assert stats.mean == pytest.approx(np.mean(values), abs=1e-9)
        assert stats.variance == pytest.approx(np.var(values, ddof=1), abs=1e-7)


class TestGridAccumulator:
    def test_points_pool_per_cell(self):
        grid = GridAccumulator(GridSpec(100.0))
        grid.add_point((10.0, 10.0), 30.0)
        grid.add_point((20.0, 20.0), 40.0)
        grid.add_point((150.0, 10.0), 50.0)
        assert len(grid) == 2
        assert grid.point_count == 3
        assert grid.cells()[(0, 0)].mean == pytest.approx(35.0)

    def test_speeds_raw_access(self):
        grid = GridAccumulator(GridSpec(100.0))
        key = grid.add_point((10.0, 10.0), 30.0)
        grid.add_point((11.0, 11.0), 32.0)
        assert grid.speeds(key) == [30.0, 32.0]
        assert grid.speeds((9, 9)) == []


class TestCellFeatureCounts:
    def test_counts_on_city(self, city):
        spec = GridSpec(200.0)
        counts = cell_feature_counts(spec, city.map_db, city.graph)
        total_lights = sum(c["traffic_lights"] for c in counts.values())
        assert total_lights == city.spec.n_traffic_lights
        total_junctions = sum(c["junctions"] for c in counts.values())
        assert total_junctions == sum(
            1 for n in city.graph.nodes() if city.graph.degree(n.node_id) >= 3
        )

    def test_cell_restriction(self, city):
        spec = GridSpec(200.0)
        wanted = [(0, 0), (50, 50)]
        counts = cell_feature_counts(spec, city.map_db, city.graph, wanted)
        assert set(counts) == set(wanted)
        assert counts[(50, 50)]["traffic_lights"] == 0

    def test_centre_cell_has_features(self, city):
        spec = GridSpec(200.0)
        counts = cell_feature_counts(spec, city.map_db, city.graph)
        centre = counts.get((0, 0), {})
        assert centre.get("traffic_lights", 0) >= 1
        assert centre.get("pedestrian_crossings", 0) >= 1


class TestStratification:
    def test_table5_grouping(self):
        cells = {}
        features = {}
        for i, (lights, buses, speed) in enumerate(
            [(0, 0, 40.0), (0, 2, 35.0), (3, 1, 20.0), (2, 0, 22.0)]
        ):
            key = (i, 0)
            stats = CellStats()
            stats.add(speed)
            cells[key] = stats
            features[key] = {"traffic_lights": lights, "bus_stops": buses}
        groups = stratify_cells_by_features(cells, features)
        assert sorted(groups["lights=0"]) == [35.0, 40.0]
        assert groups["lights=0,bus=0"] == [40.0]
        assert groups["lights>0,bus>0"] == [20.0]
        assert sorted(groups["lights>0"]) == [20.0, 22.0]

    def test_missing_features_treated_as_zero(self):
        stats = CellStats()
        stats.add(10.0)
        groups = stratify_cells_by_features({(0, 0): stats}, {})
        assert groups["lights=0"] == [10.0]
