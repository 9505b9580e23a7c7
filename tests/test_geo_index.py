"""Tests for repro.geo.index."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.index import GridIndex


class TestGridIndexBasics:
    def test_cell_size_validation(self):
        with pytest.raises(ValueError):
            GridIndex(0.0)

    def test_insert_and_len(self):
        idx = GridIndex(100.0)
        idx.insert("a", 10.0, 10.0, 10.0, 10.0)
        idx.insert("b", 500.0, 500.0, 500.0, 500.0)
        assert len(idx) == 2
        assert "a" in idx

    def test_malformed_box_rejected(self):
        idx = GridIndex(100.0)
        with pytest.raises(ValueError):
            idx.insert("x", 10.0, 10.0, 5.0, 20.0)

    def test_reinsert_replaces(self):
        idx = GridIndex(100.0)
        idx.insert("a", 10.0, 10.0, 10.0, 10.0)
        idx.insert("a", 900.0, 900.0, 900.0, 900.0)
        assert len(idx) == 1
        assert idx.query_radius((10.0, 10.0), 50.0) == []
        assert idx.query_radius((900.0, 900.0), 50.0) == ["a"]

    def test_remove(self):
        idx = GridIndex(100.0)
        idx.insert("a", 10.0, 10.0, 10.0, 10.0)
        idx.remove("a")
        assert len(idx) == 0
        with pytest.raises(KeyError):
            idx.remove("a")

    def test_query_box_intersecting(self):
        idx = GridIndex(100.0)
        idx.insert("seg", 0.0, 0.0, 50.0, 50.0)
        assert idx.query_box(40.0, 40.0, 60.0, 60.0) == ["seg"]
        assert idx.query_box(51.0, 51.0, 60.0, 60.0) == []

    def test_spanning_item_found_from_any_cell(self):
        idx = GridIndex(100.0)
        idx.insert("long", 0.0, 0.0, 950.0, 10.0)
        assert idx.query_radius((900.0, 0.0), 20.0) == ["long"]
        assert idx.query_radius((450.0, 0.0), 20.0) == ["long"]

    def test_negative_radius_rejected(self):
        idx = GridIndex(100.0)
        with pytest.raises(ValueError):
            idx.query_radius((0.0, 0.0), -1.0)

    def test_churn_preserves_query_results_and_insertion_order(self):
        # Exercise the O(1) dict-bucket removal path: heavy interleaved
        # insert/remove churn in one shared cell, then confirm survivors
        # are exactly right and query order still follows insertion order.
        rng = random.Random(42)
        idx = GridIndex(100.0)
        alive: list[int] = []
        for step in range(2000):
            if alive and rng.random() < 0.5:
                victim = alive.pop(rng.randrange(len(alive)))
                idx.remove(victim)
            else:
                x, y = rng.uniform(0.0, 90.0), rng.uniform(0.0, 90.0)
                idx.insert(step, x, y, x, y)
                alive.append(step)
        assert len(idx) == len(alive)
        assert idx.query_box(0.0, 0.0, 90.0, 90.0) == alive

    def test_remove_spanning_item_clears_every_cell(self):
        idx = GridIndex(100.0)
        idx.insert("long", 0.0, 0.0, 950.0, 10.0)
        idx.remove("long")
        assert idx._cells == {}


class TestAgainstBruteForce:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_radius_query_matches_brute_force(self, seed):
        rng = random.Random(seed)
        idx = GridIndex(50.0)
        points = {}
        for i in range(60):
            p = (rng.uniform(-500, 500), rng.uniform(-500, 500))
            points[i] = p
            idx.insert(i, p[0], p[1], p[0], p[1])
        centre = (rng.uniform(-500, 500), rng.uniform(-500, 500))
        radius = rng.uniform(10, 300)
        got = set(idx.query_radius(centre, radius))
        true_hits = {
            i for i, p in points.items()
            if math.hypot(p[0] - centre[0], p[1] - centre[1]) <= radius
        }
        # Grid query is box-level: it may return extras but never miss.
        assert true_hits <= got
        # And extras are bounded by the box circumscribing the disc.
        for i in got:
            p = points[i]
            assert abs(p[0] - centre[0]) <= radius + 1e-9
            assert abs(p[1] - centre[1]) <= radius + 1e-9
