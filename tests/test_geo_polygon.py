"""Tests for repro.geo.polygon."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geo.geometry import LineString
from repro.geo.polygon import Polygon, ThickLine
from tests.oracles.simulator import crossed_by as reference_crossed_by


class TestPolygon:
    def test_needs_three_vertices(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 1)])

    def test_rectangle_contains(self):
        rect = Polygon.rectangle(0, 0, 10, 10)
        assert rect.contains((5, 5))
        assert not rect.contains((15, 5))
        assert not rect.contains((-1, 5))

    def test_rectangle_validation(self):
        with pytest.raises(ValueError):
            Polygon.rectangle(10, 0, 0, 10)

    def test_area(self):
        rect = Polygon.rectangle(0, 0, 10, 20)
        assert rect.area() == pytest.approx(200.0)

    def test_concave_polygon(self):
        # A "U" shape: point inside the notch is outside the polygon.
        u = Polygon([(0, 0), (10, 0), (10, 10), (7, 10), (7, 3), (3, 3), (3, 10), (0, 10)])
        assert u.contains((1.5, 5.0))
        assert not u.contains((5.0, 5.0))
        assert u.contains((5.0, 1.0))

    def test_closed_ring_input_accepted(self):
        p = Polygon([(0, 0), (10, 0), (10, 10), (0, 0)])
        assert len(p) == 3

    def test_bounds(self):
        rect = Polygon.rectangle(-5, -2, 3, 7)
        assert rect.bounds() == (-5, -2, 3, 7)

    @given(
        x=st.floats(min_value=0.5, max_value=9.5),
        y=st.floats(min_value=0.5, max_value=9.5),
    )
    @settings(max_examples=50, deadline=None)
    def test_interior_points_inside_rectangle(self, x, y):
        rect = Polygon.rectangle(0, 0, 10, 10)
        assert rect.contains((x, y))


class TestThickLine:
    def setup_method(self):
        self.gate = ThickLine(LineString([(0, 0), (100, 0)]), half_width=20.0)

    def test_positive_width_required(self):
        with pytest.raises(ValueError):
            ThickLine(LineString([(0, 0), (1, 0)]), half_width=0.0)

    def test_contains_inside_capsule(self):
        assert self.gate.contains((50.0, 10.0))
        assert self.gate.contains((50.0, -19.0))

    def test_not_contains_outside(self):
        assert not self.gate.contains((50.0, 25.0))
        assert not self.gate.contains((150.0, 0.0))

    def test_perpendicular_crossing_detected(self):
        assert self.gate.crossed_by((50.0, -50.0), (50.0, 50.0), 45.0, 90.0)

    def test_parallel_pass_not_a_crossing(self):
        # Moving along the road inside the capsule: angle ~0, rejected.
        assert not self.gate.crossed_by((10.0, 5.0), (90.0, 5.0), 45.0, 90.0)

    def test_shallow_angle_rejected(self):
        # 30 degree crossing with a 45 degree minimum.
        assert not self.gate.crossed_by((0.0, -10.0), (60.0, 24.6), 45.0, 90.0)

    def test_movement_ending_inside_counts(self):
        assert self.gate.crossed_by((50.0, -60.0), (50.0, -5.0), 45.0, 90.0)

    def test_zero_movement_is_no_crossing(self):
        assert not self.gate.crossed_by((50.0, 0.0), (50.0, 0.0), 0.0, 90.0)

    def test_bounds_include_width(self):
        x0, y0, x1, y1 = self.gate.bounds()
        assert (x0, y0, x1, y1) == (-20.0, -20.0, 120.0, 20.0)

    def test_fast_long_hop_through_capsule(self):
        # Both endpoints far outside, the segment pierces the capsule.
        assert self.gate.crossed_by((50.0, -400.0), (50.0, 400.0), 45.0, 90.0)

    def test_hop_past_the_end_cap_counts_by_its_midpoint(self):
        # Both endpoints outside, the axis never crossed, the midpoint
        # (110, 0) inside the end cap.
        assert self.gate.crossed_by((110.0, -30.0), (110.0, 30.0), 45.0, 90.0)


#: A straight two-vertex gate (the study's gates) and a bent one.
REFERENCE_GATES = (
    ThickLine(LineString([(0.0, 0.0), (100.0, 0.0)]), half_width=20.0),
    ThickLine(LineString([(0.0, 0.0), (60.0, 40.0), (130.0, -10.0)]), half_width=15.0),
)


@st.composite
def movements(draw, case):
    """A gate and a movement ``a -> b`` of one crossing case."""
    gate = draw(st.sampled_from(REFERENCE_GATES))
    hw = gate.half_width
    if case == "midpoint_only":
        # Tangent to a circle of radius r < hw around an axis end, on its
        # outer side: the midpoint lies in the end cap, the axis is never
        # reached, and both endpoints are at least hw from the end.
        coords = gate.line.coords
        end, inner = (coords[-1], coords[-2]) if draw(st.booleans()) else (coords[0], coords[1])
        ex, ey = map(float, (end - inner) / math.hypot(*(end - inner)))
        phi = draw(st.floats(min_value=-1.0, max_value=1.0))
        ux = ex * math.cos(phi) - ey * math.sin(phi)
        uy = ex * math.sin(phi) + ey * math.cos(phi)
        r = draw(st.floats(min_value=0.2, max_value=0.95)) * hw
        t = draw(st.floats(min_value=1.0, max_value=3.0)) * hw
        mid = (float(end[0]) + r * ux, float(end[1]) + r * uy)
        a = (mid[0] + t * uy, mid[1] - t * ux)
        b = (mid[0] - t * uy, mid[1] + t * ux)
        assume(not gate.contains(a) and not gate.contains(b))
        assume(not gate.line.crossings(a, b))
        return gate, a, b
    # Otherwise the movement is centred on a point in the capsule: on the
    # axis plus an offset under the half-width.
    offset = st.floats(min_value=-0.7, max_value=0.7)
    ax, ay = gate.line.interpolate(draw(st.floats(min_value=0.0, max_value=gate.line.length)))
    mid = (ax + draw(offset) * hw, ay + draw(offset) * hw)
    half = st.floats(min_value=-120.0, max_value=120.0)
    dx, dy = draw(half), draw(half)
    if case == "zero_length":
        return gate, mid, mid
    if case == "endpoint_inside":
        return gate, mid, (mid[0] + 2.0 * dx, mid[1] + 2.0 * dy)
    a = (mid[0] - dx, mid[1] - dy)
    b = (mid[0] + dx, mid[1] + dy)
    assume(not gate.contains(a) and not gate.contains(b))
    assume(gate.line.crossings(a, b))
    return gate, a, b


class TestCrossedByReference:
    """One projection per point answers exactly as the reference's up to
    three contains-then-project calls."""

    @pytest.mark.parametrize(
        "case", ["endpoint_inside", "axis_crossing", "midpoint_only", "zero_length"]
    )
    @given(data=st.data(), min_angle=st.sampled_from([0.0, 45.0]))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, case, data, min_angle):
        gate, a, b = data.draw(movements(case))
        assert gate.crossed_by(a, b, min_angle, 90.0) == reference_crossed_by(
            gate, a, b, min_angle, 90.0
        )

