"""Polygons and "thick geometry".

The paper's origin/destination gates are road segments "artificially made
thicker to catch the routes significantly deviating from the original
roads" (Sec. IV.D).  :class:`ThickLine` models exactly that: a polyline with
a half-width, i.e. a capsule.  :class:`Polygon` provides the containment
test used for the "within city centre" filter.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.geo.geometry import LineString, Point, crossing_angle_deg


class Polygon:
    """A simple (non-self-intersecting) polygon with even-odd containment."""

    __slots__ = ("_xs", "_ys")

    def __init__(self, vertices: Iterable[Point]) -> None:
        pts = list(vertices)
        if len(pts) >= 2 and pts[0] == pts[-1]:
            pts = pts[:-1]
        if len(pts) < 3:
            raise ValueError("Polygon needs at least three distinct vertices")
        self._xs = [float(p[0]) for p in pts]
        self._ys = [float(p[1]) for p in pts]

    @classmethod
    def rectangle(cls, x_min: float, y_min: float, x_max: float, y_max: float) -> "Polygon":
        """Axis-aligned rectangle."""
        if x_max <= x_min or y_max <= y_min:
            raise ValueError("rectangle needs x_min < x_max and y_min < y_max")
        return cls([(x_min, y_min), (x_max, y_min), (x_max, y_max), (x_min, y_max)])

    def __len__(self) -> int:
        return len(self._xs)

    @property
    def vertices(self) -> list[Point]:
        return list(zip(self._xs, self._ys))

    def bounds(self) -> tuple[float, float, float, float]:
        """``(x_min, y_min, x_max, y_max)`` bounding box."""
        return (min(self._xs), min(self._ys), max(self._xs), max(self._ys))

    def contains(self, p: Point) -> bool:
        """Even-odd ray-casting point-in-polygon test."""
        x, y = p
        inside = False
        xs = self._xs
        ys = self._ys
        j = len(xs) - 1
        for i in range(len(xs)):
            if (ys[i] > y) != (ys[j] > y):
                x_cross = xs[i] + (y - ys[i]) * (xs[j] - xs[i]) / (ys[j] - ys[i])
                if x < x_cross:
                    inside = not inside
            j = i
        return inside

    def area(self) -> float:
        """Unsigned shoelace area."""
        total = 0.0
        j = len(self._xs) - 1
        for i in range(len(self._xs)):
            total += (self._xs[j] + self._xs[i]) * (self._ys[j] - self._ys[i])
            j = i
        return abs(total) / 2.0


class ThickLine:
    """A polyline thickened by ``half_width`` metres (a capsule region).

    This is the paper's "thick geometry": membership means being within
    ``half_width`` of the base polyline.  Crossing detection additionally
    checks the angle between the moving segment and the local road heading,
    because the paper only accepts crossings "on an angle within a
    predefined range".
    """

    __slots__ = ("line", "half_width")

    def __init__(self, line: LineString, half_width: float) -> None:
        if half_width <= 0.0:
            raise ValueError("half_width must be positive")
        self.line = line
        self.half_width = float(half_width)

    def contains(self, p: Point) -> bool:
        """True when ``p`` lies within the capsule."""
        return self.line.distance_to(p) <= self.half_width

    def bounds(self) -> tuple[float, float, float, float]:
        """Bounding box of the capsule."""
        coords = self.line.coords
        w = self.half_width
        return (
            float(coords[:, 0].min()) - w,
            float(coords[:, 1].min()) - w,
            float(coords[:, 0].max()) + w,
            float(coords[:, 1].max()) + w,
        )

    def crossed_by(
        self,
        a: Point,
        b: Point,
        min_angle_deg: float = 0.0,
        max_angle_deg: float = 90.0,
    ) -> bool:
        """Does the movement segment ``a``->``b`` cross the thick region?

        A crossing requires (1) the segment to enter the capsule — tested as
        either endpoint inside, or the capsule axis passing within
        ``half_width`` of the segment — and (2) the crossing angle between
        the movement direction and the local road heading to fall inside
        ``[min_angle_deg, max_angle_deg]``.
        """
        move = (b[0] - a[0], b[1] - a[1])
        if move == (0.0, 0.0):
            return False
        arc = self._arc_inside(a)
        if arc is None:
            arc = self._arc_inside(b)
        if arc is None:
            # Neither endpoint inside: check the true geometric crossing of
            # the capsule axis, then widen to the capsule by distance.
            hits = self.line.crossings(a, b)
            if hits:
                arc = hits[0][1]
            else:
                arc = self._arc_inside(((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0))
        if arc is None:
            return False
        heading = self.line.heading_at(arc)
        ang = crossing_angle_deg(move, heading)
        return min_angle_deg <= ang <= max_angle_deg

    def _arc_inside(self, p: Point) -> float | None:
        """Axis arc position of ``p`` when it lies in the capsule, else None."""
        __, arc, dist = self.line.project(p)
        return arc if dist <= self.half_width else None

    def __repr__(self) -> str:
        return f"ThickLine({self.line!r}, half_width={self.half_width:.1f})"

