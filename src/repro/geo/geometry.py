"""Planar polyline geometry.

Everything here works in a local metric plane (see
:class:`repro.geo.projection.LocalProjector`).  Points are ``(x, y)`` float
pairs; polylines are :class:`LineString` objects backed by a NumPy array.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

Point = tuple[float, float]


def point_segment_distance(p: Point, a: Point, b: Point) -> float:
    """Distance from point ``p`` to the segment ``a``-``b``."""
    proj, __ = project_point_to_segment(p, a, b)
    return math.hypot(p[0] - proj[0], p[1] - proj[1])


def project_point_to_segment(p: Point, a: Point, b: Point) -> tuple[Point, float]:
    """Project ``p`` onto segment ``a``-``b``.

    Returns ``(closest_point, t)`` where ``t`` in ``[0, 1]`` is the position
    of the closest point along the segment (0 at ``a``, 1 at ``b``).
    """
    ax, ay = a
    bx, by = b
    dx = bx - ax
    dy = by - ay
    denom = dx * dx + dy * dy
    if denom <= 0.0:
        return (ax, ay), 0.0
    t = ((p[0] - ax) * dx + (p[1] - ay) * dy) / denom
    t = min(1.0, max(0.0, t))
    return (ax + t * dx, ay + t * dy), t


def segment_intersection(
    a1: Point, a2: Point, b1: Point, b2: Point
) -> Point | None:
    """Intersection point of segments ``a1-a2`` and ``b1-b2``, or None.

    Collinear overlaps return None: for gate-crossing detection a grazing
    pass along the gate line is not a crossing.
    """
    r = (a2[0] - a1[0], a2[1] - a1[1])
    s = (b2[0] - b1[0], b2[1] - b1[1])
    denom = r[0] * s[1] - r[1] * s[0]
    if denom == 0.0:
        return None
    qp = (b1[0] - a1[0], b1[1] - a1[1])
    t = (qp[0] * s[1] - qp[1] * s[0]) / denom
    u = (qp[0] * r[1] - qp[1] * r[0]) / denom
    if 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0:
        return (a1[0] + t * r[0], a1[1] + t * r[1])
    return None


def angle_between_deg(v1: Point, v2: Point) -> float:
    """Unsigned angle between two direction vectors, in [0, 180] degrees."""
    n1 = math.hypot(*v1)
    n2 = math.hypot(*v2)
    if n1 == 0.0 or n2 == 0.0:
        return 0.0
    cosang = (v1[0] * v2[0] + v1[1] * v2[1]) / (n1 * n2)
    cosang = min(1.0, max(-1.0, cosang))
    return math.degrees(math.acos(cosang))


def crossing_angle_deg(v1: Point, v2: Point) -> float:
    """Angle between two *lines* (direction-insensitive), in [0, 90] degrees."""
    ang = angle_between_deg(v1, v2)
    return ang if ang <= 90.0 else 180.0 - ang


class LineString:
    """An immutable planar polyline with cached cumulative lengths.

    Supports the operations the pipeline needs: total length, interpolation
    by arc length, nearest-point projection (returning both the point and
    its arc-length position), crossing tests against a segment, and heading
    at a given position.
    """

    __slots__ = ("_coords", "_cumlen")

    def __init__(self, coords: Iterable[Point] | np.ndarray) -> None:
        arr = np.asarray(list(coords) if not isinstance(coords, np.ndarray) else coords, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
            raise ValueError("LineString needs at least two (x, y) points")
        self._coords = arr
        seg = np.hypot(np.diff(arr[:, 0]), np.diff(arr[:, 1]))
        self._cumlen = np.concatenate(([0.0], np.cumsum(seg)))

    @property
    def coords(self) -> np.ndarray:
        """The ``(n, 2)`` vertex array (do not mutate)."""
        return self._coords

    @property
    def length(self) -> float:
        """Total arc length in metres."""
        return float(self._cumlen[-1])

    def __len__(self) -> int:
        return int(self._coords.shape[0])

    def __iter__(self):
        return iter(map(tuple, self._coords))

    def __repr__(self) -> str:
        return f"LineString({len(self)} pts, {self.length:.1f} m)"

    def start(self) -> Point:
        return tuple(self._coords[0])

    def end(self) -> Point:
        return tuple(self._coords[-1])

    def reversed(self) -> "LineString":
        """The same polyline traversed in the opposite direction."""
        return LineString(self._coords[::-1].copy())

    def interpolate(self, arc: float) -> Point:
        """Point at arc length ``arc`` (clamped to ``[0, length]``)."""
        arc = min(self.length, max(0.0, arc))
        i = int(np.searchsorted(self._cumlen, arc, side="right") - 1)
        i = min(i, len(self) - 2)
        seg_len = self._cumlen[i + 1] - self._cumlen[i]
        t = 0.0 if seg_len == 0.0 else (arc - self._cumlen[i]) / seg_len
        a = self._coords[i]
        b = self._coords[i + 1]
        return (float(a[0] + t * (b[0] - a[0])), float(a[1] + t * (b[1] - a[1])))

    def heading_at(self, arc: float) -> Point:
        """Unit direction vector of the polyline at arc length ``arc``."""
        arc = min(self.length, max(0.0, arc))
        i = int(np.searchsorted(self._cumlen, arc, side="right") - 1)
        i = min(max(i, 0), len(self) - 2)
        dx = float(self._coords[i + 1, 0] - self._coords[i, 0])
        dy = float(self._coords[i + 1, 1] - self._coords[i, 1])
        n = math.hypot(dx, dy)
        if n == 0.0:
            return (0.0, 0.0)
        return (dx / n, dy / n)

    def project(self, p: Point) -> tuple[Point, float, float]:
        """Nearest point on the polyline to ``p``.

        Returns ``(closest_point, arc_length_at_closest, distance)``.
        Vectorised over segments with NumPy, so it is cheap even for long
        polylines.
        """
        xs = self._coords[:, 0]
        ys = self._coords[:, 1]
        ax = xs[:-1]
        ay = ys[:-1]
        dx = np.diff(xs)
        dy = np.diff(ys)
        denom = dx * dx + dy * dy
        denom[denom == 0.0] = 1.0
        t = ((p[0] - ax) * dx + (p[1] - ay) * dy) / denom
        np.clip(t, 0.0, 1.0, out=t)
        cx = ax + t * dx
        cy = ay + t * dy
        d2 = (p[0] - cx) ** 2 + (p[1] - cy) ** 2
        i = int(np.argmin(d2))
        seg_len = float(self._cumlen[i + 1] - self._cumlen[i])
        arc = float(self._cumlen[i]) + float(t[i]) * seg_len
        return (float(cx[i]), float(cy[i])), arc, float(math.sqrt(d2[i]))

    def distance_to(self, p: Point) -> float:
        """Distance from ``p`` to the polyline."""
        return self.project(p)[2]

    def crossings(self, a: Point, b: Point) -> list[tuple[Point, float]]:
        """Intersections of segment ``a``-``b`` with this polyline.

        Returns ``(intersection_point, polyline_arc_length)`` pairs ordered
        along the polyline.
        """
        out: list[tuple[Point, float]] = []
        coords = self._coords
        for i in range(len(self) - 1):
            p1 = (float(coords[i, 0]), float(coords[i, 1]))
            p2 = (float(coords[i + 1, 0]), float(coords[i + 1, 1]))
            hit = segment_intersection(p1, p2, a, b)
            if hit is None:
                continue
            seg_len = float(self._cumlen[i + 1] - self._cumlen[i])
            if seg_len > 0.0:
                frac = math.hypot(hit[0] - p1[0], hit[1] - p1[1]) / seg_len
            else:
                frac = 0.0
            out.append((hit, float(self._cumlen[i]) + frac * seg_len))
        return out

    def substring(self, arc_from: float, arc_to: float) -> "LineString":
        """Sub-polyline between two arc lengths (``arc_from < arc_to``)."""
        arc_from = min(self.length, max(0.0, arc_from))
        arc_to = min(self.length, max(0.0, arc_to))
        if arc_to <= arc_from:
            raise ValueError("substring needs arc_from < arc_to")
        pts: list[Point] = [self.interpolate(arc_from)]
        inner = (self._cumlen > arc_from) & (self._cumlen < arc_to)
        for idx in np.nonzero(inner)[0]:
            pts.append((float(self._coords[idx, 0]), float(self._coords[idx, 1])))
        pts.append(self.interpolate(arc_to))
        if len(pts) < 2:
            pts = [self.interpolate(arc_from), self.interpolate(arc_to)]
        return LineString(pts)

    def simplify(self, tolerance: float) -> "LineString":
        """Douglas-Peucker simplification within ``tolerance`` metres.

        Keeps endpoints; every removed vertex lies within ``tolerance`` of
        the simplified polyline.  Useful when exporting dense matched
        geometry (SVG, GeoJSON) without visual loss.
        """
        if tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        coords = [tuple(map(float, c)) for c in self._coords]
        keep = [False] * len(coords)
        keep[0] = keep[-1] = True
        stack = [(0, len(coords) - 1)]
        while stack:
            lo, hi = stack.pop()
            if hi - lo < 2:
                continue
            a = coords[lo]
            b = coords[hi]
            worst_d = -1.0
            worst_i = -1
            for i in range(lo + 1, hi):
                d = point_segment_distance(coords[i], a, b)
                if d > worst_d:
                    worst_d = d
                    worst_i = i
            if worst_d > tolerance:
                keep[worst_i] = True
                stack.append((lo, worst_i))
                stack.append((worst_i, hi))
        return LineString([c for c, k in zip(coords, keep) if k])

    @classmethod
    def concat(cls, parts: Sequence["LineString"]) -> "LineString":
        """Concatenate polylines, dropping duplicated joint vertices."""
        if not parts:
            raise ValueError("concat needs at least one part")
        pts: list[Point] = list(map(tuple, parts[0].coords))
        for part in parts[1:]:
            chunk = list(map(tuple, part.coords))
            if pts and chunk and _close(pts[-1], chunk[0]):
                chunk = chunk[1:]
            pts.extend(chunk)
        return cls(pts)


def _close(a: Point, b: Point, tol: float = 1e-6) -> bool:
    return abs(a[0] - b[0]) <= tol and abs(a[1] - b[1]) <= tol
