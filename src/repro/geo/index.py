"""Uniform grid spatial index.

PostGIS gives the paper's pipeline cheap "features near a point" queries;
this module provides the pure Python equivalent.  A :class:`GridIndex`
hashes items into fixed-size square cells by bounding box, which is the
right trade-off for road networks whose segments are short and uniformly
spread.  Query cost is O(items in nearby cells).
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable, Sequence
from typing import Generic, TypeVar

from repro.geo.geometry import Point

T = TypeVar("T", bound=Hashable)


class GridIndex(Generic[T]):
    """Spatial hash of items keyed by bounding boxes on a uniform grid.

    Items are inserted with an axis-aligned bounding box and retrieved by
    point-radius or box queries.  Candidate sets may contain false
    positives (bounding boxes only); callers refine with exact geometry.

    Cell buckets are insertion-ordered dicts, not lists: removal is O(1)
    per cell instead of an O(bucket) scan (re-insert-heavy workloads
    degrade quadratically otherwise), while iteration order — and thus
    every query result — stays exactly the insertion order a list gave.
    """

    __slots__ = ("cell_size", "_cells", "_boxes")

    def __init__(self, cell_size: float = 100.0) -> None:
        if cell_size <= 0.0:
            raise ValueError("cell_size must be positive")
        self.cell_size = float(cell_size)
        self._cells: dict[tuple[int, int], dict[T, None]] = {}
        self._boxes: dict[T, tuple[float, float, float, float]] = {}

    def __len__(self) -> int:
        return len(self._boxes)

    def __contains__(self, item: T) -> bool:
        return item in self._boxes

    def _key(self, x: float, y: float) -> tuple[int, int]:
        return (int(math.floor(x / self.cell_size)), int(math.floor(y / self.cell_size)))

    def _keys_for_box(
        self, x_min: float, y_min: float, x_max: float, y_max: float
    ) -> Iterable[tuple[int, int]]:
        i0, j0 = self._key(x_min, y_min)
        i1, j1 = self._key(x_max, y_max)
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                yield (i, j)

    def insert(
        self, item: T, x_min: float, y_min: float, x_max: float, y_max: float
    ) -> None:
        """Insert ``item`` with its bounding box. Re-inserting replaces it."""
        if x_max < x_min or y_max < y_min:
            raise ValueError("malformed bounding box")
        if item in self._boxes:
            self.remove(item)
        self._boxes[item] = (x_min, y_min, x_max, y_max)
        for key in self._keys_for_box(x_min, y_min, x_max, y_max):
            self._cells.setdefault(key, {})[item] = None

    def remove(self, item: T) -> None:
        """Remove ``item``; raises KeyError if absent.  O(cells covered)."""
        box = self._boxes.pop(item)
        for key in self._keys_for_box(*box):
            bucket = self._cells.get(key)
            if bucket is not None:
                bucket.pop(item, None)
                if not bucket:
                    del self._cells[key]

    def query_box(
        self, x_min: float, y_min: float, x_max: float, y_max: float
    ) -> list[T]:
        """Items whose bounding box intersects the query box."""
        seen: dict[T, None] = {}
        for key in self._keys_for_box(x_min, y_min, x_max, y_max):
            for item in self._cells.get(key, ()):
                if item in seen:
                    continue
                bx0, by0, bx1, by1 = self._boxes[item]
                if bx0 <= x_max and bx1 >= x_min and by0 <= y_max and by1 >= y_min:
                    seen[item] = None
        return list(seen)

    def query_radius(self, p: Point, radius: float) -> list[T]:
        """Items whose bounding box intersects the disc around ``p``.

        Bounding-box level only; callers wanting exact distance must refine.
        """
        if radius < 0.0:
            raise ValueError("radius must be non-negative")
        return self.query_box(p[0] - radius, p[1] - radius, p[0] + radius, p[1] + radius)

    def query_radius_many(self, points: Sequence[Point], radius: float) -> list[list[T]]:
        """Bulk :meth:`query_radius` — one result list per query point.

        Each list is exactly what ``query_radius(p, radius)`` returns (same
        items, same order: cells scanned row-major, bucket insertion order
        within a cell).  The cell-range arithmetic is hoisted out of the
        per-point call and the bbox test inlined, which is what makes the
        batched candidate-generation path cheap.
        """
        if radius < 0.0:
            raise ValueError("radius must be non-negative")
        cs = self.cell_size
        cells = self._cells
        boxes = self._boxes
        out: list[list[T]] = []
        for px, py in points:
            x_min = px - radius
            y_min = py - radius
            x_max = px + radius
            y_max = py + radius
            i0 = int(math.floor(x_min / cs))
            j0 = int(math.floor(y_min / cs))
            i1 = int(math.floor(x_max / cs))
            j1 = int(math.floor(y_max / cs))
            seen: dict[T, None] = {}
            for i in range(i0, i1 + 1):
                for j in range(j0, j1 + 1):
                    bucket = cells.get((i, j))
                    if not bucket:
                        continue
                    for item in bucket:
                        if item in seen:
                            continue
                        bx0, by0, bx1, by1 = boxes[item]
                        if bx0 <= x_max and bx1 >= x_min and by0 <= y_max and by1 >= y_min:
                            seen[item] = None
            out.append(list(seen))
        return out
