"""The 200 m x 200 m analysis grid (paper Sec. V, Table 5, Figs. 6 and 9).

Point speeds are pooled per grid cell; map features (traffic lights, bus
stops, pedestrian crossings, junctions) are counted per cell.  The paper
chose an even 200 m grid as a compromise between having enough
measurements per cell and capturing the effect of multiple map features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.geo.geometry import Point
from repro.roadnet.digiroad import MapDatabase
from repro.roadnet.elements import PointObjectKind
from repro.roadnet.graph import RoadGraph

CellKey = tuple[int, int]


@dataclass(frozen=True)
class GridSpec:
    """Grid geometry: square cells of ``cell_size_m`` anchored at origin."""

    cell_size_m: float = 200.0

    def __post_init__(self) -> None:
        if self.cell_size_m <= 0:
            raise ValueError("cell_size_m must be positive")

    def cell_of(self, p: Point) -> CellKey:
        return (
            int(math.floor(p[0] / self.cell_size_m)),
            int(math.floor(p[1] / self.cell_size_m)),
        )

    def cell_centre(self, key: CellKey) -> Point:
        return (
            (key[0] + 0.5) * self.cell_size_m,
            (key[1] + 0.5) * self.cell_size_m,
        )


@dataclass
class CellStats:
    """Online mean/variance of point speeds in one cell (Welford)."""

    n: int = 0
    mean: float = 0.0
    _m2: float = field(default=0.0, repr=False)

    def add(self, value: float) -> None:
        self.n += 1
        delta = value - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (value - self.mean)

    @property
    def variance(self) -> float:
        """Sample variance (0 for fewer than two observations)."""
        if self.n < 2:
            return 0.0
        return self._m2 / (self.n - 1)


class GridAccumulator:
    """Pools point speeds per grid cell."""

    def __init__(self, spec: GridSpec | None = None) -> None:
        self.spec = spec or GridSpec()
        self._cells: dict[CellKey, CellStats] = {}
        self._speeds: dict[CellKey, list[float]] = {}

    def add_point(self, xy: Point, speed_kmh: float) -> CellKey:
        """Add one measured point speed; returns its cell."""
        key = self.spec.cell_of(xy)
        self.add(key, speed_kmh)
        return key

    def add(self, key: CellKey, speed_kmh: float) -> None:
        """Add one point speed to a known cell (replaying ``add_point``s
        in order rebuilds the same Welford partials and cell order)."""
        stats = self._cells.get(key)
        if stats is None:
            stats = CellStats()
            self._cells[key] = stats
            self._speeds[key] = []
        stats.add(speed_kmh)
        self._speeds[key].append(speed_kmh)

    def cells(self) -> dict[CellKey, CellStats]:
        """All cells that received at least one measurement."""
        return dict(self._cells)

    def speeds(self, key: CellKey) -> list[float]:
        """Raw speed observations of one cell."""
        return list(self._speeds.get(key, ()))

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def point_count(self) -> int:
        return sum(stats.n for stats in self._cells.values())


def cell_feature_counts(
    spec: GridSpec,
    map_db: MapDatabase,
    graph: RoadGraph,
    cells: list[CellKey] | None = None,
) -> dict[CellKey, dict[str, int]]:
    """Per-cell counts of the four studied map features.

    Returns ``{cell: {"traffic_lights": n, "bus_stops": n,
    "pedestrian_crossings": n, "junctions": n}}``.  When ``cells`` is
    given, only those cells are reported (others are still counted but
    filtered from the result).
    """
    wanted = set(cells) if cells is not None else None
    out: dict[CellKey, dict[str, int]] = {}

    def bucket(key: CellKey) -> dict[str, int]:
        return out.setdefault(
            key,
            {
                "traffic_lights": 0,
                "bus_stops": 0,
                "pedestrian_crossings": 0,
                "junctions": 0,
            },
        )

    kind_names = {
        PointObjectKind.TRAFFIC_LIGHT: "traffic_lights",
        PointObjectKind.BUS_STOP: "bus_stops",
        PointObjectKind.PEDESTRIAN_CROSSING: "pedestrian_crossings",
    }
    for obj in map_db.point_objects():
        name = kind_names.get(obj.kind)
        if name is None:
            continue
        key = spec.cell_of(obj.position)
        if wanted is not None and key not in wanted:
            continue
        bucket(key)[name] += 1
    for node in graph.nodes():
        if graph.degree(node.node_id) >= 3:
            key = spec.cell_of(node.position)
            if wanted is not None and key not in wanted:
                continue
            bucket(key)["junctions"] += 1
    if wanted is not None:
        for key in wanted:
            bucket(key)  # ensure empty cells appear with zero counts
    return out


def stratify_cells_by_features(
    cell_stats: dict[CellKey, CellStats],
    features: dict[CellKey, dict[str, int]],
) -> dict[str, list[float]]:
    """The Table 5 stratification of cell average speeds.

    Returns the cell mean speeds grouped by the paper's four columns:
    lights == 0; lights == 0 and bus stops == 0; lights > 0 and
    bus stops > 0; lights > 0.
    """
    groups: dict[str, list[float]] = {
        "lights=0": [],
        "lights=0,bus=0": [],
        "lights>0,bus>0": [],
        "lights>0": [],
    }
    for key, stats in cell_stats.items():
        f = features.get(key, {})
        lights = f.get("traffic_lights", 0)
        buses = f.get("bus_stops", 0)
        if lights == 0:
            groups["lights=0"].append(stats.mean)
            if buses == 0:
                groups["lights=0,bus=0"].append(stats.mean)
        else:
            groups["lights>0"].append(stats.mean)
            if buses > 0:
                groups["lights>0,bus>0"].append(stats.mean)
    return groups
