"""Struct-of-arrays trace representation.

:class:`FleetArrays` holds a batch of trips' route points as parallel
NumPy columns plus per-trip offsets — the shape the cleaning kernels
consume.  A batch is a whole fleet on the serial path, one chunk per
pool task, or a single trip on the streaming path; a one-trip batch is
simply ``offsets == [0, n]``.  The row-oriented
:class:`~repro.traces.model.RoutePoint` dataclasses stay the interchange
format: every column is built in one ``np.fromiter`` pass over the
batch's points.

Rows are trip-major: trip ``k`` owns rows ``offsets[k]:offsets[k + 1]``.
Gap arrays (great-circle distance and time delta between consecutive
rows) are computed once per batch and cached; a gap that joins the last
row of one trip to the first row of the next is computed too, and
:meth:`FleetArrays.inner_gaps` masks it out.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from repro.geo.vector import gap_metrics, haversine_m_vec
from repro.traces.model import RoutePoint, Trip


@dataclass
class FleetArrays:
    """A batch of trips' route points as parallel columns.

    Columns must be treated as read-only; the cached trip index and gap
    arrays assume they never change (derive a new batch with
    :meth:`take` instead).
    """

    point_id: np.ndarray   # (n,) int64
    lat: np.ndarray        # (n,) float64, degrees
    lon: np.ndarray        # (n,) float64, degrees
    time_s: np.ndarray     # (n,) float64
    speed_kmh: np.ndarray  # (n,) float64
    fuel_ml: np.ndarray    # (n,) float64
    offsets: np.ndarray    # (n_trips + 1,) int64, trip k = rows offsets[k]:offsets[k+1]
    trip_ids: np.ndarray   # (n_trips,) int64
    car_ids: np.ndarray    # (n_trips,) int64
    _trip_index: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _gaps: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    #: The point columns, in schema order.
    COLUMN_NAMES = ("point_id", "lat", "lon", "time_s", "speed_kmh", "fuel_ml")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_trips(cls, trips: list[Trip]) -> "FleetArrays":
        """Columnar view of a batch of trips (one ``np.fromiter`` per column)."""
        counts = np.fromiter(
            (len(t.points) for t in trips), dtype=np.int64, count=len(trips)
        )
        points = [p for t in trips for p in t.points]
        return cls._build(
            points,
            counts,
            np.fromiter((t.trip_id for t in trips), dtype=np.int64, count=len(trips)),
            np.fromiter((t.car_id for t in trips), dtype=np.int64, count=len(trips)),
        )

    @classmethod
    def from_trip(cls, trip: Trip) -> "FleetArrays":
        """A one-trip batch."""
        return cls.from_trips([trip])

    @classmethod
    def from_points(cls, points: list[RoutePoint]) -> "FleetArrays":
        """A one-trip batch over a bare point list (trip and car id 0)."""
        zero = np.zeros(1, dtype=np.int64)
        return cls._build(points, np.array([len(points)], dtype=np.int64), zero, zero)

    @classmethod
    def _build(cls, points, counts, trip_ids, car_ids) -> "FleetArrays":
        n = len(points)
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        columns = {
            name: np.fromiter(
                map(operator.attrgetter(name), points),
                dtype=np.int64 if name == "point_id" else np.float64,
                count=n,
            )
            for name in cls.COLUMN_NAMES
        }
        return cls(**columns, offsets=offsets, trip_ids=trip_ids, car_ids=car_ids)

    def take(self, rows: np.ndarray, **columns: np.ndarray) -> "FleetArrays":
        """The batch restricted to (and reordered by) ``rows``.

        ``rows`` must keep every trip's rows inside that trip's span, in
        trip order — a per-trip permutation or a filter.  Keyword
        ``columns`` replace the gathered column of that name (they are
        already aligned with ``rows``).
        """
        counts = np.bincount(self.trip_index()[rows], minlength=self.n_trips)
        offsets = np.zeros(self.n_trips + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        gathered = {
            name: columns[name] if name in columns else getattr(self, name)[rows]
            for name in self.COLUMN_NAMES
        }
        return FleetArrays(
            **gathered, offsets=offsets, trip_ids=self.trip_ids, car_ids=self.car_ids
        )

    # -- shape --------------------------------------------------------------

    def __len__(self) -> int:
        return int(self.lat.shape[0])

    @property
    def n_trips(self) -> int:
        return int(self.offsets.shape[0]) - 1

    def trip_index(self) -> np.ndarray:
        """``(n,)`` batch position of each row's trip (cached)."""
        if self._trip_index is None:
            offsets = self.offsets
            self._trip_index = np.repeat(
                np.arange(self.n_trips, dtype=np.int64), offsets[1:] - offsets[:-1]
            )
        return self._trip_index

    def columns(self) -> dict[str, np.ndarray]:
        """The point columns by name (views, not copies)."""
        return {name: getattr(self, name) for name in self.COLUMN_NAMES}

    # -- cached gap geometry ------------------------------------------------

    def gaps(self) -> tuple[np.ndarray, np.ndarray]:
        """``(dist_m, dt_s)`` arrays over consecutive-row gaps (cached).

        Gap ``g`` joins rows ``g`` and ``g + 1``; see :meth:`inner_gaps`
        for which gaps lie inside one trip.
        """
        if self._gaps is None:
            self._gaps = gap_metrics(self.lat, self.lon, self.time_s)
        return self._gaps

    def inner_gaps(self) -> np.ndarray:
        """``(n - 1,)`` mask of the gaps whose two rows share a trip."""
        trip = self.trip_index()
        return trip[:-1] == trip[1:]

    def path_lengths_m(self, rows: np.ndarray | None = None) -> list[float]:
        """Each trip's length — the sum of its great-circle hops.

        With ``rows`` (a per-trip permutation, as for :meth:`take`) the
        trips are walked in that order instead.  Each length is a
        ``np.sum`` over the trip's own slice of the hop array, so it is
        bit-identical to summing a one-trip batch: segmented reductions
        (``np.add.reduceat``, ``cumsum`` differences) associate the
        additions differently and are not.
        """
        if rows is None:
            hops = self.gaps()[0]
        else:
            lat, lon = self.lat[rows], self.lon[rows]
            hops = haversine_m_vec(lat[:-1], lon[:-1], lat[1:], lon[1:])
        bounds = self.offsets.tolist()
        return [
            float(hops[lo : hi - 1].sum()) if hi - lo > 1 else 0.0
            for lo, hi in zip(bounds, bounds[1:])
        ]
