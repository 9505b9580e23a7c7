"""Vectorized columnar geometry kernels.

NumPy batch counterparts of the scalar kernels in
:mod:`repro.geo.distance` and :mod:`repro.geo.geometry`.  The scalar
functions stay the reference implementations; every kernel here applies
*the same formula, in the same operation order*, over whole arrays, so
the batch results agree with the scalar path to the last few ulps (the
property the vectorized-pipeline equivalence tests pin down).

:mod:`repro.traces.arrays` builds a fleet's per-gap trip geometry from
:func:`gap_metrics` and :func:`haversine_m_vec` — a handful of array
operations instead of one Python-level trig call per route-point pair.
"""

from __future__ import annotations

import numpy as np

from repro.geo.distance import EARTH_RADIUS_M


def _as_f64(*arrays: object) -> tuple[np.ndarray, ...]:
    return tuple(np.asarray(a, dtype=np.float64) for a in arrays)


def haversine_m_vec(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Batch :func:`repro.geo.distance.haversine_m` (broadcasting).

    Includes the antipodal clamp of the scalar version: rounding can push
    the haversine term a hair above 1, which would make ``arcsin`` NaN.
    """
    lat1, lon1, lat2, lon2 = _as_f64(lat1, lon1, lat2, lon2)
    phi1 = np.radians(lat1)
    phi2 = np.radians(lat2)
    dphi = np.radians(lat2 - lat1)
    dlam = np.radians(lon2 - lon1)
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(a)))


def gap_metrics(
    lat: np.ndarray, lon: np.ndarray, time_s: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-gap great-circle distance and time delta along a point column.

    For ``n`` points returns ``(dist_m, dt_s)`` arrays of length ``n - 1``
    where entry ``i`` describes the gap between points ``i`` and ``i + 1``
    — the quantities every Table 2 stop rule is a predicate over.
    """
    lat, lon, time_s = _as_f64(lat, lon, time_s)
    if lat.shape[0] < 2:
        empty = np.empty(0, dtype=np.float64)
        return empty, empty.copy()
    dist = haversine_m_vec(lat[:-1], lon[:-1], lat[1:], lon[1:])
    return dist, time_s[1:] - time_s[:-1]


def project_onto_segments(
    px, py, ax, ay, bx, by
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch point-to-segment projection.

    Row ``i`` projects point ``(px[i], py[i])`` onto segment
    ``(ax[i], ay[i]) - (bx[i], by[i])``.  Returns ``(cx, cy, t)`` — the
    closest point and its clamped parameter in ``[0, 1]`` — with the exact
    degenerate-segment convention of :meth:`LineString.project` (zero
    length => ``t = 0`` at the segment start).
    """
    px, py, ax, ay, bx, by = _as_f64(px, py, ax, ay, bx, by)
    dx = bx - ax
    dy = by - ay
    denom = dx * dx + dy * dy
    denom = np.where(denom == 0.0, 1.0, denom)
    t = np.clip(((px - ax) * dx + (py - ay) * dy) / denom, 0.0, 1.0)
    return ax + t * dx, ay + t * dy, t
