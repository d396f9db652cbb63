"""Noise filtering via temporal-distribution heatmaps and propeller
segmentation via k-means.

Rotating blades produce dense, polarity-balanced event clumps; sensor
noise is sparse and polarity-skewed. Binning a short window into a
spatial grid and thresholding per-bin count and positive-polarity
fraction removes most noise without touching blade events. The
surviving events are then split into per-propeller tracks with Lloyd's
algorithm on their (x, y) coordinates; the converged centroids are the
rotation-center estimates used by motion compensation. A short window
holds several events per pixel, so Lloyd runs over the distinct pixels
weighted by their event counts, which gives the same centroids as a run
over every event.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .events import Events

# `segment_propellers` stops Lloyd's iteration once no centroid moves by
# KMEANS_TOL px or more, or after KMEANS_MAX_ITERS iterations
KMEANS_MAX_ITERS = 100
KMEANS_TOL = 1e-3
# `robust_center` re-averages ROBUST_ITERS times
ROBUST_TRIM = 1.5
ROBUST_ITERS = 3


@dataclass(frozen=True)
class HeatmapPair:
    """Per-bin event counts and positive-polarity fractions for one window.

    Bin (i, j) aggregates events with floor(x / bin_size) == i and
    floor(y / bin_size) == j, so axis 0 indexes columns and axis 1 rows.
    Bins with no events carry a fraction of 0.
    """

    bin_size: int
    count_map: np.ndarray
    positive_fraction_map: np.ndarray
    window: tuple[int, int]


def build_heatmaps(events: Events, window: tuple[int, int], bin_size: int) -> HeatmapPair:
    """Bin the windowed events into count and polarity-fraction grids."""
    if bin_size < 1:
        raise ConfigError(f"bin_size must be >= 1, got {bin_size}")
    t_lo, t_hi = window
    if t_hi < t_lo:
        raise ConfigError("window interval is inverted")
    windowed = events.time_slice(t_lo, t_hi)
    if len(windowed) == 0:
        return HeatmapPair(bin_size, np.zeros((1, 1), np.int64), np.zeros((1, 1)), (t_lo, t_hi))
    bx = windowed.x.astype(np.int64) // bin_size
    by = windowed.y.astype(np.int64) // bin_size
    nx, ny = int(bx.max()) + 1, int(by.max()) + 1
    flat = bx * ny + by
    counts = np.bincount(flat, minlength=nx * ny)
    positives = np.bincount(flat, weights=(windowed.p > 0).astype(np.float64), minlength=nx * ny)
    fraction = np.divide(positives, counts, out=np.zeros(nx * ny), where=counts > 0)
    return HeatmapPair(
        bin_size=bin_size,
        count_map=counts.reshape(nx, ny),
        positive_fraction_map=fraction.reshape(nx, ny),
        window=(t_lo, t_hi),
    )


def filter_noise(
    events: Events,
    heatmaps: HeatmapPair,
    count_ratio: float = 1.0 / 3.0,
    polarity_band: tuple[float, float] = (0.3, 0.7),
    return_mask: bool = False,
):
    """Keep events whose bin passes both the count and polarity tests.

    A bin passes when its count is at least count_ratio times the mean
    count over nonzero bins and its positive fraction lies inside
    polarity_band (inclusive). Zero bins are excluded from the mean so
    sparse sensors do not deflate the threshold. Event order is
    preserved. With return_mask the per-event keep mask (over the
    windowed events) comes back alongside.
    """
    lo, hi = polarity_band
    if not 0.0 <= lo <= hi <= 1.0:
        raise ConfigError(f"polarity band must satisfy 0 <= lo <= hi <= 1, got {polarity_band}")
    if count_ratio < 0:
        raise ConfigError("count_ratio must be nonnegative")
    windowed = events.time_slice(*heatmaps.window)
    if len(windowed) == 0:
        keep = np.zeros(0, dtype=bool)
        return (windowed, keep) if return_mask else windowed
    counts = heatmaps.count_map
    nonzero = counts[counts > 0]
    threshold = count_ratio * float(nonzero.mean()) if nonzero.size else 0.0
    passing = (counts >= threshold) & (heatmaps.positive_fraction_map >= lo) & (
        heatmaps.positive_fraction_map <= hi
    )
    nx, ny = counts.shape
    bx = windowed.x.astype(np.int64) // heatmaps.bin_size
    by = windowed.y.astype(np.int64) // heatmaps.bin_size
    inside = (bx < nx) & (by < ny)
    keep = np.zeros(len(windowed), dtype=bool)
    keep[inside] = passing[bx[inside], by[inside]]
    kept = windowed.select(keep)
    return (kept, keep) if return_mask else kept


@dataclass(frozen=True)
class PropellerTrack:
    """One propeller's member events and rotation-center estimate."""

    members: np.ndarray  # ascending indices of the track's events in the segmented stream
    centroid: tuple[float, float]


def robust_center(events: Events) -> tuple[float, float]:
    """Rotation-center estimate tolerant of residual background noise.

    Starts from the component-wise median and iteratively re-averages the
    events within ROBUST_TRIM times the median radius, so uniformly
    spread leftover noise far from the rotor cannot drag the center the
    way a plain mean does. Deterministic; a trim of at least 1 keeps the
    nearest pixel, so no pass is empty. Runs over the distinct pixels
    weighted by their event counts: the medians are those of the events
    and the trimmed means are exact integer sums over the event count,
    so the result is the same doubles as a pass over every event.
    """
    if len(events) == 0:
        raise DataError("cannot locate a center from an empty track")
    pixels, counts, _ = distinct_pixels(events)
    coords = pixels.astype(np.float64)
    center = np.array([_weighted_median(coords[:, 0], counts), _weighted_median(coords[:, 1], counts)])
    for _ in range(ROBUST_ITERS):
        radii = np.hypot(coords[:, 0] - center[0], coords[:, 1] - center[1])
        keep = radii <= ROBUST_TRIM * _weighted_median(radii, counts)
        center = counts[keep] @ coords[keep] / counts[keep].sum()
    return float(center[0]), float(center[1])


def _weighted_median(values: np.ndarray, counts: np.ndarray) -> float:
    """np.median of `values` with each one repeated counts times: the
    middle value, or the mean of the two middle values for an even total."""
    order = np.argsort(values, kind="stable")
    cumulative = np.cumsum(counts[order])
    n = int(cumulative[-1])
    lo, hi = order[np.searchsorted(cumulative, [(n - 1) // 2, n // 2], side="right")]
    return (values[lo] + values[hi]) / 2


# Key ranges, per key plus a floor, up to which `group_keys` counts with a
# bincount over the range instead of sorting the keys. On the voxel keys of
# an 18k-event rotor_dense batch, spread over more cells, the bincount took
# 341 / 608 / 2007 us at 8 / 16 / 32 cells per key against 661 / 613 / 527 us
# for np.unique; with 100-3000 uniform keys the two tie at 2^14-2^15 cells.
DENSE_CELLS_PER_KEY = 16
DENSE_CELLS_FLOOR = 2**14


def is_dense(keys: np.ndarray, size: int) -> bool:
    """True when the range [0, size) holds at most DENSE_CELLS_PER_KEY
    cells per key (plus DENSE_CELLS_FLOOR): a bincount over it is then
    cheaper than sorting the keys."""
    return size <= DENSE_CELLS_PER_KEY * keys.size + DENSE_CELLS_FLOOR


def group_keys(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.unique(keys, return_inverse=True, return_counts=True) for integer
    keys in [0, size): the distinct keys in ascending order, each key's
    index among them, and how often each occurs. A dense range
    (`is_dense`) is counted by one bincount and indexed by a lookup over
    the range, in linear time; a sparser one is sorted."""
    if not is_dense(keys, size):
        return np.unique(keys, return_inverse=True, return_counts=True)
    counts = np.bincount(keys, minlength=size)
    distinct = np.flatnonzero(counts > 0)
    index = np.zeros(size, np.intp)
    index[distinct] = np.arange(distinct.size)
    return distinct, index[keys], counts[distinct]


def distinct_pixels(events: Events) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct (x, y) pixels of a stream, in (x, y) lexicographic order.

    Returns (pixels, counts, inverse): an (m, 2) int64 array of the
    distinct coordinates, the number of events on each, and each event's
    row in pixels, so pixels[inverse] rebuilds the per-event coordinates.
    The events are grouped by `group_keys` on (x - x0) * ny + (y - y0)
    over their bounding box [x0, x0 + nx) x [y0, y0 + ny), a key that
    orders like (x, y).
    """
    x, y = events.x.astype(np.int64), events.y.astype(np.int64)
    x0, y0 = (int(x.min()), int(y.min())) if x.size else (0, 0)
    nx, ny = int(x.max(initial=x0)) - x0 + 1, int(y.max(initial=y0)) - y0 + 1
    keys, inverse, counts = group_keys((x - x0) * ny + (y - y0), nx * ny)
    pixels = np.column_stack([keys // ny + x0, keys % ny + y0])
    return pixels, counts, inverse


def _farthest_point_seeds(coords: np.ndarray, k: int) -> np.ndarray:
    """Deterministic seeding over distinct pixels in (x, y) order: the
    smallest (x, y) first, then repeatedly the pixel farthest from all
    chosen seeds. argmax takes the first of equal distances, which is
    the smallest (x, y), so shuffled input cannot change the result."""
    seeds = np.empty((k, 2))
    seeds[0] = coords[0]
    dist = np.sum((coords - seeds[0]) ** 2, axis=1)
    for i in range(1, k):
        seeds[i] = coords[int(np.argmax(dist))]
        dist = np.minimum(dist, np.sum((coords - seeds[i]) ** 2, axis=1))
    return seeds


def _weighted_means(coords: np.ndarray, weights: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    """Per-cluster means of the pixels, each pixel counted weights times;
    NaN for a cluster with no pixel."""
    total = np.bincount(assign, weights=weights, minlength=k)[:, None]
    sums = np.column_stack([np.bincount(assign, weights=weights * coords[:, j], minlength=k) for j in range(2)])
    return np.divide(sums, total, out=np.full((k, 2), np.nan), where=total > 0)


def segment_propellers(events: Events, k: int) -> list[PropellerTrack]:
    """Split a filtered stream into k per-propeller tracks.

    Lloyd's iteration on spatial coordinates with deterministic
    farthest-point seeding, so no random seed is needed. It runs over
    the distinct pixels, each weighted by its event count: x, y and the
    counts are integers, so every centroid sum is exact in float64 and
    each centroid is the same double as the mean over the member events.
    An emptied cluster is re-seeded with the whole pixel currently
    farthest from its assigned centroid (ties: smallest x, y). The
    count-weighted within-cluster sum of squares is checked to be
    nonincreasing every iteration; an increase raises NumericalError.
    Tracks come back ordered by centroid (y, x); each lists its member
    events by index, every event in exactly one track.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if len(events) == 0:
        raise DataError("cannot segment an empty stream")
    pixels, counts, inverse = distinct_pixels(events)
    if k > len(pixels):
        raise DataError(f"k={k} exceeds the {len(pixels)} distinct event coordinates")
    coords = pixels.astype(np.float64)
    weights = counts.astype(np.float64)

    centroids = _farthest_point_seeds(coords, k)
    prev_objective = np.inf
    for _ in range(KMEANS_MAX_ITERS):
        d2 = np.sum((coords[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        assign = np.argmin(d2, axis=1)
        point_d2 = d2[np.arange(len(coords)), assign]
        for c in range(k):
            if not np.any(assign == c):
                far = int(np.argmax(point_d2))
                centroids[c] = coords[far]
                assign[far] = c
                point_d2[far] = 0.0
        new_centroids = _weighted_means(coords, weights, assign, k)
        objective = float(np.sum(weights * np.sum((coords - new_centroids[assign]) ** 2, axis=1)))
        if not objective <= prev_objective + 1e-6 * max(1.0, min(prev_objective, objective)):
            raise NumericalError(f"k-means objective increased: {prev_objective} -> {objective}")
        shift = float(np.max(np.abs(new_centroids - centroids)))
        centroids = new_centroids
        prev_objective = objective
        if shift < KMEANS_TOL:
            break

    # final assignment against converged centroids
    d2 = np.sum((coords[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    assign = np.argmin(d2, axis=1)
    member_means = _weighted_means(coords, weights, assign, k)
    event_assign = assign[inverse]
    order = np.lexsort((centroids[:, 0], centroids[:, 1]))
    tracks = []
    for c in order:
        members = np.flatnonzero(event_assign == c)
        centroid = member_means[c] if members.size else centroids[c]
        tracks.append(PropellerTrack(members=members, centroid=(float(centroid[0]), float(centroid[1]))))
    return tracks
