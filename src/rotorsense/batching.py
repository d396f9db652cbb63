"""Adaptive batch growth and density-aware downsampling.

Batches grow bundle by bundle while the new bundle's warp objective
stays consistent with the batch tail under the current speed estimate;
a speed change inflates the relative objective gap and stops growth, so
the constant-velocity assumption holds inside every batch. Grown
batches can then be thinned by density importance sampling: events are
kept with probability proportional to the number of events in their
spatiotemporal voxel (ceil(space_radius_px) pixels square by
ceil(time_radius_us) microseconds), which discards isolated noise before
the (per-candidate-speed) warp evaluations run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import PipelineConfig
from .errors import ConfigError, DegenerateInputError
from .events import EventBatch, EventBundle, Events
from .motion import ObjectiveEvaluator, patch_for
from .preprocess import group_keys, is_dense


class StopReason(str, Enum):
    CONSISTENCY = "consistency"
    BUNDLE_LIMIT = "bundle_limit"
    STREAM_END = "stream_end"


def consistency_rate(
    last_bundle: EventBundle,
    candidate: EventBundle,
    omega_rad_s: float,
    center: tuple[float, float],
    eps: float = 1.0,
    spin: int = +1,
    half_size: int | None = None,
) -> float:
    """Relative alignment-score gap between a candidate bundle and the
    batch tail: |S(candidate) - S(last)| / S(last).

    Both bundles are warped with the same speed to the same reference
    time over identical patch geometry. The score S is the log of the
    combined warp objective: the accumulation reward is exponential in
    per-pixel counts, so on the raw objective a one-event difference in
    the tallest pile swings the ratio by e^+-1 between perfectly
    consistent bundles; the log domain keeps the rate small for
    same-speed bundles and large when the candidate's alignment
    collapses. An empty candidate yields +inf (reject). The default
    patch half-size is the larger of the two bundles' ``patch_for``.
    """
    if len(candidate) == 0:
        return math.inf
    if half_size is None:
        half_size = max(patch_for(b.events, center) for b in (last_bundle, candidate))
    t_ref = last_bundle.t_start
    s_last = math.log(
        ObjectiveEvaluator(last_bundle.events, center, t_ref, half_size, eps, spin=spin).value(omega_rad_s)
    )
    s_cand = math.log(
        ObjectiveEvaluator(candidate.events, center, t_ref, half_size, eps, spin=spin).value(omega_rad_s)
    )
    return abs(s_cand - s_last) / abs(s_last)


@dataclass(frozen=True)
class GrowResult:
    batch: EventBatch
    reason: StopReason
    next_index: int  # first bundle not consumed into the batch


def grow_batch(
    bundles: list[EventBundle],
    cfg: PipelineConfig,
    omega_rad_s: float,
    center: tuple[float, float],
    *,
    start: int = 0,
    spin: int = +1,
) -> GrowResult:
    """Grow a batch from bundles[start] while each next bundle's
    consistency rate (at cfg.epsilon) stays below cfg.delta, up to
    cfg.beta bundles; returns the batch and why growth stopped. A gap
    before the next bundle stops growth for consistency, as an empty
    candidate does, and as a pair of bundles whose patch exceeds
    motion.MAX_PATCH_AREA does."""
    if not bundles or start >= len(bundles):
        raise ConfigError("bundle stream is empty at the requested start")
    taken = [bundles[start]]
    k = start
    m = start + 1
    half_k = None  # patch_for(bundles[k].events), once needed
    reason = StopReason.STREAM_END
    while m < len(bundles):
        if len(taken) >= cfg.beta:
            reason = StopReason.BUNDLE_LIMIT
            break
        if bundles[m].t_start != bundles[k].t_end:
            reason = StopReason.CONSISTENCY
            break
        if half_k is None:
            half_k = patch_for(bundles[k].events, center)
        half_m = patch_for(bundles[m].events, center)
        try:
            rate = consistency_rate(bundles[k], bundles[m], omega_rad_s, center, cfg.epsilon, spin, max(half_k, half_m))
        except DegenerateInputError:  # a patch too large to score
            rate = math.inf
        if not rate < cfg.delta:
            reason = StopReason.CONSISTENCY
            break
        taken.append(bundles[m])
        k, half_k = m, half_m
        m += 1
    return GrowResult(batch=EventBatch(tuple(taken)), reason=reason, next_index=m)


def local_density(events: Events, space_radius_px: float, time_radius_us: float) -> np.ndarray:
    """Self-inclusive count of the events sharing each event's voxel.

    Voxels tile (x, y, t) with edges ceil(space_radius_px) pixels and
    ceil(time_radius_us) microseconds, anchored at pixel 0 and at the
    first event's time. One count over the voxels of the events'
    bounding box, time slabs ranked, gives a density proxy that needs no
    pair checks; every event counts itself, so the result is >= 1. A
    dense box (`is_dense`) is counted by one bincount read back at each
    event's voxel, a sparse one by `group_keys`' sort. The box holds
    fewer than 2^32 * len(events) voxels, which fits int64 for any
    uint16 coordinates and any uint64 time span.
    """
    n = len(events)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    side = int(math.ceil(space_radius_px))
    cx = events.x.astype(np.int64) // side
    cy = events.y.astype(np.int64) // side
    cx -= cx.min()
    cy -= cy.min()
    ct = (events.t - events.t[0]) // np.uint64(math.ceil(time_radius_us))
    # t is nondecreasing, so counting slab changes ranks the time slabs in [0, n)
    ct_rank = np.concatenate([[0], np.cumsum(ct[1:] != ct[:-1])])
    ny, nt = int(cy.max()) + 1, int(ct_rank[-1]) + 1
    keys, size = (cx * ny + cy) * nt + ct_rank, (int(cx.max()) + 1) * ny * nt
    if is_dense(keys, size):
        return np.bincount(keys)[keys]
    _, inverse, counts = group_keys(keys, size)
    return counts[inverse]


def density_downsample(batch: Events, cfg: PipelineConfig, seed: int) -> Events:
    """Keep ceil(cfg.sample_fraction * N) events, chosen without replacement
    with probability proportional to local density; time order is
    preserved and the result is deterministic per seed.

    The density weight of an event is ``local_density``: the number of
    events in its voxel of ceil(space_radius_px) x ceil(space_radius_px)
    pixels by ceil(time_radius_us) microseconds. Sampling uses
    exponential keys: item i survives ranking by log(u_i) / w_i with u_i
    uniform, the standard single-pass weighted reservoir scheme
    (Efraimidis and Spirakis, 2006), which needs weights roughly
    proportional to density rather than exact neighbor counts.
    """
    n = len(batch)
    if cfg.sample_fraction >= 1.0 or n == 0:
        return batch
    n_keep = math.ceil(cfg.sample_fraction * n)
    weights = local_density(batch, cfg.space_radius_px, cfg.time_radius_us).astype(np.float64)
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    keys = np.log(u) / weights  # weights >= 1 by self-inclusion
    keep = np.argpartition(keys, n - n_keep)[n - n_keep:]
    keep.sort()
    return batch.select(keep)
