"""Reference implementations the package's kernels are tested against.

`warp` and `accumulate` rotate and rasterize events one step at a time,
and `reward_accumulation` and `reward_sparsity` score a whole count
image, pixel by pixel; `ObjectiveEvaluator` fuses these steps, and the
tests compare the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rotorsense.errors import ConfigError
from rotorsense.events import Events
from rotorsense.motion import H_MAX_DEFAULT, US_TO_S, PatchGeometry


@dataclass
class WarpedImage:
    """Accumulated warped-event counts over a patch around the rotor."""

    counts: np.ndarray
    t_ref: int
    origin: tuple[float, float]
    n_dropped: int = 0


def warp(
    events: Events,
    center: tuple[float, float],
    t_ref_us: int,
    omega_rad_s: float,
) -> np.ndarray:
    """Rotate center-relative event coordinates back to the reference time.

    Returns an (N, 2) float array in event order; an event at t_ref (or
    any event when omega is 0) keeps its coordinates.
    """
    dx = events.x.astype(np.float64) - center[0]
    dy = events.y.astype(np.float64) - center[1]
    dt_s = (events.t.astype(np.int64) - np.int64(t_ref_us)).astype(np.float64) * US_TO_S
    theta = omega_rad_s * dt_s
    c, s = np.cos(theta), np.sin(theta)
    out = np.empty((len(events), 2))
    out[:, 0] = c * dx - s * dy
    out[:, 1] = s * dx + c * dy
    return out


def accumulate(
    warped: np.ndarray,
    patch: PatchGeometry,
    center: tuple[float, float],
    t_ref_us: int = 0,
) -> WarpedImage:
    """Rasterize warped points into integer pixel counts (floor binning).

    Each point increments the sensor pixel containing center + point;
    points outside the patch are dropped and counted.
    """
    half = patch.half_size
    side = patch.side
    x0 = math.floor(center[0]) - half
    y0 = math.floor(center[1]) - half
    counts = np.zeros((side, side), dtype=np.int64)
    if warped.size:
        ix = np.floor(warped[:, 0] + center[0]).astype(np.int64) - x0
        iy = np.floor(warped[:, 1] + center[1]).astype(np.int64) - y0
        inside = (ix >= 0) & (ix < side) & (iy >= 0) & (iy < side)
        flat = np.bincount(ix[inside] * side + iy[inside], minlength=side * side)
        counts += flat.reshape(side, side)
        n_dropped = int((~inside).sum())
    else:
        n_dropped = 0
    return WarpedImage(counts=counts, t_ref=t_ref_us, origin=center, n_dropped=n_dropped)


def _counts_of(image: WarpedImage | np.ndarray) -> np.ndarray:
    return image.counts if isinstance(image, WarpedImage) else np.asarray(image)


def reward_accumulation(image: WarpedImage | np.ndarray, h_max: float = H_MAX_DEFAULT) -> float:
    """sum over pixels of exp(count), count capped at h_max."""
    h = np.minimum(_counts_of(image).astype(np.float64), h_max)
    return float(np.exp(h).sum())


def reward_sparsity(
    image: WarpedImage | np.ndarray, eps: float = 1.0, h_max: float = H_MAX_DEFAULT
) -> float:
    """sum over pixels of 1 / (exp(count) - 1 + eps); empty pixels give 1/eps."""
    if eps <= 0:
        raise ConfigError(f"eps must be positive, got {eps}")
    h = np.minimum(_counts_of(image).astype(np.float64), h_max)
    return float((1.0 / (np.exp(h) - 1.0 + eps)).sum())
