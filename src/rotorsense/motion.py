"""Rotational speed estimation by event warping and reward maximization.

Events from one propeller are warped backward to a reference time by
rotating their center-relative coordinates through -omega*(t - t_ref).
At the true angular speed the warped events pile onto the blade
silhouette, which is scored by two complementary rewards on the warped
count image: an accumulation term sum(exp(h)) that favors tall pile-ups
and a sparsity term sum(1/(exp(h)-1+eps)) that favors many empty
pixels. The speed is the argmax of their sum over a bracket, located by
a scan of every third grid candidate, a scan of the grid candidates
around its best, and bounded Brent refinement. Every candidate, in a
scan or in Brent, is scored by the same kernel: direct float32 trig of
its warp angles, a bincount of the warped pixels and two table lookups
per occupied pixel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInputError, EstimationError
from .events import Events

# Cap inside exp(): overflow guard only. Well-aligned desk-scale batches
# stack ~100 events per pixel, so the cap must sit far above that or the
# peak flattens; float64 holds exp(300) comfortably.
H_MAX_DEFAULT = 300.0
US_TO_S = 1e-6
# Half-width, as a fraction of the prior speed, of the grid window a locked
# scan scores first. On rendered flights (hover 3000 RPM, +-300 RPM
# commands, 60 RPM jitter; 3634 locked batches) the speed moved at most
# 0.27 x prior between consecutive batches, and the objective's peak fell
# to half its height over the scan's median within 0.05 x prior of the
# argmax: the sum keeps the top of a peak that far off inside the window.
PRIOR_WINDOW_HALF_WIDTH = 0.32
# Grid indices between the candidates of the first scan. On the same
# flights the objective stayed above half its peak height within 0.05 x
# prior of the argmax, 3.15 steps of a 64-candidate [0.5, 1.5] x prior
# grid, so every third candidate leaves one in the main lobe, at most one
# step from the peak. Scoring the fine candidates within two steps of the
# best of these then finds the full grid's argmax whenever that best lies
# in its lobe.
LATTICE_STRIDE = 3
# Largest count image a patch may have: 4096 x 4096 px, far above the
# 1280 x 720 px of common event sensors and far inside the int32 pixel
# indices. A batch whose events span more (a stray event thousands of px
# from the rotor) is degenerate.
MAX_PATCH_AREA = 2**24
# Most candidates a speed grid may hold. Brent refines between the best
# candidate's neighbours, so a finer grid buys no accuracy: 16384 steps
# resolve a 0-16000 RPM bracket to about 1 RPM, and scoring them all, as a
# flat lattice's fallback does, takes about a second on a 4500-event batch.
MAX_GRID = 2**14
# Relative slack on the largest event radius that a patch must hold:
# float32 rounding of cos and sin (a few 2^-24 relative on |(cos, sin)|),
# of the coordinates (2^-24 relative), of the rotated sums and of the
# shifted pixel coordinate (2^-13 px in a patch of MAX_PATCH_AREA), with
# room to spare. PATCH_MARGIN covers it up to that area.
RADIUS_SLACK = 2**-10
# Pixels `patch_for` adds to the largest event radius.
PATCH_MARGIN = 2
# Iterations after which `brent_max` stops short of its tolerance.
BRENT_MAX_ITER = 100
# The accumulation reward exp(h) of a pixel holding h events, for every
# count up to the cap: the scores index it instead of calling exp.
_H_CAP = int(H_MAX_DEFAULT)
_EXP_TABLE = np.exp(np.arange(_H_CAP + 1.0))


def patch_for(events: Events, center: tuple[float, float]) -> int:
    """Half-size of the smallest square patch, centered on the rotor,
    containing every possible warp of these events.

    Warping is a pure rotation about the center, so radii are preserved
    and a patch spanning the maximum event radius plus PATCH_MARGIN holds
    every warped point for every candidate speed.
    """
    if len(events) == 0:
        return PATCH_MARGIN
    dx = events.x.astype(np.float64) - center[0]
    dy = events.y.astype(np.float64) - center[1]
    r_max = float(np.sqrt(np.max(dx * dx + dy * dy)))
    return int(math.ceil(r_max)) + PATCH_MARGIN


class ObjectiveEvaluator:
    """Reusable objective R(omega) for one event batch.

    Precomputes center-relative coordinates, time offsets and the
    sparsity reward table, so each candidate speed costs one kernel pass:
    float32 trig of the per-event warp angles, a rotation into the patch
    frame, a bincount, and two table lookups per occupied pixel, with
    counts capped at H_MAX_DEFAULT. Empty pixels contribute the
    closed-form constant (1 + 1/eps) each. R is the unweighted sum of the
    accumulation and sparsity rewards. ``value`` and ``value_grid`` run
    the same kernel, so a candidate scores the same bits either way.

    The patch is the square of side 2 * half_size + 1 whose pixel (i, j)
    is the sensor pixel (floor(cx) - half_size + i, floor(cy) - half_size
    + j). It must hold every warp of every event: the largest event
    radius, stretched by RADIUS_SLACK, must not exceed half_size
    (``patch_for``, the default, pads it by PATCH_MARGIN px), or
    ConfigError is raised. So every warped event lands inside the patch
    and its pixel index needs no bounds check. A patch larger than
    MAX_PATCH_AREA raises DegenerateInputError.
    """

    def __init__(
        self,
        events: Events,
        center: tuple[float, float],
        t_ref_us: int,
        half_size: int | None = None,
        eps: float = 1.0,
        spin: int = +1,
    ) -> None:
        if eps <= 0:
            raise ConfigError(f"eps must be positive, got {eps}")
        if spin not in (-1, +1):
            raise ConfigError("spin must be -1 or +1")
        half = patch_for(events, center) if half_size is None else half_size
        self.side = 2 * half + 1
        self.area = self.side * self.side
        if self.area > MAX_PATCH_AREA:
            raise DegenerateInputError(
                f"a {self.side} x {self.side} px patch exceeds {MAX_PATCH_AREA} px: events lie too far from the center"
            )
        self.center = center
        self.t_ref_us = int(t_ref_us)
        self.eps = float(eps)
        self.n_events = len(events)
        self._dx = (events.x.astype(np.float64) - center[0]).astype(np.float32)
        self._dy = (events.y.astype(np.float64) - center[1]).astype(np.float32)
        r2 = self._dx * self._dx
        r2 += self._dy * self._dy
        r_max = math.sqrt(r2.max()) if r2.size else 0.0
        if r_max * (1 + RADIUS_SLACK) > half:
            raise ConfigError(f"patch half_size {half} does not hold events {r_max:.3f} px from the center")
        # microseconds from t_ref (modulo 2^64, so t < t_ref is negative),
        # then seconds times spin: a sign flip is exact
        dt_us = (events.t - np.uint64(self.t_ref_us % 2**64)).view(np.int64)
        self._dt = (dt_us * (spin * US_TO_S)).astype(np.float32)
        self._x_shift = np.float32(center[0] - (math.floor(center[0]) - half))
        self._y_shift = np.float32(center[1] - (math.floor(center[1]) - half))
        self._empty_term = 1.0 + 1.0 / self.eps
        # the sparsity reward 1 / (exp(h) - 1 + eps) of a pixel holding h
        self._spa_table = 1.0 / (_EXP_TABLE - 1.0 + self.eps)

    def _indices_from(self, c: np.ndarray, s: np.ndarray) -> np.ndarray:
        # the shifted coordinates of a contained warp are positive, so
        # truncation is floor: the pixel (ix, iy) of the patch
        ix = (c * self._dx - s * self._dy + self._x_shift).astype(np.int32)
        iy = (s * self._dx + c * self._dy + self._y_shift).astype(np.int32)
        return ix * self.side + iy

    def _score(self, counts: np.ndarray) -> float:
        occupied = counts[counts > 0]
        np.minimum(occupied, _H_CAP, out=occupied)
        r_acc = float(_EXP_TABLE[occupied].sum())
        r_spa = float(self._spa_table[occupied].sum())
        return r_acc + r_spa + (self.area - occupied.size) * self._empty_term

    def _value(self, omega_rad_s: float) -> float:
        """R at one speed: warp angles, rotate, bincount, score."""
        theta = self._dt * np.float32(omega_rad_s)
        counts = np.bincount(self._indices_from(np.cos(theta), np.sin(theta)), minlength=self.area)
        return self._score(counts)

    def value(self, omega_rad_s: float) -> float:
        return self._value(omega_rad_s)

    def value_grid(self, omegas: np.ndarray) -> np.ndarray:
        """R at each candidate speed of omegas, spaced in any way; each
        score is bit-equal to ``value`` at that speed."""
        return np.array([self._value(w) for w in omegas], dtype=np.float64)


@dataclass(frozen=True)
class SpeedEstimate:
    """One speed measurement: the argmax of the objective on a batch."""

    prop_id: int
    t_ref_us: int
    omega_rad_s: float
    objective_value: float
    n_events_used: int

    @property
    def rpm(self) -> float:
        return self.omega_rad_s * 60.0 / (2.0 * math.pi)


def brent_max(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Bounded scalar maximization (Brent: golden section + parabolic steps).

    Returns (x, f(x)) with x located to absolute tolerance tol, or where
    BRENT_MAX_ITER iterations left it.
    """
    golden = 0.381966011250105
    if b < a:
        a, b = b, a
    x = w = v = a + golden * (b - a)
    fx = fw = fv = -f(x)
    d = e = 0.0
    for _ in range(BRENT_MAX_ITER):
        mid = 0.5 * (a + b)
        tol1 = 1e-12 * abs(x) + 0.5 * tol
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (b - a):
            break
        use_golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                d = p / q
                u = x + d
                if (u - a) < tol2 or (b - u) < tol2:
                    d = tol1 if x < mid else -tol1
                use_golden = False
        if use_golden:
            e = (b - x) if x < mid else (a - x)
            d = golden * e
        u = x + d if abs(d) >= tol1 else x + (tol1 if d > 0 else -tol1)
        fu = -f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w = w, u
                fv, fw = fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, -fx


def _is_flat(values: np.ndarray) -> bool:
    """True when the scores differ by no more than float64 rounding."""
    v_min, v_max = float(values.min()), float(values.max())
    return v_max - v_min <= 64.0 * np.finfo(np.float64).eps * max(abs(v_max), 1.0)


def estimate_speed(
    events: Events,
    center: tuple[float, float],
    bracket_rad_s: tuple[float, float],
    tol_rad_s: float = 0.05,
    *,
    eps: float = 1.0,
    n_grid: int = 64,
    prop_id: int = 0,
    t_ref_us: int | None = None,
    spin: int = +1,
    prior_rad_s: float | None = None,
) -> SpeedEstimate:
    """Locate the speed maximizing the warp objective over a bracket.

    The grid holds n_grid equally spaced candidates. A lattice of every
    LATTICE_STRIDE-th of them, grid[::LATTICE_STRIDE], is scored first;
    then the grid candidates within LATTICE_STRIDE - 1 of the lattice's
    best are scored, and their best is the peak's basin. Bounded Brent
    refinement polishes it to tol_rad_s; the refined value never scores
    below the best grid point. A grid too small for a three-point
    lattice (n_grid < 2 * LATTICE_STRIDE + 1) is scanned whole. Raises
    EstimationError on an empty batch and DegenerateInputError when the
    objective is flat over the whole grid (no coherent motion); a flat
    lattice first falls back to the whole grid, where a narrow peak
    between lattice points still shows.

    With a prior speed, the lattice points within
    PRIOR_WINDOW_HALF_WIDTH x prior of it are scored first. Their best
    one is kept when it lies inside that window, or on a window edge
    that is also the lattice's edge; a best point on any other window
    edge, or a flat window, falls back to scoring the whole lattice.
    A candidate scores the same bits in any scan, so the result differs
    from a full grid scan only when the lattice's best lies more than
    LATTICE_STRIDE - 1 steps from the grid's argmax (a second peak, as
    where a batch straddles a speed change), or when a lesser peak
    inside the window is kept.
    """
    if len(events) == 0:
        raise EstimationError("cannot estimate speed from an empty batch")
    lo, hi = float(bracket_rad_s[0]), float(bracket_rad_s[1])
    if not (hi > lo):
        raise ConfigError(f"bracket must satisfy lo < hi, got {bracket_rad_s}")
    if not 3 <= n_grid <= MAX_GRID:
        raise ConfigError(f"n_grid must lie in [3, {MAX_GRID}], got {n_grid}")
    if t_ref_us is None:
        t_ref_us = int(events.t[0])

    evaluator = ObjectiveEvaluator(events, center, t_ref_us, eps=eps, spin=spin)
    grid = np.linspace(lo, hi, n_grid)
    stride = LATTICE_STRIDE if n_grid >= 2 * LATTICE_STRIDE + 1 else 1
    lattice = grid[::stride]
    best = None
    if prior_rad_s is not None:
        half = max(1, math.ceil(PRIOR_WINDOW_HALF_WIDTH * prior_rad_s / (grid[1] - grid[0])))
        m = 2 * half + 1
        if m < n_grid:
            j = int(np.clip(np.searchsorted(grid, prior_rad_s) - m // 2, 0, n_grid - m))
            # the lattice points inside the window grid[j:j + m]
            a, b = -(-j // stride), (j + m - 1) // stride + 1
            window = evaluator.value_grid(lattice[a:b])
            k = int(np.argmax(window))
            if not _is_flat(window) and (0 < k < b - a - 1 or a + k in (0, lattice.size - 1)):
                best, best_value = a + k, float(window[k])
    if best is None:
        values = evaluator.value_grid(lattice)
        if stride > 1 and _is_flat(values):
            # a peak narrower than the stride can lie between lattice points
            stride, values = 1, evaluator.value_grid(grid)
        if _is_flat(values):
            raise DegenerateInputError(
                f"objective is flat over [{lo:.3g}, {hi:.3g}] rad/s; batch carries no rotation signal"
            )
        best = int(np.argmax(values))
        best_value = float(values[best])
    if stride > 1:
        # the fine candidates around the lattice's best
        a = max(stride * best - (stride - 1), 0)
        fine = evaluator.value_grid(grid[a : stride * best + stride])
        best = a + int(np.argmax(fine))
        best_value = float(fine[best - a])
    bracket_lo = grid[max(best - 1, 0)]
    bracket_hi = grid[min(best + 1, n_grid - 1)]
    scored = {}

    def log_value(w: float) -> float:
        # refine on log(R): same argmax, but spans of many orders of
        # magnitude would otherwise defeat the parabolic steps
        scored[w] = evaluator.value(w)
        return math.log(scored[w])

    omega, _ = brent_max(log_value, float(bracket_lo), float(bracket_hi), tol=tol_rad_s)
    value = scored[omega]
    if value < best_value:
        omega, value = float(grid[best]), best_value
    return SpeedEstimate(
        prop_id=prop_id,
        t_ref_us=int(t_ref_us),
        omega_rad_s=float(omega),
        objective_value=float(value),
        n_events_used=len(events),
    )
