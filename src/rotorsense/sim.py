"""Synthetic event-stream generator for rotating propellers and flights.

Blades are filled rotated rectangles anchored at the rotor center. A
pixel emits a +1 event on the tick where a blade newly covers it and a
-1 event on the tick where it is uncovered, which reproduces the
bipolar leading/trailing edge structure of a real rotating propeller.
Background noise, hot pixels, and per-event positional jitter are
configurable. Every stream is deterministic for a fixed seed, and every
event carries an origin label so filters and estimators can be scored
against the truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import (
    COMMANDS,
    N_ROTORS,
    ROTOR_SPINS,
    calibrate_thrust_gain,
    command_accelerations,
    command_rpm_pattern,
    rpm_to_rad_s,
)
from .errors import ConfigError
from .events import Events, SensorGeometry

RPM_TO_RAD_US = 2.0 * math.pi / 60.0 * 1e-6

ORIGIN_BACKGROUND = -1
ORIGIN_HOT_PIXEL = -2


# --- Speed profiles ---


def _breakpoints(points: Sequence[tuple[float, float]] | np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The times and speeds of (t_us, rpm) breakpoints, checked."""
    if len(points) == 0:
        raise ConfigError(f"{kind} needs at least one breakpoint")
    t_us, rpm = np.asarray(points, dtype=np.float64).reshape(-1, 2).T
    if np.any(t_us[1:] < t_us[:-1]):
        raise ConfigError(f"{kind} breakpoints must be nondecreasing in time")
    if np.any(rpm < 0):
        raise ConfigError("speed must be nonnegative")
    return t_us, rpm


class SpeedProfile:
    """Rotational speed through (t_us, rpm) breakpoints: linear between
    neighbours, constant before the first and after the last. Two
    breakpoints at one time make a step; the later value holds from that
    time on."""

    def __init__(self, points: Sequence[tuple[float, float]] | np.ndarray) -> None:
        self.t_us, self.rpm = _breakpoints(points, "speed profile")
        # the breakpoint times with 0 among them, and the rotation (radians)
        # from 0 to each: the segments' trapezoids, summed outward from 0 so
        # that a breakpoint far from 0 cancels nothing
        i = int(np.searchsorted(self.t_us, 0.0, side="right"))
        self._cuts = np.insert(self.t_us, i, 0.0)
        rate = np.insert(self.rpm, i, self.rpm_at(0.0)) * RPM_TO_RAD_US
        area = 0.5 * (rate[:-1] + rate[1:]) * np.diff(self._cuts)
        self._rotation = np.concatenate([-np.cumsum(area[:i][::-1])[::-1], [0.0], np.cumsum(area[i:])])

    def rpm_at(self, t_us):
        """The speed at t_us, a time or an array of them."""
        t = np.asarray(t_us, dtype=np.float64)
        k = np.maximum(np.searchsorted(self.t_us, t, side="right") - 1, 0)  # the segment's first breakpoint
        nxt = np.minimum(k + 1, self.t_us.size - 1)
        t0, t1, r0, r1 = self.t_us[k], self.t_us[nxt], self.rpm[k], self.rpm[nxt]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # outside the segments' interiors
            ramp = r0 + (t - t0) / (t1 - t0) * (r1 - r0)
        return np.where((t > t0) & (t < t1), ramp, r0)[()]

    def phase_advance(self, t0_us, t1_us):
        """Blade rotation (radians) from t0_us to t1_us, either a time or an
        array of them."""
        return self._rotation_at(t1_us) - self._rotation_at(t0_us)

    def _rotation_at(self, t_us):
        """Rotation from 0 to t_us: from the last cut at or before it (or
        the first cut), on the trapezoid of the speed between them."""
        t = np.asarray(t_us, dtype=np.float64)
        k = np.maximum(np.searchsorted(self._cuts, t, side="right") - 1, 0)
        cut = self._cuts[k]
        rate = 0.5 * (self.rpm_at(cut) * RPM_TO_RAD_US + self.rpm_at(t) * RPM_TO_RAD_US)
        return (self._rotation[k] + rate * (t - cut))[()]

    def max_rpm(self, t0_us: float, t1_us: float) -> float:
        inner = self.rpm[(self.t_us > t0_us) & (self.t_us < t1_us)]
        return float(max(self.rpm_at(t0_us), self.rpm_at(t1_us), inner.max(initial=0.0)))


def ConstantSpeed(rpm: float) -> SpeedProfile:
    """Fixed rotational speed."""
    return SpeedProfile([(0.0, rpm)])


def StepSpeed(points: Sequence[tuple[float, float]] | np.ndarray) -> SpeedProfile:
    """Piecewise-constant speed: each (t_us, rpm) breakpoint's speed holds
    until the next breakpoint's time."""
    t, rpm = _breakpoints(points, "step profile")
    # a hold at each later breakpoint's time, then the step
    return SpeedProfile(np.column_stack([np.repeat(t, 2)[1:], np.repeat(rpm, 2)[:-1]]))


def RampSpeed(t0_us: float, rpm0: float, t1_us: float, rpm1: float) -> SpeedProfile:
    """Linear speed ramp between two times, clamped outside the ramp."""
    if t1_us <= t0_us:
        raise ConfigError("ramp must span a positive interval")
    return SpeedProfile([(t0_us, rpm0), (t1_us, rpm1)])


# --- Specs ---


# Most blades a propeller may carry. Drone propellers carry two to six and
# ducted fans about a dozen; the painter evaluates every blade of every
# rotor on every tick, so a count from a typo (2^63) would never finish.
MAX_BLADES = 64


@dataclass(frozen=True)
class PropellerSpec:
    """Geometry and speed profile of one simulated propeller."""

    center: tuple[float, float]
    n_blades: int
    blade_length: float  # px, hub to tip
    blade_width: float  # px
    initial_phase: float  # radians
    speed_profile: SpeedProfile
    # +1 rotates the way a positive estimator speed undoes (blade angle
    # decreases over time); -1 is the opposite visual direction
    spin: int = +1

    def __post_init__(self) -> None:
        if not 1 <= self.n_blades <= MAX_BLADES:
            raise ConfigError(f"propeller needs 1 to {MAX_BLADES} blades, got {self.n_blades}")
        if not (self.blade_length > self.blade_width > 0):
            raise ConfigError("blade_length must exceed blade_width, both positive")
        if self.spin not in (-1, +1):
            raise ConfigError("spin must be -1 or +1")


@dataclass(frozen=True)
class NoiseSpec:
    """Sensor noise model: Poisson background, hot pixels, blade jitter.

    Background events are polarity-biased (event-camera leak noise fires
    predominantly ON), which is what makes per-bin polarity statistics a
    usable noise discriminator downstream.
    """

    background_rate: float = 0.0  # events per pixel per second
    hot_pixel_count: int = 0
    hot_pixel_rate: float = 0.0  # events per second, each
    vibration_jitter_px: float = 0.0  # std of positional jitter on blade events
    background_on_fraction: float = 0.95  # P(p = +1) for a background event

    def __post_init__(self) -> None:
        if min(self.background_rate, self.hot_pixel_rate, self.vibration_jitter_px) < 0:
            raise ConfigError("noise rates must be nonnegative")
        if self.hot_pixel_count < 0:
            raise ConfigError("hot pixel count must be nonnegative")
        if not 0.0 <= self.background_on_fraction <= 1.0:
            raise ConfigError("background_on_fraction must lie in [0, 1]")


NO_NOISE = NoiseSpec()


@dataclass
class GroundTruth:
    """Per-tick truth for a simulated stream.

    ``rpm[i, k]`` is propeller i's instantaneous speed at ``times_us[k]``.
    ``event_origin`` labels each emitted event with its source: the
    propeller index, ORIGIN_BACKGROUND, or ORIGIN_HOT_PIXEL. Flight runs
    additionally carry the drone state and the active command per tick.
    """

    tick_us: int
    times_us: np.ndarray
    rpm: np.ndarray
    event_origin: np.ndarray
    positions: np.ndarray | None = None
    velocities: np.ndarray | None = None
    command_ids: np.ndarray | None = None
    command_labels: tuple[str, ...] = COMMANDS

    def rpm_at(self, prop: int, t_us: float) -> float:
        k = min(int(np.searchsorted(self.times_us, t_us, side="right")) - 1, len(self.times_us) - 1)
        return float(self.rpm[prop, max(k, 0)])


# --- Blade rasterization ---


# Ticks painted per block. A pixel's coverage margin is 1-Lipschitz in its
# position, and a pixel at radius r moves at most r * |dphase|, so a pixel
# whose margin at a block's first tick is farther from zero than r times
# the block's summed |dphase| cannot flip inside the block.
_BLOCK = 8
_SLACK_PX = 1e-6  # covers the rounding of the margins and of the bound


class _BladePainter:
    """Coverage rasterizer for one propeller over the disk of pixels it
    can cover.

    The coverage margin of a pixel is its distance in pixels to the
    nearest blade boundary, positive inside, so a coverage flip between
    ticks can be timestamped at the interpolated crossing instant rather
    than the tick edge.
    """

    def __init__(self, spec: PropellerSpec, geometry: SensorGeometry) -> None:
        cx, cy = spec.center
        half = int(math.ceil(spec.blade_length)) + 2
        x_lo = max(int(math.floor(cx)) - half, 0)
        x_hi = min(int(math.floor(cx)) + half + 1, geometry.width)
        y_lo = max(int(math.floor(cy)) - half, 0)
        y_hi = min(int(math.floor(cy)) + half + 1, geometry.height)
        if x_lo >= x_hi or y_lo >= y_hi:
            raise ConfigError(f"propeller at {spec.center} lies outside the {geometry} sensor")
        xs = np.arange(x_lo, x_hi, dtype=np.int64)
        ys = np.arange(y_lo, y_hi, dtype=np.int64)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        dx = gx.ravel().astype(np.float64) - cx
        dy = gy.ravel().astype(np.float64) - cy
        r2 = dx * dx + dy * dy
        keep = r2 <= (spec.blade_length + 1.0) ** 2
        self.px = gx.ravel()[keep].astype(np.uint16)
        self.py = gy.ravel()[keep].astype(np.uint16)
        self.dx = dx[keep]
        self.dy = dy[keep]
        self.radius = np.sqrt(r2[keep])
        self.spec = spec

    def margins(self, phases: Sequence[float], pixels: np.ndarray | slice = slice(None)) -> np.ndarray:
        """(len(phases), n) margins of the pixels at each phase: the max over
        blades of min(u, L-u, w/2-|v|), >= 0 iff covered."""
        spec = self.spec
        half_w = 0.5 * spec.blade_width
        dx, dy = self.dx[pixels], self.dy[pixels]
        margin = np.full((len(phases), dx.size), -np.inf)
        for b in range(spec.n_blades):
            thetas = [phase + 2.0 * math.pi * b / spec.n_blades for phase in phases]
            c = np.array([math.cos(theta) for theta in thetas])[:, None]
            s = np.array([math.sin(theta) for theta in thetas])[:, None]
            u = dx * c + dy * s
            v = dy * c - dx * s
            m = np.minimum(np.minimum(u, spec.blade_length - u), half_w - np.abs(v))
            np.maximum(margin, m, out=margin)
        return margin

    def paint(
        self, phases: list[float], first: np.ndarray, times: np.ndarray
    ) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Coverage transitions over one block of ticks.

        `phases` and `times` give the block's ticks; `first` holds every
        pixel's margins at the first of them. Returns every pixel's
        margins at the last tick, and the (tick, t, pixel, p) of each
        transition in (tick, on-before-off, pixel) order, where tick j is
        the step from tick j to tick j + 1 of the block. Between the
        block's ends only the band of pixels that can flip is evaluated.
        Timestamps are the linear-interpolation crossing instants of the
        margin inside (t_prev, t_now]; the tick validation keeps per-tick
        motion under a pixel, where the margin is near-linear.
        """
        sweep = sum(abs(b - a) for a, b in zip(phases, phases[1:]))
        last = self.margins(phases[-1:])[0]
        # `not >` keeps a NaN margin or bound in the band
        band = np.flatnonzero(~(np.abs(first) > self.radius * sweep + _SLACK_PX))
        rows = np.vstack([first[band], self.margins(phases[1:-1], band), last[band]])
        prev, now = rows[:-1], rows[1:]
        flips = np.stack([(now >= 0.0) & (prev < 0.0), (now < 0.0) & (prev >= 0.0)], axis=1)
        tick, off, b = np.nonzero(flips)
        prev, now = prev[tick, b], now[tick, b]
        denom = now - prev
        with np.errstate(invalid="ignore"):
            frac = np.where(np.isfinite(prev) & (np.abs(denom) > 0), -prev / denom, 1.0)
        frac = np.clip(frac, 0.0, 1.0)
        t_prev, t_now = times[tick], times[tick + 1]
        t = np.rint(t_prev + frac * (t_now - t_prev)).astype(np.int64)
        p = np.where(off == 0, 1, -1).astype(np.int8)
        return last, (tick, t, band[b], p)


def _validate_tick(spec: PropellerSpec, duration_us: int, tick_us: int) -> None:
    peak_rpm = spec.speed_profile.max_rpm(0, duration_us)
    # python floats: a product past float64's range is inf, without a warning
    tip_speed = peak_rpm * (2.0 * math.pi / 60.0) * float(spec.blade_length)  # px/s
    if tip_speed * tick_us * 1e-6 > 1.0:
        required = int(1e6 / tip_speed)
        if required < 1:
            raise ConfigError(
                f"speed {peak_rpm:.4g} RPM or blade_length {spec.blade_length:.4g} px too large: "
                f"the blade tip moves more than 1 px in a 1 us tick"
            )
        raise ConfigError(
            f"tick {tick_us} us too coarse: blade tip moves "
            f"{tip_speed * tick_us * 1e-6:.2f} px per tick at {peak_rpm:.0f} RPM; "
            f"use tick <= {required} us"
        )


# Most ticks a simulation may take. Tick times, phases, speeds and a
# flight's states are held per tick: about 1.5 GB for a four-rotor flight
# at the bound, where a 1e13-tick scene asked for 72.8 TiB. A rendered
# flight also holds its rotors' speed profiles, 256 B per truth tick for
# four rotors: 2.6 GB more at the bound, which it reaches only with a
# truth tick of at most 40 us. The acceptance scenes take at most 160k
# ticks.
MAX_TICKS = 10**7


def _n_ticks(duration_us: int, tick_us: int, what: str = "duration_us / tick_us") -> int:
    """duration_us // tick_us; ConfigError when that exceeds MAX_TICKS."""
    n_ticks = duration_us // tick_us
    if n_ticks > MAX_TICKS:
        raise ConfigError(f"{what} too large: {n_ticks} ticks, at most {MAX_TICKS:.0e}")
    return n_ticks


def default_geometry(specs: Sequence[PropellerSpec]) -> SensorGeometry:
    width = max(int(math.ceil(s.center[0] + s.blade_length)) + 4 for s in specs)
    height = max(int(math.ceil(s.center[1] + s.blade_length)) + 4 for s in specs)
    return SensorGeometry(width, height)


def _columns(parts: list[tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
    """The (t, x, y, p, origin) columns of the parts, concatenated; with no
    parts, empty columns of the stream's dtypes."""
    empty = (np.empty(0, np.int64),) * 3 + (np.empty(0, np.int8), np.empty(0, np.int16))
    return tuple(np.concatenate(column) for column in zip(empty, *parts))


def _render(
    specs: Sequence[PropellerSpec],
    tick_times: np.ndarray,
    noise: NoiseSpec,
    geometry: SensorGeometry | None,
    duration_us: int,
    rng: np.random.Generator,
) -> tuple[Events, np.ndarray]:
    """Events and their origins: each propeller's coverage transitions over
    the shared ticks, background and hot-pixel events over [0,
    duration_us], then positional jitter on the blade events, all merged
    by time. Draws from `rng` in that order."""
    geometry = geometry or default_geometry(specs)
    phases = [spec.initial_phase - spec.spin * spec.speed_profile.phase_advance(0, tick_times) for spec in specs]
    painters = [_BladePainter(spec, geometry) for spec in specs]
    background = _background(noise, geometry, duration_us, rng)  # checks the noise bounds before any painting
    margins = [painter.margins([float(phase[0])])[0] for painter, phase in zip(painters, phases)]
    times = tick_times.astype(np.float64)
    blade = []
    for k0 in range(0, tick_times.size - 1, _BLOCK):
        k1 = min(k0 + _BLOCK, tick_times.size - 1)
        found = []
        for i, painter in enumerate(painters):
            margins[i], (tick, t, pixel, p) = painter.paint(phases[i][k0 : k1 + 1].tolist(), margins[i], times[k0 : k1 + 1])
            origin = np.full(t.size, i, dtype=np.int16)
            found.append((tick, t, painter.px[pixel].astype(np.int64), painter.py[pixel].astype(np.int64), p, origin))
        # the painters' transitions in (tick, painter) order
        tick, *columns = (np.concatenate(column) for column in zip(*found))
        order = np.argsort(tick, kind="stable")
        blade.append(tuple(column[order] for column in columns))
    t, x, y, p, origin = _columns(blade)
    if noise.vibration_jitter_px > 0 and t.size:
        x = np.clip(np.rint(x + rng.normal(0, noise.vibration_jitter_px, t.size)), 0, geometry.width - 1).astype(np.int64)
        y = np.clip(np.rint(y + rng.normal(0, noise.vibration_jitter_px, t.size)), 0, geometry.height - 1).astype(np.int64)
    t, x, y, p, origin = _columns([(t, x, y, p, origin), *background])
    order = np.argsort(t, kind="stable")
    return Events(t[order].astype(np.uint64), x[order], y[order], p[order], validate=False), origin[order]


# Most background or hot-pixel events a stream may expect. A background
# event peaks at about 107 bytes while the stream is assembled and sorted
# (2M of them on a 40 x 40 sensor), so the bound keeps the noise near 1 GB.
# A 640 x 480 sensor at 10 events per pixel per second reaches it in 3.3 s.
MAX_NOISE_EVENTS = 10**7


def _poisson(rng: np.random.Generator, lam: float, name: str, size: int | None = None):
    """Poisson draws of mean lam, `size` of them (one without); ConfigError
    naming noise.`name` when they expect more than MAX_NOISE_EVENTS events."""
    expected = lam * (1 if size is None else size)
    if not expected <= MAX_NOISE_EVENTS:
        raise ConfigError(f"noise.{name} too large: {expected:.3g} expected events, at most {MAX_NOISE_EVENTS:.0e}")
    return rng.poisson(lam, size=size)


def _background(
    noise: NoiseSpec, geometry: SensorGeometry, duration_us: int, rng: np.random.Generator
) -> list[tuple[np.ndarray, ...]]:
    """(t, x, y, p, origin) parts of the Poisson background and the hot pixels."""
    parts = []
    duration_s = duration_us * 1e-6
    if noise.background_rate > 0:
        n = _poisson(rng, noise.background_rate * geometry.width * geometry.height * duration_s, "background_rate")
        if n:
            t = rng.integers(0, duration_us + 1, size=n, dtype=np.int64)
            x = rng.integers(0, geometry.width, size=n, dtype=np.int64)
            y = rng.integers(0, geometry.height, size=n, dtype=np.int64)
            pol = np.where(rng.random(n) < noise.background_on_fraction, 1, -1).astype(np.int8)
            parts.append((t, x, y, pol, np.full(n, ORIGIN_BACKGROUND, dtype=np.int16)))
    if noise.hot_pixel_count > 0 and noise.hot_pixel_rate > 0:
        n_px = min(noise.hot_pixel_count, geometry.width * geometry.height)
        flat = rng.choice(geometry.width * geometry.height, size=n_px, replace=False)
        hx, hy = flat // geometry.height, flat % geometry.height
        sign = np.where(rng.random(n_px) < 0.5, 1, -1).astype(np.int8)
        counts = _poisson(rng, noise.hot_pixel_rate * duration_s, "hot_pixel_rate", n_px)
        for i in np.flatnonzero(counts).tolist():
            n = counts[i]
            parts.append((
                rng.integers(0, duration_us + 1, size=n, dtype=np.int64),
                np.full(n, hx[i], dtype=np.int64),
                np.full(n, hy[i], dtype=np.int64),
                np.full(n, sign[i], dtype=np.int8),
                np.full(n, ORIGIN_HOT_PIXEL, dtype=np.int16),
            ))
    return parts


def simulate_propellers(
    specs: Sequence[PropellerSpec],
    noise: NoiseSpec,
    duration_us: int,
    tick_us: int,
    seed: int,
    geometry: SensorGeometry | None = None,
) -> tuple[Events, GroundTruth]:
    """Simulate rotating propellers on a static sensor.

    Deterministic for fixed inputs and seed. Raises ConfigError when the
    tick is too coarse for the requested peak speed (a blade tip must not
    move more than one pixel per tick).
    """
    if not specs:
        raise ConfigError("need at least one propeller spec")
    if tick_us <= 0 or duration_us < 0:
        raise ConfigError("tick and duration must be positive")
    n_ticks = _n_ticks(duration_us, tick_us)
    for spec in specs:
        _validate_tick(spec, duration_us, tick_us)

    tick_times = np.arange(n_ticks + 1, dtype=np.int64) * tick_us
    rpm = np.array([spec.speed_profile.rpm_at(tick_times) for spec in specs])
    events, origin = _render(specs, tick_times, noise, geometry, duration_us, np.random.default_rng(seed))
    truth = GroundTruth(tick_us=tick_us, times_us=tick_times, rpm=rpm, event_origin=origin)
    return events, truth


# --- Flight simulation ---


@dataclass(frozen=True)
class DroneSpec:
    """Quadrotor scenario parameters for flight simulation: one rotor
    center per rotor of the mixer, in its order."""

    hover_rpm: float = 3000.0
    delta_rpm: float = 300.0
    rpm_jitter: float = 0.0  # std of per-tick speed jitter, RPM
    tilt_fraction: float = 0.2
    gps_rate_hz: float = 5.0
    gps_sigma_m: float = 2.0
    rotor_centers: tuple[tuple[float, float], ...] = (
        (120.0, 120.0),
        (360.0, 120.0),
        (360.0, 360.0),
        (120.0, 360.0),
    )
    blade_length: float = 30.0
    blade_width: float = 5.0
    n_blades: int = 2

    def __post_init__(self) -> None:
        for name in ("hover_rpm", "delta_rpm", "rpm_jitter"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"drone {name} must be finite, got {getattr(self, name)!r}")
        if not (self.gps_rate_hz > 0 and math.isfinite(1e6 / self.gps_rate_hz)):
            raise ConfigError(f"drone gps_rate_hz must be positive with a finite period, got {self.gps_rate_hz!r}")
        for name in ("gps_sigma_m", "rpm_jitter"):
            if getattr(self, name) < 0:
                raise ConfigError(f"drone {name} must be nonnegative, got {getattr(self, name)!r}")
        if len(self.rotor_centers) != N_ROTORS:
            raise ConfigError(f"drone needs {N_ROTORS} rotor centers, one per mixer rotor, not {len(self.rotor_centers)}")


@dataclass
class FlightResult:
    """Everything simulate_flight produces, on one shared clock."""

    events: Events
    truth: GroundTruth
    rpm_traces: np.ndarray  # (N_ROTORS, T) jittered, tachometer-like
    gps: np.ndarray  # (M, 4): t_us, x, y, z


def _script_commands(script: Sequence[tuple[int, str]], tick_times: np.ndarray) -> np.ndarray:
    if any(b[0] < a[0] for a, b in zip(script, script[1:])):
        raise ConfigError("command script times must be nondecreasing")
    ids = np.zeros(tick_times.size, dtype=np.int16)  # hover before first entry
    for t_cmd, name in script:
        if name not in COMMANDS:
            raise ConfigError(f"unknown command {name!r}, expected one of {COMMANDS}")
        ids[tick_times >= t_cmd] = COMMANDS.index(name)
    return ids


# Blade phases are painted every 40 us: the tick `_validate_tick` needs for
# the default 30 px blades at up to about 7960 RPM.
RENDER_TICK_US = 40
# A flight's truth, speed traces and commands step every millisecond unless
# its scenario sets `tick_us`.
FLIGHT_TICK_US = 1000


def simulate_flight(
    command_script: Sequence[tuple[int, str]],
    drone_spec: DroneSpec,
    noise: NoiseSpec,
    duration_us: int,
    seed: int,
    *,
    tick_us: int = FLIGHT_TICK_US,
    render_events: bool = False,
    geometry: SensorGeometry | None = None,
) -> FlightResult:
    """Simulate a scripted quadrotor flight.

    Rotor speeds follow the command mixer plus Gaussian jitter; the true
    trajectory integrates the command-conditioned acceleration model on
    the clean speeds, tick by tick; GPS samples are truth plus zero-mean
    Gaussian noise. Each command's speeds and acceleration are computed
    once, for the commands the script uses. Event rendering is optional
    because command/fusion studies only need the traces; when enabled,
    blade phases integrate the jittered traces, painted every
    RENDER_TICK_US, so painted events match the reported speeds.
    """
    if tick_us <= 0 or duration_us <= 0:
        raise ConfigError("tick and duration must be positive")
    n_ticks = _n_ticks(duration_us, tick_us)
    if render_events:
        _n_ticks(duration_us, RENDER_TICK_US, f"duration_us / {RENDER_TICK_US} us render tick")
    rng = np.random.default_rng(seed)
    tick_times = np.arange(n_ticks + 1, dtype=np.int64) * tick_us
    command_ids = _script_commands(list(command_script), tick_times)

    # rotor speeds, and the position and velocity steps of the acceleration,
    # once per command the script uses
    used = np.unique(command_ids).tolist()
    pattern = np.zeros((len(COMMANDS), N_ROTORS))
    for c in used:
        pattern[c] = command_rpm_pattern(COMMANDS[c], drone_spec.hover_rpm, drone_spec.delta_rpm)
    clean_rpm = pattern[command_ids].T
    jitter = rng.normal(0.0, drone_spec.rpm_jitter, size=clean_rpm.shape) if drone_spec.rpm_jitter > 0 else 0.0
    traces = np.maximum(clean_rpm + jitter, 0.0)

    hover_speeds = rpm_to_rad_s(command_rpm_pattern("hover", drone_spec.hover_rpm, drone_spec.delta_rpm))
    k_f = calibrate_thrust_gain(hover_speeds)
    hover_sq = float(np.sum(np.square(hover_speeds)))
    dt_s = tick_us * 1e-6
    accel = np.zeros((len(COMMANDS), 3))
    accel[used] = command_accelerations(used, rpm_to_rad_s(pattern[used]), k_f, hover_sq, drone_spec.tilt_fraction)
    dx, dv = 0.5 * accel * dt_s**2, accel * dt_s

    positions = np.zeros((tick_times.size, 3))
    velocities = np.zeros((tick_times.size, 3))
    for k, c in enumerate(command_ids[:-1].tolist(), start=1):
        positions[k] = positions[k - 1] + velocities[k - 1] * dt_s + dx[c]
        velocities[k] = velocities[k - 1] + dv[c]

    gps_period_us = max(int(round(1e6 / drone_spec.gps_rate_hz)), tick_us)
    gps_period_us -= gps_period_us % tick_us  # align fixes to truth ticks
    gps_times = np.arange(0, duration_us + 1, gps_period_us, dtype=np.int64)
    gps_idx = gps_times // tick_us
    gps_pos = positions[gps_idx] + rng.normal(0.0, drone_spec.gps_sigma_m, size=(gps_times.size, 3))
    gps = np.column_stack([gps_times.astype(np.float64), gps_pos])

    events, origin = Events.empty(), np.empty(0, dtype=np.int16)
    if render_events:
        # each rotor holds its traced speed from one truth tick to the next
        specs = [
            PropellerSpec(
                center=c, n_blades=drone_spec.n_blades, blade_length=drone_spec.blade_length,
                blade_width=drone_spec.blade_width, initial_phase=0.0,
                speed_profile=StepSpeed(np.column_stack([tick_times, trace])), spin=int(ROTOR_SPINS[i]),
            )
            for i, (c, trace) in enumerate(zip(drone_spec.rotor_centers, traces))
        ]
        end_us = int(tick_times[-1])
        for spec in specs:
            _validate_tick(spec, end_us, RENDER_TICK_US)
        render_times = np.arange(0, end_us + 1, RENDER_TICK_US, dtype=np.int64)
        events, origin = _render(specs, render_times, noise, geometry, end_us, rng)

    truth = GroundTruth(
        tick_us=tick_us,
        times_us=tick_times,
        rpm=traces,
        event_origin=origin,
        positions=positions,
        velocities=velocities,
        command_ids=command_ids,
    )
    return FlightResult(events=events, truth=truth, rpm_traces=traces, gps=gps)


# --- Classifier dataset synthesis ---


# Most samples per command class `train-command` draws. The dataset holds
# 6 classes x n x N_ROTORS x window float64 squares, drawn one window at a
# time: at the bound, a quadrotor's default 100-sample windows (100 ms at
# 1 kHz) take 6 x 10^4 x 4 x 100 x 8 B = 192 MB, and `train-command` runs
# 27 s at a 325 MB peak on a 2-core x86 host. The default is 200.
MAX_SAMPLES_PER_CLASS = 10**4
# Most speeds per rotor a class may hold, samples per class times window
# samples: the bound above at the default window, so the dataset stays
# within the 192 MB sized there whatever the window.
MAX_CLASS_SPEEDS = 100 * MAX_SAMPLES_PER_CLASS


def generate_command_dataset(
    n_per_class: int,
    drone_spec: DroneSpec,
    window_samples: int,
    seed: int,
) -> tuple[np.ndarray, list[str]]:
    """Labelled squared-speed windows for classifier training: an
    (n_per_class * 6, N_ROTORS, window) stack of squared angular speeds
    (rad/s)^2, n_per_class windows of each command in COMMANDS order, and
    their labels.

    Each window follows the command mixer plus per-step Gaussian jitter,
    drawn for all of a command's windows at once, which gives the draws
    of one window after another. A square that overflows is inf, which
    training rejects as a non-finite feature.
    """
    rng = np.random.default_rng(seed)
    windows = np.empty((len(COMMANDS), n_per_class, N_ROTORS, window_samples))
    for stack, command in zip(windows, COMMANDS):
        pattern = command_rpm_pattern(command, drone_spec.hover_rpm, drone_spec.delta_rpm)
        rpm = pattern[:, None] + rng.normal(0.0, drone_spec.rpm_jitter, size=stack.shape)
        with np.errstate(over="ignore"):
            np.square(rpm_to_rad_s(np.maximum(rpm, 0.0)), out=stack)
    return windows.reshape(-1, N_ROTORS, window_samples), [c for c in COMMANDS for _ in range(n_per_class)]
