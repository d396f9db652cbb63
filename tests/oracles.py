"""Reference implementations the package's kernels are tested against.

`warp` and `accumulate` rotate and rasterize events one step at a time,
and `reward_accumulation` and `reward_sparsity` score a whole count
image, pixel by pixel; `ObjectiveEvaluator` fuses these steps, and the
tests compare the two. `simulate_flight` evaluates the command mixer and
the acceleration model at every tick, integrates a rendered flight's
phases from its speed traces, and paints, draws noise and merges its
events in separate passes; `sim.simulate_flight` tabulates each command
once, holds each trace in a `SpeedProfile` and renders through the
renderer it shares with `sim.simulate_propellers`. `phases` accumulates
a blade's phase tick by tick, where `SpeedProfile.phase_advance` gives
it in closed form. `BladePainter` evaluates every disk
pixel's coverage margin on every tick, and `render` paints with it one
tick at a time; `sim._render` paints blocks of ticks and evaluates only
the pixels that can flip. `generate_command_dataset` draws one training
window's jitter after another, where `sim.generate_command_dataset`
draws all of a command's windows at once. `pegasos_ovr` runs one
classifier fit and `train_command_model` averages one channel at a time
and fits one fold after the other; `commands` averages stacks of windows
and steps fits of equal size in lockstep. `predict_command` classifies
one window channel by channel, and `infer_commands` runs it on each
window `infer-command` collects; `commands.predict_command` classifies
a stack of windows in one pass. `nearest_mixer_pattern` is the untrained
baseline the classifier is checked against: the command whose mixer
pattern lies nearest a window's mean squared speeds.
`run_fusion` merges its three streams with `heapq.merge` and walks every
row, building a `FusedState` per step (`_step`) and per update, which it
emits once each, and checks the steps pending since the last check only
at a fix, at a dropped row, before an error it defers and at the end;
`fusion.run_fusion` orders and carries the rows forward in one numpy
pass and steps state arrays from one GPS fix or dropped row to the next
with one `fusion.predict` call, a prefix sum over time per block of the
state.
`read_table` splits a whole table into fields and parses each column
through Python's int() and float() rules, where `tables.Table.read` hands
each block to numpy's C reader and splits only the blocks it refuses.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from rotorsense import commands, fusion, sim
from rotorsense.cli import _command_windows
from rotorsense.dynamics import (
    COMMANDS,
    N_ROTORS,
    ROTOR_SPINS,
    calibrate_thrust_gain,
    command_accelerations,
    command_rpm_pattern,
    rpm_to_rad_s,
)
from rotorsense.errors import ConfigError, DataError, open_text
from rotorsense.events import Events
from rotorsense.fusion import _step_terms
from rotorsense.motion import H_MAX_DEFAULT, US_TO_S


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
    half: int,
    center: tuple[float, float],
    t_ref_us: int = 0,
) -> WarpedImage:
    """Rasterize warped points into integer pixel counts (floor binning)
    over the patch of half-size `half` around the center.

    Each point increments the sensor pixel containing center + point;
    points outside the patch are dropped and counted.
    """
    side = 2 * half + 1
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


def simulate_flight(script, drone, noise, duration_us, seed, tick_us=1000, render_events=False, geometry=None):
    """(traces, positions, velocities, gps, events, origin) of a scripted
    flight, each tick's speeds and acceleration computed at that tick."""
    rng = np.random.default_rng(seed)
    tick_times = np.arange(duration_us // tick_us + 1, dtype=np.int64) * tick_us
    command_ids = sim._script_commands(list(script), tick_times)
    clean_rpm = np.zeros((N_ROTORS, tick_times.size))
    for k in range(tick_times.size):
        clean_rpm[:, k] = command_rpm_pattern(COMMANDS[command_ids[k]], drone.hover_rpm, drone.delta_rpm)
    jitter = rng.normal(0.0, drone.rpm_jitter, size=clean_rpm.shape) if drone.rpm_jitter > 0 else 0.0
    traces = np.maximum(clean_rpm + jitter, 0.0)
    hover_speeds = rpm_to_rad_s(command_rpm_pattern("hover", drone.hover_rpm, drone.delta_rpm))
    k_f = calibrate_thrust_gain(hover_speeds)
    hover_sq = float(np.sum(np.square(hover_speeds)))
    dt_s = tick_us * 1e-6
    positions = np.zeros((tick_times.size, 3))
    velocities = np.zeros((tick_times.size, 3))
    for k in range(1, tick_times.size):
        speeds = rpm_to_rad_s(clean_rpm[:, k - 1])
        accel = command_accelerations([command_ids[k - 1]], speeds[None], k_f, hover_sq, drone.tilt_fraction)[0]
        positions[k] = positions[k - 1] + velocities[k - 1] * dt_s + 0.5 * accel * dt_s**2
        velocities[k] = velocities[k - 1] + accel * dt_s
    gps_period_us = max(int(round(1e6 / drone.gps_rate_hz)), tick_us)
    gps_period_us -= gps_period_us % tick_us
    gps_times = np.arange(0, duration_us + 1, gps_period_us, dtype=np.int64)
    gps_pos = positions[gps_times // tick_us] + rng.normal(0.0, drone.gps_sigma_m, size=(gps_times.size, 3))
    gps = np.column_stack([gps_times.astype(np.float64), gps_pos])
    if not render_events:
        return traces, positions, velocities, gps, Events.empty(), np.empty(0, dtype=np.int16)
    events, origin = _render_flight(drone, noise, traces, tick_times, geometry, rng)
    return traces, positions, velocities, gps, events, origin


def _render_flight(drone, noise, traces, tick_times, geometry, rng, render_tick_us=40):
    specs = [
        sim.PropellerSpec(
            center=c, n_blades=drone.n_blades, blade_length=drone.blade_length, blade_width=drone.blade_width,
            initial_phase=0.0, speed_profile=sim.ConstantSpeed(float(np.max(traces))), spin=int(ROTOR_SPINS[i]),
        )
        for i, c in enumerate(drone.rotor_centers)
    ]
    duration_us = int(tick_times[-1])
    for spec in specs:
        sim._validate_tick(spec, duration_us, render_tick_us)
    geometry = geometry or sim.default_geometry(specs)
    render_times = np.arange(0, duration_us + 1, render_tick_us, dtype=np.int64)
    phases = []
    for i, spec in enumerate(specs):
        omega_rad_us = traces[i] * sim.RPM_TO_RAD_US
        coarse = np.concatenate([[0.0], np.cumsum(omega_rad_us[:-1] * np.diff(tick_times))])
        idx = np.minimum(render_times // (tick_times[1] - tick_times[0]), len(coarse) - 1)
        frac = (render_times - tick_times[idx]).astype(np.float64)
        phase = coarse[idx] + omega_rad_us[np.minimum(idx, traces.shape[1] - 1)] * frac
        phases.append(spec.initial_phase - spec.spin * phase)
    bt, bx, by, bp, bo = sim._columns(paint(specs, phases, render_times, geometry))
    # background and hot pixels
    noise_columns = [[np.empty(0, np.int64)] * 3 + [np.empty(0, np.int8), np.empty(0, np.int16)]]
    duration_s = duration_us * 1e-6
    if noise.background_rate > 0:
        n = rng.poisson(noise.background_rate * geometry.width * geometry.height * duration_s)
    if noise.background_rate > 0 and n:
        noise_columns.append([
            rng.integers(0, duration_us + 1, size=n, dtype=np.int64),
            rng.integers(0, geometry.width, size=n, dtype=np.int64),
            rng.integers(0, geometry.height, size=n, dtype=np.int64),
            np.where(rng.random(n) < noise.background_on_fraction, 1, -1).astype(np.int8),
            np.full(n, sim.ORIGIN_BACKGROUND, dtype=np.int16),
        ])
    if noise.hot_pixel_count > 0 and noise.hot_pixel_rate > 0:
        n_px = min(noise.hot_pixel_count, geometry.width * geometry.height)
        flat = rng.choice(geometry.width * geometry.height, size=n_px, replace=False)
        sign = np.where(rng.random(n_px) < 0.5, 1, -1).astype(np.int8)
        counts = rng.poisson(noise.hot_pixel_rate * duration_s, size=n_px)
        for i in range(n_px):
            if counts[i]:
                noise_columns.append([
                    rng.integers(0, duration_us + 1, size=counts[i], dtype=np.int64),
                    np.full(counts[i], flat[i] // geometry.height, dtype=np.int64),
                    np.full(counts[i], flat[i] % geometry.height, dtype=np.int64),
                    np.full(counts[i], sign[i], dtype=np.int8),
                    np.full(counts[i], sim.ORIGIN_HOT_PIXEL, dtype=np.int16),
                ])
    nt, nx, ny, np_, no = (np.concatenate(column) for column in zip(*noise_columns))
    # jitter, then merge by time
    if noise.vibration_jitter_px > 0 and bt.size:
        bx = np.clip(np.rint(bx + rng.normal(0, noise.vibration_jitter_px, bt.size)), 0, geometry.width - 1)
        by = np.clip(np.rint(by + rng.normal(0, noise.vibration_jitter_px, bt.size)), 0, geometry.height - 1)
    t = np.concatenate([bt, nt])
    order = np.argsort(t, kind="stable")
    columns = [np.concatenate([b, n])[order] for b, n in ((bx, nx), (by, ny), (bp, np_), (bo, no))]
    return Events(t[order].astype(np.uint64), *columns[:3], validate=False), columns[3]


class BladePainter(sim._BladePainter):
    """Per-tick coverage rasterizer over every pixel of the disk."""

    def coverage_margin(self, phase: float) -> np.ndarray:
        """max over blades of min(u, L-u, w/2-|v|): >= 0 iff covered."""
        spec = self.spec
        half_w = 0.5 * spec.blade_width
        margin = np.full(self.dx.size, -np.inf)
        for b in range(spec.n_blades):
            theta = phase + 2.0 * math.pi * b / spec.n_blades
            c, s = math.cos(theta), math.sin(theta)
            u = self.dx * c + self.dy * s
            v = self.dy * c - self.dx * s
            m = np.minimum(np.minimum(u, spec.blade_length - u), half_w - np.abs(v))
            np.maximum(margin, m, out=margin)
        return margin

    def coverage(self, phase: float) -> np.ndarray:
        return self.coverage_margin(phase) >= 0.0

    def reset(self, phase: float) -> None:
        self.margin = self.coverage_margin(phase)

    def step(self, phase: float, t_prev_us: float, t_now_us: float):
        """Advance to a new phase; return (t, x, y, p) of transition events,
        timestamped at the interpolated crossing inside (t_prev, t_now]."""
        margin = self.coverage_margin(phase)
        prev = self.margin
        on_idx = np.flatnonzero((margin >= 0.0) & (prev < 0.0))
        off_idx = np.flatnonzero((margin < 0.0) & (prev >= 0.0))
        idx = np.concatenate([on_idx, off_idx])
        p = np.concatenate([np.ones(on_idx.size, dtype=np.int8), -np.ones(off_idx.size, dtype=np.int8)])
        denom = margin[idx] - prev[idx]
        finite_prev = np.isfinite(prev[idx])
        with np.errstate(invalid="ignore"):
            frac = np.where(finite_prev & (np.abs(denom) > 0), -prev[idx] / denom, 1.0)
        frac = np.clip(frac, 0.0, 1.0)
        t = np.rint(t_prev_us + frac * (t_now_us - t_prev_us)).astype(np.int64)
        self.margin = margin
        return t, self.px[idx], self.py[idx], p


def blade_mask(spec: sim.PropellerSpec, phase: float, geometry) -> np.ndarray:
    """Boolean (width, height) image of pixels covered at a given phase."""
    painter = BladePainter(spec, geometry)
    mask = np.zeros((geometry.width, geometry.height), dtype=bool)
    cov = painter.coverage(phase)
    mask[painter.px[cov].astype(np.int64), painter.py[cov].astype(np.int64)] = True
    return mask


def paint(specs, phases, tick_times, geometry) -> list[tuple[np.ndarray, ...]]:
    """(t, x, y, p, origin) parts of every propeller's transitions, one
    tick and one propeller at a time."""
    painters = [BladePainter(spec, geometry) for spec in specs]
    for painter, phase in zip(painters, phases):
        painter.reset(float(phase[0]))
    blade = []
    for k in range(1, tick_times.size):
        t_prev, t_now = float(tick_times[k - 1]), float(tick_times[k])
        for i, painter in enumerate(painters):
            t, x, y, p = painter.step(float(phases[i][k]), t_prev, t_now)
            if x.size:
                blade.append((t, x.astype(np.int64), y.astype(np.int64), p, np.full(x.size, i, dtype=np.int16)))
    return blade


def render(specs, tick_times, noise, geometry, duration_us, rng):
    """`sim._render` with the per-tick painter: paint at the profiles'
    phases, draw background and hot pixels, jitter the blade events, merge
    by time."""
    geometry = geometry or sim.default_geometry(specs)
    phases = [spec.initial_phase - spec.spin * spec.speed_profile.phase_advance(0, tick_times) for spec in specs]
    blade = paint(specs, phases, tick_times, geometry)
    background = sim._background(noise, geometry, duration_us, rng)
    t, x, y, p, origin = sim._columns(blade)
    if noise.vibration_jitter_px > 0 and t.size:
        x = np.clip(np.rint(x + rng.normal(0, noise.vibration_jitter_px, t.size)), 0, geometry.width - 1).astype(np.int64)
        y = np.clip(np.rint(y + rng.normal(0, noise.vibration_jitter_px, t.size)), 0, geometry.height - 1).astype(np.int64)
    t, x, y, p, origin = sim._columns([(t, x, y, p, origin), *background])
    order = np.argsort(t, kind="stable")
    return Events(t[order].astype(np.uint64), x[order], y[order], p[order], validate=False), origin[order]


def phases(spec: sim.PropellerSpec, tick_times: np.ndarray) -> np.ndarray:
    """The blade phase at each tick, accumulated tick by tick. Each tick's
    advance sums the midpoint rule over the pieces between the profile's
    breakpoints, which is exact where the speed is linear."""
    profile = spec.speed_profile
    phase = np.empty(tick_times.size)
    acc = phase[0] = spec.initial_phase
    for k in range(1, tick_times.size):
        a, b = float(tick_times[k - 1]), float(tick_times[k])
        cuts = np.unique(np.concatenate([[a, b], profile.t_us[(profile.t_us > a) & (profile.t_us < b)]]))
        acc -= spec.spin * float(np.sum(profile.rpm_at(0.5 * (cuts[:-1] + cuts[1:])) * np.diff(cuts))) * sim.RPM_TO_RAD_US
        phase[k] = acc
    return phase


def generate_command_dataset(n_per_class, drone, window_samples, seed):
    """(windows, labels) of `sim.generate_command_dataset`, each window
    drawn, clipped and squared on its own."""
    rng = np.random.default_rng(seed)
    windows, labels = [], []
    for command in COMMANDS:
        pattern = command_rpm_pattern(command, drone.hover_rpm, drone.delta_rpm)
        for _ in range(n_per_class):
            rpm = pattern[:, None] + rng.normal(0.0, drone.rpm_jitter, size=(N_ROTORS, window_samples))
            windows.append(np.square(rpm_to_rad_s(np.maximum(rpm, 0.0))))
            labels.append(command)
    return np.stack(windows), labels


def channel_means(window) -> np.ndarray:
    """Each channel's mean squared speed, one channel at a time."""
    return np.array([channel.mean() for channel in np.asarray(window, dtype=np.float64)])


def pegasos_ovr(features, labels, n_classes, lambda_reg, epochs, rng):
    """One hinge-loss one-vs-rest fit, one sample step at a time, which
    updates only the violated classes."""
    n, dim = features.shape
    augmented = np.hstack([features, np.ones((n, 1))])
    weights = np.zeros((n_classes, dim + 1))
    weights_sum = np.zeros_like(weights)
    n_averaged = 0
    signs = np.full((n, n_classes), -1.0)
    signs[np.arange(n), labels] = 1.0
    t = 0
    for epoch in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lambda_reg * (t + n))
            x = augmented[i]
            margins = signs[i] * (weights @ x)
            violated = margins < 1.0
            weights *= 1.0 - eta * lambda_reg
            if violated.any():
                weights[violated] += eta * signs[i, violated, None] * x
            if epoch >= epochs // 2:
                weights_sum += weights
                n_averaged += 1
    final = weights_sum / n_averaged if n_averaged else weights
    return final[:, :dim], final[:, dim].copy()


def train_command_model(windows, labels, k_folds, lambda_reg, epochs, seed, classes=COMMANDS):
    """(weights, biases, feature mean, feature std, fold accuracies) of
    `commands.train_command_model`, averaging one channel at a time and
    fitting one fold after the other."""
    features = np.stack([channel_means(window) for window in windows])
    labels = np.array([classes.index(label) for label in labels])

    def fit(train_idx, rng_seed):
        mean, std = features[train_idx].mean(axis=0), features[train_idx].std(axis=0)
        std_safe = np.where(std > 0, std, 1.0)
        w, b = pegasos_ovr((features[train_idx] - mean) / std_safe, labels[train_idx], len(classes), lambda_reg,
                           epochs, np.random.default_rng(rng_seed))
        return w, b, mean, std, std_safe

    folds = commands.stratified_folds(labels, k_folds, np.random.default_rng(seed))
    accuracies = np.zeros(k_folds)
    for f, val_idx in enumerate(folds):
        w, b, mean, _, std_safe = fit(np.setdiff1d(np.arange(len(features)), val_idx), seed + 1 + f)
        pred = np.argmax((features[val_idx] - mean) / std_safe @ w.T + b, axis=1)
        accuracies[f] = float((pred == labels[val_idx]).mean())
    w, b, mean, std, _ = fit(np.arange(len(features)), seed)
    return w, b, mean, std, accuracies


def predict_command(model, window):
    """(label, scores) of one (n_props, window) window, averaged one
    channel at a time and scored by `weights @ z`."""
    features = channel_means(window)
    z = (features - model.feature_mean) / np.where(model.feature_std > 0, model.feature_std, 1.0)
    scores = model.weights @ z + model.biases
    return model.classes[int(np.argmax(scores))], scores


def infer_commands(model, speeds, window_us):
    """(window end, label) rows of time-ordered (t_ref, prop_id, rpm) speed
    rows, each complete window resampled, squared and classified on its
    own."""
    times = speeds[:, 0]
    rows = []
    for t_cursor in _command_windows(times, window_us):
        window_rows = speeds[(times >= t_cursor - window_us) & (times <= t_cursor)]
        channels = []
        for prop in range(model.n_props):
            prop_rows = window_rows[window_rows[:, 1] == prop]
            if prop_rows.shape[0] == 0:
                break
            trace = commands.resample_zero_order_hold(
                prop_rows[:, 0], rpm_to_rad_s(prop_rows[:, 2]), model.rate_hz,
                int(t_cursor - window_us), int(t_cursor),
            )
            channels.append(np.square(trace[: model.window]))
        if len(channels) == model.n_props and all(c.size == model.window for c in channels):
            rows.append((int(t_cursor), predict_command(model, np.stack(channels))[0]))
    return rows


def nearest_mixer_pattern(window, hover_rpm, delta_rpm):
    """The command whose `command_rpm_pattern`, squared in (rad/s)^2, is
    nearest (Euclidean, first of ties in COMMANDS order) to the window's
    per-rotor mean squared speeds."""
    patterns = np.stack([np.square(rpm_to_rad_s(command_rpm_pattern(c, hover_rpm, delta_rpm))) for c in COMMANDS])
    return COMMANDS[int(np.argmin(np.linalg.norm(patterns - channel_means(window), axis=1)))]


@dataclass
class FusionTrack:
    """Every state the filter makes plus per-update NIS."""

    states: list = field(default_factory=list)
    nis: list = field(default_factory=list)


def _speed_queue(speed_stream):
    """(t_us, 1, prop_id, rpm) per (t_us, prop_id, rpm, ...) row."""
    t_us, props, rpm = fusion._speed_rows(speed_stream)
    return list(zip(t_us.tolist(), [1] * len(t_us), props.tolist(), rpm.tolist()))


def acceleration(predictor, command, speeds_rad_s):
    """The acceleration of one step under `command` and one speed (rad/s)
    per rotor, from `command_accelerations` on that one row."""
    gains = (predictor.k_f, predictor.hover_speed_sq_sum, predictor.tilt_fraction)
    return command_accelerations([COMMANDS.index(command)], np.asarray(speeds_rad_s)[None], *gains)[0]


def _step(state, accel, dt_s, accel_variance):
    """One constant-acceleration prediction, unchecked, in 3x3 blocks
    P = [[A, B], [B.T, C]] of the covariance and x = (p, v) of the mean."""
    _, half_dt2, q_pp, q_pv, q_vv = _step_terms(dt_s, accel_variance)
    eye = np.eye(3)
    a, b, c = state.cov[:3, :3], state.cov[:3, 3:], state.cov[3:, 3:]
    cov = np.empty((6, 6))
    cov[3:, 3:] = c + q_vv * eye
    cov[:3, 3:] = b + (dt_s * c + q_pv * eye)
    cov[3:, :3] = cov[:3, 3:].T
    cov[:3, :3] = a + ((dt_s * (b + b.T) + (dt_s * dt_s) * c) + q_pp * eye)
    p, v = state.mean[:3], state.mean[3:]
    mean = np.concatenate([p + (dt_s * v + half_dt2 * accel), v + dt_s * accel])
    return fusion.FusedState(t_us=state.t_us + int(round(dt_s * 1e6)), mean=mean, cov=cov)


def _check_steps(states, accels):
    if accels:
        fusion._check_steps(np.array([s.mean for s in states]), np.array([s.cov for s in states]), np.array(accels))


def run_fusion(speed_stream, command_stream, gps_stream, predictor, *, gps_sigma_m=2.0, process_noise_scale=0.05):
    """`fusion.run_fusion` row by row: the streams merged by `heapq.merge`
    on (t, kind), each step's acceleration from `command_accelerations` on
    one row and its state a new `FusedState`, the steps since the last
    fix or dropped row checked together there, before a deferred error
    and at the end."""
    commands_q = [(int(t_us), 0, label, None) for t_us, label in command_stream]
    speed_stream = np.asarray(speed_stream, dtype=np.float64)
    speeds_q = _speed_queue(speed_stream)
    gps_stream = np.asarray(gps_stream, dtype=np.float64)
    gps_q = [(int(row[0]), 2, np.array(row[1:4]), None) for row in gps_stream.tolist()]
    events = heapq.merge(commands_q, speeds_q, gps_q, key=lambda e: (e[0], e[1]))

    r_gps = gps_sigma_m**2 * np.eye(3)
    speeds = np.full(N_ROTORS, math.sqrt(predictor.hover_speed_sq_sum / N_ROTORS))
    negative: set[int] = set()  # rotors whose speed is negative
    command = "hover"
    state = None
    # the last checked state, the states predicted from it since, and the
    # acceleration of each of those steps
    steps, accels = [], []
    result = FusionTrack()
    log = logging.getLogger(fusion.__name__)

    for t_us, kind, value, rpm in events:
        if kind == 0:
            if value not in COMMANDS:
                _check_steps(steps, accels)
                raise DataError(f"unknown command {value!r} in command stream")
            command = value
        elif kind == 1:
            speeds[value] = omega = rpm * 2.0 * math.pi / 60.0
            if omega < 0:
                negative.add(value)
            elif negative:
                negative.discard(value)
        if state is None:
            if kind == 2:
                mean = np.zeros(6)
                mean[:3] = value
                cov = np.zeros((6, 6))
                cov[:3, :3] = r_gps
                cov[3:, 3:] = fusion.INIT_VELOCITY_SIGMA**2 * np.eye(3)
                state = fusion.FusedState(t_us=t_us, mean=mean, cov=cov)
                steps = [state]
                result.states.append(state)
            continue
        dt_us = t_us - state.t_us
        if dt_us < 0:
            _check_steps(steps, accels)
            steps, accels = [state], []
            log.warning("dropping out-of-order measurement at t=%d us (filter at %d us)", t_us, state.t_us)
            continue
        if dt_us > 0:
            if negative or process_noise_scale < 0:
                _check_steps(steps, accels)
                if negative:
                    raise DataError("rotor speeds must be nonnegative")
                raise ConfigError("process noise scale must be nonnegative")
            with np.errstate(over="ignore", invalid="ignore"):  # the checks report what overflows
                accel = acceleration(predictor, command, speeds)
                state = _step(state, accel, dt_us * 1e-6, process_noise_scale)
            result.states.append(state)
            steps.append(state)
            accels.append(accel)
        if kind == 2:
            _check_steps(steps, accels)
            mean, cov, nis = fusion._update(state.mean, state.cov, value, r_gps)
            state = fusion.FusedState(t_us=state.t_us, mean=mean, cov=cov)
            result.states.append(state)
            steps, accels = [state], []
            result.nis.append(nis)
    _check_steps(steps, accels)
    return result


def _parse(kind, fields):
    column = np.array(fields, dtype=kind.dtype)  # ValueError, or OverflowError out of range
    if kind.values is not None and not np.isin(column, kind.values).all():
        raise ValueError(f"unknown {kind.name}")
    return column


def _problem(kind, field, line):
    """Why one field of `line` does not fit `kind`, or None."""
    try:
        value = np.array(field, dtype=kind.dtype).item()
    except OverflowError:
        return f"field out of range in {line!r}"
    except ValueError:
        try:
            float(field)
        except ValueError:
            return f"non-numeric field in {line!r}"
        return f"non-integer field in {line!r}"
    if kind.values is not None and value not in kind.values:
        return f"unknown {kind.name} {field!r}"
    return None


def read_table(table, path, extra_columns=False):
    """`table.read` with every body line in one block, split into fields
    and each column parsed by `np.array(fields, dtype)`; a rejected block
    is walked line by line to name its first bad line."""
    names = table.split(",")
    comments = []
    with open_text(path) as fh:
        lineno, found = 0, ""
        for raw in fh:
            lineno, found = lineno + 1, raw.strip()
            if not (table.comments and found[:1] in ("", "#")):
                break
            if found:
                comments.append((lineno, found))
        else:
            lineno, found = lineno + 1, ""
        fields = found.split(",")
        if fields[: len(names)] != names or (len(fields) != len(names) and not extra_columns):
            raise DataError(f"{path}:{lineno}: unexpected header {found!r}, expected {str(table)!r}")
        lines = list(fh)
    n_fields, first_lineno = len(fields), lineno + 1
    numbered = [(number, line.strip()) for number, line in enumerate(lines, start=first_lineno)]
    if table.comments:
        comments.extend((number, line) for number, line in numbered if line[:1] == "#")
    rows = [line for _, line in numbered if line and not (table.comments and line[0] == "#")]
    try:
        if rows and set(map(str.count, rows, [","] * len(rows))) != {n_fields - 1}:
            raise ValueError("wrong field count")
        flat = ",".join(rows).split(",") if rows else []
        columns = [_parse(kind, flat[col::n_fields]) for col, kind in enumerate(table.kinds)]
    except (ValueError, OverflowError) as exc:
        for number, line in numbered:
            if not line or (table.comments and line[0] == "#"):
                continue
            parts = line.split(",")
            if len(parts) != n_fields:
                raise DataError(f"{path}:{number}: expected {n_fields} fields, got {len(parts)}") from exc
            for kind, part in zip(table.kinds, parts):
                if problem := _problem(kind, part, line):
                    raise DataError(f"{path}:{number}: {problem}") from exc
        raise DataError(f"{path}: malformed table") from exc
    return columns, comments
