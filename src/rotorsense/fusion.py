"""EKF fusion of propeller-derived motion priors with GPS position fixes.

The filter tracks a 6-state belief (3-D position and velocity). The
prediction step propagates a constant-acceleration model whose
acceleration comes from the inferred command and the measured rotor
speeds (`KinematicPredictor` maps thrust surplus to climb/descent and a
tilt fraction of total thrust to lateral motion). GPS fixes enter
through a standard linear update in Joseph form. The covariance is
symmetrized after every step. `predict` and `update` check their result
at once.

`run_fusion` works on state arrays. One numpy pass orders the rows of
the three streams as a timestamp merge takes them, carries the speed of
each of the mixer's N_ROTORS rotors and the command in force forward,
finds the dropped rows and the steps, and computes every step's
acceleration with one `command_accelerations` call. Its loop visits
only the prediction steps, GPS updates and dropped rows, and writes
each state into preallocated time (n,), mean (n, 6) and covariance
(n, 6, 6) arrays; `FusionResult.states` shows them as one `FusedState`
per state the filter makes. It checks the steps it predicted together:
before each GPS update, before it raises any other error or logs a
dropped measurement, every CHECK_STEPS steps and at the end. Either way
the first failing step raises the error `predict` raises there.
"""

from __future__ import annotations

import functools
import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import COMMANDS, GRAVITY, N_ROTORS, calibrate_thrust_gain, command_accelerations
from .errors import ConfigError, DataError, NumericalError

LOG = logging.getLogger(__name__)

PSD_TOLERANCE = -1e-9
# most predicted steps `run_fusion` checks together: 5 Hz GPS fixes over
# 1 kHz speed rows check every 200 steps, so this bound only caps a check's
# slice (1024 6x6 covariances, 295 KB) and the steps computed past a failing
# one in a stream without GPS
CHECK_STEPS = 1024
# standard deviation (m/s) of each velocity component at the first GPS fix
INIT_VELOCITY_SIGMA = 2.0
# how far (us) a measurement may lag the filter clock and still be used
OUT_OF_ORDER_TOLERANCE_US = 0


@dataclass(frozen=True)
class FusedState:
    """Gaussian belief over [position (m), velocity (m/s)] at time t."""

    t_us: int
    mean: np.ndarray  # (6,)
    cov: np.ndarray  # (6, 6)


@dataclass(frozen=True)
class MotionPrior:
    """Inferred command plus the mixer's N_ROTORS rotor speeds driving one
    prediction step."""

    command: str
    speeds_rad_s: np.ndarray
    process_noise_scale: float  # white-acceleration variance, (m/s^2)^2

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        speeds = np.asarray(self.speeds_rad_s, dtype=np.float64)
        if speeds.shape != (N_ROTORS,):
            raise DataError(f"a motion prior takes {N_ROTORS} rotor speeds, got shape {speeds.shape}")
        if (speeds < 0).any():
            raise DataError("rotor speeds must be nonnegative")
        object.__setattr__(self, "speeds_rad_s", speeds)
        if self.process_noise_scale < 0:
            raise ConfigError("process noise scale must be nonnegative")


class KinematicPredictor:
    """Gains of the command-conditioned acceleration model.

    Calibrated from one hover segment: k_f * sum(omega_hover^2) = g.
    `predict` calls `acceleration(prior)`, `command_accelerations` on the
    prior's one row of speeds; `run_fusion` builds no prior and calls it
    once on all its steps with the same gains.
    """

    def __init__(self, k_f: float, hover_speed_sq_sum: float, tilt_fraction: float = 0.2) -> None:
        if k_f <= 0 or hover_speed_sq_sum <= 0:
            raise ConfigError("predictor gains must be positive")
        self.k_f = k_f
        self.hover_speed_sq_sum = hover_speed_sq_sum
        self.tilt_fraction = tilt_fraction

    @classmethod
    def from_hover_calibration(cls, hover_speeds_rad_s: np.ndarray, tilt_fraction: float = 0.2) -> "KinematicPredictor":
        with np.errstate(over="ignore"):  # squares that overflow give a zero gain, rejected below
            k_f = calibrate_thrust_gain(hover_speeds_rad_s, GRAVITY)
            hover_sq = float(np.sum(np.square(np.asarray(hover_speeds_rad_s, dtype=np.float64))))
        return cls(k_f=k_f, hover_speed_sq_sum=hover_sq, tilt_fraction=tilt_fraction)

    def acceleration(self, prior: MotionPrior) -> np.ndarray:
        return command_accelerations(
            [COMMANDS.index(prior.command)], prior.speeds_rad_s[None], self.k_f, self.hover_speed_sq_sum,
            self.tilt_fraction,
        )[0]


def _check_psd(covs: np.ndarray, where: str) -> None:
    """NumericalError for the first of `covs` (one 6x6 covariance or a
    stack of them) that is non-finite, whose eigenvalues do not converge or
    that is not positive semidefinite within PSD_TOLERANCE."""
    covs = covs.reshape(-1, 6, 6)
    finite = np.isfinite(covs).all(axis=(1, 2))
    n = len(covs) if finite.all() else int(finite.argmin())  # eigvalsh needs finite input
    try:
        eigenvalues = np.linalg.eigvalsh(covs[:n])
    except np.linalg.LinAlgError:
        for cov in covs[:n] if n > 1 else ():
            _check_psd(cov, where)  # the first failing one raises
        raise NumericalError(f"covariance eigenvalues did not converge in {where}") from None
    failing = eigenvalues.min(axis=1) < PSD_TOLERANCE
    if failing.any():
        raise NumericalError(
            f"covariance lost positive semidefiniteness in {where}: min eig {eigenvalues[failing.argmax()].min()}"
        )
    if n < len(covs):
        raise NumericalError(f"non-finite covariance in {where}")


def _check_cov(cov: np.ndarray, where: str) -> np.ndarray:
    cov = 0.5 * (cov + cov.T)
    _check_psd(cov, where)
    return cov


def _transition(dt_s: float) -> tuple[np.ndarray, np.ndarray]:
    f = np.eye(6)
    f[:3, 3:] = dt_s * np.eye(3)
    b = np.zeros((6, 3))
    b[:3] = 0.5 * dt_s**2 * np.eye(3)
    b[3:] = dt_s * np.eye(3)
    return f, b


def process_noise(dt_s: float, accel_variance: float) -> np.ndarray:
    """White-acceleration process noise for the constant-velocity pair."""
    q = np.zeros((6, 6))
    q[:3, :3] = 0.25 * dt_s**4 * np.eye(3)
    q[:3, 3:] = 0.5 * dt_s**3 * np.eye(3)
    q[3:, :3] = 0.5 * dt_s**3 * np.eye(3)
    q[3:, 3:] = dt_s**2 * np.eye(3)
    return accel_variance * q


@functools.lru_cache(maxsize=16)
def _step_matrices(dt_s: float, accel_variance: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only F, B and Q of one prediction step, built once per
    (dt_s, accel_variance): a fixed-rate stream repeats the same step."""
    f, b = _transition(dt_s)
    q = process_noise(dt_s, accel_variance)
    for matrix in (f, b, q):
        matrix.flags.writeable = False
    return f, b, q


def _step(mean: np.ndarray, cov: np.ndarray, f: np.ndarray, q: np.ndarray, b_accel: np.ndarray):
    """One constant-acceleration prediction, unchecked: the mean
    f @ mean + b @ accel from b_accel = b @ accel, and the symmetrized
    covariance f @ cov @ f.T + q."""
    cov = f @ cov @ f.T + q
    return f @ mean + b_accel, 0.5 * (cov + cov.T)


def _check_steps(means: np.ndarray, covs: np.ndarray, accels: np.ndarray) -> None:
    """The checks of each step from state j to state j + 1 (means (n + 1, 6),
    covs (n + 1, 6, 6)) made with acceleration accels[j]: a finite state
    to start from, a finite acceleration, a finite positive semidefinite
    covariance. Raises the error of the first failing step. A non-finite
    acceleration makes the mean it steps to non-finite, so only the first
    non-finite state needs a closer look."""
    if not len(accels):
        return
    finite = np.isfinite(means).all(axis=1) & np.isfinite(covs).all(axis=(1, 2))
    k = len(finite) if finite.all() else int(finite.argmin())
    if k == 0:
        raise DataError("non-finite filter state")
    _check_psd(covs[1:k], "predict")
    if k == len(finite):
        return
    if not np.isfinite(accels[k - 1]).all():
        raise DataError("non-finite acceleration from predictor")
    _check_psd(covs[k], "predict")
    if k + 1 < len(finite):  # a finite covariance, a mean that overflowed
        raise DataError("non-finite filter state")


def predict(state: FusedState, prior: MotionPrior, dt_s: float, predictor: KinematicPredictor) -> FusedState:
    """Constant-acceleration propagation with command-derived acceleration."""
    if dt_s <= 0:
        raise ConfigError(f"dt must be positive, got {dt_s}")
    accel = predictor.acceleration(prior)
    f, b, q = _step_matrices(dt_s, prior.process_noise_scale)
    mean, cov = _step(state.mean, state.cov, f, q, b @ accel)
    _check_steps(np.stack([state.mean, mean]), np.stack([state.cov, cov]), accel[None])
    return FusedState(t_us=state.t_us + int(round(dt_s * 1e6)), mean=mean, cov=cov)


def _update(
    mean: np.ndarray, cov: np.ndarray, gps_xyz: np.ndarray, r_gps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """The checked Joseph-form update of (mean, cov) with one GPS fix, and
    its normalized innovation squared."""
    z = np.asarray(gps_xyz, dtype=np.float64)
    if z.shape != (3,) or not np.all(np.isfinite(z)):
        raise DataError("GPS measurement must be a finite 3-vector")
    r = np.asarray(r_gps, dtype=np.float64)
    if r.shape != (3, 3):
        raise ConfigError("R_gps must be a 3x3 covariance")
    h = np.zeros((3, 6))
    h[:, :3] = np.eye(3)
    innovation = z - h @ mean
    s = h @ cov @ h.T + r
    try:
        s_inv = np.linalg.inv(s)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular innovation covariance") from exc
    gain = cov @ h.T @ s_inv
    joseph = np.eye(6) - gain @ h
    new_cov = _check_cov(joseph @ cov @ joseph.T + gain @ r @ gain.T, "update")
    nis = float(innovation @ s_inv @ innovation)
    return mean + gain @ innovation, new_cov, nis


def update(state: FusedState, gps_xyz: np.ndarray, r_gps: np.ndarray) -> FusedState:
    """Joseph-form EKF update with the linear position observation."""
    mean, cov, _ = _update(state.mean, state.cov, gps_xyz, r_gps)
    return FusedState(t_us=state.t_us, mean=mean, cov=cov)


class FusedStates(Sequence):
    """The states of a `run_fusion` stream, in the order the filter makes
    them, as `FusedState`s made on access from the arrays t_us (n,), mean
    (n, 6) and cov (n, 6, 6). Slicing gives a list."""

    def __init__(self, t_us: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> None:
        self.t_us, self.mean, self.cov = t_us, mean, cov

    def __len__(self) -> int:
        return len(self.t_us)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return FusedState(t_us=int(self.t_us[i]), mean=self.mean[i], cov=self.cov[i])


@dataclass
class FusionResult:
    """Filter outputs: every state the filter made plus per-update NIS."""

    states: FusedStates
    nis: list[float]

    def positions(self) -> np.ndarray:
        """(t_us, x, y, z) rows of `states`."""
        return np.column_stack([self.states.t_us, self.states.mean[:, :3]])


def _speed_rows(speed_stream: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time (us), rotor id and rpm columns of (t_us, prop_id, rpm, ...)
    rows; numpy truncates the time and id toward zero, as int() would. A
    time or id that is not finite or not inside int64, or a rotor id that
    is not one of the mixer's 0..N_ROTORS-1, raises DataError."""
    rows = np.asarray(speed_stream, dtype=np.float64)
    if not rows.size:
        return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)
    if not (np.abs(rows[:, :2]) < 2.0**63).all():
        raise DataError("non-finite or out-of-range time or rotor id in the speed stream")
    t_us, props = rows[:, :2].astype(np.int64).T
    outside = (props < 0) | (props >= N_ROTORS)
    if outside.any():
        raise DataError(f"rotor id {props[outside.argmax()]} in the speed stream is outside 0..{N_ROTORS - 1}")
    return t_us, props, rows[:, 2]


def _step_accelerations(
    speed_rows: np.ndarray, speed_props: np.ndarray, speed_omega: np.ndarray, step_rows: np.ndarray,
    step_commands: np.ndarray, predictor: KinematicPredictor,
) -> tuple[np.ndarray, np.ndarray]:
    """The acceleration of each step and whether a rotor speed is negative
    there. speed_rows are the merged rows (ascending) that set rotor
    speed_props to speed_omega (rad/s); a step at row step_rows[j] sees
    each rotor's speed from its latest row at or before it, the hover
    speed before its first, and the command step_commands[j]."""
    held = np.full((len(step_rows), N_ROTORS), math.sqrt(predictor.hover_speed_sq_sum / N_ROTORS))
    for rotor in range(N_ROTORS):
        mine = speed_props == rotor
        latest = np.searchsorted(speed_rows[mine], step_rows, "right") - 1
        seen = latest >= 0
        held[seen, rotor] = speed_omega[mine][latest[seen]]
    gains = (predictor.k_f, predictor.hover_speed_sq_sum, predictor.tilt_fraction)
    return command_accelerations(step_commands, held, *gains), (held < 0).any(axis=1)


class _Schedule(NamedTuple):
    """What `run_fusion`'s loop takes from its numpy pass. It visits each
    row from the first fix that steps, updates or is dropped, in order."""

    t_us: np.ndarray  # (n,) each state's time: the clock after the row that made it
    accels: np.ndarray  # (n, 3) the acceleration each predicted state was stepped with
    means: np.ndarray  # (n, 6) b @ that acceleration, b of its step: the loop adds f @ the mean before
    gaps: list[int]  # per visited row, the step it takes (us), or 0
    fixes: list[int]  # per visited row, the GPS fix it updates with, -1 for none, -2 if dropped
    dropped_t_us: list[int]  # the time of each dropped row
    error: Exception | None  # what ends the run once the steps are checked, or None


def _schedule(
    labels: list, command_t: np.ndarray, speed_t: np.ndarray, props: np.ndarray, rpm: np.ndarray,
    gps_t: np.ndarray, predictor: KinematicPredictor, process_noise_scale: float,
) -> _Schedule | None:
    """The numpy pass of `run_fusion` over its streams' columns, or None
    without a GPS fix. Rows are ordered stably by (the latest time of
    their stream so far, stream), the order a timestamp merge of the
    streams takes, so a row behind its stream's clock stays in place."""
    times = [command_t, speed_t, gps_t]
    order = np.argsort(np.concatenate([np.maximum.accumulate(stream_t) for stream_t in times]), kind="stable")
    t = np.concatenate(times)[order]
    # each stream keeps its order, so its i-th entry lands on its i-th row
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    del order
    command_rows, speed_rows, fix_rows = np.split(position, np.cumsum([len(command_t), len(speed_t)]))

    # stop: the row whose error ends the run after the steps before it are
    # checked. An unknown command is one wherever it falls
    codes = np.array([COMMANDS.index(label) if label in COMMANDS else -1 for label in labels], dtype=np.int64)
    unknown = np.flatnonzero(codes < 0)
    stop, error = len(t), None
    if unknown.size:
        stop = command_rows[unknown[0]]
        error = DataError(f"unknown command {labels[unknown[0]]!r} in command stream")
    if not (fix_rows.size and fix_rows[0] < stop):
        if error is not None:
            raise error
        return None
    first = fix_rows[0]  # the filter starts here, with GPS fix 0

    # the clock after each row from the first fix; a later row behind the
    # clock before it is dropped, one ahead of it is a step of the gap
    # between them (unsigned: the int64 times may lie 2^63 or more apart)
    clock = np.maximum.accumulate(t[first:stop])
    dropped = t[first + 1 : stop] < clock[:-1] - OUT_OF_ORDER_TOLERANCE_US
    is_step = t[first + 1 : stop] > clock[:-1]
    step_rows = first + 1 + np.flatnonzero(is_step)
    gaps = clock[step_rows - first].view(np.uint64) - clock[step_rows - first - 1].view(np.uint64)
    # the command in force: that of the last command row at or before the step
    step_commands = np.concatenate([[0], codes])[np.searchsorted(command_rows, step_rows, "right")]
    omega = rpm * 2.0  # in place from here: rpm * 2.0 * math.pi / 60.0
    omega *= math.pi
    omega /= 60.0
    accels, negative = _step_accelerations(speed_rows, props, omega, step_rows, step_commands, predictor)
    if negative.any():  # the errors MotionPrior raises, speeds first
        stop, error = step_rows[negative.argmax()], DataError("rotor speeds must be nonnegative")
    if process_noise_scale < 0 and step_rows.size and step_rows[0] < stop:
        stop, error = step_rows[0], ConfigError("process noise scale must be nonnegative")

    # each row's states, a step and then an update, are the next ones
    n = stop - first - 1
    dropped, is_step = dropped[:n], is_step[:n]
    n_steps = int(np.searchsorted(step_rows, stop))
    is_fix = np.zeros(n, bool)
    is_fix[fix_rows[1 : np.searchsorted(fix_rows, stop)] - first - 1] = True
    is_fix &= ~dropped
    made = is_step.view(np.int8) + is_fix.view(np.int8)
    t_states = np.concatenate([clock[:1], np.repeat(clock[1 : n + 1], made)])
    step_states = (np.cumsum(made) - is_fix)[is_step]
    step_accels, means = np.zeros((len(t_states), 3)), np.zeros((len(t_states), 6))
    step_accels[step_states] = accels[:n_steps]
    gaps = gaps[:n_steps]
    for gap in np.unique(gaps).tolist():
        _, b = _transition(gap * 1e-6)
        same = step_states[gaps == gap]
        means[same] = np.matmul(b, step_accels[same, :, None])[..., 0]

    visit = np.flatnonzero(made | dropped)
    visit_gaps = np.zeros(len(visit), np.uint64)
    visit_gaps[is_step[visit]] = gaps
    fixes = np.where(is_fix[visit], np.searchsorted(fix_rows, first + 1 + visit), np.where(dropped[visit], -2, -1))
    return _Schedule(
        t_states, step_accels, means, visit_gaps.tolist(), fixes.tolist(), t[first + 1 : stop][dropped].tolist(), error,
    )


def run_fusion(
    speed_stream: np.ndarray,
    command_stream: list[tuple[int, str]],
    gps_stream: np.ndarray,
    predictor: KinematicPredictor,
    *,
    gps_sigma_m: float = 2.0,
    process_noise_scale: float = 0.05,
) -> FusionResult:
    """Event-driven fusion loop over timestamp-ordered input streams.

    speed_stream rows are (t_us, prop_id, rpm); command_stream entries
    are (t_us, label); gps_stream rows are (t_us, x, y, z). The filter
    initializes at the first GPS fix, predicts to each incoming
    measurement's time and updates on GPS. It emits each state it makes
    once, from the first fix on: a measurement that steps the clock adds
    the predicted state, and a GPS fix then adds the updated one after
    it. Streams merge in their given order: a measurement older than the
    filter clock beyond OUT_OF_ORDER_TOLERANCE_US is dropped with a
    warning, not re-sorted. A rotor id outside 0..N_ROTORS-1 raises
    DataError before any step. A negative rotor speed raises DataError, and
    a negative process_noise_scale ConfigError, at the first prediction
    step they would drive. The predicted steps are checked together (see
    the module docstring); a failing one raises the error `predict` would
    have raised at that step, before any later step's.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the step checks report what overflows
        speed_t, props, rpm = _speed_rows(speed_stream)
        gps = np.asarray(gps_stream, dtype=np.float64)
        if not gps.size:
            gps = np.zeros((0, 4))
        if not (np.abs(gps[:, 0]) < 2.0**63).all():
            raise DataError("non-finite or out-of-range time in the GPS stream")
        plan = _schedule(
            [label for _, label in command_stream], np.array([int(t_us) for t_us, _ in command_stream], dtype=np.int64),
            speed_t, props, rpm, gps[:, 0].astype(np.int64), predictor, process_noise_scale,
        )
        if plan is None:
            return FusionResult(FusedStates(np.zeros(0, np.int64), np.zeros((0, 6)), np.zeros((0, 6, 6))), [])

        r_gps = gps_sigma_m**2 * np.eye(3)
        means, covs = plan.means, np.zeros((len(plan.t_us), 6, 6))
        means[0, :3] = gps[0, 1:4]
        covs[0, :3, :3] = r_gps
        covs[0, 3:, 3:] = INIT_VELOCITY_SIGMA**2 * np.eye(3)
        nis: list[float] = []
        dropped_t_us = iter(plan.dropped_t_us)
        k = checked = 0  # the current state and the last checked one

        def check() -> None:
            _check_steps(means[checked : k + 1], covs[checked : k + 1], plan.accels[checked + 1 : k + 1])

        for gap, fix in zip(plan.gaps, plan.fixes):
            if fix == -2:
                check()
                checked = k
                t_us = next(dropped_t_us)
                LOG.warning("dropping out-of-order measurement at t=%d us (filter at %d us)", t_us, plan.t_us[k])
                continue
            if gap:
                f, _, q = _step_matrices(gap * 1e-6, process_noise_scale)
                means[k + 1], covs[k + 1] = _step(means[k], covs[k], f, q, means[k + 1])
                k += 1
                if k - checked == CHECK_STEPS:
                    check()
                    checked = k
            if fix >= 0:
                check()
                means[k + 1], covs[k + 1], fix_nis = _update(means[k], covs[k], gps[fix, 1:4], r_gps)
                k = checked = k + 1
                nis.append(fix_nis)
        check()
        if plan.error is not None:
            raise plan.error
        return FusionResult(FusedStates(plan.t_us, means, covs), nis)
