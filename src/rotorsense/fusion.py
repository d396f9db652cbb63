"""EKF fusion of propeller-derived motion priors with GPS position fixes.

The filter tracks a 6-state belief (3-D position and velocity). The
prediction step propagates a constant-acceleration model whose
acceleration comes from the inferred command and the measured rotor
speeds (`KinematicPredictor`'s gains map thrust surplus to climb/descent
and a tilt fraction of total thrust to lateral motion). GPS fixes enter
through a standard linear update in Joseph form, symmetrized after it
and checked at once (`_update`).

`run_fusion` works on state arrays. One numpy pass orders the rows of
the three streams as a timestamp merge takes them, carries the speed of
each of the mixer's N_ROTORS rotors and the command in force forward,
finds the dropped rows and the steps, computes every step's
acceleration with one `command_accelerations` call and each distinct
step length's scalars once. Its loop visits only the GPS updates and
the dropped rows. It predicts the run of steps before each of them, and
the run after the last, with one `predict` call: a prefix sum over time
per 3x3 block of the state, with the bits of stepping one state at a
time, that keeps each covariance exactly symmetric. It checks that run
with one `_check_steps` call before it updates, logs the dropped
measurement or raises any other error. It writes each state into preallocated time
(n,), mean (n, 6) and covariance (n, 6, 6) arrays;
`FusionResult.states` shows them as one `FusedState` per state the
filter makes. The first failing step of a run raises the error a check
of that step alone raises.
"""

from __future__ import annotations

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
# standard deviation (m/s) of each velocity component at the first GPS fix
INIT_VELOCITY_SIGMA = 2.0
_EYE3 = np.eye(3)


@dataclass(frozen=True)
class FusedState:
    """Gaussian belief over [position (m), velocity (m/s)] at time t."""

    t_us: int
    mean: np.ndarray  # (6,)
    cov: np.ndarray  # (6, 6)


class KinematicPredictor:
    """Gains of the command-conditioned acceleration model.

    Calibrated from one hover segment: k_f * sum(omega_hover^2) = g.
    `run_fusion` passes the gains to one `command_accelerations` call on
    all its steps.
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


def _step_terms(dt_s: float, accel_variance: float) -> tuple[float, float, float, float, float]:
    """The scalars of one step of dt_s seconds, as Python floats: dt_s,
    h = 0.5 dt^2, with b = [[h I], [dt I]], and q_pp, q_pv and q_vv, with
    the white-acceleration process noise
    Q = [[q_pp I, q_pv I], [q_pv I, q_vv I]]. `run_fusion` computes each
    distinct step length's terms here once."""
    return (
        dt_s, 0.5 * dt_s**2, accel_variance * (0.25 * dt_s**4), accel_variance * (0.5 * dt_s**3),
        accel_variance * dt_s**2,
    )


def predict(means: np.ndarray, covs: np.ndarray, k: int, accels: np.ndarray, terms: np.ndarray) -> None:
    """Step states k + 1 .. k + r of means (n, 6) and covs (n, 6, 6) from
    state k in place, unchecked: step j (r = len(accels)) has acceleration
    accels[j] and the `_step_terms` terms[j] = (dt, h, q_pp, q_pv, q_vv).
    With P = [[A, B], [B.T, C]] and b @ accel = (h accel, dt accel) =
    (b_p, b_v), a step makes

        C' = C + q_vv I
        B' = B + (dt C + q_pv I)
        A' = A + ((dt (B + B.T) + (dt dt) C) + q_pp I)
        v' = v + b_v
        p' = p + (dt v + b_p)

    F P F.T + Q and F x + b @ accel in exact arithmetic; the covariance
    stays exactly symmetric. Each block is a cumsum over time of its
    increments, the additions of r steps one after another."""
    run, step, before = slice(k, k + len(accels) + 1), slice(k + 1, k + len(accels) + 1), slice(k, k + len(accels))
    dt = terms[:, 0, None, None]
    q_pp, q_pv, q_vv = (terms[:, i, None, None] for i in range(2, 5))
    a, b, c = covs[:, :3, :3], covs[:, :3, 3:], covs[:, 3:, 3:]
    # each (r, 3, 3) q I stack is built where it is added, so at most one is alive
    c[step] = q_vv * _EYE3
    np.cumsum(c[run], axis=0, out=c[run])
    b[step] = dt * c[before] + q_pv * _EYE3
    np.cumsum(b[run], axis=0, out=b[run])
    covs[step, 3:, :3] = b[step].transpose(0, 2, 1)
    a[step] = (dt * (b[before] + b[before].transpose(0, 2, 1)) + (dt * dt) * c[before]) + q_pp * _EYE3
    np.cumsum(a[run], axis=0, out=a[run])
    p, v = means[:, :3], means[:, 3:]
    v[step] = dt[:, 0] * accels
    np.cumsum(v[run], axis=0, out=v[run])
    p[step] = dt[:, 0] * v[before] + terms[:, 1, None] * accels
    np.cumsum(p[run], axis=0, out=p[run])


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
    with np.errstate(over="ignore", invalid="ignore"):  # the covariance check reports what overflows
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
    row from the first fix that updates or is dropped, in order, and steps
    the states between them in runs."""

    t_us: np.ndarray  # (n,) each state's time: the clock after the row that made it
    accels: np.ndarray  # (n, 3) the acceleration each predicted state was stepped with
    terms: np.ndarray  # (m, 5) the `_step_terms` of each distinct step length
    step_terms: np.ndarray  # (n,) the row of `terms` of the step that made each predicted state
    ends: list[int]  # per visited row, the last state made before it
    fixes: list[int]  # per visited row, the GPS fix it updates with, or -1 if dropped
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
    dropped = t[first + 1 : stop] < clock[:-1]
    is_step = t[first + 1 : stop] > clock[:-1]
    step_rows = first + 1 + np.flatnonzero(is_step)
    gaps = clock[step_rows - first].view(np.uint64) - clock[step_rows - first - 1].view(np.uint64)
    # the command in force: that of the last command row at or before the step
    step_commands = np.concatenate([[0], codes])[np.searchsorted(command_rows, step_rows, "right")]
    omega = rpm * 2.0  # in place from here: rpm * 2.0 * math.pi / 60.0
    omega *= math.pi
    omega /= 60.0
    accels, negative = _step_accelerations(speed_rows, props, omega, step_rows, step_commands, predictor)
    if negative.any():  # a negative speed is named before a negative noise scale
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
    last_state = np.cumsum(made)  # the last state made by each row, or before it
    t_states = np.concatenate([clock[:1], np.repeat(clock[1 : n + 1], made)])
    step_states = (last_state - is_fix)[is_step]
    step_accels = np.zeros((len(t_states), 3))
    step_accels[step_states] = accels[:n_steps]
    # each distinct step length's terms, computed once
    gaps, which = np.unique(gaps[:n_steps], return_inverse=True)
    terms = np.array([_step_terms(gap * 1e-6, process_noise_scale) for gap in gaps.tolist()]).reshape(-1, 5)
    step_terms = np.zeros(len(t_states), np.intp)
    step_terms[step_states] = which

    visit = np.flatnonzero(is_fix | dropped)
    ends = last_state[visit] - is_fix[visit]
    fixes = np.where(is_fix[visit], np.searchsorted(fix_rows, first + 1 + visit), -1)
    return _Schedule(
        t_states, step_accels, terms, step_terms, ends.tolist(), fixes.tolist(),
        t[first + 1 : stop][dropped].tolist(), error,
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
    filter clock is dropped with a warning, not re-sorted. A rotor id
    outside 0..N_ROTORS-1 raises DataError before any step. A negative
    rotor speed raises DataError, and a negative process_noise_scale
    ConfigError, at the first prediction step they would drive. The steps
    between two visited rows are checked together (see the module
    docstring); a failing one raises the error a check of that step alone
    raises, before any later step's.
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
        means, covs = np.zeros((len(plan.t_us), 6)), np.zeros((len(plan.t_us), 6, 6))
        means[0, :3] = gps[0, 1:4]
        covs[0, :3, :3] = r_gps
        covs[0, 3:, 3:] = INIT_VELOCITY_SIGMA**2 * np.eye(3)
        nis: list[float] = []
        dropped_t_us = iter(plan.dropped_t_us)
        k = 0  # the current state
        # each visited row's run, then the run to the last state, which no row ends
        for end, fix in zip([*plan.ends, len(plan.t_us) - 1], [*plan.fixes, None]):
            steps = slice(k + 1, end + 1)
            predict(means, covs, k, plan.accels[steps], plan.terms[plan.step_terms[steps]])
            _check_steps(means[k : end + 1], covs[k : end + 1], plan.accels[steps])
            k = end
            if fix is None:
                break
            if fix < 0:
                t_us = next(dropped_t_us)
                LOG.warning("dropping out-of-order measurement at t=%d us (filter at %d us)", t_us, plan.t_us[k])
                continue
            means[k + 1], covs[k + 1], fix_nis = _update(means[k], covs[k], gps[fix, 1:4], r_gps)
            k += 1
            nis.append(fix_nis)
        if plan.error is not None:
            raise plan.error
        return FusionResult(FusedStates(plan.t_us, means, covs), nis)
