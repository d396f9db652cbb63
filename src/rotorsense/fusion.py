"""EKF fusion of propeller-derived motion priors with GPS position fixes.

The filter tracks a 6-state belief (3-D position and velocity). The
prediction step propagates a constant-acceleration model whose
acceleration comes from the inferred command and the measured rotor
speeds (`KinematicPredictor` maps thrust surplus to climb/descent and a
tilt fraction of total thrust to lateral motion). GPS fixes enter
through a standard linear update in Joseph form. The covariance is
symmetrized after every step. `predict` and `update` check their result
at once; `run_fusion` checks the steps it predicted together: before
each GPS update, before it raises any other error or logs a dropped
measurement, every CHECK_STEPS steps and at the end. Either way the
first failing step raises the error `predict` raises there.
"""

from __future__ import annotations

import functools
import heapq
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import COMMANDS, GRAVITY, calibrate_thrust_gain, command_acceleration
from .errors import ConfigError, DataError, NumericalError

LOG = logging.getLogger(__name__)

PSD_TOLERANCE = -1e-9
# most predicted steps `run_fusion` stacks for one check: 5 Hz GPS fixes over
# 1 kHz speed rows check every 200 steps, so this bound only caps the stack
# (1024 6x6 covariances, 295 KB) and the steps computed past a failing one
# in a stream without GPS
CHECK_STEPS = 1024
# standard deviation (m/s) of each velocity component at the first GPS fix
INIT_VELOCITY_SIGMA = 2.0
# how far (us) a measurement may lag the filter clock and still be used
OUT_OF_ORDER_TOLERANCE_US = 0
# rotor ids in the speed stream lie below this bound: `run_fusion` holds one
# speed per id up to the largest, so the bound caps that vector at 512 KB,
# far above the 4 to 8 rotors of a multirotor
MAX_ROTOR_ID = 2**16


@dataclass(frozen=True)
class FusedState:
    """Gaussian belief over [position (m), velocity (m/s)] at time t."""

    t_us: int
    mean: np.ndarray  # (6,)
    cov: np.ndarray  # (6, 6)

    @property
    def position(self) -> np.ndarray:
        return self.mean[:3]

    @property
    def velocity(self) -> np.ndarray:
        return self.mean[3:]


@dataclass(frozen=True)
class MotionPrior:
    """Inferred command plus rotor speeds driving one prediction step."""

    command: str
    speeds_rad_s: np.ndarray
    process_noise_scale: float  # white-acceleration variance, (m/s^2)^2

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        speeds = np.asarray(self.speeds_rad_s, dtype=np.float64)
        if (speeds < 0).any():
            raise DataError("rotor speeds must be nonnegative")
        object.__setattr__(self, "speeds_rad_s", speeds)
        if self.process_noise_scale < 0:
            raise ConfigError("process noise scale must be nonnegative")

    @property
    def one_hot(self) -> np.ndarray:
        vec = np.zeros(len(COMMANDS))
        vec[COMMANDS.index(self.command)] = 1.0
        return vec


class KinematicPredictor:
    """Reference command-conditioned acceleration model.

    Calibrated from one hover segment: k_f * sum(omega_hover^2) = g.
    `predict` calls `acceleration(prior)`; `run_fusion` builds no prior
    per step and calls `command_acceleration` with the same gains.
    """

    def __init__(self, k_f: float, hover_speed_sq_sum: float, tilt_fraction: float = 0.2) -> None:
        if k_f <= 0 or hover_speed_sq_sum <= 0:
            raise ConfigError("predictor gains must be positive")
        self.k_f = k_f
        self.hover_speed_sq_sum = hover_speed_sq_sum
        self.tilt_fraction = tilt_fraction

    @classmethod
    def from_hover_calibration(cls, hover_speeds_rad_s: np.ndarray, tilt_fraction: float = 0.2) -> "KinematicPredictor":
        k_f = calibrate_thrust_gain(hover_speeds_rad_s, GRAVITY)
        hover_sq = float(np.sum(np.square(np.asarray(hover_speeds_rad_s, dtype=np.float64))))
        return cls(k_f=k_f, hover_speed_sq_sum=hover_sq, tilt_fraction=tilt_fraction)

    def acceleration(self, prior: MotionPrior) -> np.ndarray:
        return command_acceleration(
            prior.command, prior.speeds_rad_s, self.k_f, self.hover_speed_sq_sum, self.tilt_fraction
        )


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


def _step(state: FusedState, accel: np.ndarray, dt_s: float, accel_variance: float) -> FusedState:
    """One constant-acceleration prediction, unchecked."""
    f, b, q = _step_matrices(dt_s, accel_variance)
    mean = f @ state.mean + b @ accel
    cov = f @ state.cov @ f.T + q
    return FusedState(t_us=state.t_us + int(round(dt_s * 1e6)), mean=mean, cov=0.5 * (cov + cov.T))


def _check_steps(states: list[FusedState], accels: list[np.ndarray]) -> None:
    """The checks of each step states[j] -> states[j + 1] made with
    acceleration accels[j]: a finite state to start from, a finite
    acceleration, a finite positive semidefinite covariance. Raises the
    error of the first failing step. A non-finite acceleration makes the
    mean it steps to non-finite, so only the first non-finite state needs
    a closer look."""
    if not accels:
        return
    finite = np.isfinite([s.mean for s in states]).all(axis=1)
    covs = np.array([s.cov for s in states])
    finite &= np.isfinite(covs).all(axis=(1, 2))
    k = len(states) if finite.all() else int(finite.argmin())
    if k == 0:
        raise DataError("non-finite filter state")
    _check_psd(covs[1:k], "predict")
    if k == len(states):
        return
    if not np.isfinite(accels[k - 1]).all():
        raise DataError("non-finite acceleration from predictor")
    _check_psd(covs[k], "predict")
    if k + 1 < len(states):  # a finite covariance, a mean that overflowed
        raise DataError("non-finite filter state")


def predict(state: FusedState, prior: MotionPrior, dt_s: float, predictor: KinematicPredictor) -> FusedState:
    """Constant-acceleration propagation with command-derived acceleration."""
    if dt_s <= 0:
        raise ConfigError(f"dt must be positive, got {dt_s}")
    accel = predictor.acceleration(prior)
    new_state = _step(state, accel, dt_s, prior.process_noise_scale)
    _check_steps([state, new_state], [accel])
    return new_state


def _update_with_stats(
    state: FusedState, gps_xyz: np.ndarray, r_gps: np.ndarray
) -> tuple[FusedState, float]:
    z = np.asarray(gps_xyz, dtype=np.float64)
    if z.shape != (3,) or not np.all(np.isfinite(z)):
        raise DataError("GPS measurement must be a finite 3-vector")
    r = np.asarray(r_gps, dtype=np.float64)
    if r.shape != (3, 3):
        raise ConfigError("R_gps must be a 3x3 covariance")
    h = np.zeros((3, 6))
    h[:, :3] = np.eye(3)
    innovation = z - h @ state.mean
    s = h @ state.cov @ h.T + r
    try:
        s_inv = np.linalg.inv(s)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular innovation covariance") from exc
    gain = state.cov @ h.T @ s_inv
    mean = state.mean + gain @ innovation
    joseph = np.eye(6) - gain @ h
    cov = joseph @ state.cov @ joseph.T + gain @ r @ gain.T
    cov = _check_cov(cov, "update")
    nis = float(innovation @ s_inv @ innovation)
    return FusedState(t_us=state.t_us, mean=mean, cov=cov), nis


def update(state: FusedState, gps_xyz: np.ndarray, r_gps: np.ndarray) -> FusedState:
    """Joseph-form EKF update with the linear position observation."""
    new_state, _ = _update_with_stats(state, gps_xyz, r_gps)
    return new_state


@dataclass
class FusionResult:
    """Filter outputs: a state after every step plus per-update NIS."""

    states: list[FusedState] = field(default_factory=list)
    nis: list[float] = field(default_factory=list)

    def positions(self) -> np.ndarray:
        return np.array([[s.t_us, *s.position] for s in self.states])


def _speed_queue(speed_stream: np.ndarray) -> list[tuple[int, int, int, float]]:
    """(t_us, 1, prop_id, rpm) per (t_us, prop_id, rpm, ...) row. numpy
    truncates the two integer columns, as int() would, so no per-row
    Python float is made and dropped (freed small objects fragment the
    heap that the filter states later fill). A rotor id at or above
    MAX_ROTOR_ID raises DataError."""
    if not speed_stream.size:
        return []
    if not (np.abs(speed_stream[:, :2]) < 2.0**63).all():
        raise DataError("non-finite or out-of-range time or rotor id in the speed stream")
    if not speed_stream[:, 1].max() < MAX_ROTOR_ID:
        raise DataError(f"rotor id {int(speed_stream[:, 1].max())} in the speed stream is not below {MAX_ROTOR_ID}")
    t_us, props = speed_stream[:, :2].astype(np.int64).T.tolist()
    return [(t, 1, prop, rpm) for t, prop, rpm in zip(t_us, props, speed_stream[:, 2].tolist())]


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
    measurement's time, updates on GPS, and emits a state after every
    step. Measurements older than the filter clock beyond
    OUT_OF_ORDER_TOLERANCE_US are dropped with a warning. A negative
    rotor speed raises DataError, and a negative process_noise_scale
    ConfigError, at the first prediction step they would drive. The
    predicted steps are checked together (see the module docstring); a
    failing one raises the error `predict` would have raised at that
    step, before any later step's.
    """
    # (t, kind, value, rpm): a command label, a rotor id and its rpm or a GPS
    # fix; kind orders ties. Streams merge in their given order: a row
    # arriving behind the filter clock is dropped, not silently re-sorted.
    commands_q = [(int(t_us), 0, label, None) for t_us, label in command_stream]
    speed_stream = np.asarray(speed_stream, dtype=np.float64)
    speeds_q = _speed_queue(speed_stream)
    gps_stream = np.asarray(gps_stream, dtype=np.float64)
    gps_q = [(int(row[0]), 2, np.array(row[1:4]), None) for row in gps_stream.tolist()]
    events = heapq.merge(commands_q, speeds_q, gps_q, key=lambda e: (e[0], e[1]))

    r_gps = gps_sigma_m**2 * np.eye(3)
    n_props = 4
    if speed_stream.size:
        n_props = max(n_props, int(speed_stream[:, 1].max()) + 1)
    hover_rad_s = math.sqrt(predictor.hover_speed_sq_sum / n_props)
    speeds = np.full(n_props, hover_rad_s)
    negative: set[int] = set()  # rotors whose speed is negative
    gains = (predictor.k_f, predictor.hover_speed_sq_sum, predictor.tilt_fraction)
    command = "hover"
    state: FusedState | None = None
    # the last checked state, the states predicted from it since, and the
    # acceleration of each of those steps
    steps: list[FusedState] = []
    accels: list[np.ndarray] = []
    result = FusionResult()

    for t_us, kind, value, rpm in events:
        if kind == 0:
            if value not in COMMANDS:
                _check_steps(steps, accels)
                raise DataError(f"unknown command {value!r} in command stream")
            command = value
        elif kind == 1:
            if 0 <= value < speeds.size:
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
                cov[3:, 3:] = INIT_VELOCITY_SIGMA**2 * np.eye(3)
                state = FusedState(t_us=t_us, mean=mean, cov=cov)
                steps = [state]
                result.states.append(state)
            continue
        dt_us = t_us - state.t_us
        if dt_us < -OUT_OF_ORDER_TOLERANCE_US:
            _check_steps(steps, accels)
            steps, accels = [state], []
            LOG.warning("dropping out-of-order measurement at t=%d us (filter at %d us)", t_us, state.t_us)
            continue
        if dt_us > 0:
            if negative or process_noise_scale < 0:
                _check_steps(steps, accels)
                if negative:  # the errors MotionPrior raises, speeds first
                    raise DataError("rotor speeds must be nonnegative")
                raise ConfigError("process noise scale must be nonnegative")
            accel = command_acceleration(command, speeds, *gains)
            state = _step(state, accel, dt_us * 1e-6, process_noise_scale)
            steps.append(state)
            accels.append(accel)
            if len(accels) == CHECK_STEPS:
                _check_steps(steps, accels)
                steps, accels = [state], []
        if kind == 2:
            _check_steps(steps, accels)
            state, nis = _update_with_stats(state, value, r_gps)
            steps, accels = [state], []
            result.nis.append(nis)
        result.states.append(state)
    _check_steps(steps, accels)
    return result
