"""EKF fusion of propeller-derived motion priors with GPS position fixes.

The filter tracks a 6-state belief (3-D position and velocity). The
prediction step propagates a constant-acceleration model whose
acceleration comes from the inferred command and the measured rotor
speeds (a pluggable predictor; the reference implementation maps thrust
surplus to climb/descent and a tilt fraction of total thrust to lateral
motion). GPS fixes enter through a standard linear update in Joseph
form. The covariance is symmetrized and checked positive semidefinite
after every step.
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
    The interface (acceleration(prior) -> 3-vector) is the plug point
    for richer learned predictors.
    """

    def __init__(self, k_f: float, hover_speed_sq_sum: float, tilt_fraction: float = 0.2) -> None:
        if k_f <= 0 or hover_speed_sq_sum <= 0:
            raise ConfigError("predictor gains must be positive")
        self.k_f = k_f
        self.hover_speed_sq_sum = hover_speed_sq_sum
        self.tilt_fraction = tilt_fraction

    @classmethod
    def from_hover_calibration(
        cls, hover_speeds_rad_s: np.ndarray, tilt_fraction: float = 0.2, gravity: float = GRAVITY
    ) -> "KinematicPredictor":
        k_f = calibrate_thrust_gain(hover_speeds_rad_s, gravity)
        hover_sq = float(np.sum(np.square(np.asarray(hover_speeds_rad_s, dtype=np.float64))))
        return cls(k_f=k_f, hover_speed_sq_sum=hover_sq, tilt_fraction=tilt_fraction)

    def acceleration(self, prior: MotionPrior) -> np.ndarray:
        return command_acceleration(
            prior.command, prior.speeds_rad_s, self.k_f, self.hover_speed_sq_sum, self.tilt_fraction
        )


def _check_cov(cov: np.ndarray, where: str) -> np.ndarray:
    cov = 0.5 * (cov + cov.T)
    eigenvalues = np.linalg.eigvalsh(cov)
    if float(eigenvalues.min()) < PSD_TOLERANCE:
        raise NumericalError(f"covariance lost positive semidefiniteness in {where}: min eig {eigenvalues.min()}")
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


def predict(state: FusedState, prior: MotionPrior, dt_s: float, predictor: KinematicPredictor) -> FusedState:
    """Constant-acceleration propagation with command-derived acceleration."""
    if dt_s <= 0:
        raise ConfigError(f"dt must be positive, got {dt_s}")
    if not (np.isfinite(state.mean).all() and np.isfinite(state.cov).all()):
        raise DataError("non-finite filter state")
    accel = predictor.acceleration(prior)
    if not np.isfinite(accel).all():
        raise DataError("non-finite acceleration from predictor")
    f, b, q = _step_matrices(dt_s, prior.process_noise_scale)
    mean = f @ state.mean + b @ accel
    cov = f @ state.cov @ f.T + q
    cov = _check_cov(cov, "predict")
    return FusedState(t_us=state.t_us + int(round(dt_s * 1e6)), mean=mean, cov=cov)


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


def _speed_queue(speed_stream: np.ndarray) -> list[tuple[int, int, tuple[int, float]]]:
    """(t_us, 1, (prop_id, rpm)) per (t_us, prop_id, rpm, ...) row. numpy
    truncates the two integer columns, as int() would, so no per-row
    Python float is made and dropped (freed small objects fragment the
    heap that the filter states later fill)."""
    if not speed_stream.size:
        return []
    if not (np.abs(speed_stream[:, :2]) < 2.0**63).all():
        raise DataError("non-finite or out-of-range time or rotor id in the speed stream")
    t_us, props = speed_stream[:, :2].astype(np.int64).T.tolist()
    return [(t, 1, (prop, rpm)) for t, prop, rpm in zip(t_us, props, speed_stream[:, 2].tolist())]


def run_fusion(
    speed_stream: np.ndarray,
    command_stream: list[tuple[int, str]],
    gps_stream: np.ndarray,
    predictor: KinematicPredictor,
    *,
    gps_sigma_m: float = 2.0,
    process_noise_scale: float = 0.05,
    init_velocity_sigma: float = 2.0,
    out_of_order_tolerance_us: int = 0,
) -> FusionResult:
    """Event-driven fusion loop over timestamp-ordered input streams.

    speed_stream rows are (t_us, prop_id, rpm); command_stream entries
    are (t_us, label); gps_stream rows are (t_us, x, y, z). The filter
    initializes at the first GPS fix, predicts to each incoming
    measurement's time, updates on GPS, and emits a state after every
    step. Measurements older than the filter clock beyond the tolerance
    are dropped with a warning.
    """
    # (t, kind, payload); kind orders ties. Streams merge in their given
    # order: a row arriving behind the filter clock is dropped, not
    # silently re-sorted.
    commands_q = [(int(t_us), 0, (label,)) for t_us, label in command_stream]
    speed_stream = np.asarray(speed_stream, dtype=np.float64)
    speeds_q = _speed_queue(speed_stream)
    gps_stream = np.asarray(gps_stream, dtype=np.float64)
    gps_q = [(int(row[0]), 2, (np.array(row[1:4]),)) for row in gps_stream.tolist()]
    events = heapq.merge(commands_q, speeds_q, gps_q, key=lambda e: (e[0], e[1]))

    r_gps = gps_sigma_m**2 * np.eye(3)
    n_props = 4
    if speed_stream.size:
        n_props = max(n_props, int(speed_stream[:, 1].max()) + 1)
    hover_rad_s = math.sqrt(predictor.hover_speed_sq_sum / n_props)
    speeds = np.full(n_props, hover_rad_s)
    command = "hover"
    state: FusedState | None = None
    result = FusionResult()

    for t_us, kind, payload in events:
        if kind == 0:
            if payload[0] not in COMMANDS:
                raise DataError(f"unknown command {payload[0]!r} in command stream")
            command = payload[0]
        elif kind == 1:
            prop, rpm = payload
            if 0 <= prop < speeds.size:
                speeds[prop] = rpm * 2.0 * math.pi / 60.0
        if state is None:
            if kind == 2:
                mean = np.zeros(6)
                mean[:3] = payload[0]
                cov = np.zeros((6, 6))
                cov[:3, :3] = r_gps
                cov[3:, 3:] = init_velocity_sigma**2 * np.eye(3)
                state = FusedState(t_us=t_us, mean=mean, cov=cov)
                result.states.append(state)
            continue
        dt_us = t_us - state.t_us
        if dt_us < -out_of_order_tolerance_us:
            LOG.warning("dropping out-of-order measurement at t=%d us (filter at %d us)", t_us, state.t_us)
            continue
        if dt_us > 0:
            prior = MotionPrior(command=command, speeds_rad_s=speeds, process_noise_scale=process_noise_scale)
            state = predict(state, prior, dt_us * 1e-6, predictor)
        if kind == 2:
            state, nis = _update_with_stats(state, payload[0], r_gps)
            result.nis.append(nis)
        result.states.append(state)
    return result
