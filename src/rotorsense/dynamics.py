"""Quadrotor command mixer and the command-conditioned acceleration model.

Thrust of a rotor scales with the square of its angular speed, so the
net vertical acceleration of a multirotor scales with the sum of squared
speeds relative to the hover operating point. Lateral acceleration for
roll/pitch is modelled as a fixed fraction of the total thrust
acceleration (small-angle tilt proxy).

Rotor order is (front-left, front-right, rear-right, rear-left); spins
alternate so that diagonal pairs rotate the same way.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

COMMANDS = ("hover", "climb", "descent", "yaw", "roll", "pitch")

GRAVITY = 9.80665  # m/s^2

ROTOR_SPINS = np.array([+1, -1, +1, -1], dtype=np.int8)
N_ROTORS = len(ROTOR_SPINS)

# Per-command multiplier of the speed offset, one entry per rotor.
_MIXER = {
    "hover": np.array([0.0, 0.0, 0.0, 0.0]),
    "climb": np.array([+1.0, +1.0, +1.0, +1.0]),
    "descent": np.array([-1.0, -1.0, -1.0, -1.0]),
    # +offset on clockwise rotors (spin -1), -offset on counter-clockwise.
    "yaw": -ROTOR_SPINS.astype(np.float64),
    # left pair up, right pair down
    "roll": np.array([+1.0, -1.0, -1.0, +1.0]),
    # rear pair up, front pair down
    "pitch": np.array([-1.0, -1.0, +1.0, +1.0]),
}


def command_rpm_pattern(command: str, hover_rpm: float, delta_rpm: float) -> np.ndarray:
    """The N_ROTORS rotor speeds (RPM) of a command: hover speed plus the
    mixer offset."""
    mult = _MIXER.get(command)
    if mult is None:
        raise ConfigError(f"unknown command {command!r}, expected one of {COMMANDS}")
    rpm = hover_rpm + delta_rpm * mult
    if np.any(rpm < 0):
        raise ConfigError("mixer produced a negative rotor speed; reduce delta_rpm")
    return rpm


def rpm_to_rad_s(rpm: np.ndarray | float) -> np.ndarray | float:
    return np.multiply(rpm, 2.0 * np.pi / 60.0)


def calibrate_thrust_gain(hover_speeds_rad_s: np.ndarray) -> float:
    """Solve k_f * sum(omega_hover^2) = g from one hover segment."""
    s = float(np.sum(np.square(np.asarray(hover_speeds_rad_s, dtype=np.float64))))
    if s <= 0:
        raise ConfigError("hover speeds must be positive to calibrate the thrust gain")
    return GRAVITY / s


def command_accelerations(
    command_ids: np.ndarray,
    speeds_rad_s: np.ndarray,
    k_f: float,
    hover_speed_sq_sum: float,
    tilt_fraction: float = 0.2,
) -> np.ndarray:
    """Linear accelerations (n, 3) (m/s^2, world frame) of the commands
    COMMANDS[command_ids[i]] at rotor speeds speeds_rad_s[i], an
    (n, N_ROTORS) array.

    climb/descent move along +/-z with the net thrust surplus
    k_f * (sum(omega^2) - sum(omega_hover^2)); hover and yaw produce no
    linear acceleration; roll/pitch tilt the total thrust vector, giving
    a lateral component of tilt_fraction * k_f * sum(omega^2) along
    +x / +y respectively. Each row's squares are summed over its rotors as
    one contiguous row, so a row gets the same bits alone or in a stack.
    """
    ids = np.asarray(command_ids)
    total_sq = np.square(np.asarray(speeds_rad_s, dtype=np.float64)).sum(axis=1)
    accel = np.zeros((ids.size, 3))
    vertical = (ids == COMMANDS.index("climb")) | (ids == COMMANDS.index("descent"))
    accel[vertical, 2] = k_f * (total_sq[vertical] - hover_speed_sq_sum)
    for axis, command in ((0, "roll"), (1, "pitch")):
        tilted = ids == COMMANDS.index(command)
        accel[tilted, axis] = tilt_fraction * k_f * total_sq[tilted]
    return accel
