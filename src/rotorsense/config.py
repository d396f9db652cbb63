"""Pipeline and scenario configuration: flat key=value text files.

Two file kinds share the same syntax (one ``key=value`` per line, ``#``
comments): scenario files describing what to simulate, and pipeline
configs holding every stage's knobs. Unknown keys are rejected.
`PipelineConfig.validate` holds every check of the pipeline config; it
runs when a config is parsed, when the CLI has applied its options and
when `run_pipeline` starts, before any stage writes an artifact. The
estimate stage (`batching.grow_batch`, `batching.density_downsample`,
`pipeline.estimate_track`) reads its knobs from the config it is given.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .dynamics import COMMANDS
from .errors import ConfigError, open_text
from .events import SensorGeometry
from .motion import MAX_GRID
from .sim import FLIGHT_TICK_US, ConstantSpeed, DroneSpec, NoiseSpec, PropellerSpec, RampSpeed, StepSpeed


def parse_kv_file(path: str) -> dict[str, str]:
    """Parse a flat key=value file; later keys override earlier ones."""
    out: dict[str, str] = {}
    with open_text(path, ConfigError) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _parse_bool(value: str, key: str) -> bool:
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise ConfigError(f"{key}: expected a boolean (0/1), got {value!r}")


def _parse_pair(value: str, key: str) -> tuple[float, float]:
    parts = value.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{key}: expected 'a,b', got {value!r}")
    return _number(float, key, parts[0]), _number(float, key, parts[1])


def _number(kind: type, key: str, value):
    """int(value) or float(value); a malformed or non-finite number raises
    ConfigError naming `key`."""
    try:
        number = kind(value)
    except ValueError:
        raise ConfigError(f"{key}: bad value {value!r}, expected {'an integer' if kind is int else 'a number'}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{key}: must be finite, got {value!r}")
    return number


@dataclass
class PipelineConfig:
    """Every stage's parameters plus seed and I/O paths."""

    seed: int = 0
    scenario: str = ""  # scenario file to simulate; empty means read `input`
    input: str = ""
    input_format: str = "bin"
    output_format: str = "bin"
    # preprocess
    filter_enabled: bool = True
    window_us: int = 5000
    bin_size: int = 5
    k_props: int = 1
    count_ratio: float = 1.0 / 3.0
    polarity_lo: float = 0.3
    polarity_hi: float = 0.7
    # adaptive batching
    dt_us: int = 1000
    delta: float = 0.3
    beta: int = 8
    sample_fraction: float = 1.0
    space_radius_px: float = 2.0
    time_radius_us: float = 200.0
    # batches truncated below this many bundles are grown/consumed but not
    # reported: a lone bundle's objective basin is too wide to trust
    min_emit_bundles: int = 2
    # speed estimation
    bracket_rpm_lo: float = 500.0
    bracket_rpm_hi: float = 12000.0
    n_grid: int = 64
    tol_rpm: float = 0.5
    epsilon: float = 1.0
    # command inference
    svm_lambda: float = 1e-3
    svm_epochs: int = 20
    svm_folds: int = 5
    window_ms: float = 100.0
    resample_hz: float = 1000.0
    # fusion
    hover_rpm: float = 3000.0
    gps_sigma_m: float = 2.0
    process_noise_scale: float = 0.05
    tilt_fraction: float = 0.2
    # write plots/objective_curve.csv, the objective around one estimate
    plots: bool = False

    @classmethod
    def from_dict(cls, raw: dict[str, str], source: str = "<config>") -> "PipelineConfig":
        cfg = cls()
        known = {f.name for f in fields(cls)}
        unknown = [k for k in raw if k not in known]
        if unknown:
            raise ConfigError(f"{source}: unknown config keys: {', '.join(sorted(unknown))}")
        for key, value in raw.items():
            current = getattr(cfg, key)
            try:
                if isinstance(current, bool):
                    parsed = _parse_bool(value, key)
                elif isinstance(current, int):
                    parsed = int(value)
                elif isinstance(current, float):
                    parsed = float(value)
                else:
                    parsed = value
            except ValueError as exc:
                raise ConfigError(f"{source}: bad value for {key}: {value!r}") from exc
            setattr(cfg, key, parsed)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        return cls.from_dict(parse_kv_file(path), source=path)

    def validate(self) -> None:
        for f in fields(self):  # integers feed int64 arrays and numpy generators
            value = getattr(self, f.name)
            if isinstance(value, int) and not -(2**63) <= value < 2**63:
                raise ConfigError(f"{f.name} must fit in 64 bits, got {value!r}")
        if self.window_us <= 0:
            raise ConfigError("window_us must be positive")
        if self.bin_size < 1:
            raise ConfigError("bin_size must be >= 1")
        if self.k_props < 1:
            raise ConfigError("k_props must be >= 1")
        if self.count_ratio < 0:
            raise ConfigError("count_ratio must be nonnegative")
        if not 0.0 <= self.polarity_lo <= self.polarity_hi <= 1.0:
            raise ConfigError("polarity band must satisfy 0 <= lo <= hi <= 1")
        if self.dt_us <= 0:
            raise ConfigError("dt_us must be positive")
        if self.delta <= 0:
            raise ConfigError("delta must be positive")
        if self.beta < 1:
            raise ConfigError("beta must be at least 1")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ConfigError("sample_fraction must lie in (0, 1]")
        if self.space_radius_px <= 0 or self.time_radius_us <= 0:
            raise ConfigError("neighborhood radii must be positive")
        if not 0 <= self.bracket_rpm_lo < self.bracket_rpm_hi:
            raise ConfigError("speed bracket must satisfy 0 <= lo < hi")
        if not 3 <= self.n_grid <= MAX_GRID:
            raise ConfigError(f"n_grid must lie in [3, {MAX_GRID}], got {self.n_grid}")
        if self.tol_rpm <= 0:
            raise ConfigError("tol_rpm must be positive")
        if not (self.epsilon > 0 and math.isfinite(1.0 / self.epsilon)):  # the sparsity reward of an empty pixel
            raise ConfigError(f"epsilon must be positive with a finite reciprocal, got {self.epsilon!r}")
        if self.input_format not in ("csv", "bin") or self.output_format not in ("csv", "bin"):
            raise ConfigError("event file formats must be 'csv' or 'bin'")
        if self.svm_folds < 2:
            raise ConfigError("svm_folds must be at least 2")
        if self.min_emit_bundles < 1:
            raise ConfigError("min_emit_bundles must be at least 1")
        if self.gps_sigma_m <= 0:
            raise ConfigError("gps_sigma_m must be positive")
        if self.process_noise_scale < 0:
            raise ConfigError("process_noise_scale must be nonnegative")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        # the warp takes float32 omega times float32 (t - t_ref), and a batch
        # (or a consistency check's pair of bundles) spans up to max(beta, 2)
        # bundles: omega and that angle must stay finite, with half of
        # float32's range left for rounding both factors
        span_s = max(self.beta, 2) * self.dt_us * 1e-6
        if self.bracket_rpm_hi * (2.0 * math.pi / 60.0) * max(span_s, 1.0) > 0.5 * float(np.finfo(np.float32).max):
            raise ConfigError(
                f"bracket_rpm_hi {self.bracket_rpm_hi!r} gives a warp angle beyond float32 range "
                f"over a batch of {max(self.beta, 2)} x {self.dt_us} us"
            )
        if not math.isfinite(self.gps_sigma_m * self.gps_sigma_m):  # the GPS noise variance
            raise ConfigError(f"gps_sigma_m squared must be finite, got {self.gps_sigma_m!r}")

    def canonical(self) -> str:
        lines = []
        for f in sorted(f.name for f in fields(self)):
            value = getattr(self, f)
            if isinstance(value, bool):
                value = int(value)
            lines.append(f"{f}={value!r}")
        return "\n".join(lines) + "\n"

    def content_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()


@dataclass
class Scenario:
    """Parsed simulation scenario: either rotating propellers on a static
    sensor or a scripted quadrotor flight."""

    mode: str = "propellers"
    geometry: SensorGeometry | None = None
    duration_us: int = 100_000
    tick_us: int = 50  # a flight's default is sim.FLIGHT_TICK_US
    seed: int = 0
    specs: list[PropellerSpec] = field(default_factory=list)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    drone: DroneSpec = field(default_factory=DroneSpec)
    script: list[tuple[int, str]] = field(default_factory=list)
    render_events: bool = False


_SCENARIO_KEYS = {
    "mode", "width", "height", "duration_us", "tick_us", "seed", "render_events", "script",
}
_PROP_KEYS = {"center", "blades", "blade_length", "blade_width", "phase", "spin", "rpm", "rpm_step", "rpm_ramp"}
# the `noise.*` and `drone.*` keys, each mapped to the NoiseSpec or DroneSpec
# field it sets; the field's default gives the value's type
_SPEC_KEYS = {
    "noise": (NoiseSpec, {
        "background_rate": "background_rate", "hot_pixels": "hot_pixel_count", "hot_pixel_rate": "hot_pixel_rate",
        "jitter_px": "vibration_jitter_px", "on_fraction": "background_on_fraction",
    }),
    "drone": (DroneSpec, {name: name for name in (
        "hover_rpm", "delta_rpm", "rpm_jitter", "tilt_fraction", "gps_rate_hz", "gps_sigma_m",
        "blade_length", "blade_width", "n_blades",
    )}),
}


def _build_profile(entry: dict[str, str], name: str):
    given = [k for k in ("rpm", "rpm_step", "rpm_ramp") if k in entry]
    if len(given) != 1:
        raise ConfigError(f"{name}: exactly one of rpm, rpm_step, rpm_ramp is required")
    key = given[0]
    if key == "rpm":
        return ConstantSpeed(_number(float, f"{name}.rpm", entry["rpm"]))
    points = []
    for part in entry[key].split(","):
        pair = part.split(":")
        if len(pair) != 2:
            raise ConfigError(f"{name}.{key}: expected t:rpm pairs, got {part!r}")
        points.append((_number(float, f"{name}.{key}", pair[0]), _number(float, f"{name}.{key}", pair[1])))
    if key == "rpm_step":
        return StepSpeed(points)
    if len(points) != 2:
        raise ConfigError(f"{name}: rpm_ramp needs exactly two t:rpm points")
    (t0, r0), (t1, r1) = points
    return RampSpeed(t0, r0, t1, r1)


def parse_scenario(path: str) -> Scenario:
    """The scenario of a key=value file. Each `noise.*` and `drone.*` key
    sets the NoiseSpec or DroneSpec field that `_SPEC_KEYS` maps it to,
    parsed as the type of that field's default; an omitted key keeps the
    default. An unknown key, or a malformed or non-finite number, raises
    ConfigError naming the key."""
    raw = parse_kv_file(path)
    scenario = Scenario()
    props: dict[int, dict[str, str]] = {}
    blocks: dict[str, dict[str, str]] = {name: {} for name in _SPEC_KEYS}
    for key, value in raw.items():
        block, dot, sub = key.partition(".")
        if key.startswith("prop"):
            try:
                idx = int(block[4:])
            except ValueError:
                raise ConfigError(f"{path}: bad propeller key {key!r}") from None
            if sub not in _PROP_KEYS:
                raise ConfigError(f"{path}: unknown propeller key {key!r}")
            props.setdefault(idx, {})[sub] = value
        elif dot and block in _SPEC_KEYS:
            if sub not in _SPEC_KEYS[block][1]:
                raise ConfigError(f"{path}: unknown {block} key {key!r}")
            blocks[block][sub] = value
        elif key not in _SCENARIO_KEYS:
            raise ConfigError(f"{path}: unknown scenario key {key!r}")

    def num(kind: type, key: str, value):
        return _number(kind, f"{path}: {key}", value)

    scenario.mode = raw.get("mode", "propellers")
    if scenario.mode not in ("propellers", "flight"):
        raise ConfigError(f"{path}: mode must be 'propellers' or 'flight'")
    if "width" in raw or "height" in raw:
        if not ("width" in raw and "height" in raw):
            raise ConfigError(f"{path}: width and height must be given together")
        width, height = num(int, "width", raw["width"]), num(int, "height", raw["height"])
        for key, value in (("width", width), ("height", height)):
            if value <= 0:
                raise ConfigError(f"{path}: {key}: must be positive, got {value}")
        scenario.geometry = SensorGeometry(width, height)
    scenario.duration_us = num(int, "duration_us", raw.get("duration_us", scenario.duration_us))
    default_tick = FLIGHT_TICK_US if scenario.mode == "flight" else scenario.tick_us
    scenario.tick_us = num(int, "tick_us", raw.get("tick_us", default_tick))
    if scenario.tick_us <= 0:
        raise ConfigError(f"{path}: tick_us: must be positive, got {scenario.tick_us}")
    scenario.seed = num(int, "seed", raw.get("seed", scenario.seed))
    if scenario.seed < 0:
        raise ConfigError(f"{path}: seed: must be nonnegative, got {scenario.seed}")
    scenario.render_events = _parse_bool(raw.get("render_events", "0"), f"{path}: render_events")

    for idx in sorted(props):
        entry = props[idx]
        name = f"prop{idx}"
        center = _parse_pair(entry.get("center", ""), f"{path}: {name}.center")
        scenario.specs.append(
            PropellerSpec(
                center=center,
                n_blades=num(int, f"{name}.blades", entry.get("blades", 2)),
                blade_length=num(float, f"{name}.blade_length", entry.get("blade_length", 30.0)),
                blade_width=num(float, f"{name}.blade_width", entry.get("blade_width", 5.0)),
                initial_phase=num(float, f"{name}.phase", entry.get("phase", 0.0)),
                speed_profile=_build_profile(entry, f"{path}: {name}"),
                spin=num(int, f"{name}.spin", entry.get("spin", 1)),
            )
        )
    for block, (spec, names) in _SPEC_KEYS.items():
        defaults = {f.name: f.default for f in fields(spec)}
        given = blocks[block]
        setattr(scenario, block, spec(**{
            name: num(type(defaults[name]), f"{block}.{key}", given[key]) for key, name in names.items() if key in given
        }))
    if "script" in raw:
        for part in raw["script"].split(","):
            t_str, _, name = part.partition(":")
            if name not in COMMANDS:
                raise ConfigError(f"{path}: unknown command {name!r} in script")
            scenario.script.append((num(int, "script", t_str), name))
    if scenario.mode == "propellers" and not scenario.specs:
        raise ConfigError(f"{path}: propeller mode needs at least one propN.* block")
    if scenario.mode == "flight" and not scenario.script:
        raise ConfigError(f"{path}: flight mode needs a script")
    return scenario
