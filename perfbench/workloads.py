"""The benchmark workloads.

Set-up generates every input from the workload seed. There is no warm-up
op: without numba the package has no compiled kernels or caches to fill,
and a user pays first-call costs on every `rotorsense` invocation. An op
runs the user-facing command through `rotorsense.cli.main`, exactly as a
`rotorsense ...` command line would, and its outputs are checked against
the simulator that made the inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from rotorsense import cli, sim
from rotorsense import pipeline as pl
from rotorsense.dynamics import GRAVITY, rpm_to_rad_s
from rotorsense.events import SensorGeometry, write_events
from rotorsense.metrics import localization_error
from rotorsense.motion import SpeedEstimate

import checks

def call_cli(argv: list[str], tracer=None, label: str = "") -> int:
    """One `rotorsense ...` invocation; its stdout is discarded."""
    span = tracer.span(f"cli.{label}") if tracer is not None else contextlib.nullcontext()
    with span, contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def file_digest(paths: list[str]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _write_config(path: str, values: dict) -> str:
    with open(path, "w") as fh:
        fh.writelines(f"{key}={value}\n" for key, value in values.items())
    return path


@dataclass
class Inputs:
    """Files an op reads, plus what the oracle knows about them."""

    files: list[str]  # data files; the same seed must give the same bytes
    config: str  # config file of the op; may name the data files' paths
    n_events: int  # records the op consumes
    covered_s: float  # stream or flight time the inputs span
    oracle: dict  # what the simulator knows: truth, centers, GPS error


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.inputs: Inputs | None = None

    def setup(self) -> None:
        os.makedirs(self.work_dir, exist_ok=True)
        self.inputs = self.generate()

    def input_digest(self) -> str:
        return file_digest(self.inputs.files)

    def generate(self) -> Inputs:
        """Write the inputs into the work directory."""
        raise NotImplementedError

    def run_op(self, out_dir: str, tracer=None) -> list[int]:
        """One op on the inputs; returns the exit code of each command."""
        raise NotImplementedError

    def check(self, out_dir: str, return_codes: list[int]) -> tuple[dict, list[str]]:
        """Quality figures and problems for one op's outputs."""
        raise NotImplementedError

    def manifests(self, out_dir: str) -> list[str]:
        raise NotImplementedError


class EventPipeline(Workload):
    """`rotorsense pipeline` over a simulated event file."""

    duration_us = 0
    tick_us = 40
    noise = sim.NO_NOISE
    geometry: SensorGeometry | None = None
    config: dict = {}

    def specs(self, rng: np.random.Generator) -> list[sim.PropellerSpec]:
        raise NotImplementedError

    def generate(self) -> Inputs:
        rng = np.random.default_rng(self.seed)
        specs = self.specs(rng)
        events, truth = sim.simulate_propellers(
            specs, self.noise, self.duration_us, self.tick_us, seed=self.seed, geometry=self.geometry,
        )
        fmt = self.config["input_format"]
        events_path = os.path.join(self.work_dir, f"events.{fmt}")
        write_events(events, self.geometry or events.infer_geometry(), events_path, fmt)
        config_path = _write_config(
            os.path.join(self.work_dir, "pipeline.cfg"), {"seed": self.seed, "input": events_path, **self.config},
        )
        return Inputs(
            [events_path], config_path, len(events), self.duration_us * 1e-6,
            {"truth": truth, "centers": [s.center for s in specs]},
        )

    def run_op(self, out_dir: str, tracer=None) -> list[int]:
        return [call_cli(["--config", self.inputs.config, "pipeline", "--out", out_dir], tracer, "pipeline")]

    def check(self, out_dir: str, return_codes: list[int]) -> tuple[dict, list[str]]:
        problems = [f"exit code {rc}" for rc in return_codes if rc != 0]
        if problems:
            return {}, problems
        speeds = pl.read_speed_csv(os.path.join(out_dir, "speeds.csv"))
        centroids = []
        with open(os.path.join(out_dir, "tracks.csv")) as fh:
            fh.readline()
            for line in fh:
                _, x, y, _ = line.split(",")
                centroids.append((float(x), float(y)))
        oracle = self.inputs.oracle
        per_rotor, problems = checks.speed_rmae(speeds, centroids, oracle["centers"], oracle["truth"])
        quality = {"rmae_pct": max(per_rotor.values())} if per_rotor else {}
        return quality, problems

    def manifests(self, out_dir: str) -> list[str]:
        return [os.path.join(out_dir, "manifest.json")]


class RotorDense(EventPipeline):
    """The first 100 ms of the throughput-gate stream: one clean 2-blade
    rotor at 3000 RPM, read and written as binary event files, downsampled
    to a quarter. Kept short so that a run holds many ops."""

    name = "rotor_dense"
    duration_us = 100_000
    config = {
        "input_format": "bin", "output_format": "bin", "k_props": 1,
        "window_us": 25_000, "sample_fraction": 0.25,
    }

    def specs(self, rng):
        return [sim.PropellerSpec(
            center=(70.0, 70.0), n_blades=2, blade_length=60.0, blade_width=6.0,
            initial_phase=float(rng.uniform(0.0, 2.0 * math.pi)), speed_profile=sim.ConstantSpeed(3000.0),
        )]


class SceneNoisyCsv(EventPipeline):
    """Two rotors with sensor noise, CSV in and out, no downsampling; the
    second rotor counter-rotates and steps 4000 -> 5000 RPM mid-stream.
    Not in BENCHMARK.json: its op is too long for a steady run, and a
    shorter stream fails the RMAE gate on the step."""

    name = "scene_noisy_csv"
    duration_us = 200_000
    noise = sim.NoiseSpec(
        background_rate=10.0, hot_pixel_count=20, hot_pixel_rate=2000.0, vibration_jitter_px=0.5,
    )
    geometry = SensorGeometry(320, 240)
    config = {
        "input_format": "csv", "output_format": "csv", "k_props": 2,
        "window_us": 25_000, "sample_fraction": 1.0,
    }

    def specs(self, rng):
        phases = rng.uniform(0.0, 2.0 * math.pi, size=2)
        return [
            sim.PropellerSpec(
                center=(80.0, 120.0), n_blades=2, blade_length=40.0, blade_width=5.0,
                initial_phase=float(phases[0]), speed_profile=sim.ConstantSpeed(3000.0),
            ),
            sim.PropellerSpec(
                center=(230.0, 120.0), n_blades=3, blade_length=40.0, blade_width=5.0,
                initial_phase=float(phases[1]), spin=-1,
                speed_profile=sim.StepSpeed([(0.0, 4000.0), (self.duration_us / 2, 5000.0)]),
            ),
        ]


class FlightFuse(Workload):
    """`infer-command`, `fuse` and `eval --fused` over a scripted flight's
    1 kHz per-rotor speed rows and 5 Hz GPS, with a model trained in set-up."""

    name = "flight_fuse"
    duration_us = 10_000_000
    script = [
        (0, "hover"), (1_000_000, "climb"), (2_500_000, "roll"), (4_000_000, "pitch"),
        (5_500_000, "yaw"), (7_000_000, "descent"), (8_500_000, "hover"),
    ]
    drone = sim.DroneSpec(hover_rpm=3000.0, delta_rpm=300.0, rpm_jitter=60.0, gps_rate_hz=5.0, gps_sigma_m=2.0)
    window_ms = 100

    def setup(self) -> None:
        os.makedirs(self.work_dir, exist_ok=True)
        # the fusion-gain gate's tuning: acceleration noise of the speed jitter
        sigma_a = GRAVITY * 2.0 * self.drone.rpm_jitter / self.drone.hover_rpm
        self.config_path = _write_config(
            os.path.join(self.work_dir, "fusion.cfg"),
            {"seed": self.seed, "hover_rpm": self.drone.hover_rpm, "gps_sigma_m": self.drone.gps_sigma_m,
             "process_noise_scale": repr(sigma_a**2)},
        )
        self.model_path = os.path.join(self.work_dir, "command.model")
        rc = call_cli(["--config", self.config_path, "train-command", "--model", self.model_path])
        if rc != 0:
            raise RuntimeError(f"train-command exited with {rc}")
        super().setup()

    def input_digest(self) -> str:
        return file_digest(self.inputs.files + [self.inputs.config, self.model_path])

    def generate(self) -> Inputs:
        flight = sim.simulate_flight(self.script, self.drone, sim.NO_NOISE, self.duration_us, seed=self.seed, tick_us=1000)
        truth = flight.truth
        speeds = [
            SpeedEstimate(prop_id=p, t_ref_us=int(t), omega_rad_s=float(rpm_to_rad_s(rpm)), objective_value=0.0,
                          n_events_used=0)
            for k, t in enumerate(truth.times_us)
            for p, rpm in enumerate(flight.rpm_traces[:, k])
        ]
        paths = [os.path.join(self.work_dir, name) for name in ("speeds.csv", "gps.csv", "truth_state.csv")]
        pl.write_speed_csv(paths[0], speeds)
        pl.write_xyz_csv(paths[1], flight.gps)
        pl.write_state_csv(paths[2], truth.times_us, np.hstack([truth.positions, truth.velocities]))
        truth_xyz = np.column_stack([truth.times_us, truth.positions])
        gps_err_m, _ = localization_error(flight.gps, truth_xyz)
        return Inputs(
            paths, self.config_path, len(speeds) + len(flight.gps), self.duration_us * 1e-6,
            {"gps_err_m": gps_err_m, "times_us": truth.times_us,
             "commands": [truth.command_labels[int(c)] for c in truth.command_ids]},
        )

    def run_op(self, out_dir: str, tracer=None) -> list[int]:
        speeds, gps, truth_state = self.inputs.files
        os.makedirs(out_dir, exist_ok=True)
        commands, fused, report = (os.path.join(out_dir, n) for n in ("commands.csv", "fused.csv", "metrics.jsonl"))
        cfg = ["--config", self.inputs.config]
        return [
            call_cli(cfg + ["infer-command", speeds, "--model", self.model_path,
                            "--window-ms", str(self.window_ms), "--out-csv", commands], tracer, "infer"),
            call_cli(cfg + ["fuse", "--speeds", speeds, "--commands", commands, "--gps", gps,
                            "--out-csv", fused], tracer, "fuse"),
            call_cli(cfg + ["eval", "--fused", fused, "--truth-state", truth_state, "--report", report],
                     tracer, "eval"),
        ]

    def check(self, out_dir: str, return_codes: list[int]) -> tuple[dict, list[str]]:
        oracle = self.inputs.oracle
        if any(return_codes):
            return {}, checks.fusion_gain(return_codes, math.inf, oracle["gps_err_m"])
        with open(os.path.join(out_dir, "metrics.jsonl")) as fh:
            entries = [json.loads(line) for line in fh]
        fused_err_m = next(e["value"] for e in entries if e["metric"] == "mean_3d_error_m")
        inferred = pl.read_command_csv(os.path.join(out_dir, "commands.csv"))
        # truth at the middle of each window, away from command switches
        mid = np.searchsorted(oracle["times_us"], [t - self.window_ms * 500 for t, _ in inferred])
        hits = sum(label == oracle["commands"][k] for (_, label), k in zip(inferred, mid))
        quality = {
            "cmd_acc": hits / len(inferred), "loc_err_m": fused_err_m, "gps_err_m": oracle["gps_err_m"],
        }
        return quality, checks.fusion_gain(return_codes, fused_err_m, oracle["gps_err_m"])

    def manifests(self, out_dir: str) -> list[str]:
        return [os.path.join(out_dir, f"{n}.manifest.json") for n in ("commands.csv", "fused.csv", "metrics.jsonl")]


WORKLOADS = {w.name: w for w in (RotorDense, SceneNoisyCsv, FlightFuse)}
