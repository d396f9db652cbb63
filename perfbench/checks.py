"""Output checks with the simulator as the oracle, and the determinism ledger.

Each check returns a list of problems; an op with any problem counts as
failed.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from rotorsense.metrics import rmae

RMAE_GATE_PCT = 1.5  # the noisy speed-accuracy acceptance gate
FUSION_GAIN_GATE = 0.75  # fused error over GPS-only error, the fusion-gain gate
MIN_ESTIMATES = 10


def match_tracks(centroids: list[tuple[float, float]], true_centers: list[tuple[float, float]]) -> dict[int, int]:
    """Greedy nearest-centroid matching of tracks onto true rotors, in
    track order, as the pipeline does in scenario mode."""
    mapping: dict[int, int] = {}
    for prop, centroid in enumerate(centroids):
        free = [(math.dist(centroid, c), t) for t, c in enumerate(true_centers) if t not in mapping.values()]
        if free:
            mapping[prop] = min(free)[1]
    return mapping


def speed_rmae(speeds: np.ndarray, centroids, true_centers, truth) -> tuple[dict[int, float], list[str]]:
    """Per-rotor RMAE (percent) of `speeds` rows (t_ref, prop_id, rpm, ...)
    against `truth.rpm_at`, plus the problems that fail the op."""
    problems = []
    per_rotor: dict[int, float] = {}
    mapping = match_tracks(centroids, true_centers)
    for prop, rotor in sorted(mapping.items()):
        rows = speeds[speeds[:, 1] == prop]
        if rows.shape[0] < MIN_ESTIMATES:
            problems.append(f"rotor {rotor}: {rows.shape[0]} estimates, need {MIN_ESTIMATES}")
            continue
        gt = np.array([truth.rpm_at(rotor, t) for t in rows[:, 0]])
        per_rotor[rotor] = rmae(rows[:, 2], gt)
        if not per_rotor[rotor] <= RMAE_GATE_PCT:
            problems.append(f"rotor {rotor}: RMAE {per_rotor[rotor]:.3f}% > {RMAE_GATE_PCT}%")
    missing = sorted(set(range(len(true_centers))) - set(mapping.values()))
    if missing:
        problems.append(f"rotors {missing} have no track")
    return per_rotor, problems


def fusion_gain(return_codes: list[int], fused_err_m: float, gps_err_m: float) -> list[str]:
    problems = [f"exit code {rc}" for rc in return_codes if rc != 0]
    if not fused_err_m <= FUSION_GAIN_GATE * gps_err_m:
        problems.append(f"fused error {fused_err_m:.3f} m > {FUSION_GAIN_GATE} x GPS-only {gps_err_m:.3f} m")
    return problems


def manifest_hashes(manifest_paths: list[str]) -> dict[str, str]:
    """Artifact name -> sha256 over the given manifest.json files."""
    out = {}
    for path in manifest_paths:
        with open(path) as fh:
            for name, digest in json.load(fh)["artifacts"].items():
                out[f"{os.path.basename(path)}:{name}"] = digest
    return out


class HashLedger:
    """Byte-identical reruns: every op's artifact hashes must equal the
    first op's of the run and those recorded by earlier runs of the same
    workload and seed (kept in `path`)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.reference: dict[str, str] | None = None
        if os.path.exists(path):
            with open(path) as fh:
                self.reference = json.load(fh)

    def check(self, hashes: dict[str, str]) -> list[str]:
        if self.reference is None:
            self.reference = dict(hashes)
            with open(self.path, "w") as fh:
                json.dump(hashes, fh, sort_keys=True, indent=1)
            return []
        return [
            f"artifact {name} differs from the first run"
            for name in sorted(set(hashes) | set(self.reference))
            if hashes.get(name) != self.reference.get(name)
        ]
