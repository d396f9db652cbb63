"""End-to-end pipeline: simulate/ingest -> preprocess -> estimate -> metrics.

Stages run in order, write every intermediate artifact into the output
directory, and finish with a JSON-lines metrics report plus a manifest
listing the config hash, seed, and artifact checksums. All artifacts
are deterministic for a fixed (input, config, seed) triple; the CLI
shares `simulate_scene`, `score_speeds` and `write_jsonl` with it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .batching import StopReason, density_downsample, grow_batch
from .config import PipelineConfig, Scenario, parse_scenario
from . import tables
from .dynamics import rpm_to_rad_s
from .errors import ConfigError, DataError, DegenerateInputError, EstimationError, RotorSenseError
from .events import Events, SensorGeometry, concat_events, read_events, slice_bundles, write_events
from .fusion import FusedStates
from .metrics import rmae
from .motion import ObjectiveEvaluator, SpeedEstimate, estimate_speed
from .preprocess import build_heatmaps, filter_noise, robust_center, segment_propellers
from .sim import GroundTruth, simulate_propellers

LOG = logging.getLogger(__name__)


# --- CSV artifacts (declared in `tables`) ---


def write_fused_csv(path: str, states: FusedStates) -> None:
    """The fused track: t, position, velocity and the covariance trace of
    each state, one row per state, written from the state arrays."""
    trace = np.trace(states.cov, axis1=1, axis2=2)
    tables.FUSED.write(path, [states.t_us, *states.mean.T, trace])


def _speed_columns(estimates: list[SpeedEstimate]) -> list[np.ndarray]:
    """The speeds.csv columns of the estimates."""
    names = zip(("t_ref_us", "prop_id", "rpm", "objective_value"), tables.SPEEDS.kinds)
    return [np.fromiter((getattr(e, name) for e in estimates), kind.dtype, len(estimates)) for name, kind in names]


def write_speed_csv(path: str, estimates: list[SpeedEstimate]) -> None:
    tables.SPEEDS.write(path, _speed_columns(estimates))


def read_table(path: str, table: tables.Table, *, extra_columns: bool = False) -> np.ndarray:
    """Float rows of a numeric table: `table.read`, its int columns converted."""
    return np.column_stack(table.read(path, extra_columns)[0]).astype(np.float64, copy=False)


def read_speed_csv(path: str) -> np.ndarray:
    """Rows of (t_ref_us, prop_id, rpm, objective)."""
    return read_table(path, tables.SPEEDS)


def prop_rpm_columns(times_us: np.ndarray, rpm: np.ndarray) -> list[np.ndarray]:
    """t, prop_id and rpm columns of a (n_props, n_times) array, ordered by
    t, then prop_id: the order speeds.csv has and `fuse` reads its streams in."""
    n_props, n_times = rpm.shape
    return [np.repeat(times_us, n_props), np.tile(np.arange(n_props), n_times), rpm.T.ravel()]


def write_truth_rpm_csv(path: str, truth: GroundTruth, centers: list[tuple[float, float]]) -> None:
    comments = [f"# prop{i}_center={cx!r},{cy!r}" for i, (cx, cy) in enumerate(centers)]
    tables.TRUTH_RPM.write(path, prop_rpm_columns(truth.times_us, truth.rpm), comments)


def read_truth_rpm_csv(path: str) -> tuple[np.ndarray, list[tuple[float, float]]]:
    """Rows of (t_us, prop_id, rpm) plus the propeller centers."""
    columns, comments = tables.TRUTH_RPM.read(path)
    centers: dict[int, tuple[float, float]] = {}
    for lineno, line in comments:
        name, found, value = line[1:].strip().partition("_center=")
        try:
            if found:
                x_str, y_str = value.split(",")
                centers[int(name.replace("prop", ""))] = (float(x_str), float(y_str))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: malformed center comment {line!r}") from exc
    return np.column_stack(columns).astype(np.float64), [centers[i] for i in sorted(centers)]


def write_state_csv(path: str, times_us: np.ndarray, states: np.ndarray) -> None:
    """States as t,x,y,z,vx,vy,vz."""
    tables.STATE.write(path, [times_us, *np.asarray(states).T])


def write_xyz_csv(path: str, rows: np.ndarray) -> None:
    tables.GPS.write(path, np.asarray(rows).T)


def write_command_csv(path: str, rows: list[tuple[int, str]]) -> None:
    tables.COMMAND_LOG.write(path, [[t_us for t_us, _ in rows], [label for _, label in rows]])


def read_command_csv(path: str) -> list[tuple[int, str]]:
    (times, labels), _ = tables.COMMAND_LOG.read(path)
    return list(zip(times.tolist(), labels.tolist()))


# --- Preprocess stage ---


@dataclass
class TrackedStream:
    """Filtered events with a per-event propeller assignment.

    centroids are the stable per-track cluster means; warp_centers are
    trim-refined rotation centers (a plain mean is dragged off-center by
    residual uniform noise, and the warp needs sub-pixel accuracy).
    """

    events: Events
    assignments: np.ndarray  # -1 for events in windows that could not be segmented
    centroids: list[tuple[float, float]]
    warp_centers: list[tuple[float, float]]

    def track_events(self, prop_id: int) -> Events:
        return self.events.select(np.flatnonzero(self.assignments == prop_id))


def _match_tracks(
    global_centroids: list[tuple[float, float]], window_centroids: list[tuple[float, float]]
) -> dict[int, int]:
    """{window index: global index}, nearest pair first, equal distances by
    lower (global, window) index: window clusters to tracks, tracks to truth."""
    pairs = sorted(
        (math.dist(gc, wc), g, w)
        for g, gc in enumerate(global_centroids)
        for w, wc in enumerate(window_centroids)
    )
    mapping: dict[int, int] = {}
    used_g: set[int] = set()
    for _, g, w in pairs:
        if g in used_g or w in mapping:
            continue
        mapping[w] = g
        used_g.add(g)
    return mapping


def preprocess_stream(events: Events, cfg: PipelineConfig) -> TrackedStream:
    """Window-by-window noise filtering and propeller segmentation with
    stable track identities across windows (`_track_windows`). A stream
    that leaves fewer than k_props tracks, none when the filter keeps no
    event, logs one warning naming the counts."""
    if len(events) == 0:
        tracked = TrackedStream(Events.empty(), np.zeros(0, dtype=np.int64), [], [])
    else:
        tracked = _track_windows(events, cfg)
    if len(tracked.centroids) < cfg.k_props:
        LOG.warning("preprocessing kept %d of %d events and found %d of k_props=%d tracks; "
                    "a missing track gets no speed estimates", len(tracked.events), len(events),
                    len(tracked.centroids), cfg.k_props)
    return tracked


def _track_windows(events: Events, cfg: PipelineConfig) -> TrackedStream:
    """Window k holds the events with (t - t0) // window_us == k; only
    windows that hold events are visited."""
    t0 = int(events.t[0])
    window_of = (events.t - events.t[0]) // np.uint64(cfg.window_us)
    edges = np.concatenate([[0], np.flatnonzero(window_of[1:] != window_of[:-1]) + 1, [len(events)]]).tolist()
    centroids: list[tuple[float, float]] = []
    parts: list[Events] = []
    assign_parts: list[np.ndarray] = []
    for lo, hi in zip(edges, edges[1:]):
        kept = w_events = events[lo:hi]
        if cfg.filter_enabled:
            w_start = t0 + int(window_of[lo]) * cfg.window_us
            window = (w_start, w_start + cfg.window_us - 1)
            heatmaps = build_heatmaps(w_events, window, cfg.bin_size)
            kept = filter_noise(w_events, heatmaps, cfg.count_ratio, (cfg.polarity_lo, cfg.polarity_hi))
        if len(kept) == 0:
            continue
        assignment = np.full(len(kept), -1, dtype=np.int64)
        parts.append(kept)
        assign_parts.append(assignment)
        try:
            tracks = segment_propellers(kept, cfg.k_props)
        except DataError:  # fewer distinct pixels than k_props: the window stays unlabelled
            continue
        centroids = centroids or [t.centroid for t in tracks]  # the first window's tracks match themselves
        for w, g in _match_tracks(centroids, [t.centroid for t in tracks]).items():
            centroids[g] = tracks[w].centroid
            assignment[tracks[w].members] = g
    assignments = np.concatenate([np.zeros(0, dtype=np.int64), *assign_parts])
    tracked = TrackedStream(concat_events(parts), assignments, centroids, [])
    tracked.warp_centers = [
        robust_center(tracked.track_events(prop)) if np.any(assignments == prop) else centroids[prop]
        for prop in range(len(centroids))
    ]
    return tracked


def write_preprocess_artifacts(
    out_dir: str, tracked: TrackedStream, geometry: SensorGeometry, fmt: str
) -> list[str]:
    """Write filtered.<fmt>, assignments.csv and tracks.csv; returns their paths."""
    filtered_path = os.path.join(out_dir, f"filtered.{fmt}")
    write_events(tracked.events, geometry, filtered_path, fmt)
    assign_path = os.path.join(out_dir, "assignments.csv")
    tables.ASSIGNMENTS.write(assign_path, [np.arange(len(tracked.assignments)), tracked.assignments])
    return [filtered_path, assign_path, write_tracks_csv(out_dir, tracked)]


def write_tracks_csv(out_dir: str, tracked: TrackedStream) -> str:
    """Write tracks.csv, each track's centroid and event count; returns its path."""
    tracks_path = os.path.join(out_dir, "tracks.csv")
    centroids = tracked.centroids
    n_events = [int((tracked.assignments == prop).sum()) for prop in range(len(centroids))]
    tables.TRACKS.write(tracks_path, [range(len(centroids)), [c[0] for c in centroids], [c[1] for c in centroids], n_events])
    return tracks_path


def read_track_centroids(path: str) -> list[tuple[float, float]]:
    """The centroids of tracks.csv, indexed by track id."""
    (ids, xs, ys, _), _ = tables.TRACKS.read(path)
    if not np.array_equal(ids, np.arange(len(ids))):
        raise DataError(f"{path}: track ids must run 0, 1, 2, ... in order")
    return list(zip(xs.tolist(), ys.tolist()))


# --- Estimate stage (speed tracking loop) ---


def _acquire(bundle_events: Events, center: tuple[float, float], cfg: PipelineConfig, t_ref: int):
    """Initial speed and spin direction from a single bundle, trying both
    warp directions and keeping the higher-scoring one."""
    bracket = (rpm_to_rad_s(cfg.bracket_rpm_lo), rpm_to_rad_s(cfg.bracket_rpm_hi))
    best = None
    for spin in (+1, -1):
        try:
            est = estimate_speed(
                bundle_events,
                center,
                bracket,
                tol_rad_s=rpm_to_rad_s(cfg.tol_rpm),
                eps=cfg.epsilon,
                n_grid=cfg.n_grid,
                t_ref_us=t_ref,
                spin=spin,
            )
        except (DegenerateInputError, EstimationError):
            continue
        if best is None or est.objective_value > best[0].objective_value:
            best = (est, spin)
    if best is None:
        return None
    return best[0].omega_rad_s, best[1]


@dataclass
class TrackEstimates:
    estimates: list[SpeedEstimate] = field(default_factory=list)
    stop_reasons: list[StopReason] = field(default_factory=list)


def estimate_track(
    track_events: Events,
    center: tuple[float, float],
    cfg: PipelineConfig,
    prop_id: int = 0,
) -> TrackEstimates:
    """Run the adaptive batch loop over one propeller's events.

    Speed continuity confines each batch's search bracket to
    [0.5, 1.5] x the previous estimate, and the lattice scan starts with
    the lattice points within motion.PRIOR_WINDOW_HALF_WIDTH (0.32) x
    that estimate; a peak on that window's inner edge, or a flat window,
    rescans the whole bracket's lattice. A speed change well beyond the window can
    still settle on a lesser peak inside it. A consistency stop (speed
    change) resets to the configured bracket and re-acquires.
    """
    out = TrackEstimates()
    bundles = slice_bundles(track_events, cfg.dt_us)
    cfg_lo, cfg_hi = rpm_to_rad_s(cfg.bracket_rpm_lo), rpm_to_rad_s(cfg.bracket_rpm_hi)
    i = 0
    omega_prior: float | None = None
    spin = +1
    while i < len(bundles):
        if omega_prior is None:
            acquired = _acquire(bundles[i].events, center, cfg, bundles[i].t_start)
            if acquired is None:
                i += 1
                continue
            omega_prior, spin = acquired
        grown = grow_batch(bundles, cfg, omega_prior, center, start=i, spin=spin)
        if len(grown.batch.bundles) < cfg.min_emit_bundles:
            # too little accumulation to trust; consume without reporting
            if grown.reason is StopReason.CONSISTENCY:
                omega_prior = None
            i = grown.next_index
            continue
        batch_events = grown.batch.events()
        ordinal = (bundles[i].t_start - bundles[0].t_start) // cfg.dt_us  # gaps count too
        used = density_downsample(batch_events, cfg, seed=cfg.seed + ordinal)
        lo = max(cfg_lo, 0.5 * omega_prior)
        hi = min(cfg_hi, 1.5 * omega_prior)
        if not hi > lo:
            lo, hi = cfg_lo, cfg_hi
        try:
            est = estimate_speed(
                used,
                center,
                (lo, hi),
                tol_rad_s=rpm_to_rad_s(cfg.tol_rpm),
                eps=cfg.epsilon,
                n_grid=cfg.n_grid,
                prop_id=prop_id,
                t_ref_us=grown.batch.t_start,
                spin=spin,
                prior_rad_s=omega_prior,
            )
            out.estimates.append(est)
            out.stop_reasons.append(grown.reason)
            omega_prior = None if grown.reason is StopReason.CONSISTENCY else est.omega_rad_s
        except (DegenerateInputError, EstimationError):
            omega_prior = None
        i = grown.next_index
    return out


def estimate_tracks(tracked: TrackedStream, cfg: PipelineConfig) -> list[SpeedEstimate]:
    """Run ``estimate_track`` on every track; returns all estimates ordered
    by (t_ref, prop_id)."""
    estimates = [
        est
        for prop, center in enumerate(tracked.warp_centers)
        for est in estimate_track(tracked.track_events(prop), center, cfg, prop_id=prop).estimates
    ]
    estimates.sort(key=lambda e: (e.t_ref_us, e.prop_id))
    return estimates


# --- Full pipeline ---


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_jsonl(path: str, entries: list[dict]) -> None:
    """One JSON object per line, keys sorted."""
    with open(path, "w", newline="\n") as fh:
        fh.writelines(json.dumps(entry, sort_keys=True) + "\n" for entry in entries)


def write_manifest(manifest_path: str, config_hash: str, seed: int, artifacts: list[str]) -> str:
    """Record the config hash, seed, and artifact checksums for one run."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    manifest = {
        "config_sha256": config_hash,
        "seed": seed,
        "artifacts": {os.path.relpath(p, base): _sha256(p) for p in artifacts},
    }
    with open(manifest_path, "w", newline="\n") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return manifest_path


@contextmanager
def _stage(name: str):
    """Prefix stage failures with the stage name; artifacts written so
    far stay on disk for debugging."""
    try:
        yield
    except RotorSenseError as exc:
        raise type(exc)(f"stage {name}: {exc}") from exc
    except OSError as exc:
        raise DataError(f"stage {name}: {exc}") from exc


@dataclass
class PipelineResult:
    out_dir: str
    artifacts: list[str]
    metrics: list[dict]
    estimates: list[SpeedEstimate]


def _emit_plots(out_dir: str, tracked: TrackedStream, cfg: PipelineConfig, estimates: list[SpeedEstimate]) -> list[str]:
    """plots/objective_curve.csv: the objective around the first estimate
    of the lowest-numbered track whose first batch scores; the paths
    written, none when no track's does."""
    firsts: dict[int, SpeedEstimate] = {}
    for est in estimates:
        firsts.setdefault(est.prop_id, est)
    for prop, first in sorted(firsts.items()):
        sub = tracked.track_events(prop).time_slice(first.t_ref_us, first.t_ref_us + cfg.beta * cfg.dt_us)
        if len(sub) == 0:
            continue
        try:
            evaluator = ObjectiveEvaluator(sub, tracked.warp_centers[prop], first.t_ref_us, eps=cfg.epsilon)
        except DegenerateInputError:  # a stray event makes the patch too large
            continue
        omegas = np.linspace(0.5 * first.omega_rad_s, 1.5 * first.omega_rad_s, 101)
        values = [evaluator.value(float(w)) for w in omegas]
        plot_dir = os.path.join(out_dir, "plots")
        os.makedirs(plot_dir, exist_ok=True)
        curve_path = os.path.join(plot_dir, "objective_curve.csv")
        tables.OBJECTIVE_CURVE.write(curve_path, [[prop] * omegas.size, omegas, values])
        return [curve_path]
    return []


def simulate_scene(scenario: Scenario, out_dir: str, fmt: str) -> tuple[Events, SensorGeometry, GroundTruth, list[str]]:
    """Simulate a propeller scenario into out_dir: events.<fmt> and
    truth_rpm.csv. Returns the events, their geometry (the scenario's, or
    else the one the events span), the truth and the two paths."""
    events, truth = simulate_propellers(
        scenario.specs, scenario.noise, scenario.duration_us, scenario.tick_us,
        seed=scenario.seed, geometry=scenario.geometry,
    )
    geometry = scenario.geometry or events.infer_geometry()
    events_path = os.path.join(out_dir, f"events.{fmt}")
    write_events(events, geometry, events_path, fmt)
    truth_path = os.path.join(out_dir, "truth_rpm.csv")
    write_truth_rpm_csv(truth_path, truth, [s.center for s in scenario.specs])
    return events, geometry, truth, [events_path, truth_path]


def run_pipeline(cfg: PipelineConfig, out_dir: str) -> PipelineResult:
    """Execute simulate/ingest -> preprocess -> estimate -> metrics. An
    invalid config raises ConfigError before any stage runs."""
    cfg.validate()
    os.makedirs(out_dir, exist_ok=True)
    artifacts: list[str] = []
    metrics: list[dict] = []

    # stage: simulate or ingest
    truth = None
    with _stage("simulate"):
        if cfg.scenario:
            scenario = parse_scenario(cfg.scenario)
            if scenario.mode != "propellers":
                raise ConfigError("run_pipeline drives propeller scenes; use the simulate/fuse subcommands for flights")
            events, geometry, truth, paths = simulate_scene(scenario, out_dir, cfg.output_format)
            artifacts.extend(paths)
        elif cfg.input:
            events, geometry = read_events(cfg.input, cfg.input_format)
        else:
            raise ConfigError("config needs either a scenario to simulate or an input event file")

    # stage: preprocess
    with _stage("preprocess"):
        tracked = preprocess_stream(events, cfg)
    artifacts.extend(write_preprocess_artifacts(out_dir, tracked, geometry, cfg.output_format))

    # stage: estimate
    with _stage("estimate"):
        all_estimates = estimate_tracks(tracked, cfg)
    speeds_path = os.path.join(out_dir, "speeds.csv")
    write_speed_csv(speeds_path, all_estimates)
    artifacts.append(speeds_path)

    # stage: metrics
    if truth is not None:
        speeds = np.column_stack(_speed_columns(all_estimates)[:3])
        truth_rows = np.column_stack(prop_rpm_columns(truth.times_us, truth.rpm))
        metrics.extend(score_speeds(speeds, truth_rows, tracked.centroids, [s.center for s in scenario.specs]))
    metrics.append({"metric": "n_events", "value": len(events)})
    metrics.append({"metric": "n_events_filtered", "value": len(tracked.events)})
    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    write_jsonl(metrics_path, metrics)
    artifacts.append(metrics_path)

    if cfg.plots:
        artifacts.extend(_emit_plots(out_dir, tracked, cfg, all_estimates))

    manifest_path = write_manifest(os.path.join(out_dir, "manifest.json"), cfg.content_hash(), cfg.seed, artifacts)
    return PipelineResult(out_dir=out_dir, artifacts=artifacts + [manifest_path], metrics=metrics, estimates=all_estimates)


def score_speeds(
    speeds: np.ndarray, truth_rows: np.ndarray, centroids: list[tuple[float, float]], true_centers: list[tuple[float, float]]
) -> list[dict]:
    """One `rmae_percent` entry per track of the speed rows (t_ref, prop_id,
    rpm, ...). A track is scored against the truth rotor that
    `_match_tracks` pairs with its centroid, nearest pair first, so track
    ids change no pair short of a distance tie, at the speed of that
    rotor's last truth row (t, prop_id, rpm) at or before t_ref, or of its
    first row for an earlier t_ref; estimates whose truth speed is 0 are
    left out."""
    mapping = _match_tracks(true_centers, centroids)
    entries = []
    for prop in np.unique(speeds[:, 1]).astype(np.int64).tolist():
        truth_prop = mapping.get(prop)
        if truth_prop is None:
            continue
        truth = truth_rows[truth_rows[:, 1] == truth_prop]
        if len(truth) == 0:
            continue
        truth = truth[np.argsort(truth[:, 0], kind="stable")]
        rows = speeds[speeds[:, 1] == prop]
        gt = truth[np.clip(np.searchsorted(truth[:, 0], rows[:, 0], side="right") - 1, 0, len(truth) - 1), 2]
        usable = gt > 0
        if usable.any():
            value = rmae(rows[usable, 2], gt[usable])
            entries.append({"metric": "rmae_percent", "prop_id": prop, "truth_prop_id": truth_prop, "value": value,
                            "n_estimates": int(usable.sum())})
    return entries


# --- Benchmark harness ---

BENCH_REPEATS = 3


def benchmark_estimate_stage(
    track_events: Events,
    center: tuple[float, float],
    cfg: PipelineConfig,
    min_events_per_sec: float = 1e6,
) -> dict:
    """Throughput of the estimate stage (batch growth + downsampling +
    speed search) in consumed events per second, single-threaded.

    The stage runs once untimed to warm allocations and caches,
    then BENCH_REPEATS timed passes; the best pass is the least
    scheduler-contaminated measurement and decides the result.
    """
    estimate_track(track_events, center, cfg)  # warmup
    consumed = len(track_events)
    runs = []
    n_estimates = 0
    for _ in range(BENCH_REPEATS):
        start = time.perf_counter()
        track = estimate_track(track_events, center, cfg)
        elapsed = time.perf_counter() - start
        runs.append(consumed / elapsed if elapsed > 0 else math.inf)
        n_estimates = len(track.estimates)
    events_per_sec = max(runs)
    return {
        "events_consumed": consumed,
        "events_per_sec": events_per_sec,
        "events_per_sec_runs": runs,
        "threshold_events_per_sec": min_events_per_sec,
        "pass": bool(events_per_sec >= min_events_per_sec),
        "n_estimates": n_estimates,
    }
