"""Command-line interface.

Subcommands: simulate, preprocess, estimate, train-command,
infer-command, fuse, eval, pipeline, bench. Exit codes: 0 success,
2 configuration error, 3 data error, 4 numerical/degenerate error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
from typing import TextIO

import numpy as np

from .commands import (
    MAX_RATE_HZ, load_model, predict_command, resample_zero_order_hold, save_model, train_command_model,
)
from .config import PipelineConfig, parse_kv_file, parse_scenario
from .dynamics import N_ROTORS, rpm_to_rad_s
from .errors import ConfigError, DataError, EstimationError, NumericalError, RotorSenseError
from .events import read_events, write_events
from .fusion import KinematicPredictor, run_fusion
from .metrics import localization_error
from . import pipeline as pl
from . import tables
from .sim import MAX_CLASS_SPEEDS, MAX_SAMPLES_PER_CLASS, generate_command_dataset, simulate_flight, simulate_propellers

LOG = logging.getLogger("rotorsense")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


# options that set other config fields than the one they are named after
_DERIVED_OPTIONS = {
    "polarity_band": lambda cfg, band: {"polarity_lo": band[0], "polarity_hi": band[1]},
    "bracket_rpm": lambda cfg, bracket: {"bracket_rpm_lo": bracket[0], "bracket_rpm_hi": bracket[1]},
    "st_ratio": lambda cfg, ratio: {"time_radius_us": cfg.space_radius_px * ratio},
}


def _say(line: str, stream: TextIO | None = None) -> None:
    """Print one line to stdout, or to stream. A reader that has closed
    the pipe is not an error: the stream then goes to the null device, so
    the command still writes its files and returns its own exit code,
    silently."""
    stream = sys.stdout if stream is None else stream
    try:
        print(line, file=stream, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    """The --config file (or the defaults) with --seed and each of the
    subcommand's config options that was given applied, then validated."""
    cfg = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    for dest in ("seed", *args.config_options):
        value = getattr(args, dest)
        if value is not None:
            derive = _DERIVED_OPTIONS.get(dest)
            for name, field_value in (derive(cfg, value) if derive else {dest: value}).items():
                setattr(cfg, name, field_value)
    cfg.validate()
    return cfg


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = parse_scenario(args.scenario)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {args.seed}")
        scenario.seed = args.seed
    os.makedirs(args.out, exist_ok=True)
    fmt = args.format
    with open(args.scenario, "rb") as fh:
        scenario_hash = hashlib.sha256(fh.read()).hexdigest()
    if scenario.mode == "propellers":
        events, _, _, artifacts = pl.simulate_scene(scenario, args.out, fmt)
        _say(f"simulated {len(events)} events over {scenario.duration_us} us -> {args.out}")
    else:
        flight = simulate_flight(
            scenario.script, scenario.drone, scenario.noise, scenario.duration_us, seed=scenario.seed,
            tick_us=scenario.tick_us, render_events=scenario.render_events, geometry=scenario.geometry,
        )
        artifacts = []
        if scenario.render_events and len(flight.events):
            artifacts.append(os.path.join(args.out, f"events.{fmt}"))
            write_events(flight.events, scenario.geometry or flight.events.infer_geometry(), artifacts[0], fmt)
        names = ("truth_state.csv", "gps.csv", "speed_traces.csv", "commands.csv")
        state_path, gps_path, traces_path, commands_path = (os.path.join(args.out, name) for name in names)
        truth = flight.truth
        labels = [truth.command_labels[int(c)] for c in truth.command_ids]
        tables.TRUTH_STATE.write(state_path, [truth.times_us, *truth.positions.T, *truth.velocities.T, labels])
        pl.write_xyz_csv(gps_path, flight.gps)
        tables.SPEED_TRACES.write(traces_path, pl.prop_rpm_columns(truth.times_us, flight.rpm_traces))
        pl.write_command_csv(commands_path, list(zip(truth.times_us.tolist(), labels)))
        artifacts += [state_path, gps_path, traces_path, commands_path]
        _say(f"simulated flight ({len(flight.gps)} GPS fixes) -> {args.out}")
    pl.write_manifest(os.path.join(args.out, "manifest.json"), scenario_hash, scenario.seed, artifacts)
    return EXIT_OK


def _cmd_preprocess(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    events, geometry = read_events(args.input, args.format)
    tracked = pl.preprocess_stream(events, cfg)
    os.makedirs(args.out, exist_ok=True)
    artifacts = pl.write_preprocess_artifacts(args.out, tracked, geometry, args.format)
    pl.write_manifest(os.path.join(args.out, "manifest.json"), cfg.content_hash(), cfg.seed, artifacts)
    _say(f"kept {len(tracked.events)}/{len(events)} events in {len(tracked.centroids)} tracks -> {args.out}")
    return EXIT_OK


def _cmd_estimate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    events, _ = read_events(args.input, args.format)
    tracked = pl.preprocess_stream(events, cfg)
    estimates = pl.estimate_tracks(tracked, cfg)
    os.makedirs(args.out, exist_ok=True)
    speeds_path = os.path.join(args.out, "speeds.csv")
    pl.write_speed_csv(speeds_path, estimates)
    artifacts = [speeds_path, pl.write_tracks_csv(args.out, tracked)]
    pl.write_manifest(os.path.join(args.out, "manifest.json"), cfg.content_hash(), cfg.seed, artifacts)
    _say(f"estimated {len(estimates)} speed points -> {args.out}/speeds.csv")
    return EXIT_OK


def _cmd_train_command(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    from .sim import DroneSpec

    drone = DroneSpec(hover_rpm=cfg.hover_rpm, delta_rpm=args.delta_rpm, rpm_jitter=args.jitter_rpm)
    if not args.delta_rpm > 0:  # at 0 every command has the hover pattern
        raise ConfigError(f"--delta-rpm must be positive, got {args.delta_rpm}")
    if not cfg.svm_folds <= args.samples_per_class <= MAX_SAMPLES_PER_CLASS:  # a fold needs a sample of each class
        raise ConfigError(
            f"--samples-per-class must lie in [svm_folds = {cfg.svm_folds}, {MAX_SAMPLES_PER_CLASS}], "
            f"got {args.samples_per_class}"
        )
    if not 0 < cfg.resample_hz <= MAX_RATE_HZ:  # what load_model accepts
        raise ConfigError(f"resample_hz must lie in (0, {MAX_RATE_HZ:g}], got {cfg.resample_hz}")
    window = cfg.window_ms * cfg.resample_hz / 1000.0  # samples
    if not window >= 1:
        raise ConfigError(f"window_ms * resample_hz / 1000 must be at least 1 sample, got {window:.3g}")
    if window * args.samples_per_class > MAX_CLASS_SPEEDS:
        raise ConfigError(
            f"window_ms * resample_hz / 1000 too large: {window:.3g}-sample windows x {args.samples_per_class} "
            f"samples per class exceed {MAX_CLASS_SPEEDS:.0e} speeds per class"
        )
    windows, labels = generate_command_dataset(args.samples_per_class, drone, int(window), cfg.seed)
    model, accuracies = train_command_model(
        windows, labels, k_folds=cfg.svm_folds, lambda_reg=cfg.svm_lambda, epochs=cfg.svm_epochs,
        seed=cfg.seed, rate_hz=cfg.resample_hz,
    )
    save_model(model, args.model)
    pl.write_manifest(args.model + ".manifest.json", cfg.content_hash(), cfg.seed, [args.model])
    _say(f"fold accuracies: {' '.join(f'{a:.3f}' for a in accuracies)} (mean {accuracies.mean():.3f})")
    _say(f"model -> {args.model}")
    return EXIT_OK


def _command_windows(times: np.ndarray, window_us: float) -> np.ndarray:
    """End times t0 + k * window_us (k = 1, 2, ...) of the windows that hold
    rows of `times`, up to the last time + 1; window k holds the times from
    its end - window_us to its end. Only the windows around each row are
    tried, so a far row costs a few windows, not one per window before it."""
    t0, row_times = float(times.min()), np.unique(times)
    k = np.unique(np.floor((row_times - t0) / window_us)[:, None] + np.arange(-1, 3))
    ends = t0 + k[k >= 1] * window_us
    first = row_times[np.minimum(np.searchsorted(row_times, ends - window_us), row_times.size - 1)]
    return ends[(first >= ends - window_us) & (first <= ends) & (ends <= row_times[-1] + 1)]


def _cmd_infer_command(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    model = load_model(args.model)
    speeds = pl.read_speed_csv(args.input)
    if speeds.shape[0] == 0:
        raise DataError(f"{args.input}: no speed rows")
    props = speeds[:, 1]
    outside = (props < 0) | (props >= model.n_props)
    if outside.any():
        raise DataError(f"{args.input}: rotor id {int(props[outside.argmax()])} outside the model's 0..{model.n_props - 1}")
    window_ms = model.window * 1000.0 / model.rate_hz if args.window_ms is None else args.window_ms
    window_us = window_ms * 1000.0
    if not 0 < window_us < math.inf:
        raise ConfigError(f"--window-ms must be positive and finite, got {window_ms}")
    # a window of W us resamples to the samples at 0, P, 2P, ... below W + P/2,
    # of which the model reads the first model.window
    period_us = 1e6 / model.rate_hz
    too_short = window_us <= (model.window - 1.5) * period_us
    if too_short or window_us > (model.window + 0.5) * period_us:
        raise ConfigError(
            f"--window-ms {window_ms} is {'shorter' if too_short else 'longer'} than the model's window of "
            f"{model.window} samples at {model.rate_hz:g} Hz"
        )
    # the zero-order hold looks rows up by time: take them in time order,
    # rows of equal time in file order
    speeds = speeds[np.argsort(speeds[:, 0], kind="stable")]
    times = speeds[:, 0]
    cursors = _command_windows(times, window_us)
    firsts = np.searchsorted(times, cursors - window_us, "left")
    lasts = np.searchsorted(times, cursors, "right")
    ends, windows = [], []
    for t_cursor, first, last in zip(cursors, firsts.tolist(), lasts.tolist()):
        window_rows = speeds[first:last]
        channels = []
        for prop in range(model.n_props):
            prop_rows = window_rows[window_rows[:, 1] == prop]
            if prop_rows.shape[0] == 0:
                break
            trace = resample_zero_order_hold(
                prop_rows[:, 0], rpm_to_rad_s(prop_rows[:, 2]), model.rate_hz,
                int(t_cursor - window_us), int(t_cursor),
            )
            channels.append(trace[: model.window])
        if len(channels) == model.n_props and all(c.size == model.window for c in channels):
            ends.append(int(t_cursor))
            windows.append(np.stack(channels))
    if not windows:
        raise DataError("no complete windows: need speed rows for every propeller channel")
    with np.errstate(over="ignore"):  # predict_command rejects squares that overflow
        speeds_sq = np.square(np.stack(windows))
    labels, _scores = predict_command(model, speeds_sq)
    rows = list(zip(ends, labels))
    pl.write_command_csv(args.out_csv, rows)
    pl.write_manifest(args.out_csv + ".manifest.json", cfg.content_hash(), cfg.seed, [args.out_csv])
    _say(f"inferred {len(rows)} command windows -> {args.out_csv}")
    return EXIT_OK


def _cmd_fuse(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    speeds = pl.read_speed_csv(args.speeds) if args.speeds else np.zeros((0, 4))
    commands = pl.read_command_csv(args.commands) if args.commands else []
    gps = pl.read_table(args.gps, tables.GPS)
    hover = np.full(N_ROTORS, rpm_to_rad_s(cfg.hover_rpm))
    predictor = KinematicPredictor.from_hover_calibration(hover, tilt_fraction=cfg.tilt_fraction)
    result = run_fusion(
        speeds[:, :3], commands, gps, predictor,
        gps_sigma_m=cfg.gps_sigma_m, process_noise_scale=cfg.process_noise_scale,
    )
    pl.write_fused_csv(args.out_csv, result.states)
    summary = f"fused {len(result.states)} states ({len(result.nis)} GPS updates) -> {args.out_csv}"
    del result  # the state arrays (3.4 MB for 10 s at 1 kHz) go before the manifest reads fused.csv back
    pl.write_manifest(args.out_csv + ".manifest.json", cfg.content_hash(), cfg.seed, [args.out_csv])
    _say(summary)
    return EXIT_OK


# eval's input flags that score together: the speed flags give RMAE, the
# fused pair the localization error
_EVAL_GROUPS = (("speeds", "truth_rpm", "tracks"), ("fused", "truth_state"))


def _cmd_eval(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    for group in _EVAL_GROUPS:
        flags = {f"--{dest.replace('_', '-')}": bool(getattr(args, dest)) for dest in group}
        given, missing = [f for f, on in flags.items() if on], [f for f, on in flags.items() if not on]
        if given and missing:
            raise ConfigError(f"eval {' '.join(given)} needs {' and '.join(missing)}")
    entries = []
    if args.speeds:
        speeds = pl.read_speed_csv(args.speeds)
        truth_rows, centers = pl.read_truth_rpm_csv(args.truth_rpm)
        centroids = pl.read_track_centroids(args.tracks)
        if not centers:
            raise DataError(f"{args.truth_rpm}: no '# propN_center=x,y' comments to pair tracks with")
        entries += pl.score_speeds(speeds, truth_rows, centroids, centers)
    if args.fused:
        fused = pl.read_table(args.fused, tables.FUSED)
        truth = pl.read_table(args.truth_state, tables.STATE, extra_columns=True)
        mean_err, cdf = localization_error(fused, truth)
        entries.append({"metric": "mean_3d_error_m", "value": mean_err})
        entries.append({"metric": "error_cdf", "value": [[q, e] for q, e in cdf]})
    if not entries:
        raise ConfigError("eval needs --speeds/--truth-rpm/--tracks and/or --fused/--truth-state")
    pl.write_jsonl(args.report, entries)
    pl.write_manifest(args.report + ".manifest.json", cfg.content_hash(), cfg.seed, [args.report])
    for entry in entries:
        _say(json.dumps(entry, sort_keys=True))
    return EXIT_OK


def _cmd_pipeline(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    result = pl.run_pipeline(cfg, args.out)
    for entry in result.metrics:
        _say(json.dumps(entry, sort_keys=True))
    _say(f"artifacts -> {result.out_dir}")
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.sample_fraction is None and "sample_fraction" not in (parse_kv_file(args.config) if args.config else {}):
        args.sample_fraction = 0.25
    cfg = _load_config(args)
    if args.duration_us <= 0:
        raise ConfigError(f"--duration-us must be positive, got {args.duration_us}")
    if not 0 <= args.min_events_per_sec < math.inf:
        raise ConfigError(f"--min-events-per-sec must be finite and nonnegative, got {args.min_events_per_sec}")
    if args.input:
        events, _ = read_events(args.input, args.format)
        tracked = pl.preprocess_stream(events, cfg)
        if not tracked.warp_centers:
            raise DataError("benchmark input produced no tracks")
        track_events = tracked.track_events(0)
        center = tracked.warp_centers[0]
    else:
        from .sim import ConstantSpeed, NO_NOISE, PropellerSpec

        # hovering-drone event-rate regime: a few million events per second
        spec = PropellerSpec(
            center=(70.0, 70.0), n_blades=2, blade_length=60.0, blade_width=6.0,
            initial_phase=0.0, speed_profile=ConstantSpeed(3000.0),
        )
        track_events, _ = simulate_propellers([spec], NO_NOISE, args.duration_us, 40, seed=cfg.seed)
        center = spec.center
    report = pl.benchmark_estimate_stage(track_events, center, cfg, args.min_events_per_sec)
    os.makedirs(args.out, exist_ok=True)
    bench_path = os.path.join(args.out, "benchmark.json")
    with open(bench_path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    pl.write_manifest(os.path.join(args.out, "manifest.json"), cfg.content_hash(), cfg.seed, [bench_path])
    _say(json.dumps(report, sort_keys=True))
    if not report["pass"]:
        raise NumericalError(
            f"{report['events_per_sec']:.4g} events/s is below --min-events-per-sec {args.min_events_per_sec:g}"
        )
    return EXIT_OK


def _number_pair(text: str) -> tuple[float, float]:
    """argparse type of a `lo,hi` option: two comma-separated numbers."""
    try:
        lo, hi = (float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo,hi, got {text!r}") from None
    return lo, hi


class _Parser(argparse.ArgumentParser):
    """An option error exits 2 with one stderr line, without the usage."""

    def error(self, message: str):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rotorsense", description=__doc__)
    parser.add_argument("--config", help="pipeline config file (key=value lines)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", dest="global_out", default=None, help="default output directory")
    parser.add_argument("-v", "--verbose", action="store_true")
    # dests of the subcommand's options that set PipelineConfig fields: a
    # field's own name, or a _DERIVED_OPTIONS key
    parser.set_defaults(config_options=())
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic event stream or flight")
    p.add_argument("scenario", help="scenario file")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--format", default="bin", choices=("csv", "bin"))
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("preprocess", help="filter noise and segment propellers")
    p.add_argument("input")
    p.add_argument("--format", default="bin", choices=("csv", "bin"))
    p.add_argument("--out", default=None)
    p.add_argument("--window-us", type=int, dest="window_us")
    p.add_argument("--bin", type=int, dest="bin_size")
    p.add_argument("--k", type=int, dest="k_props")
    p.add_argument("--count-ratio", type=float, dest="count_ratio")
    p.add_argument("--polarity-band", dest="polarity_band", type=_number_pair, help="lo,hi")
    p.set_defaults(func=_cmd_preprocess, config_options=("window_us", "bin_size", "k_props", "count_ratio", "polarity_band"))

    p = sub.add_parser("estimate", help="estimate propeller speeds")
    p.add_argument("input")
    p.add_argument("--format", default="bin", choices=("csv", "bin"))
    p.add_argument("--out", default=None)
    p.add_argument("--bracket-rpm", dest="bracket_rpm", type=_number_pair, help="lo,hi")
    p.add_argument("--grid", type=int, dest="n_grid")
    p.add_argument("--tol", type=float, dest="tol_rpm", help="refinement tolerance, RPM")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--dt-us", type=int, dest="dt_us")
    p.add_argument("--delta", type=float)
    p.add_argument("--beta", type=int)
    p.add_argument("--sample-fraction", type=float, dest="sample_fraction")
    p.add_argument("--st-ratio", type=float, dest="st_ratio", help="us of time per px of space")
    p.set_defaults(func=_cmd_estimate, config_options=(
        "bracket_rpm", "n_grid", "tol_rpm", "epsilon", "dt_us", "delta", "beta", "sample_fraction", "st_ratio",
    ))

    p = sub.add_parser("train-command", help="train the flight-command classifier on synthetic traces")
    p.add_argument("--model", required=True, help="output model path")
    p.add_argument("--samples-per-class", type=int, default=200, dest="samples_per_class")
    p.add_argument("--delta-rpm", type=float, default=300.0, dest="delta_rpm")
    p.add_argument("--jitter-rpm", type=float, default=60.0, dest="jitter_rpm")
    p.set_defaults(func=_cmd_train_command)

    p = sub.add_parser("infer-command", help="classify flight commands from a speed CSV")
    p.add_argument("input", help="speed CSV from `estimate`")
    p.add_argument("--model", required=True)
    p.add_argument("--window-ms", type=float, dest="window_ms", help="default: the model's window")
    p.add_argument("--out-csv", default="commands.csv", dest="out_csv")
    p.set_defaults(func=_cmd_infer_command)

    p = sub.add_parser("fuse", help="fuse speed priors and GPS into a state estimate")
    p.add_argument("--speeds", help="speed CSV (t_ref,prop_id,rpm,objective)")
    p.add_argument("--commands", help="command CSV (t,command)")
    p.add_argument("--gps", required=True, help="GPS CSV (t,x,y,z)")
    p.add_argument("--out-csv", default="fused.csv", dest="out_csv")
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("eval", help="compute RMAE and localization metrics")
    p.add_argument("--speeds")
    p.add_argument("--truth-rpm", dest="truth_rpm")
    p.add_argument("--tracks", help="tracks.csv of the run that wrote --speeds; needed with --truth-rpm")
    p.add_argument("--fused")
    p.add_argument("--truth-state", dest="truth_state")
    p.add_argument("--report", default="metrics.jsonl")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("pipeline", help="run simulate/ingest -> preprocess -> estimate -> metrics")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("bench", help="measure estimate-stage throughput")
    p.add_argument("--input", help="event file; defaults to a built-in simulated stream")
    p.add_argument("--format", default="bin", choices=("csv", "bin"))
    p.add_argument("--out", default=None)
    p.add_argument("--duration-us", type=int, default=400_000, dest="duration_us")
    p.add_argument("--sample-fraction", type=float, dest="sample_fraction", help="default: the config's, else 0.25")
    p.add_argument("--min-events-per-sec", type=float, default=1e6, dest="min_events_per_sec")
    p.set_defaults(func=_cmd_bench, config_options=("sample_fraction",))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(asctime)s %(levelname)s %(name)s %(message)s",
    )
    if getattr(args, "out", None) is None and hasattr(args, "out"):
        args.out = args.global_out or "out"
    try:
        return args.func(args)
    except ConfigError as exc:
        _say(f"config error: {exc}", sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        _say(f"data error: {exc}", sys.stderr)
        return EXIT_DATA
    except (EstimationError, NumericalError) as exc:
        _say(f"numerical error: {exc}", sys.stderr)
        return EXIT_NUMERIC
    except RotorSenseError as exc:  # pragma: no cover - catch-all for subclasses
        _say(f"error: {exc}", sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
