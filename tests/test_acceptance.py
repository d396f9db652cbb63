"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured values (run with -s to see them all).

Desk-scale gates: the simulator is the ground-truth oracle, geometry and
windows are sized per scenario so every stated tolerance is exercised as
written. Hardware-scale figures are out of reach without the sensor rig;
these gates verify the algorithms against the oracle instead.
"""

import math
import time

import numpy as np

from rotorsense.batching import StopReason, density_downsample, grow_batch
from rotorsense.commands import predict_command, train_command_model
from rotorsense.config import PipelineConfig
from rotorsense.dynamics import GRAVITY, rpm_to_rad_s
from rotorsense.events import SensorGeometry, read_events, slice_bundles, write_events
from rotorsense.fusion import KinematicPredictor, run_fusion
from rotorsense.metrics import localization_error, rmae
from rotorsense.motion import ObjectiveEvaluator, estimate_speed
from rotorsense.pipeline import (
    benchmark_estimate_stage,
    estimate_track,
    preprocess_stream,
    run_pipeline,
)
from rotorsense.preprocess import build_heatmaps, filter_noise, segment_propellers
from rotorsense.sim import (
    ConstantSpeed,
    DroneSpec,
    NO_NOISE,
    NoiseSpec,
    PropellerSpec,
    StepSpeed,
    generate_command_dataset,
    simulate_flight,
    simulate_propellers,
)

SPEEDS = (1000.0, 3000.0, 6000.0, 10000.0)
NOISY = NoiseSpec(background_rate=10.0, hot_pixel_count=20, hot_pixel_rate=2000.0, vibration_jitter_px=0.5)
BLADE_LENGTH = 40.0


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def tick_for(rpm: float, blade_length: float = BLADE_LENGTH) -> int:
    return max(5, min(50, int(0.8e6 / (rpm_to_rad_s(rpm) * blade_length))))


def speed_scenario(rpm: float, noise: NoiseSpec, n_batches: int, dt_us: int, seed: int):
    center = (80.0, 80.0)
    spec = PropellerSpec(
        center=center, n_blades=2, blade_length=BLADE_LENGTH, blade_width=5.0,
        initial_phase=0.3, speed_profile=ConstantSpeed(rpm),
    )
    duration = dt_us * 8 * n_batches
    events, truth = simulate_propellers(
        [spec], noise, duration_us=duration, tick_us=tick_for(rpm), seed=seed,
        geometry=SensorGeometry(320, 240),
    )
    return events, truth, center


def test_01_speed_accuracy_clean():
    """Each of {1000, 3000, 6000, 10000} RPM, no noise, 100 batches:
    RMAE <= 0.5% per speed, <= 2 min total."""
    start = time.perf_counter()
    results = []
    for rpm in SPEEDS:
        dt_us = 4000 if rpm < 2000 else 1000  # slow rotors need longer accumulation
        events, _, center = speed_scenario(rpm, NO_NOISE, n_batches=100, dt_us=dt_us, seed=7)
        cfg = PipelineConfig(bracket_rpm_lo=500, bracket_rpm_hi=12000, dt_us=dt_us)
        track = estimate_track(events, center, cfg)
        estimates = np.array([e.rpm for e in track.estimates])
        assert estimates.size >= 100
        results.append((rpm, rmae(estimates, np.full(estimates.size, rpm))))
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{int(r)} RPM: {v:.3f}%" for r, v in results) + f"; {elapsed:.0f}s"
    report("01 speed-accuracy-clean", all(v <= 0.5 for _, v in results) and elapsed <= 120.0, detail)


def test_02_speed_accuracy_noisy():
    """Same speeds with background 10 ev/px/s + 20 hot pixels + 0.5 px
    jitter, full preprocess: RMAE <= 1.5% per speed."""
    results = []
    for rpm in SPEEDS:
        dt_us = 4000 if rpm < 2000 else 1000
        events, truth, center = speed_scenario(rpm, NOISY, n_batches=50, dt_us=dt_us, seed=7)
        window_us = max(10_000, int(60e6 / rpm * 1.25))  # >= one revolution per window
        cfg = PipelineConfig(
            bracket_rpm_lo=500, bracket_rpm_hi=12000, dt_us=dt_us, window_us=window_us, k_props=1,
        )
        tracked = preprocess_stream(events, cfg)
        track = estimate_track(tracked.track_events(0), tracked.warp_centers[0], cfg)
        estimates = np.array([e.rpm for e in track.estimates])
        assert estimates.size >= 30
        results.append((rpm, rmae(estimates, np.full(estimates.size, rpm))))
    detail = ", ".join(f"{int(r)} RPM: {v:.3f}%" for r, v in results)
    report("02 speed-accuracy-noisy", all(v <= 1.5 for _, v in results), detail)


def test_03_noise_filter_efficacy():
    """On origin-labeled streams the filter removes >= 90% of noise
    events and <= 5% of blade events."""
    kept = {True: 0, False: 0}
    total = {True: 0, False: 0}
    window_us = 25_000
    for seed in (3, 4):
        events, truth, _ = speed_scenario(3000.0, NOISY, n_batches=13, dt_us=1000, seed=seed)
        t0 = int(events.t[0])
        while t0 <= int(events.t[-1]):
            window = (t0, t0 + window_us - 1)
            idx = np.flatnonzero((events.t >= window[0]) & (events.t <= window[1]))
            w_events = events.select(idx)
            origins = truth.event_origin[idx]
            if len(w_events):
                heatmaps = build_heatmaps(w_events, window, 5)
                _, keep = filter_noise(w_events, heatmaps, return_mask=True)
                for is_blade in (True, False):
                    sel = (origins >= 0) == is_blade
                    kept[is_blade] += int(keep[sel].sum())
                    total[is_blade] += int(sel.sum())
            t0 += window_us
    noise_removed = 1.0 - kept[False] / total[False]
    blade_removed = 1.0 - kept[True] / total[True]
    report(
        "03 noise-filter-efficacy",
        noise_removed >= 0.90 and blade_removed <= 0.05,
        f"noise removed {noise_removed * 100:.2f}%, blade removed {blade_removed * 100:.2f}%",
    )


def test_04_segmentation_four_propellers():
    """4 propellers, K=4: every centroid within blade_width of its rotor
    center and zero cross-assigned blade events over 20 seeds."""
    centers = [(80.0, 60.0), (240.0, 60.0), (80.0, 180.0), (240.0, 180.0)]
    geometry = SensorGeometry(320, 240)
    worst = 0.0
    cross = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        specs = [
            PropellerSpec(
                center=c, n_blades=2, blade_length=30.0, blade_width=5.0,
                initial_phase=float(rng.uniform(0, 2 * np.pi)),
                speed_profile=ConstantSpeed(3000.0), spin=1 if i % 2 == 0 else -1,
            )
            for i, c in enumerate(centers)
        ]
        events, truth = simulate_propellers(
            specs, NOISY, duration_us=25_000, tick_us=40, seed=seed, geometry=geometry
        )
        window = (int(events.t[0]), int(events.t[0]) + 24_999)
        heatmaps = build_heatmaps(events, window, 5)
        kept_events, keep = filter_noise(events, heatmaps, return_mask=True)
        idx = np.flatnonzero((events.t >= window[0]) & (events.t <= window[1]))
        origins = truth.event_origin[idx][keep]
        tracks = segment_propellers(kept_events, 4)
        cents = np.array([t.centroid for t in tracks])
        for c in cents:
            worst = max(worst, min(math.dist(tuple(c), tc) for tc in centers))
        owner = [int(np.argmin([math.dist(tuple(tc), c) for c in centers])) for tc in cents]
        coords = np.column_stack([kept_events.x, kept_events.y]).astype(float)
        assign = np.argmin(((coords[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2), axis=1)
        blade = origins >= 0
        cross += int((np.array([owner[a] for a in assign[blade]]) != origins[blade]).sum())
    report(
        "04 segmentation",
        worst < 5.0 and cross == 0,
        f"worst centroid error {worst:.2f} px (blade_width 5), cross-assigned {cross}",
    )


def test_05_objective_correctness():
    """50 random noise-free batches: grid argmax within one grid step of
    the true speed; Brent refinement never returns less than the best
    grid value."""
    rng = np.random.default_rng(12)
    failures = []
    for k in range(50):
        rpm = float(rng.uniform(1000, 10000))
        phase = float(rng.uniform(0, 2 * np.pi))
        spec = PropellerSpec(
            center=(50.0, 50.0), n_blades=2, blade_length=30.0, blade_width=5.0,
            initial_phase=phase, speed_profile=ConstantSpeed(rpm),
        )
        events, _ = simulate_propellers(
            [spec], NO_NOISE, duration_us=16_000, tick_us=tick_for(rpm, 30.0), seed=k
        )
        omega_true = rpm_to_rad_s(rpm)
        bracket = (0.5 * omega_true, 1.5 * omega_true)
        evaluator = ObjectiveEvaluator(events, (50.0, 50.0), 0)
        grid = np.linspace(bracket[0], bracket[1], 64)
        values = evaluator.value_grid(grid)
        best = int(np.argmax(values))
        step = grid[1] - grid[0]
        if abs(grid[best] - omega_true) > step:
            failures.append((rpm, "argmax"))
        est = estimate_speed(events, (50.0, 50.0), bracket, t_ref_us=0)
        if est.objective_value < values[best] * (1 - 1e-12):
            failures.append((rpm, "brent"))
    report("05 objective-correctness", not failures, f"50 batches, failures: {failures or 'none'}")


def test_06_adaptive_batching_step_detection():
    """3000 -> 4500 RPM step at a bundle edge: growth stops with reason
    `consistency` at the step bundle in >= 95 of 100 seeded runs
    (delta = 0.3)."""
    dt_us = 2000
    hits = 0
    runs = 100
    for seed in range(runs):
        rng = np.random.default_rng(seed)
        phase = float(rng.uniform(0, 2 * np.pi))
        probe = PropellerSpec(
            center=(50.0, 50.0), n_blades=2, blade_length=30.0, blade_width=5.0,
            initial_phase=phase, speed_profile=ConstantSpeed(3000.0),
        )
        lead, _ = simulate_propellers([probe], NO_NOISE, duration_us=2_000, tick_us=40, seed=seed)
        t_step = int(lead.t[0]) + 4 * dt_us  # bundle grid anchors at the first event
        spec = PropellerSpec(
            center=(50.0, 50.0), n_blades=2, blade_length=30.0, blade_width=5.0,
            initial_phase=phase, speed_profile=StepSpeed([(0, 3000.0), (t_step, 4500.0)]),
        )
        events, _ = simulate_propellers([spec], NO_NOISE, duration_us=26_000, tick_us=30, seed=seed)
        bundles = slice_bundles(events, dt_us)
        est = estimate_speed(
            bundles[0].events, (50.0, 50.0), (rpm_to_rad_s(1500), rpm_to_rad_s(4500)),
            t_ref_us=bundles[0].t_start,
        )
        cfg = PipelineConfig(dt_us=dt_us, delta=0.3, beta=8)
        grown = grow_batch(bundles, cfg, est.omega_rad_s, (50.0, 50.0))
        if grown.reason is StopReason.CONSISTENCY and grown.next_index == 4:
            hits += 1
    report("06 adaptive-batching", hits >= 95, f"{hits}/100 runs stopped at the step bundle")


def test_07_downsampling_fidelity():
    """Estimates at sample_fraction 0.25 stay within 0.5% of full-batch
    estimates over 100 batches, and estimate_speed wall-clock drops by
    >= 2x."""
    center = (70.0, 70.0)
    spec = PropellerSpec(
        center=center, n_blades=2, blade_length=60.0, blade_width=6.0,
        initial_phase=0.3, speed_profile=ConstantSpeed(3000.0),
    )
    span = 16_000
    events, _ = simulate_propellers([spec], NO_NOISE, duration_us=span * 100, tick_us=40, seed=5)
    cfg = PipelineConfig(sample_fraction=0.25)
    bracket = (rpm_to_rad_s(1500), rpm_to_rad_s(4500))
    deviations = []
    t_full = t_down = 0.0
    for b in range(100):
        batch = events.time_slice(b * span, (b + 1) * span)
        kept = density_downsample(batch, cfg, seed=b)
        t0 = time.perf_counter()
        full = estimate_speed(batch, center, bracket, t_ref_us=b * span)
        t_full += time.perf_counter() - t0
        t0 = time.perf_counter()
        down = estimate_speed(kept, center, bracket, t_ref_us=b * span)
        t_down += time.perf_counter() - t0
        deviations.append(abs(down.omega_rad_s - full.omega_rad_s) / full.omega_rad_s)
    speedup = t_full / t_down
    worst = max(deviations)
    report(
        "07 downsampling-fidelity",
        worst <= 0.005 and speedup >= 2.0,
        f"worst deviation {worst * 100:.3f}%, estimate_speed speedup {speedup:.2f}x",
    )


def test_08_throughput():
    """The estimate stage sustains >= 1e6 consumed events per second;
    the benchmark harness records the threshold alongside."""
    spec = PropellerSpec(
        center=(70.0, 70.0), n_blades=2, blade_length=60.0, blade_width=6.0,
        initial_phase=0.0, speed_profile=ConstantSpeed(3000.0),
    )
    events, _ = simulate_propellers([spec], NO_NOISE, duration_us=400_000, tick_us=40, seed=0)
    cfg = PipelineConfig(bracket_rpm_lo=500, bracket_rpm_hi=12000, sample_fraction=0.25)
    result = benchmark_estimate_stage(events, (70.0, 70.0), cfg, min_events_per_sec=1e6)
    report(
        "08 throughput",
        result["pass"],
        f"{result['events_per_sec'] / 1e6:.2f}M events/s over {result['events_consumed']} events "
        f"(threshold {result['threshold_events_per_sec']:.0g})",
    )


def test_09_command_inference():
    """6-class dataset, 200 samples/class: 5-fold mean accuracy >= 90%;
    one prediction <= 10 ms."""
    drone = DroneSpec(hover_rpm=3000.0, delta_rpm=300.0, rpm_jitter=60.0)
    windows, labels = generate_command_dataset(200, drone, window_samples=100, seed=11)
    model, accuracies = train_command_model(windows, labels, k_folds=5, seed=11)
    t0 = time.perf_counter()
    predict_command(model, windows[:1])
    latency_ms = (time.perf_counter() - t0) * 1e3
    report(
        "09 command-inference",
        accuracies.mean() >= 0.90 and latency_ms <= 10.0,
        f"mean fold accuracy {accuracies.mean() * 100:.2f}%, predict {latency_ms:.2f} ms",
    )


def _fuse_flight(script, duration_us, seed):
    drone = DroneSpec(hover_rpm=3000.0, delta_rpm=300.0, rpm_jitter=60.0, gps_rate_hz=5.0, gps_sigma_m=2.0)
    flight = simulate_flight(script, drone, NO_NOISE, duration_us=duration_us, seed=seed, tick_us=5000)
    truth = flight.truth
    speeds = []
    for k in range(truth.times_us.size):  # 200 Hz priors
        for p in range(4):
            speeds.append((int(truth.times_us[k]), p, float(flight.rpm_traces[p, k])))
    commands = [(int(t), truth.command_labels[int(c)]) for t, c in zip(truth.times_us, truth.command_ids)]
    predictor = KinematicPredictor.from_hover_calibration(np.full(4, rpm_to_rad_s(3000.0)))
    sigma_a = GRAVITY * 2.0 * 60.0 / 3000.0
    fused = run_fusion(np.array(speeds), commands, flight.gps, predictor,
                       gps_sigma_m=2.0, process_noise_scale=sigma_a**2)
    gps_only = run_fusion(np.zeros((0, 3)), [], flight.gps, predictor,
                          gps_sigma_m=2.0, process_noise_scale=25.0)
    truth_series = np.column_stack([truth.times_us, truth.positions])
    err_fused, _ = localization_error(np.column_stack([fused.states.t_us, fused.states.mean[:, :3]]), truth_series)
    # the GPS-only filter's updated states: at each fix it emits the
    # predicted state, then the updated one
    gps_track = np.column_stack([gps_only.states.t_us, gps_only.states.mean[:, :3]])
    err_gps, _ = localization_error(gps_track[np.append(gps_track[1:, 0] != gps_track[:-1, 0], True)], truth_series)
    for cov in fused.states.cov[:: max(len(fused.states) // 200, 1)]:
        assert np.linalg.eigvalsh(cov).min() >= -1e-9
    return err_fused, err_gps, fused


def test_10_fusion_gain():
    """Vertical and spiral flights, GPS sigma 2 m: fused mean 3-D error
    <= 0.75x GPS-only at matched seeds; covariance PSD throughout;
    innovation chi-square whiteness over >= 1000 updates."""
    from scipy.stats import chi2

    vertical = [(0, "hover"), (2_000_000, "climb"), (5_000_000, "hover"),
                (7_000_000, "descent"), (10_000_000, "hover")]
    spiral = [(0, "hover"), (1_000_000, "climb"), (3_000_000, "roll"), (5_000_000, "pitch"),
              (7_000_000, "yaw"), (8_000_000, "roll"), (10_000_000, "descent")]
    ratios = []
    for name, script in (("vertical", vertical), ("spiral", spiral)):
        err_fused, err_gps, _ = _fuse_flight(script, duration_us=12_000_000, seed=5)
        ratios.append((name, err_fused, err_gps, err_fused / err_gps))

    # whiteness on a long matched run (>= 1000 GPS updates at 5 Hz)
    long_script = [(0, "hover"), (30_000_000, "climb"), (90_000_000, "hover"), (150_000_000, "descent")]
    drone = DroneSpec(hover_rpm=3000.0, delta_rpm=300.0, rpm_jitter=60.0, gps_rate_hz=5.0, gps_sigma_m=2.0)
    flight = simulate_flight(long_script, drone, NO_NOISE, duration_us=210_000_000, seed=8, tick_us=5000)
    truth = flight.truth
    speeds = []
    for k in range(0, truth.times_us.size, 4):
        for p in range(4):
            speeds.append((int(truth.times_us[k]), p, float(flight.rpm_traces[p, k])))
    commands = [(int(t), truth.command_labels[int(c)]) for t, c in zip(truth.times_us[::4], truth.command_ids[::4])]
    predictor = KinematicPredictor.from_hover_calibration(np.full(4, rpm_to_rad_s(3000.0)))
    sigma_a = GRAVITY * 2.0 * 60.0 / 3000.0
    result = run_fusion(np.array(speeds), commands, flight.gps, predictor,
                        gps_sigma_m=2.0, process_noise_scale=sigma_a**2)
    nis = np.array(result.nis)
    dof = 3 * nis.size
    white = nis.size >= 1000 and chi2.ppf(0.025, dof) <= nis.sum() <= chi2.ppf(0.975, dof)

    detail = "; ".join(f"{n}: fused {f:.2f} m vs GPS {g:.2f} m ({q:.2f}x)" for n, f, g, q in ratios)
    detail += f"; NIS mean {nis.mean():.2f} over {nis.size} updates"
    report("10 fusion-gain", all(q <= 0.75 for *_, q in ratios) and white, detail)


def test_11_determinism_and_round_trip(tmp_path):
    """Pipeline reruns are byte-identical per seed; event files round-trip
    bit-exactly in both formats."""
    scene = tmp_path / "scene.cfg"
    scene.write_text(
        "mode=propellers\nwidth=130\nheight=130\nduration_us=50000\ntick_us=50\nseed=9\n"
        "prop0.center=60,60\nprop0.blades=2\nprop0.blade_length=30\nprop0.blade_width=5\n"
        "prop0.phase=0.3\nprop0.rpm=3000\n"
        "noise.background_rate=5\nnoise.hot_pixels=4\nnoise.hot_pixel_rate=1000\nnoise.jitter_px=0.3\n"
    )
    cfg = PipelineConfig(
        seed=9, scenario=str(scene), window_us=25_000, k_props=1,
        bracket_rpm_lo=1000, bracket_rpm_hi=6000,
    )
    r1 = run_pipeline(cfg, str(tmp_path / "a"))
    r2 = run_pipeline(cfg, str(tmp_path / "b"))
    identical = all(
        open(p1, "rb").read() == open(p2, "rb").read()
        for p1, p2 in zip(sorted(r1.artifacts), sorted(r2.artifacts))
    )

    events, geometry = read_events(str(tmp_path / "a" / "events.bin"), "bin")
    round_trips = True
    for fmt in ("csv", "bin"):
        path = str(tmp_path / f"rt.{fmt}")
        write_events(events, geometry, path, fmt)
        back, geo_back = read_events(path, fmt)
        round_trips = round_trips and back == events and geo_back == geometry
    report(
        "11 determinism-round-trip",
        identical and round_trips,
        f"{len(r1.artifacts)} artifacts byte-identical; csv+bin round-trips bit-exact ({len(events)} events)",
    )
