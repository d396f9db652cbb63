"""The index walks over non-empty windows and bundles against the clock
walks they replaced (every window and every bundle interval visited,
empty or not), kept here as oracles."""

import contextlib
import io

import numpy as np
import pytest

from rotorsense.batching import StopReason, density_downsample, grow_batch
from rotorsense.cli import main
from rotorsense.config import PipelineConfig
from rotorsense.errors import DegenerateInputError, EstimationError
from rotorsense.events import EventBundle, Events, SensorGeometry, concat_events, slice_bundles, write_events
from rotorsense.motion import estimate_speed
from rotorsense.dynamics import rpm_to_rad_s
from rotorsense.pipeline import TrackedStream, _acquire, _match_tracks, estimate_track, preprocess_stream
from rotorsense.preprocess import build_heatmaps, distinct_pixels, filter_noise, robust_center, segment_propellers
from rotorsense.sim import NO_NOISE, NoiseSpec, simulate_propellers
from propellers import make_spec


# --- the replaced walks ---


def reference_slice_bundles(events, dt_us):
    """Contiguous bundles, one per interval up to the last event, empty ones included."""
    if len(events) == 0:
        return []
    t0 = int(events.t[0])
    d = (events.t - np.uint64(t0)).astype(np.int64)
    idx = np.maximum((d + dt_us - 1) // dt_us - 1, 0)
    n_bundles = int(idx[-1]) + 1
    edges = np.searchsorted(idx, np.arange(n_bundles + 1))
    return [
        EventBundle(events[int(edges[m]):int(edges[m + 1])], t0 + m * dt_us, t0 + (m + 1) * dt_us)
        for m in range(n_bundles)
    ]


def reference_preprocess_stream(events, cfg):
    """Every window from the first event to the last, labels by each
    pixel's nearest track centroid."""
    if len(events) == 0:
        return TrackedStream(Events.empty(), np.zeros(0, dtype=np.int64), [], [])
    t0, t_last = int(events.t[0]), int(events.t[-1])
    centroids, parts, assign_parts = [], [], []
    window_start = t0
    while window_start <= t_last:
        window = (window_start, window_start + cfg.window_us)
        w_events = events.time_slice(window[0], window[1] - 1)
        window_start += cfg.window_us
        if len(w_events) == 0:
            continue
        if cfg.filter_enabled:
            heatmaps = build_heatmaps(w_events, (window[0], window[1] - 1), cfg.bin_size)
            kept = filter_noise(w_events, heatmaps, cfg.count_ratio, (cfg.polarity_lo, cfg.polarity_hi))
        else:
            kept = w_events
        if len(kept) == 0:
            continue
        pixels, _, inverse = distinct_pixels(kept)
        if len(pixels) < cfg.k_props:
            parts.append(kept)
            assign_parts.append(np.full(len(kept), -1, dtype=np.int64))
            continue
        tracks = segment_propellers(kept, cfg.k_props)
        if not centroids:
            centroids = [t.centroid for t in tracks]
            mapping = {i: i for i in range(len(tracks))}
        else:
            mapping = _match_tracks(centroids, [t.centroid for t in tracks])
            for w, g in mapping.items():
                centroids[g] = tracks[w].centroid
        assignment = np.full(len(kept), -1, dtype=np.int64)
        cents = np.array([tracks[w].centroid for w in range(len(tracks))])
        nearest = np.argmin(np.sum((pixels[:, None, :] - cents[None, :, :]) ** 2, axis=2), axis=1)[inverse]
        for w in range(len(tracks)):
            assignment[nearest == w] = mapping[w]
        parts.append(kept)
        assign_parts.append(assignment)
    if not parts:
        return TrackedStream(Events.empty(), np.zeros(0, dtype=np.int64), centroids, list(centroids))
    tracked = TrackedStream(concat_events(parts), np.concatenate(assign_parts), centroids, list(centroids))
    tracked.warp_centers = [
        robust_center(tracked.track_events(prop)) if np.any(tracked.assignments == prop) else centroids[prop]
        for prop in range(len(centroids))
    ]
    return tracked


def reference_estimate_track(track_events, center, cfg, prop_id=0):
    """The batch loop over contiguous bundles, skipping each empty one,
    with downsampling seeded by the bundle's index."""
    estimates, stop_reasons = [], []
    bundles = reference_slice_bundles(track_events, cfg.dt_us)
    cfg_lo, cfg_hi = rpm_to_rad_s(cfg.bracket_rpm_lo), rpm_to_rad_s(cfg.bracket_rpm_hi)
    i, omega_prior, spin = 0, None, +1
    while i < len(bundles):
        if len(bundles[i]) == 0:
            i += 1
            continue
        if omega_prior is None:
            acquired = _acquire(bundles[i].events, center, cfg, bundles[i].t_start)
            if acquired is None:
                i += 1
                continue
            omega_prior, spin = acquired
        grown = grow_batch(bundles, cfg, omega_prior, center, start=i, spin=spin)
        if len(grown.batch.bundles) < cfg.min_emit_bundles:
            if grown.reason is StopReason.CONSISTENCY:
                omega_prior = None
            i = grown.next_index
            continue
        batch_events = grown.batch.events()
        used = (
            density_downsample(batch_events, cfg, seed=cfg.seed + i)
            if cfg.sample_fraction < 1.0
            else batch_events
        )
        lo, hi = max(cfg_lo, 0.5 * omega_prior), min(cfg_hi, 1.5 * omega_prior)
        if not hi > lo:
            lo, hi = cfg_lo, cfg_hi
        try:
            est = estimate_speed(
                used, center, (lo, hi), tol_rad_s=rpm_to_rad_s(cfg.tol_rpm), eps=cfg.epsilon,
                n_grid=cfg.n_grid, prop_id=prop_id, t_ref_us=grown.batch.t_start, spin=spin,
                prior_rad_s=omega_prior,
            )
            estimates.append(est)
            stop_reasons.append(grown.reason)
            omega_prior = None if grown.reason is StopReason.CONSISTENCY else est.omega_rad_s
        except (DegenerateInputError, EstimationError):
            omega_prior = None
        i = grown.next_index
    return estimates, stop_reasons


# --- streams ---


def noisy_two_rotors():
    noise = NoiseSpec(background_rate=10.0, hot_pixel_count=20, hot_pixel_rate=2000.0, vibration_jitter_px=0.5)
    specs = [make_spec(center=(60.0, 60.0), phase=0.1), make_spec(rpm=4000.0, center=(190.0, 150.0), phase=1.3)]
    events, _ = simulate_propellers(specs, noise, duration_us=60_000, tick_us=50, seed=4, geometry=SensorGeometry(260, 210))
    return events


def with_hole(hole_us=10_000):
    """One rotor with no events in [20 ms, 20 ms + hole_us)."""
    events, _ = simulate_propellers([make_spec()], NO_NOISE, duration_us=50_000, tick_us=50, seed=1)
    t0 = int(events.t[0])
    return events.select(np.flatnonzero((events.t < t0 + 20_000) | (events.t >= t0 + 20_000 + hole_us)))


def sparse_windows(k):
    """A rotor's first 5 ms, then windows of 1, 2 and 3 distinct pixels,
    so some windows hold fewer distinct pixels than k."""
    rotor, _ = simulate_propellers([make_spec()], NO_NOISE, duration_us=5_000, tick_us=50, seed=2)
    t0 = int(rotor.t[0])
    extra = [(t0 + 5_000 * w + j, 10 + 7 * j, 12 + 5 * j, 1 - 2 * (j % 2)) for w, n in ((2, 1), (4, 2), (6, 3)) for j in range(n)]
    t, x, y, p = (np.array(column) for column in zip(*extra))
    return Events(np.concatenate([rotor.t, t]), np.concatenate([rotor.x, x]), np.concatenate([rotor.y, y]),
                  np.concatenate([rotor.p, p]))


CASES = {
    "noisy_two_rotors": (noisy_two_rotors, PipelineConfig(window_us=20_000, k_props=2, bracket_rpm_lo=1000, bracket_rpm_hi=6000)),
    "hole": (with_hole, PipelineConfig(window_us=5_000, bracket_rpm_lo=1000, bracket_rpm_hi=6000, dt_us=2000, sample_fraction=0.5)),
    **{
        f"sparse_k{k}": (lambda k=k: sparse_windows(k), PipelineConfig(filter_enabled=False, k_props=k, bracket_rpm_lo=1000, bracket_rpm_hi=6000))
        for k in range(1, 5)
    },
}


def assert_same_tracked(got, want):
    assert got.events == want.events
    assert np.array_equal(got.assignments, want.assignments)
    assert got.centroids == want.centroids
    assert got.warp_centers == want.warp_centers


@pytest.mark.parametrize("case", CASES)
def test_preprocess_matches_the_window_clock_walk(case):
    make, cfg = CASES[case]
    events = make()
    got, want = preprocess_stream(events, cfg), reference_preprocess_stream(events, cfg)
    assert_same_tracked(got, want)
    if case.startswith("sparse"):
        assert (got.assignments == -1).any() == (cfg.k_props > 1)


@pytest.mark.parametrize("case", CASES)
def test_estimate_matches_the_empty_skipping_loop(case):
    make, cfg = CASES[case]
    tracked = preprocess_stream(make(), cfg)
    assert tracked.warp_centers
    for prop, center in enumerate(tracked.warp_centers):
        events = tracked.track_events(prop)
        got = estimate_track(events, center, cfg, prop_id=prop)
        want_estimates, want_reasons = reference_estimate_track(events, center, cfg, prop_id=prop)
        assert got.estimates == want_estimates
        assert got.stop_reasons == want_reasons


@pytest.mark.parametrize("dt_us", [1, 7, 1000, 2000])
@pytest.mark.parametrize("case", ["noisy_two_rotors", "hole"])
def test_bundles_are_the_non_empty_contiguous_ones(case, dt_us):
    events = CASES[case][0]()
    want = [b for b in reference_slice_bundles(events, dt_us) if len(b)]
    got = slice_bundles(events, dt_us)
    assert [(b.t_start, b.t_end) for b in got] == [(b.t_start, b.t_end) for b in want]
    assert all(g.events == w.events for g, w in zip(got, want))


def test_hole_stops_growth_for_consistency():
    events = with_hole()
    cfg = CASES["hole"][1]
    bundles = slice_bundles(events, cfg.dt_us)
    gap = next(m for m in range(1, len(bundles)) if bundles[m].t_start != bundles[m - 1].t_end)
    grown = grow_batch(bundles, cfg, rpm_to_rad_s(3000), (60.0, 60.0), start=gap - 3)
    assert grown.reason is StopReason.CONSISTENCY
    assert grown.next_index == gap


def test_far_timestamp(tmp_path):
    """Two opposite-polarity events at t = 1e12 us after a 20 ms rotor: the
    walks visit only what holds events, so the gap costs nothing."""
    rotor, _ = simulate_propellers([make_spec()], NO_NOISE, duration_us=20_000, tick_us=50, seed=1)
    far = np.uint64(10**12)
    events = Events(
        np.concatenate([rotor.t, [far, far]]), np.concatenate([rotor.x, [5, 6]]),
        np.concatenate([rotor.y, [5, 6]]), np.concatenate([rotor.p, [1, -1]]),
    )
    assert len(slice_bundles(events, 1000)) <= len(events)
    path = tmp_path / "events.bin"
    write_events(events, SensorGeometry(130, 130), str(path), "bin")
    (tmp_path / "c.cfg").write_text("filter_enabled=0\nbracket_rpm_lo=1000\nbracket_rpm_hi=6000\n")
    config = ["--config", str(tmp_path / "c.cfg")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(config + ["preprocess", str(path), "--out", str(tmp_path / "pre")]) == 0
        assert main(config + ["estimate", str(path), "--out", str(tmp_path / "est")]) == 0
    rows = (tmp_path / "est" / "speeds.csv").read_text().splitlines()[1:]
    assert rows and all(int(row.split(",")[0]) < 20_000 for row in rows)
