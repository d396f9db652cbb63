import math
from collections import Counter

import numpy as np
import pytest

from rotorsense.batching import (
    StopReason,
    consistency_rate,
    density_downsample,
    grow_batch,
    local_density,
    voxel_density,
)
from rotorsense.dynamics import rpm_to_rad_s
from rotorsense.config import PipelineConfig
from rotorsense.events import EventBundle, Events, slice_bundles
from rotorsense.motion import ObjectiveEvaluator, patch_for
from rotorsense.events import concat_events
from rotorsense.sim import NO_NOISE, PropellerSpec, StepSpeed, simulate_propellers
from propellers import CENTER, make_spec


def make_events(rows):
    t, x, y, p = zip(*rows)
    return Events(np.array(t, np.uint64), np.array(x), np.array(y), np.array(p, np.int8))


def make_step_stream(seed, dt_us=2000, step_bundle=4, rpm_a=3000.0, rpm_b=4500.0):
    """Stream whose speed steps exactly at a bundle edge.

    Two passes: the first locates the bundle grid (anchored at the first
    event), the second re-simulates with the step on the edge of the
    requested bundle.
    """
    rng = np.random.default_rng(seed)
    phase = float(rng.uniform(0, 2 * np.pi))
    probe = PropellerSpec(
        center=(50.0, 50.0), n_blades=2, blade_length=30.0, blade_width=5.0,
        initial_phase=phase, speed_profile=StepSpeed([(0, rpm_a)]),
    )
    ev0, _ = simulate_propellers([probe], NO_NOISE, duration_us=30_000, tick_us=40, seed=seed)
    t_step = slice_bundles(ev0, dt_us)[step_bundle].t_start
    spec = PropellerSpec(
        center=(50.0, 50.0), n_blades=2, blade_length=30.0, blade_width=5.0,
        initial_phase=phase, speed_profile=StepSpeed([(0, rpm_a), (t_step, rpm_b)]),
    )
    events, _ = simulate_propellers([spec], NO_NOISE, duration_us=30_000, tick_us=30, seed=seed)
    return slice_bundles(events, dt_us), t_step


class TestConsistencyRate:
    def test_identical_bundles_rate_zero(self, clean_3000):
        events, _ = clean_3000
        bundles = slice_bundles(events, 2000)
        rate = consistency_rate(bundles[1], bundles[1], rpm_to_rad_s(3000), CENTER)
        assert rate == 0.0

    def test_rate_matches_independent_recomputation(self, clean_3000):
        """Recompute |S_m - S_k| / S_k from scratch (log of the combined
        reward on a shared patch) and compare."""
        events, _ = clean_3000
        bundles = slice_bundles(events, 2000)
        omega = rpm_to_rad_s(3000.0)
        last, cand = bundles[2], bundles[3]
        both = concat_events([last.events, cand.events])
        half_size = patch_for(both, CENTER)
        s_last = math.log(ObjectiveEvaluator(last.events, CENTER, last.t_start, half_size).value(omega))
        s_cand = math.log(ObjectiveEvaluator(cand.events, CENTER, last.t_start, half_size).value(omega))
        expected = abs(s_cand - s_last) / abs(s_last)
        assert consistency_rate(last, cand, omega, CENTER) == pytest.approx(expected, rel=1e-12)

    def test_empty_candidate_rejected(self, clean_3000):
        events, _ = clean_3000
        bundles = slice_bundles(events, 2000)
        empty = EventBundle(events=Events.empty(), t_start=0, t_end=2000)
        assert consistency_rate(bundles[0], empty, 100.0, CENTER) == math.inf

    def test_speed_step_exceeds_threshold(self):
        bundles, t_step = make_step_stream(seed=0)
        step_idx = next(i for i, b in enumerate(bundles) if b.t_start >= t_step)
        omega_old = rpm_to_rad_s(3000.0)
        rate_before = consistency_rate(bundles[step_idx - 2], bundles[step_idx - 1], omega_old, (50.0, 50.0))
        rate_at_step = consistency_rate(bundles[step_idx - 1], bundles[step_idx], omega_old, (50.0, 50.0))
        assert rate_before < 0.3
        assert rate_at_step > 0.3


class TestGrowBatch:
    def test_constant_speed_hits_bundle_limit(self, clean_3000):
        events, _ = clean_3000
        bundles = slice_bundles(events, 2000)
        cfg = PipelineConfig(dt_us=2000, beta=8)
        grown = grow_batch(bundles, cfg, rpm_to_rad_s(3000), CENTER)
        assert grown.reason is StopReason.BUNDLE_LIMIT
        assert len(grown.batch.bundles) == 8
        assert grown.next_index == 8

    def test_step_stops_with_consistency_at_step_bundle(self):
        bundles, t_step = make_step_stream(seed=1)
        cfg = PipelineConfig(dt_us=2000, beta=8)
        grown = grow_batch(bundles, cfg, rpm_to_rad_s(3000), (50.0, 50.0))
        assert grown.reason is StopReason.CONSISTENCY
        assert len(grown.batch.bundles) == 4
        assert bundles[grown.next_index].t_start == t_step

    def test_single_bundle_stream_end(self):
        events = make_events([(t, 10, 10, 1) for t in range(0, 900, 100)])
        bundles = slice_bundles(events, 1000)
        cfg = PipelineConfig(dt_us=1000)
        grown = grow_batch(bundles, cfg, 100.0, (10.0, 10.0))
        assert grown.reason is StopReason.STREAM_END
        assert len(grown.batch.bundles) == 1

    def test_a_bundle_too_far_to_score_stops_for_consistency(self, clean_3000):
        # one event 60000 px from the rotor: its bundle's patch is too large
        events, _ = clean_3000
        stray = Events(np.array([5500], np.uint64), np.array([60000]), np.array([60]), np.array([1], np.int8))
        bundles = slice_bundles(concat_events([events.time_slice(0, 20_000), stray]), 1000)
        grown = grow_batch(bundles, PipelineConfig(dt_us=1000, beta=8), rpm_to_rad_s(3000), CENTER)
        assert grown.reason is StopReason.CONSISTENCY
        assert int(bundles[grown.next_index].events.x.max()) == 60000  # growth stopped at the stray's bundle
        assert len(grown.batch.bundles) == grown.next_index == 5

    def test_growth_deterministic(self, clean_3000):
        events, _ = clean_3000
        bundles = slice_bundles(events, 2000)
        cfg = PipelineConfig(dt_us=2000, beta=6)
        a = grow_batch(bundles, cfg, rpm_to_rad_s(3000), CENTER)
        b = grow_batch(bundles, cfg, rpm_to_rad_s(3000), CENTER)
        assert a.reason == b.reason and a.next_index == b.next_index
        assert len(a.batch.events()) == len(b.batch.events())


class TestLocalDensity:
    def test_exact_against_brute_force(self, rng):
        n = 300
        x = rng.integers(0, 40, n)
        y = rng.integers(0, 40, n)
        t = np.sort(rng.integers(0, 5000, n)).astype(np.uint64)
        events = Events(t, x, y, np.ones(n, np.int8))
        rs, rt = 2.5, 250.0
        got = local_density(events, rs, rt)
        xf, yf, tf = x.astype(float), y.astype(float), t.astype(float)
        for i in range(0, n, 17):
            dx = xf - xf[i]
            dy = yf - yf[i]
            dt = tf - tf[i]
            expected = int(((dx * dx + dy * dy <= rs * rs) & (np.abs(dt) <= rt)).sum())
            assert got[i] == expected

    def test_isolated_event_density_one(self):
        events = make_events([(0, 0, 0, 1), (10_000, 200, 200, 1)])
        d = local_density(events, 3.0, 300.0)
        assert list(d) == [1, 1]


def brute_voxel_counts(events, space_radius_px, time_radius_us):
    side = math.ceil(space_radius_px)
    slab = math.ceil(time_radius_us)
    t0 = int(events.t[0])
    keys = [
        (int(x) // side, int(y) // side, (int(t) - t0) // slab)
        for x, y, t in zip(events.x, events.y, events.t)
    ]
    tally = Counter(keys)
    return [tally[k] for k in keys]


class TestVoxelDensity:
    def test_matches_brute_force_voxel_count(self, rng):
        n = 2000
        x = rng.integers(0, 40, n)
        y = rng.integers(0, 40, n)
        t = np.sort(rng.integers(10_000, 15_000, n)).astype(np.uint64)
        events = Events(t, x, y, np.ones(n, np.int8))
        got = voxel_density(events, 2.5, 250.0)
        assert got.dtype == np.int64
        assert got.tolist() == brute_voxel_counts(events, 2.5, 250.0)
        assert got.min() >= 1

    def test_isolated_event_weight_one(self):
        rows = [(k, 10, 10, 1) for k in range(50)]
        rows.append((25, 200, 200, 1))  # isolated in space
        events = make_events(rows)
        w = voxel_density(events, 3.0, 300.0)
        isolated = w[np.asarray(events.x) == 200]
        clustered = w[np.asarray(events.x) == 10]
        assert isolated[0] == 1
        assert clustered.min() > 1

    def test_extreme_coordinates_and_time_span(self, rng):
        # 1 px x 1 us voxels over 2^40 time slabs: a naive x * y * t key
        # needs ~2^72 and, wrapped to 64 bits, merges x columns 256 apart
        n = 500
        x = rng.choice([65023, 65279, 65535], n)
        y = rng.integers(65534, 65536, n)
        t = rng.integers(0, 5, n).astype(np.uint64)
        t[n // 2:] += np.uint64(2**40 - 5)
        events = Events(np.sort(t), x, y, np.ones(n, np.int8))
        got = voxel_density(events, 1.0, 1.0)
        assert got.tolist() == brute_voxel_counts(events, 1.0, 1.0)
        assert int(events.t[-1] - events.t[0]) >= 2**40 - 9
        assert got.max() > 1

    def test_empty(self):
        assert voxel_density(Events.empty(), 2.0, 200.0).size == 0


def reference_voxel_density(events, space_radius_px, time_radius_us):
    """voxel_density as one np.unique of the voxel keys, the time slabs
    ranked by counting slab changes."""
    side = int(math.ceil(space_radius_px))
    cx = events.x.astype(np.int64) // side
    cy = events.y.astype(np.int64) // side
    ct = (events.t - events.t[0]) // np.uint64(math.ceil(time_radius_us))
    ct_rank = np.concatenate([[0], np.cumsum(ct[1:] != ct[:-1])])
    key = (cx * (int(cy.max()) + 1) + cy) * (int(ct_rank[-1]) + 1) + ct_rank
    _, inverse, counts = np.unique(key, return_inverse=True, return_counts=True)
    return counts[inverse]


class TestVoxelDensityAgainstTheSort:
    @pytest.mark.parametrize("radii", [(2.0, 200.0), (1.0, 1.0), (3.5, 250.0), (40.0, 5000.0)])
    def test_rotor_batches(self, clean_3000, radii):
        events, _ = clean_3000
        for t0 in range(0, 50_000, 8_000):
            batch = events.time_slice(t0, t0 + 8_000)
            assert np.array_equal(voxel_density(batch, *radii), reference_voxel_density(batch, *radii))

    def test_a_batch_far_from_the_origin_is_counted_without_a_sort(self, clean_3000, monkeypatch):
        # the voxel box starts at the batch's own corner, not at pixel 0
        events, _ = clean_3000
        batch = events.time_slice(0, 8_000)
        far = Events(batch.t, batch.x + 60000, batch.y + 60000, batch.p)
        want = reference_voxel_density(far, 2.0, 200.0)
        monkeypatch.setattr(np, "unique", None)
        assert np.array_equal(voxel_density(far, 2.0, 200.0), want)

    @pytest.mark.parametrize("far", [10**12, 2**64 - 1])
    def test_a_time_gap_and_a_stray_pixel(self, clean_3000, far):
        events, _ = clean_3000
        batch = events.time_slice(0, 8_000)
        extra = Events(np.array([far, far], np.uint64), np.array([60000, 5]), np.array([70, 65535]), np.ones(2, np.int8))
        both = concat_events([batch, extra])
        assert np.array_equal(voxel_density(both, 2.0, 200.0), reference_voxel_density(both, 2.0, 200.0))


class TestDensityDownsample:
    def test_fraction_one_identity(self, clean_3000):
        events, _ = clean_3000
        batch = events.time_slice(0, 5000)
        cfg = PipelineConfig(sample_fraction=1.0)
        assert density_downsample(batch, cfg, seed=3) == batch

    def test_deterministic_per_seed(self, clean_3000):
        events, _ = clean_3000
        batch = events.time_slice(0, 5000)
        cfg = PipelineConfig(sample_fraction=0.25)
        a = density_downsample(batch, cfg, seed=3)
        b = density_downsample(batch, cfg, seed=3)
        c = density_downsample(batch, cfg, seed=4)
        assert a == b
        assert not (a == c)

    def test_output_size_and_order(self, clean_3000):
        events, _ = clean_3000
        batch = events.time_slice(0, 5000)
        cfg = PipelineConfig(sample_fraction=0.3)
        kept = density_downsample(batch, cfg, seed=1)
        assert len(kept) == math.ceil(0.3 * len(batch))
        assert np.all(np.diff(kept.t.astype(np.int64)) >= 0)

    def test_dense_cluster_dominates_sparse(self, rng):
        """900-event dense cluster vs 100-event sparse cluster at
        fraction 0.1: kept events favor the dense cluster at >= 9:1 in
        expectation (binomial test at alpha 0.01 pooled over 50 seeds)."""
        dense = rng.normal((30, 30), 1.2, size=(900, 2))
        sparse = rng.normal((170, 170), 1.2, size=(100, 2))
        pts = np.vstack([dense, sparse])
        t = np.sort(rng.integers(0, 2_000, 1000)).astype(np.uint64)
        order = rng.permutation(1000)
        events = Events(
            t,
            np.clip(pts[order, 0], 0, 250).astype(int),
            np.clip(pts[order, 1], 0, 250).astype(int),
            np.ones(1000, np.int8),
        )
        is_dense = order < 900
        cfg = PipelineConfig(sample_fraction=0.1, space_radius_px=3.0, time_radius_us=300.0)
        kept_dense = kept_total = 0
        for seed in range(50):
            kept_idx = []
            kept = density_downsample(events, cfg, seed=seed)
            # map kept events back by exact (t, x, y) identity
            key_all = events.t.astype(np.int64) * 10_000_000 + events.x.astype(np.int64) * 1000 + events.y
            key_kept = kept.t.astype(np.int64) * 10_000_000 + kept.x.astype(np.int64) * 1000 + kept.y
            pos = {k: i for i, k in enumerate(key_all.tolist())}
            kept_idx = [pos[k] for k in key_kept.tolist()]
            kept_dense += int(is_dense[kept_idx].sum())
            kept_total += len(kept_idx)
        # H0: dense fraction = 0.9; one-sided rejection bound at alpha=0.01
        p0 = 0.9
        bound = p0 - 2.326 * math.sqrt(p0 * (1 - p0) / kept_total)
        assert kept_dense / kept_total >= bound

    def test_isolated_noise_has_lower_selection_weight(self):
        # proportionality is direct: phi(dense) > phi(isolated)
        rows = [(k, 10, 10, 1) for k in range(50)]
        rows.append((25, 200, 200, 1))  # isolated in space
        events = make_events(rows)
        d = local_density(events, 3.0, 300.0)
        isolated = d[np.asarray(events.x) == 200]
        clustered = d[np.asarray(events.x) == 10]
        assert isolated[0] == 1
        assert clustered.min() > 1

    def test_speed_estimate_stable_under_downsampling(self):
        """Estimates from a quarter of a 16 ms batch stay within 0.5% of
        the full-batch estimate."""
        from rotorsense.motion import estimate_speed

        center = (70.0, 70.0)
        spec = make_spec(center=center, blade_length=60.0)
        events, _ = simulate_propellers([spec], NO_NOISE, duration_us=64_000, tick_us=40, seed=6)
        cfg = PipelineConfig(sample_fraction=0.25)
        bracket = (rpm_to_rad_s(1500), rpm_to_rad_s(4500))
        for start in (0, 16_000, 32_000, 48_000):
            batch = events.time_slice(start, start + 16_000)
            full = estimate_speed(batch, center, bracket, t_ref_us=start)
            kept = density_downsample(batch, cfg, seed=start)
            sampled = estimate_speed(kept, center, bracket, t_ref_us=start)
            assert abs(sampled.omega_rad_s - full.omega_rad_s) / full.omega_rad_s <= 0.005
