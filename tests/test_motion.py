import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from rotorsense.dynamics import rpm_to_rad_s
from rotorsense.errors import ConfigError, DegenerateInputError, EstimationError
from rotorsense import motion
from rotorsense.events import Events, SensorGeometry, concat_events
from rotorsense.motion import (
    H_MAX_DEFAULT,
    LATTICE_STRIDE,
    PRIOR_WINDOW_HALF_WIDTH,
    ObjectiveEvaluator,
    brent_max,
    estimate_speed,
    patch_for,
)
from rotorsense.sim import NO_NOISE, simulate_propellers
from propellers import CENTER, make_spec
from oracles import accumulate, blade_mask, reward_accumulation, reward_sparsity, warp


def make_events(rows):
    t, x, y, p = zip(*rows)
    return Events(np.array(t, np.uint64), np.array(x), np.array(y), np.array(p, np.int8))


def blade_tip_events(omega, n=8, radius=40.0, center=(100.0, 100.0)):
    """n events 1 ms apart on a circle, each where a blade tip turning at
    omega stands at its time: only candidates near omega stack two of
    them on one pixel."""
    t = np.arange(n) * 1000
    angle = -omega * t * 1e-6
    events = Events(
        t.astype(np.uint64),
        np.round(center[0] + radius * np.cos(angle)).astype(int),
        np.round(center[1] + radius * np.sin(angle)).astype(int),
        np.ones(n, np.int8),
    )
    return events, center


class TestWarp:
    def test_zero_speed_is_identity(self):
        events = make_events([(0, 10, 20, 1), (500, 30, 40, -1)])
        warped = warp(events, (15.0, 25.0), t_ref_us=0, omega_rad_s=0.0)
        assert warped[0] == pytest.approx([10 - 15.0, 20 - 25.0])
        assert warped[1] == pytest.approx([30 - 15.0, 40 - 25.0])

    def test_quarter_turn_example(self):
        """Center-relative (10, 0) with omega*(t - t_ref) = pi/2 maps to
        (0, 10): the inverse of the planar rotation matrix is
        [[0, -1], [1, 0]] at that angle."""
        dt_us = 1000
        omega = (math.pi / 2) / (dt_us * 1e-6)
        events = make_events([(dt_us, 20, 10, 1)])
        warped = warp(events, (10.0, 10.0), t_ref_us=0, omega_rad_s=omega)
        assert warped[0] == pytest.approx([0.0, 10.0], abs=1e-9)

    def test_event_at_reference_time_unmoved(self):
        events = make_events([(777, 42, 13, 1)])
        for omega in (0.0, 100.0, -512.3):
            warped = warp(events, (40.0, 10.0), t_ref_us=777, omega_rad_s=omega)
            assert warped[0] == pytest.approx([2.0, 3.0])

    @settings(max_examples=50, deadline=None)
    @given(
        x=st.integers(0, 200), y=st.integers(0, 200), t=st.integers(0, 100_000),
        omega=st.floats(-2000, 2000, allow_nan=False),
    )
    def test_radius_preserved(self, x, y, t, omega):
        events = make_events([(t, x, y, 1)])
        warped = warp(events, (50.0, 50.0), t_ref_us=20_000, omega_rad_s=omega)
        r_before = math.hypot(x - 50.0, y - 50.0)
        r_after = math.hypot(warped[0, 0], warped[0, 1])
        assert r_after == pytest.approx(r_before, rel=1e-9, abs=1e-9)

    def test_order_retained(self):
        events = make_events([(0, 1, 1, 1), (10, 2, 2, 1), (20, 3, 3, 1)])
        warped = warp(events, (0.0, 0.0), 0, 0.0)
        assert warped[:, 0] == pytest.approx([1.0, 2.0, 3.0])


class TestAccumulate:
    def test_three_points_one_pixel(self):
        pts = np.array([[1.2, 1.3], [1.4, 1.8], [1.9, 1.1]])
        image = accumulate(pts, 4, center=(0.0, 0.0))
        assert image.counts.sum() == 3
        assert image.counts[1 + 4, 1 + 4] == 3

    def test_empty_input(self):
        image = accumulate(np.zeros((0, 2)), 3, center=(5.0, 5.0))
        assert image.counts.sum() == 0 and image.n_dropped == 0

    def test_conservation(self, rng):
        pts = rng.uniform(-10, 10, size=(500, 2))
        image = accumulate(pts, 12, center=(40.0, 40.0))
        assert image.counts.sum() + image.n_dropped == 500
        assert image.counts.sum() == 500  # patch covers all points

    def test_outside_points_dropped_and_counted(self):
        pts = np.array([[100.0, 100.0], [0.0, 0.0]])
        image = accumulate(pts, 2, center=(0.0, 0.0))
        assert image.counts.sum() == 1
        assert image.n_dropped == 1


class TestRewards:
    def test_accumulation_example(self):
        h = np.array([[2, 0]])
        assert reward_accumulation(h) == pytest.approx(math.exp(2) + 1.0)  # ~8.389

    def test_accumulation_all_zero_patch(self):
        assert reward_accumulation(np.zeros((10, 10))) == pytest.approx(100.0)

    def test_accumulation_rewards_concentration(self):
        # moving one event from a 1-count pixel onto a 3-count pixel
        before = np.array([3, 1, 0])
        after = np.array([4, 0, 0])
        assert reward_accumulation(after) > reward_accumulation(before)

    def test_sparsity_empty_pixel_term(self):
        assert reward_sparsity(np.array([[0]]), eps=1.0) == pytest.approx(1.0)

    def test_sparsity_single_count_term(self):
        assert reward_sparsity(np.array([[1]]), eps=1.0) == pytest.approx(1.0 / math.e)

    def test_sparsity_rewards_fewer_occupied_pixels(self):
        spread = np.array([1, 1, 1, 1])
        packed = np.array([4, 0, 0, 0])
        assert reward_sparsity(packed, eps=1.0) > reward_sparsity(spread, eps=1.0)

    def test_sparsity_requires_positive_eps(self):
        with pytest.raises(ConfigError):
            reward_sparsity(np.array([1]), eps=0.0)

    def test_cap_prevents_overflow(self):
        h = np.array([[10_000]])
        value = reward_accumulation(h, h_max=300.0)
        assert np.isfinite(value)
        assert value == pytest.approx(math.exp(300.0))


class TestObjective:
    def test_zero_event_batch_closed_form(self):
        value = ObjectiveEvaluator(Events.empty(), (0.0, 0.0), 0, 5, eps=0.5).value(100.0)
        assert value == pytest.approx(11 * 11 * (1.0 + 1.0 / 0.5))

    def test_polarity_invariance(self, clean_3000):
        events, _ = clean_3000
        batch = events.time_slice(0, 5000)
        flipped = Events(batch.t, batch.x, batch.y, (-batch.p.astype(np.int8)))
        a = ObjectiveEvaluator(batch, CENTER, 0).value(rpm_to_rad_s(3000))
        b = ObjectiveEvaluator(flipped, CENTER, 0).value(rpm_to_rad_s(3000))
        assert a == b

    def test_true_speed_beats_neighbors(self, clean_3000):
        events, _ = clean_3000
        batch = events.time_slice(0, 8000)
        omega = rpm_to_rad_s(3000.0)
        at_true = ObjectiveEvaluator(batch, CENTER, 0).value(omega)
        assert at_true > ObjectiveEvaluator(batch, CENTER, 0).value(0.9 * omega)
        assert at_true > ObjectiveEvaluator(batch, CENTER, 0).value(1.1 * omega)

    def test_matches_manual_composition(self, clean_3000):
        """value == r_acc + r_spa of the accumulated warp (same patch)."""
        events, _ = clean_3000
        batch = events.time_slice(0, 3000)
        omega = rpm_to_rad_s(3000.0)
        half_size = patch_for(batch, CENTER)
        warped = warp(batch, CENTER, 0, omega)
        image = accumulate(warped, half_size, CENTER, 0)
        manual = reward_accumulation(image) + reward_sparsity(image, eps=1.0)
        fused = ObjectiveEvaluator(batch, CENTER, 0, half_size, eps=1.0).value(omega)
        assert fused == pytest.approx(manual, rel=1e-9)


def floor_and_mask_indices(evaluator, c, s):
    """The pixel indices as the kernel computed them with a bounds mask:
    floor of the shifted coordinates, events outside the patch dropped."""
    side = evaluator.side
    ix = np.floor(c * evaluator._dx - s * evaluator._dy + evaluator._x_shift).astype(np.int32)
    iy = np.floor(s * evaluator._dx + c * evaluator._dy + evaluator._y_shift).astype(np.int32)
    inside = (ix >= 0) & (ix < side) & (iy >= 0) & (iy < side)
    return (ix * side + iy)[inside]


def disc_events(rng, n, center, radius):
    """n events at random times, spread over a disc around center."""
    r = radius * np.sqrt(rng.random(n))
    a = rng.uniform(0, 2 * np.pi, n)
    return Events(
        np.sort(rng.integers(0, 8000, n)).astype(np.uint64),
        np.round(center[0] + r * np.cos(a)).astype(int),
        np.round(center[1] + r * np.sin(a)).astype(int),
        np.ones(n, np.int8),
    )


class TestIndexKernel:
    @pytest.mark.parametrize("seed", range(4))
    def test_indices_equal_floor_and_mask_across_speeds(self, seed):
        rng = np.random.default_rng(seed)
        center = (float(rng.uniform(60, 61)), float(rng.uniform(60, 61)))
        events = disc_events(rng, 3000, center, float(rng.uniform(5, 58)))
        evaluator = ObjectiveEvaluator(events, center, int(rng.integers(0, 8000)), spin=int(rng.choice([-1, 1])))
        omegas = np.concatenate([
            np.linspace(rpm_to_rad_s(-20000), rpm_to_rad_s(20000), 97), rng.uniform(-2100.0, 2100.0, 16),
        ])
        for omega in omegas:  # the (cos, sin) that value and value_grid score
            theta = evaluator._dt * np.float32(omega)
            c, s = np.cos(theta), np.sin(theta)
            got = evaluator._indices_from(c, s)
            assert got.size == len(events)
            assert np.array_equal(got, floor_and_mask_indices(evaluator, c, s))

    def test_a_patch_one_pixel_too_small_raises(self):
        # the farthest event lies 25.5 px from the center: a 26 px half-size
        # holds every warp, 25 px does not
        rng = np.random.default_rng(5)
        center = (40.5, 40.0)
        disc = disc_events(rng, 500, center, 24.0)
        events = concat_events([disc, make_events([(9000, 66, 40, 1)])])
        evaluator = ObjectiveEvaluator(events, center, 0, 26)
        for omega in np.linspace(-2000.0, 2000.0, 41):
            theta = evaluator._dt * np.float32(omega)
            c, s = np.cos(theta), np.sin(theta)
            assert np.array_equal(evaluator._indices_from(c, s), floor_and_mask_indices(evaluator, c, s))
        with pytest.raises(ConfigError, match="does not hold"):
            ObjectiveEvaluator(events, center, 0, 25)

    def test_a_patch_beyond_the_largest_image_is_degenerate(self):
        events = make_events([(0, 10, 10, 1), (100, 6000, 10, 1)])
        assert (2 * patch_for(events, (10.0, 10.0)) + 1) ** 2 > motion.MAX_PATCH_AREA
        with pytest.raises(DegenerateInputError, match="patch exceeds"):
            ObjectiveEvaluator(events, (10.0, 10.0), 0)

    @settings(max_examples=60, deadline=None)
    @given(
        half_size=st.integers(0, 6),
        eps=st.sampled_from([1e-9, 1e-3, 0.5, 1.0, 7.0, 1e6]),
        data=st.data(),
    )
    def test_table_score_equals_the_exp_formula(self, half_size, eps, data):
        """The lookup tables score a count image bit for bit as exp and a
        divide per occupied pixel did, counts capped at H_MAX_DEFAULT."""
        side = 2 * half_size + 1
        counts = data.draw(arrays(np.int64, side * side, elements=st.integers(0, 400)))
        evaluator = ObjectiveEvaluator(Events.empty(), (0.0, 0.0), 0, half_size, eps=eps)
        occupied = np.minimum(counts[counts > 0].astype(np.float64), H_MAX_DEFAULT)
        e = np.exp(occupied)
        formula = float(e.sum()) + float((1.0 / (e - 1.0 + eps)).sum()) + (side * side - occupied.size) * (1.0 + 1.0 / eps)
        before = counts.copy()
        assert evaluator._score(counts) == formula
        assert np.array_equal(counts, before)


class TestBrent:
    def test_finds_parabola_peak(self):
        x, fx = brent_max(lambda v: -((v - 3.7) ** 2), 0.0, 10.0, tol=1e-6)
        assert x == pytest.approx(3.7, abs=1e-5)
        assert fx == pytest.approx(0.0, abs=1e-9)

    def test_handles_asymmetric_function(self):
        x, _ = brent_max(lambda v: math.sin(v), 0.0, math.pi, tol=1e-8)
        assert x == pytest.approx(math.pi / 2, abs=1e-6)


class TestEstimateSpeed:
    def test_clean_batch_accuracy(self, clean_3000):
        events, _ = clean_3000
        batch = events.time_slice(0, 8000)
        est = estimate_speed(batch, CENTER, (rpm_to_rad_s(1500), rpm_to_rad_s(4500)), tol_rad_s=0.02)
        assert abs(est.rpm - 3000.0) / 3000.0 <= 0.005
        assert est.n_events_used == len(batch)
        assert est.t_ref_us == int(batch.t[0])

    def test_objective_value_is_r_at_omega(self, clean_3000):
        events, _ = clean_3000
        batch = events.time_slice(0, 8000)
        est = estimate_speed(batch, CENTER, (rpm_to_rad_s(1500), rpm_to_rad_s(4500)))
        direct = ObjectiveEvaluator(batch, CENTER, est.t_ref_us).value(est.omega_rad_s)
        assert est.objective_value == direct

    def test_refinement_never_below_best_grid_point(self, clean_3000):
        events, _ = clean_3000
        batch = events.time_slice(0, 8000)
        evaluator = ObjectiveEvaluator(batch, CENTER, int(batch.t[0]))
        grid = np.linspace(rpm_to_rad_s(1500), rpm_to_rad_s(4500), 64)
        best_grid = float(evaluator.value_grid(grid).max())
        est = estimate_speed(batch, CENTER, (rpm_to_rad_s(1500), rpm_to_rad_s(4500)))
        assert est.objective_value >= best_grid - 1e-9 * best_grid

    def test_empty_batch_raises(self):
        with pytest.raises(EstimationError):
            estimate_speed(Events.empty(), (0.0, 0.0), (10.0, 100.0))

    def test_uniform_noise_is_degenerate(self, rng):
        # sparse uniform noise: no two warped events ever collide, so the
        # objective is exactly flat across the bracket
        n = 40
        x = rng.integers(0, 500, n)
        y = rng.integers(0, 500, n)
        t = np.sort(rng.integers(0, 5_000, n)).astype(np.uint64)
        events = Events(t, x, y, np.ones(n, np.int8))
        with pytest.raises(DegenerateInputError):
            estimate_speed(events, (250.0, 250.0), (rpm_to_rad_s(500), rpm_to_rad_s(1500)), n_grid=16)

    def test_invalid_bracket(self, clean_3000):
        events, _ = clean_3000
        with pytest.raises(ConfigError):
            estimate_speed(events, CENTER, (100.0, 100.0))

    def test_spin_argument_mirrors_search(self):
        spec = make_spec(spin=-1)
        events, _ = simulate_propellers([spec], NO_NOISE, duration_us=10_000, tick_us=50, seed=2)
        bracket = (rpm_to_rad_s(1500), rpm_to_rad_s(4500))
        with_spin = estimate_speed(events, CENTER, bracket, spin=-1)
        assert abs(with_spin.rpm - 3000.0) / 3000.0 <= 0.005


class TestWarpInvertsSimulation:
    def test_events_collapse_onto_blade_mask(self, clean_3000):
        """Warping a noise-free batch at the true speed lands >= 95% of
        events inside the (1 px dilated) blade silhouette at t_ref."""
        events, _ = clean_3000
        batch = events.time_slice(0, 8000)
        omega_true = rpm_to_rad_s(3000.0)
        spec = make_spec()
        geometry = SensorGeometry(121, 121)
        warped = warp(batch, CENTER, int(batch.t[0]), omega_true)
        phase_ref = spec.initial_phase - spec.spin * spec.speed_profile.phase_advance(0, int(batch.t[0]))
        mask = blade_mask(spec, phase_ref, geometry)
        from scipy.ndimage import binary_dilation

        mask = binary_dilation(mask, iterations=1)
        xs = np.floor(warped[:, 0] + CENTER[0]).astype(int)
        ys = np.floor(warped[:, 1] + CENTER[1]).astype(int)
        inside = (xs >= 0) & (xs < 121) & (ys >= 0) & (ys < 121)
        hits = mask[xs[inside], ys[inside]].sum()
        assert hits / len(batch) >= 0.95

    @staticmethod
    def speed_streams():
        for rpm in (1500.0, 3000.0, 8000.0):
            tick = max(5, min(50, int(0.8e6 / (rpm_to_rad_s(rpm) * 30.0))))
            spec = make_spec(rpm=rpm)
            events, _ = simulate_propellers([spec], NO_NOISE, duration_us=10_000, tick_us=tick, seed=4)
            yield rpm, events

    def test_peak_within_one_grid_step_across_speeds(self):
        for rpm, events in self.speed_streams():
            evaluator = ObjectiveEvaluator(events, CENTER, 0)
            grid = np.linspace(rpm_to_rad_s(rpm * 0.5), rpm_to_rad_s(rpm * 1.5), 64)
            values = evaluator.value_grid(grid)
            best = grid[int(np.argmax(values))]
            step = grid[1] - grid[0]
            assert abs(best - rpm_to_rad_s(rpm)) <= step

    def test_grid_scan_matches_direct_evaluation(self):
        """value_grid scores every candidate as value() does, bit for bit,
        on a uniform grid and on any other set of candidates."""
        for rpm, events in self.speed_streams():
            evaluator = ObjectiveEvaluator(events, CENTER, 0)
            grid = np.linspace(rpm_to_rad_s(rpm * 0.5), rpm_to_rad_s(rpm * 1.5), 64)
            for omegas in (grid, grid[[0, 1, 3, 7, 20, 40, 63]], grid[::-1], grid[:1], grid[:0]):
                np.testing.assert_array_equal(evaluator.value_grid(omegas), [evaluator.value(float(w)) for w in omegas])

    def test_grid_window_scores_equal_the_full_scan(self):
        for rpm, events in self.speed_streams():
            evaluator = ObjectiveEvaluator(events, CENTER, 0)
            grid = np.linspace(rpm_to_rad_s(rpm * 0.5), rpm_to_rad_s(rpm * 1.5), 64)
            full = evaluator.value_grid(grid)
            for start, stop in [(0, 64), (0, 1), (11, 54), (40, 64), (63, 64)]:
                np.testing.assert_array_equal(evaluator.value_grid(grid[start:stop]), full[start:stop])


def window_size(bracket, prior, n_grid=64):
    """Grid candidates inside a locked scan's window, from the documented rule."""
    spacing = (bracket[1] - bracket[0]) / (n_grid - 1)
    return min(n_grid, 2 * math.ceil(PRIOR_WINDOW_HALF_WIDTH * prior / spacing) + 1)


def window_lattice_size(bracket, prior, n_grid=64):
    """Lattice points a locked scan scores first: the multiples of
    LATTICE_STRIDE among the window's grid indices."""
    m = window_size(bracket, prior, n_grid)
    grid = np.linspace(*bracket, n_grid)
    j = int(np.clip(np.searchsorted(grid, prior) - m // 2, 0, n_grid - m))
    return len(range(-(-j // LATTICE_STRIDE) * LATTICE_STRIDE, j + m, LATTICE_STRIDE))


FULL_LATTICE = len(range(0, 64, LATTICE_STRIDE))
FINE = 2 * LATTICE_STRIDE - 1


@pytest.fixture()
def scanned_sizes(monkeypatch):
    """The number of candidates each value_grid call scores."""
    sizes = []
    original = ObjectiveEvaluator.value_grid

    def recording(self, omegas):
        sizes.append(len(omegas))
        return original(self, omegas)

    monkeypatch.setattr(ObjectiveEvaluator, "value_grid", recording)
    return sizes


class TestPriorWindow:
    """A locked track's prior confines the first scan to the lattice points
    within PRIOR_WINDOW_HALF_WIDTH x prior of it; anything the window
    cannot settle rescans the whole lattice. Either way the fine
    candidates around the lattice's best are scored last."""

    # truth 0.97x to 1.05x the prior, then speed steps of -29 % to +25 %:
    # all within the window, so only the window's lattice points are scored
    @pytest.mark.parametrize("factor", [0.95, 1.0, 1.03, 0.8, 1.25, 1.4])
    def test_truth_inside_the_window_scans_the_window_only(self, clean_3000, scanned_sizes, factor):
        events, _ = clean_3000
        batch = events.time_slice(0, 8000)
        prior = rpm_to_rad_s(3000.0) * factor
        bracket = (0.5 * prior, 1.5 * prior)
        windowed = estimate_speed(batch, CENTER, bracket, prior_rad_s=prior)
        assert scanned_sizes == [window_lattice_size(bracket, prior), FINE]
        assert scanned_sizes[0] < FULL_LATTICE
        assert windowed == estimate_speed(batch, CENTER, bracket)

    # truth 1.35x and 0.67x the prior: just past the window's upper and
    # lower edge, whose best lattice point then sits on the peak's flank
    @pytest.mark.parametrize("factor", [0.74, 1.5])
    def test_truth_past_the_window_edge_falls_back_to_the_grid(self, clean_3000, scanned_sizes, factor):
        events, _ = clean_3000
        batch = events.time_slice(0, 8000)
        prior = rpm_to_rad_s(3000.0) * factor
        bracket = (0.5 * prior, 1.5 * prior)
        windowed = estimate_speed(batch, CENTER, bracket, prior_rad_s=prior)
        assert scanned_sizes == [window_lattice_size(bracket, prior), FULL_LATTICE, FINE]
        assert windowed == estimate_speed(batch, CENTER, bracket, prior_rad_s=None)

    def test_flat_window_at_the_bracket_edge_falls_back(self, scanned_sizes):
        # only candidates near 3000 RPM stack two tip events on one pixel,
        # so the window at the low end of the bracket is exactly flat
        events, center = blade_tip_events(rpm_to_rad_s(3000.0))
        bracket = (rpm_to_rad_s(1000.0), rpm_to_rad_s(4150.0))
        evaluator = ObjectiveEvaluator(events, center, 0)
        m = window_size(bracket, bracket[0])
        values = evaluator.value_grid(np.linspace(*bracket, 64))
        assert np.all(values[:m] == values[0]) and values.max() > values[0]
        scanned_sizes.clear()
        windowed = estimate_speed(events, center, bracket, prior_rad_s=bracket[0])
        assert scanned_sizes == [window_lattice_size(bracket, bracket[0]), FULL_LATTICE, FINE]
        assert windowed == estimate_speed(events, center, bracket)
        assert abs(windowed.rpm - 3000.0) < 50.0

    def test_no_rotation_signal_is_still_degenerate(self, rng):
        n = 40
        x = rng.integers(0, 500, n)
        y = rng.integers(0, 500, n)
        t = np.sort(rng.integers(0, 5_000, n)).astype(np.uint64)
        events = Events(t, x, y, np.ones(n, np.int8))
        bracket = (rpm_to_rad_s(500), rpm_to_rad_s(1500))
        with pytest.raises(DegenerateInputError):
            estimate_speed(events, (250.0, 250.0), bracket, n_grid=16, prior_rad_s=rpm_to_rad_s(1000))


def full_grid_estimate(events, center, bracket, tol_rad_s=0.05, n_grid=64):
    """The scan the lattice replaced, kept as an oracle: score every grid
    candidate, then Brent between the argmax's neighbours."""
    evaluator = ObjectiveEvaluator(events, center, int(events.t[0]))
    grid = np.linspace(*bracket, n_grid)
    values = evaluator.value_grid(grid)
    best = int(np.argmax(values))
    omega, _ = brent_max(
        lambda w: math.log(evaluator.value(w)), grid[max(best - 1, 0)], grid[min(best + 1, n_grid - 1)], tol=tol_rad_s
    )
    value = evaluator.value(omega)
    if value < values[best]:
        omega, value = float(grid[best]), float(values[best])
    return omega, value


class TestLatticeScan:
    """The lattice of every LATTICE_STRIDE-th candidate, then the fine
    candidates around its best, finds what a scan of the whole grid finds."""

    @staticmethod
    def three_blade_stream():
        spec = dataclasses.replace(make_spec(rpm=4200.0), n_blades=3)
        events, _ = simulate_propellers([spec], NO_NOISE, duration_us=10_000, tick_us=20, seed=5)
        return 4200.0, events

    def test_same_estimate_as_the_full_grid(self):
        streams = [*TestWarpInvertsSimulation.speed_streams(), self.three_blade_stream()]
        offsets = set()
        for rpm, events in streams:
            evaluator = ObjectiveEvaluator(events, CENTER, int(events.t[0]))
            # brackets shifted by fractions of a step put the grid's argmax
            # at every offset from the lattice's best
            for lo in np.linspace(0.5, 0.9, 11):
                bracket = (rpm_to_rad_s(rpm * lo), rpm_to_rad_s(rpm * (lo + 1.0)))
                est = estimate_speed(events, CENTER, bracket)
                assert (est.omega_rad_s, est.objective_value) == full_grid_estimate(events, CENTER, bracket)
                grid = np.linspace(*bracket, 64)
                lattice_best = LATTICE_STRIDE * int(np.argmax(evaluator.value_grid(grid[::LATTICE_STRIDE])))
                offsets.add(int(np.argmax(evaluator.value_grid(grid))) - lattice_best)
        assert offsets == {-2, -1, 0, 1, 2}

    def test_scores_a_third_of_the_grid_plus_the_fine_candidates(self, clean_3000, scanned_sizes):
        events, _ = clean_3000
        estimate_speed(events.time_slice(0, 8000), CENTER, (rpm_to_rad_s(1500), rpm_to_rad_s(4500)))
        assert scanned_sizes == [FULL_LATTICE, FINE] == [22, 5]

    @pytest.mark.parametrize("n_grid", [3, 5, 6])
    def test_a_grid_too_small_for_a_lattice_is_scanned_whole(self, clean_3000, scanned_sizes, n_grid):
        batch = clean_3000[0].time_slice(0, 8000)
        bracket = (rpm_to_rad_s(2500), rpm_to_rad_s(3500))
        est = estimate_speed(batch, CENTER, bracket, n_grid=n_grid)
        assert scanned_sizes == [n_grid]
        assert (est.omega_rad_s, est.objective_value) == full_grid_estimate(batch, CENTER, bracket, n_grid=n_grid)

    def test_a_peak_between_lattice_points_is_still_found(self):
        # with a 90 px radius the eight tip events stack only at grid
        # indices 25 and 26 of this bracket: every lattice point scores the
        # same, and the scan falls back to the whole grid
        events, center = blade_tip_events(rpm_to_rad_s(3000.0), radius=90.0)
        bracket = (rpm_to_rad_s(1000.0), rpm_to_rad_s(6000.0))
        grid = np.linspace(*bracket, 64)
        values = ObjectiveEvaluator(events, center, 0).value_grid(grid)
        assert np.all(values[::LATTICE_STRIDE] == values[0])
        assert np.flatnonzero(values > values[0]).tolist() == [25, 26]
        est = estimate_speed(events, center, bracket)
        assert (est.omega_rad_s, est.objective_value) == full_grid_estimate(events, center, bracket)
        assert abs(est.rpm - 3000.0) < 100.0

    def test_uniform_noise_is_still_degenerate(self, rng):
        n = 40
        events = Events(
            np.sort(rng.integers(0, 5_000, n)).astype(np.uint64),
            rng.integers(0, 500, n), rng.integers(0, 500, n), np.ones(n, np.int8),
        )
        with pytest.raises(DegenerateInputError):
            estimate_speed(events, (250.0, 250.0), (rpm_to_rad_s(500), rpm_to_rad_s(1500)))

    def test_brent_scores_each_candidate_once(self, clean_3000, monkeypatch):
        """The objective value reported is Brent's own score of its
        result: value() runs once per point Brent tries, no more."""
        brent_calls, value_calls = [], []
        original_value, original_brent = ObjectiveEvaluator.value, motion.brent_max

        def counting_value(self, omega):
            value_calls.append(omega)
            return original_value(self, omega)

        def counting_brent(f, a, b, tol):
            return original_brent(lambda w: brent_calls.append(w) or f(w), a, b, tol)

        monkeypatch.setattr(ObjectiveEvaluator, "value", counting_value)
        monkeypatch.setattr(motion, "brent_max", counting_brent)
        events, _ = clean_3000
        batch = events.time_slice(0, 8000)
        est = estimate_speed(batch, CENTER, (rpm_to_rad_s(1500), rpm_to_rad_s(4500)))
        assert len(brent_calls) > 3
        assert value_calls == brent_calls
        assert est.objective_value == original_value(ObjectiveEvaluator(batch, CENTER, est.t_ref_us), est.omega_rad_s)
