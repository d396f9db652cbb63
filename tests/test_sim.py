import numpy as np
import pytest

from rotorsense.dynamics import COMMANDS, command_rpm_pattern
from rotorsense.errors import ConfigError
from rotorsense.events import SensorGeometry
from rotorsense.sim import (
    ConstantSpeed,
    DroneSpec,
    NO_NOISE,
    NoiseSpec,
    RampSpeed,
    StepSpeed,
    blade_mask,
    simulate_flight,
    simulate_propellers,
)
from conftest import CENTER, make_spec
import oracles


class TestSpeedProfiles:
    def test_constant_phase_advance(self):
        p = ConstantSpeed(3000.0)
        # 3000 RPM = 50 rev/s: 20 ms per revolution
        assert p.phase_advance(0, 20_000) == pytest.approx(2 * np.pi)

    def test_step_profile_integral(self):
        p = StepSpeed([(0, 3000.0), (10_000, 6000.0)])
        # 10 ms at 3000 + 10 ms at 6000 = half rev + one rev
        assert p.phase_advance(0, 20_000) == pytest.approx(3 * np.pi)
        assert p.rpm_at(9_999) == 3000.0
        assert p.rpm_at(10_000) == 6000.0

    def test_ramp_profile_trapezoid_exact(self):
        p = RampSpeed(0, 0.0, 10_000, 6000.0)
        # linear ramp: integral = average speed * time
        assert p.phase_advance(0, 10_000) == pytest.approx(ConstantSpeed(3000.0).phase_advance(0, 10_000))
        assert p.rpm_at(-5) == 0.0 and p.rpm_at(20_000) == 6000.0

    def test_additivity_over_subintervals(self):
        p = RampSpeed(2_000, 1000.0, 9_000, 4000.0)
        whole = p.phase_advance(0, 12_000)
        parts = sum(p.phase_advance(a, a + 1_000) for a in range(0, 12_000, 1_000))
        assert parts == pytest.approx(whole, rel=1e-12)


class TestSimulatePropellers:
    def test_zero_speed_zero_noise_yields_no_events(self):
        spec = make_spec(rpm=0.0)
        events, _ = simulate_propellers([spec], NO_NOISE, duration_us=10_000, tick_us=100, seed=0)
        assert len(events) == 0

    def test_events_within_blade_length_of_center(self, clean_3000):
        events, _ = clean_3000
        r = np.hypot(events.x.astype(float) - CENTER[0], events.y.astype(float) - CENTER[1])
        assert float(r.max()) <= 30.0 + 1.5  # pixel-center quantization margin

    def test_polarity_balance(self, clean_3000):
        events, _ = clean_3000
        on = int((events.p == 1).sum())
        off = int((events.p == -1).sum())
        assert abs(on - off) <= 0.02 * len(events)

    def test_blade_pass_periodicity(self):
        """Event times on a fixed pixel repeat with period
        60/(RPM*n_blades) s: 10 ms at 3000 RPM with 2 blades, measured
        by autocorrelation of the per-pixel event-time histogram."""
        events, _ = simulate_propellers([make_spec()], NO_NOISE, duration_us=80_000, tick_us=50, seed=2)
        # pick a busy pixel at mid radius
        px, py = int(CENTER[0]) + 20, int(CENTER[1])
        sel = (events.x == px) & (events.y == py) & (events.p == 1)
        times = events.t[sel].astype(np.int64)
        assert times.size >= 6
        bins = np.zeros(80, dtype=float)  # 1 ms resolution
        np.add.at(bins, np.minimum(times // 1000, 79), 1.0)
        centered = bins - bins.mean()
        ac = np.correlate(centered, centered, mode="full")[bins.size :]
        lag = int(np.argmax(ac[5:30])) + 5  # skip the zero-lag peak region
        expected_ms = 60.0 / (3000.0 * 2) * 1000.0
        assert lag == pytest.approx(expected_ms, abs=1.0)

    def test_determinism(self):
        noise = NoiseSpec(background_rate=20.0, hot_pixel_count=3, hot_pixel_rate=500.0, vibration_jitter_px=0.4)
        a, ta = simulate_propellers([make_spec()], noise, duration_us=20_000, tick_us=50, seed=9)
        b, tb = simulate_propellers([make_spec()], noise, duration_us=20_000, tick_us=50, seed=9)
        assert a == b
        assert np.array_equal(ta.event_origin, tb.event_origin)
        c, _ = simulate_propellers([make_spec()], noise, duration_us=20_000, tick_us=50, seed=10)
        assert not (a == c)

    def test_tick_validation_names_required_tick(self):
        spec = make_spec(rpm=10_000.0)
        with pytest.raises(ConfigError, match="tick <="):
            simulate_propellers([spec], NO_NOISE, duration_us=10_000, tick_us=500, seed=0)

    def test_noise_free_events_lie_on_blade_mask(self):
        """With all noise rates zero, every event sits on (or within a
        pixel of) the blade silhouette at its own timestamp."""
        spec = make_spec()
        geometry = SensorGeometry(121, 121)
        events, truth = simulate_propellers([spec], NO_NOISE, duration_us=10_000, tick_us=50, seed=0, geometry=geometry)
        profile = spec.speed_profile
        step = 500
        for i in range(0, len(events), step):
            t = int(events.t[i])
            phase = spec.initial_phase - spec.spin * profile.phase_advance(0.0, t)
            mask = blade_mask(spec, phase, geometry)
            x, y = int(events.x[i]), int(events.y[i])
            window = mask[max(x - 1, 0) : x + 2, max(y - 1, 0) : y + 2]
            assert window.any(), f"event {i} at ({x},{y}) t={t} off the blade"

    def test_origin_labels_cover_all_sources(self, noisy_3000):
        events, truth, _ = noisy_3000
        assert truth.event_origin.shape == (len(events),)
        labels = set(np.unique(truth.event_origin))
        assert labels == {0, -1, -2}

    def test_ground_truth_rpm_series(self, clean_3000):
        _, truth = clean_3000
        assert truth.rpm.shape[0] == 1
        assert np.allclose(truth.rpm, 3000.0)
        assert truth.times_us[-1] == 50_000


class TestSimulateFlight:
    def test_hover_traces_at_base_speed(self):
        drone = DroneSpec(rpm_jitter=25.0)
        flight = simulate_flight([(0, "hover")], drone, NO_NOISE, duration_us=200_000, seed=4)
        assert np.all(np.abs(flight.rpm_traces - 3000.0) < 6 * 25.0)
        assert np.allclose(flight.truth.positions, 0.0)

    def test_climb_traces_offset(self):
        drone = DroneSpec(delta_rpm=300.0, rpm_jitter=20.0)
        flight = simulate_flight([(0, "climb")], drone, NO_NOISE, duration_us=200_000, seed=4)
        ids = flight.truth.command_ids
        assert all(flight.truth.command_labels[i] == "climb" for i in ids)
        assert np.all(np.abs(flight.rpm_traces - 3300.0) < 6 * 20.0)
        assert flight.truth.positions[-1, 2] > 0  # climbing moves +z

    def test_mixer_patterns_match_ground_truth_labels(self):
        for command in COMMANDS:
            pattern = command_rpm_pattern(command, 3000.0, 300.0)
            drone = DroneSpec(delta_rpm=300.0, rpm_jitter=0.0)
            flight = simulate_flight([(0, command)], drone, NO_NOISE, duration_us=10_000, seed=0)
            assert np.allclose(flight.rpm_traces[:, -1], pattern)

    def test_gps_sample_mean_bound(self):
        """Static drone, sigma = 1 m, 1e4 samples: the sample mean must
        land within 0.05 m of the truth (3 sigma / sqrt(N) = 0.03)."""
        drone = DroneSpec(gps_rate_hz=1000.0, gps_sigma_m=1.0)
        flight = simulate_flight([(0, "hover")], drone, NO_NOISE, duration_us=10_000_000, seed=6)
        assert flight.gps.shape[0] >= 10_000
        mean = flight.gps[:, 1:4].mean(axis=0)
        assert np.all(np.abs(mean) < 0.05)

    def test_unknown_command_rejected(self):
        with pytest.raises(ConfigError, match="unknown command"):
            simulate_flight([(0, "wiggle")], DroneSpec(), NO_NOISE, duration_us=10_000, seed=0)

    def test_shared_clock(self):
        drone = DroneSpec(gps_rate_hz=50.0)
        flight = simulate_flight([(0, "hover")], drone, NO_NOISE, duration_us=100_000, seed=0)
        assert flight.gps[0, 0] == 0
        assert flight.gps[-1, 0] <= flight.truth.times_us[-1]
        assert flight.rpm_traces.shape[1] == flight.truth.times_us.size

    def test_rendered_events_label_rotors(self):
        drone = DroneSpec(rpm_jitter=10.0)
        flight = simulate_flight(
            [(0, "hover")], drone, NO_NOISE, duration_us=30_000, seed=2,
            render_events=True, geometry=SensorGeometry(480, 480),
        )
        assert len(flight.events) > 0
        assert set(np.unique(flight.truth.event_origin)) == {0, 1, 2, 3}


SIX_COMMANDS = [(0, "hover"), (4_000, "climb"), (8_000, "roll"), (12_000, "pitch"), (16_000, "yaw"), (20_000, "descent")]


class TestOnePath:
    """Scenes and flights render through one renderer, and a flight
    tabulates each command's speeds and acceleration once; both must give
    exactly what the per-tick reference does."""

    @pytest.mark.parametrize(
        ("script", "duration_us", "render", "noise"),
        [
            (SIX_COMMANDS, 24_000, True, NoiseSpec(background_rate=2.0, hot_pixel_count=5, hot_pixel_rate=300.0,
                                                   vibration_jitter_px=0.4)),
            ([(t * 50, name) for t, name in SIX_COMMANDS] + [(1_100_000, "hover")], 1_300_000, False, NO_NOISE),
        ],
        ids=["rendered", "traces_only"],
    )
    def test_flight_matches_per_tick_reference(self, script, duration_us, render, noise):
        drone = DroneSpec(rpm_jitter=40.0, delta_rpm=250.0, tilt_fraction=0.25, gps_rate_hz=400.0, gps_sigma_m=1.5)
        flight = simulate_flight(script, drone, noise, duration_us, seed=4, render_events=render)
        traces, positions, velocities, gps, events, origin = oracles.simulate_flight(
            script, drone, noise, duration_us, seed=4, render_events=render
        )
        truth = flight.truth
        assert sorted(set(truth.command_ids.tolist())) == list(range(6))
        for got, want in [
            (flight.rpm_traces, traces), (truth.rpm, traces), (truth.positions, positions),
            (truth.velocities, velocities), (flight.gps, gps), (truth.event_origin, origin),
            (flight.events.t, events.t), (flight.events.x, events.x), (flight.events.y, events.y),
            (flight.events.p, events.p),
        ]:
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()  # bit-equal, -0.0 included
        assert (len(flight.events) > 0) == render
        if render:
            assert set(np.unique(origin).tolist()) == {-2, -1, 0, 1, 2, 3}

    def test_unused_command_with_a_negative_speed_raises_nothing(self):
        """Only the commands the script reaches are tabulated: a descent
        below zero speed is fine while the flight never descends."""
        drone = DroneSpec(hover_rpm=3000.0, delta_rpm=3500.0)
        simulate_flight([(0, "hover"), (5_000, "climb"), (20_000, "descent")], drone, NO_NOISE, 10_000, seed=0)
        with pytest.raises(ConfigError, match="negative rotor speed"):
            simulate_flight([(0, "hover"), (5_000, "descent")], drone, NO_NOISE, 10_000, seed=0)

    def test_rendered_flight_shorter_than_a_tick(self):
        """One truth tick and one render tick: nothing to paint, and no
        second truth tick to read the tick length from."""
        flight = simulate_flight([(0, "hover")], DroneSpec(), NO_NOISE, 500, seed=0, render_events=True)
        assert len(flight.events) == 0 and flight.truth.times_us.tolist() == [0]

    def test_empty_streams_keep_their_dtypes(self):
        noise = NoiseSpec(background_rate=5.0, hot_pixel_count=3, hot_pixel_rate=100.0, vibration_jitter_px=0.5)
        scene, truth = simulate_propellers([make_spec()], noise, duration_us=0, tick_us=50, seed=1)
        flight = simulate_flight([(0, "hover")], DroneSpec(), noise, 10_000, seed=1)
        for events, origin in ((scene, truth.event_origin), (flight.events, flight.truth.event_origin)):
            assert len(events) == 0 and origin.size == 0
            assert [a.dtype for a in (events.t, events.x, events.y, events.p, origin)] == [
                np.uint64, np.uint16, np.uint16, np.int8, np.int16
            ]
