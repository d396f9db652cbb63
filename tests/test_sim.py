import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotorsense import sim
from rotorsense.dynamics import COMMANDS, command_rpm_pattern, rpm_to_rad_s
from rotorsense.errors import ConfigError
from rotorsense.events import SensorGeometry
from rotorsense.sim import (
    ConstantSpeed,
    DroneSpec,
    NO_NOISE,
    NoiseSpec,
    PropellerSpec,
    RampSpeed,
    SpeedProfile,
    StepSpeed,
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

    def test_one_profile_type(self):
        for profile in (ConstantSpeed(10.0), StepSpeed([(0, 1.0), (5, 2.0)]), RampSpeed(0, 1.0, 5, 2.0)):
            assert type(profile) is SpeedProfile

    def test_a_step_holds_the_later_value_from_its_time_on(self):
        p = SpeedProfile([(0, 1000.0), (500, 1000.0), (500, 2500.0), (500, 2000.0), (900, 3000.0)])
        t = np.array([-10.0, 0.0, 499.0, 500.0, 700.0, 900.0, 1e9])
        assert p.rpm_at(t).tolist() == [1000.0, 1000.0, 1000.0, 2000.0, 2500.0, 3000.0, 3000.0]
        # 500 us at 1000 RPM, then 400 us from 2000 to 3000 RPM
        assert p.phase_advance(0, 900) == pytest.approx((500 * 1000.0 + 400 * 2500.0) * sim.RPM_TO_RAD_US)
        assert p.max_rpm(0, 900) == 3000.0
        # 2500 RPM holds at no time, and 1000 RPM only before 500 us
        assert p.max_rpm(500, 600) == pytest.approx(2250.0)

    def test_ramp_speeds_keep_the_ramp_formula(self):
        t0, r0, t1, r1 = 1_000.0, 500.0, 9_000.0, 6000.0
        t = np.arange(0, 10_000, 7, dtype=np.int64)
        want = [r0 if x <= t0 else r1 if x >= t1 else r0 + (x - t0) / (t1 - t0) * (r1 - r0) for x in t.tolist()]
        assert RampSpeed(t0, r0, t1, r1).rpm_at(t).tolist() == want
        assert [RampSpeed(t0, r0, t1, r1).rpm_at(float(x)) for x in t[:50]] == want[:50]

    @pytest.mark.parametrize("far", [1e20, -1e20])
    def test_a_breakpoint_far_from_zero_cancels_nothing(self, far):
        """Rotation is summed outward from t = 0: a profile whose
        breakpoints lie 1e20 us away still turns at its speed near 0."""
        p = RampSpeed(far, 3000.0, far + 1e19, 4000.0) if far > 0 else RampSpeed(far, 4000.0, far + 1e19, 3000.0)
        # 3000 RPM is 50 rev/s: 20 ms per revolution
        assert p.phase_advance(0, 20_000) == pytest.approx(2 * np.pi, rel=1e-12)
        assert p.phase_advance(0, np.array([10_000, 40_000])) == pytest.approx([np.pi, 4 * np.pi], rel=1e-12)

    @pytest.mark.parametrize(
        ("build", "message"),
        [
            (lambda: ConstantSpeed(-1.0), "speed must be nonnegative"),
            (lambda: StepSpeed([]), "step profile needs at least one breakpoint"),
            (lambda: StepSpeed([(5, 1.0), (4, 2.0)]), "step profile breakpoints must be nondecreasing in time"),
            (lambda: StepSpeed([(0, 1.0), (4, -2.0)]), "speed must be nonnegative"),
            (lambda: RampSpeed(5, 1.0, 5, 2.0), "ramp must span a positive interval"),
            (lambda: RampSpeed(0, -1.0, 5, 2.0), "speed must be nonnegative"),
            (lambda: SpeedProfile([]), "speed profile needs at least one breakpoint"),
            (lambda: SpeedProfile([(5, 1.0), (4, 2.0)]), "speed profile breakpoints must be nondecreasing in time"),
        ],
    )
    def test_constructors_keep_their_checks(self, build, message):
        with pytest.raises(ConfigError, match=message):
            build()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_closed_form_matches_the_per_tick_accumulation(self, data):
        """The closed-form phase at every tick lies within the old drift
        check's tolerance, 1e-6 relative, of the phase accumulated tick by
        tick, on constant, step, ramp and zero-order-hold profiles."""
        rpm = st.floats(0.0, 20_000.0)
        tick_us = data.draw(st.integers(1, 500))
        tick_times = np.arange(data.draw(st.integers(1, 300)), dtype=np.int64) * tick_us
        end = float(tick_times[-1])
        kind = data.draw(st.sampled_from(["constant", "step", "ramp", "hold"]))
        if kind == "constant":
            profile = ConstantSpeed(data.draw(rpm))
        elif kind == "step":
            times = sorted(data.draw(st.lists(st.floats(-0.5 * end - 1, 1.5 * end + 1), min_size=1, max_size=6)))
            profile = StepSpeed([(t, data.draw(rpm)) for t in times])
        elif kind == "ramp":
            t0 = data.draw(st.floats(-end - 1, end))
            profile = RampSpeed(t0, data.draw(rpm), t0 + data.draw(st.floats(1e-3, 2 * end + 1)), data.draw(rpm))
        else:
            trace = data.draw(st.lists(rpm, min_size=tick_times.size, max_size=tick_times.size))
            profile = StepSpeed(np.column_stack([tick_times, trace]))
        spec = PropellerSpec(CENTER, 2, 30.0, 5.0, data.draw(st.floats(-20.0, 20.0)), profile,
                             spin=data.draw(st.sampled_from([-1, 1])))
        direct = spec.initial_phase - spec.spin * profile.phase_advance(0, tick_times)
        accumulated = oracles.phases(spec, tick_times)
        assert np.all(np.abs(accumulated - direct) <= 1e-6 * np.maximum(1.0, np.abs(direct)))


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
            mask = oracles.blade_mask(spec, phase, geometry)
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

    @pytest.mark.parametrize("n_rotors", [3, 5])
    def test_a_drone_has_one_center_per_mixer_rotor(self, n_rotors):
        centers = tuple((100.0 * i, 100.0) for i in range(n_rotors))
        with pytest.raises(ConfigError, match=f"drone needs 4 rotor centers, one per mixer rotor, not {n_rotors}"):
            DroneSpec(rotor_centers=centers)

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


def assert_same_stream(got, want):
    """Events and origins bit-equal, dtypes and shapes included."""
    (events, origin), (ref_events, ref_origin) = got, want
    for a, b in [(events.t, ref_events.t), (events.x, ref_events.x), (events.y, ref_events.y),
                 (events.p, ref_events.p), (origin, ref_origin)]:
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


def with_both_painters(simulate):
    """simulate() painted by sim._render, then by the per-tick oracle."""
    got = simulate()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sim, "_render", oracles.render)
        want = simulate()
    return got, want


def scene(specs, noise=NO_NOISE, duration_us=12_000, tick_us=40, geometry=None):
    def simulate():
        events, truth = simulate_propellers(specs, noise, duration_us, tick_us, seed=5, geometry=geometry)
        return events, truth.event_origin
    return simulate


JITTER = NoiseSpec(background_rate=20.0, hot_pixel_count=4, hot_pixel_rate=800.0, vibration_jitter_px=0.6)
BAND_SCENES = {
    "two_blades": scene([make_spec()]),
    "three_blades_ramp": scene([PropellerSpec(CENTER, 3, 30.0, 5.0, 0.2, RampSpeed(1_000, 500.0, 9_000, 6000.0))]),
    "step": scene([PropellerSpec(CENTER, 2, 25.0, 4.0, 2.0, StepSpeed([(0, 2000.0), (5_000, 7000.0)]))]),
    "spin_minus_one": scene([make_spec(spin=-1, phase=-1.0)], duration_us=9_970),
    "zero_rpm": scene([make_spec(rpm=0.0), make_spec(rpm=4000.0, center=(100.0, 60.0))]),
    # painters share pixels and tie in time: the merge keeps painter order
    "overlapping": scene([make_spec(), make_spec(rpm=4500.0, center=(72.0, 66.0), phase=1.1, spin=-1)]),
    "noise_jitter": scene([make_spec(), make_spec(rpm=0.0, center=(70.0, 65.0))], JITTER, geometry=SensorGeometry(140, 130)),
}


class TestBandPainter:
    """`sim._render` paints blocks of ticks and evaluates only the pixels a
    blade edge can cross; the per-tick oracle evaluates every pixel on
    every tick. Their streams must be bit-equal. TestOnePath compares a
    noisy rendered flight against an oracle that paints per tick, too."""

    @pytest.mark.parametrize("name", list(BAND_SCENES))
    def test_bit_equal_to_the_per_tick_painter(self, name):
        got, want = with_both_painters(BAND_SCENES[name])
        assert len(got[0]) > 0
        assert_same_stream(got, want)

    def test_rendered_flight_bit_equal(self):
        def simulate():
            flight = simulate_flight([(0, "hover"), (6_000, "yaw")], DroneSpec(rpm_jitter=30.0), JITTER, 12_000,
                                     seed=2, render_events=True)
            return flight.events, flight.truth.event_origin
        got, want = with_both_painters(simulate)
        assert set(np.unique(got[1]).tolist()) == {-2, -1, 0, 1, 2, 3}
        assert_same_stream(got, want)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_bit_equal_on_random_scenes(self, data):
        """Random blade geometry, phase, profile and spin, one or two rotors
        on a small sensor (disks may be clipped), any tick count."""
        specs, peak = [], []
        for _ in range(data.draw(st.integers(1, 2))):
            length = data.draw(st.floats(2.0, 18.0))
            rpms = data.draw(st.lists(st.floats(0.0, 9000.0), min_size=2, max_size=2))
            profile = data.draw(st.sampled_from([
                ConstantSpeed(rpms[0]), StepSpeed([(0, rpms[0]), (600, rpms[1])]), RampSpeed(200, rpms[0], 900, rpms[1]),
            ]))
            specs.append(PropellerSpec(
                center=(data.draw(st.floats(5.0, 45.0)), data.draw(st.floats(5.0, 45.0))),
                n_blades=data.draw(st.integers(1, 4)), blade_length=length,
                blade_width=length * data.draw(st.floats(0.05, 0.6)), initial_phase=data.draw(st.floats(-20.0, 20.0)),
                speed_profile=profile, spin=data.draw(st.sampled_from([-1, 1])),
            ))
            peak.append(rpm_to_rad_s(max(rpms)) * length)
        tick_us = max(1, int(1e6 / max(max(peak), 1.0) * data.draw(st.floats(0.1, 1.0))))
        tick_us = min(tick_us, 300)
        duration_us = tick_us * data.draw(st.integers(0, 40)) + data.draw(st.integers(0, tick_us - 1))
        got, want = with_both_painters(scene(specs, duration_us=duration_us, tick_us=tick_us,
                                             geometry=SensorGeometry(50, 50)))
        assert_same_stream(got, want)
