import logging
import math

import numpy as np
import pytest

from rotorsense.dynamics import GRAVITY, rpm_to_rad_s
from rotorsense.errors import ConfigError, DataError
from rotorsense.fusion import (
    FusedState,
    KinematicPredictor,
    MotionPrior,
    _check_cov,
    _step_matrices,
    _transition,
    predict,
    process_noise,
    run_fusion,
    update,
)
from rotorsense.pipeline import FUSED_HEADER, read_table, write_fused_csv
from rotorsense.sim import DroneSpec, NO_NOISE, simulate_flight

HOVER = np.full(4, rpm_to_rad_s(3000.0))


@pytest.fixture()
def predictor():
    return KinematicPredictor.from_hover_calibration(HOVER)


def make_state(mean=None, cov=None, t_us=0):
    mean = np.zeros(6) if mean is None else np.asarray(mean, float)
    cov = np.eye(6) if cov is None else np.asarray(cov, float)
    return FusedState(t_us=t_us, mean=mean, cov=cov)


class TestMotionPrior:
    def test_one_hot(self):
        prior = MotionPrior(command="yaw", speeds_rad_s=HOVER, process_noise_scale=0.1)
        assert prior.one_hot.sum() == 1.0
        assert prior.one_hot[3] == 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            MotionPrior(command="sideways", speeds_rad_s=HOVER, process_noise_scale=0.1)
        with pytest.raises(DataError):
            MotionPrior(command="hover", speeds_rad_s=-HOVER, process_noise_scale=0.1)


class TestPredict:
    def test_hover_zero_velocity_mean_unchanged_cov_grows(self, predictor):
        state = make_state()
        prior = MotionPrior(command="hover", speeds_rad_s=HOVER, process_noise_scale=0.2)
        out = predict(state, prior, dt_s=0.05, predictor=predictor)
        assert out.mean == pytest.approx(np.zeros(6))
        expected_cov = state.cov.copy()
        f = np.eye(6)
        f[:3, 3:] = 0.05 * np.eye(3)
        expected_cov = f @ expected_cov @ f.T + process_noise(0.05, 0.2)
        assert out.cov == pytest.approx(expected_cov)
        assert np.trace(out.cov) > np.trace(state.cov)

    def test_climb_velocity_change_closed_form(self, predictor):
        """With a calibrated thrust gain, dv_z = k_f*(sum w^2 - sum
        w_hover^2) * dt exactly (constant-acceleration kinematics)."""
        speeds = np.full(4, rpm_to_rad_s(3300.0))
        prior = MotionPrior(command="climb", speeds_rad_s=speeds, process_noise_scale=0.0)
        state = make_state()
        dt = 0.04
        out = predict(state, prior, dt_s=dt, predictor=predictor)
        accel = predictor.k_f * (np.sum(speeds**2) - predictor.hover_speed_sq_sum)
        assert out.velocity[2] == pytest.approx(accel * dt, rel=1e-12)
        assert out.position[2] == pytest.approx(0.5 * accel * dt**2, rel=1e-12)
        # sanity: 10% overspeed is about 0.21 g upward
        assert accel == pytest.approx(GRAVITY * (1.1**2 - 1.0), rel=1e-12)

    def test_hover_calibration_balances_gravity(self, predictor):
        prior = MotionPrior(command="climb", speeds_rad_s=HOVER, process_noise_scale=0.0)
        assert predictor.acceleration(prior) == pytest.approx(np.zeros(3), abs=1e-12)

    def test_non_finite_state_rejected(self, predictor):
        state = make_state(mean=[np.nan, 0, 0, 0, 0, 0])
        prior = MotionPrior(command="hover", speeds_rad_s=HOVER, process_noise_scale=0.1)
        with pytest.raises(DataError):
            predict(state, prior, 0.1, predictor)

    def test_bad_dt_rejected(self, predictor):
        prior = MotionPrior(command="hover", speeds_rad_s=HOVER, process_noise_scale=0.1)
        with pytest.raises(ConfigError):
            predict(make_state(), prior, 0.0, predictor)


class TestUpdate:
    def test_scalar_closed_form(self):
        """Prior (mu=0, var=1) fused with measurement (z=1, r=1) gives
        posterior mu=0.5, var=0.5 on that axis."""
        cov = np.diag([1.0, 1e6, 1e6, 1e6, 1e6, 1e6])
        state = make_state(cov=cov)
        out = update(state, np.array([1.0, 0.0, 0.0]), np.diag([1.0, 1e6, 1e6]))
        assert out.mean[0] == pytest.approx(0.5, rel=1e-6)
        assert out.cov[0, 0] == pytest.approx(0.5, rel=1e-6)

    def test_uninformative_measurement_leaves_mean(self):
        state = make_state(mean=[1, 2, 3, 0, 0, 0])
        gps = np.array([100.0, 100.0, 100.0])
        out = update(state, gps, 1e6 * np.eye(3))
        innovation = gps - state.mean[:3]
        assert np.linalg.norm(out.mean - state.mean) < 1e-3 * np.linalg.norm(innovation)

    def test_fully_confident_prior_ignores_gps(self):
        cov = np.zeros((6, 6))
        cov[3:, 3:] = np.eye(3)
        state = make_state(mean=[5, 6, 7, 0, 0, 0], cov=cov)
        out = update(state, np.array([50.0, 60.0, 70.0]), np.eye(3))
        assert out.mean[:3] == pytest.approx([5, 6, 7], abs=1e-9)

    def test_covariance_stays_symmetric_psd(self, predictor):
        state = make_state(cov=np.diag([4.0, 4.0, 4.0, 1.0, 1.0, 1.0]))
        rng = np.random.default_rng(2)
        prior = MotionPrior(command="hover", speeds_rad_s=HOVER, process_noise_scale=0.3)
        for _ in range(200):
            state = predict(state, prior, 0.02, predictor)
            state = update(state, rng.normal(0, 2, 3), 4.0 * np.eye(3))
            assert np.allclose(state.cov, state.cov.T)
            assert np.linalg.eigvalsh(state.cov).min() >= -1e-9


class TestRunFusion:
    def test_gps_only_tracks_measurements(self, predictor):
        rng = np.random.default_rng(0)
        t = np.arange(0, 10_000_001, 200_000)
        truth = np.zeros((t.size, 3))
        gps = np.column_stack([t, truth + rng.normal(0, 2.0, truth.shape)])
        result = run_fusion(np.zeros((0, 3)), [], gps, predictor, gps_sigma_m=2.0, process_noise_scale=25.0)
        errors = np.linalg.norm(np.array([s.position for s in result.states]), axis=1)
        assert errors.mean() < 2.0 * math.sqrt(3)  # within the noise floor

    def test_zero_duration_stream_empty_output(self, predictor):
        result = run_fusion(np.zeros((0, 3)), [], np.zeros((0, 4)), predictor)
        assert result.states == []

    def test_out_of_order_measurement_dropped_with_warning(self, predictor, caplog):
        gps = np.array([[0, 0, 0, 0], [200_000, 0, 0, 0], [100_000, 5, 5, 5], [400_000, 0, 0, 0]])
        with caplog.at_level(logging.WARNING, logger="rotorsense.fusion"):
            result = run_fusion(np.zeros((0, 3)), [], gps, predictor)
        assert "out-of-order" in caplog.text
        # init fix carries no innovation; the stale fix never updates
        assert len(result.nis) == 2

    def test_states_emitted_after_every_step(self, predictor):
        gps = np.array([[0, 0, 0, 0], [200_000, 1, 0, 0]])
        speeds = np.array([[100_000, 0, 3000.0], [100_000, 1, 3000.0]])
        commands = [(50_000, "hover")]
        result = run_fusion(speeds, commands, gps, predictor)
        assert len(result.states) == 1 + 3 + 1  # init + 2 speed rows + command + final gps

    def test_innovation_whiteness_on_matched_simulation(self, predictor):
        """Normalized innovation squared over >= 1000 updates stays inside
        the chi-square 95% band for 3 degrees of freedom."""
        from scipy.stats import chi2

        drone = DroneSpec(hover_rpm=3000.0, delta_rpm=300.0, rpm_jitter=60.0, gps_rate_hz=5.0, gps_sigma_m=2.0)
        script = [(0, "hover"), (30_000_000, "climb"), (90_000_000, "hover"), (150_000_000, "descent")]
        flight = simulate_flight(script, drone, NO_NOISE, duration_us=210_000_000, seed=8, tick_us=5000)
        truth = flight.truth
        speeds = []
        for k in range(0, truth.times_us.size, 4):  # 50 Hz priors are plenty here
            for p in range(4):
                speeds.append((int(truth.times_us[k]), p, float(flight.rpm_traces[p, k])))
        commands = [(int(t), truth.command_labels[int(c)]) for t, c in zip(truth.times_us[::4], truth.command_ids[::4])]
        sigma_a = GRAVITY * 2.0 * 60.0 / 3000.0  # speed-jitter-induced acceleration noise
        result = run_fusion(np.array(speeds), commands, flight.gps, predictor,
                            gps_sigma_m=2.0, process_noise_scale=sigma_a**2)
        nis = np.array(result.nis)
        assert nis.size >= 1000
        total = nis.sum()
        dof = 3 * nis.size
        assert chi2.ppf(0.025, dof) <= total <= chi2.ppf(0.975, dof)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def random_state(rng, t_us=0):
    a = rng.normal(size=(6, 6))
    return FusedState(t_us=t_us, mean=rng.normal(0, 10, 6), cov=a @ a.T + 0.1 * np.eye(6))


class TestStepMatrices:
    @pytest.mark.parametrize("dt_s", [1e-6, 0.001, 0.0125, 1 / 3, 0.2, 7.0])
    @pytest.mark.parametrize("command", ["hover", "climb", "roll"])
    def test_predict_is_bit_equal_to_the_explicit_formula(self, predictor, dt_s, command):
        rng = np.random.default_rng(int(dt_s * 1e6))
        speeds = np.abs(HOVER + rng.normal(0, 20, 4))
        for noise_scale in (0.0, 0.05, 1.7):
            prior = MotionPrior(command=command, speeds_rad_s=speeds, process_noise_scale=noise_scale)
            state = random_state(rng, t_us=123)
            f, b = _transition(dt_s)
            accel = predictor.acceleration(prior)
            mean = f @ state.mean + b @ accel
            cov = _check_cov(f @ state.cov @ f.T + process_noise(dt_s, noise_scale), "test")
            for _ in range(2):  # the second call reads the cached matrices
                out = predict(state, prior, dt_s, predictor)
                assert same_bits(out.mean, mean)
                assert same_bits(out.cov, cov)
                assert out.t_us == 123 + int(round(dt_s * 1e6))

    def test_cached_matrices_are_read_only(self):
        for matrix in _step_matrices(0.001, 0.05):
            assert not matrix.flags.writeable
            with pytest.raises(ValueError):
                matrix[0, 0] = 1.0
        assert _step_matrices(0.001, 0.05)[2] is _step_matrices(0.001, 0.05)[2]

    def test_public_builders_return_fresh_writable_arrays(self, predictor):
        state = make_state()
        prior = MotionPrior(command="hover", speeds_rad_s=HOVER, process_noise_scale=0.05)
        before = predict(state, prior, 0.001, predictor)
        q = process_noise(0.001, 0.05)
        f, b = _transition(0.001)
        assert q.flags.writeable and f.flags.writeable and b.flags.writeable
        assert q is not process_noise(0.001, 0.05)
        assert q is not _step_matrices(0.001, 0.05)[2]
        q[:] = 1e6
        f[:] = 0.0
        after = predict(state, prior, 0.001, predictor)
        assert same_bits(after.mean, before.mean) and same_bits(after.cov, before.cov)


class TestSpeedQueue:
    def test_fractional_times_and_ids_truncate_like_int(self, predictor):
        gps = np.array([[0, 0.0, 0.0, 0.0], [300_000, 1.0, 0.0, 0.0]])
        ragged = np.array([[100_000.9, 0.7, 3100.0], [150_000.2, 1.99, 2900.5], [-0.5, 2.0, 3000.0]])
        truncated = np.array([[100_000, 0, 3100.0], [150_000, 1, 2900.5], [0, 2, 3000.0]])
        commands = [(90_000, "climb")]
        got = run_fusion(ragged, commands, gps, predictor)
        want = run_fusion(truncated, commands, gps, predictor)
        assert [s.t_us for s in got.states] == [s.t_us for s in want.states]
        for a, b in zip(got.states, want.states):
            assert same_bits(a.mean, b.mean) and same_bits(a.cov, b.cov)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 2.0**63])
    def test_non_integer_time_or_id_is_a_data_error(self, predictor, bad):
        gps = np.array([[0, 0.0, 0.0, 0.0]])
        for col in (0, 1):
            speeds = np.array([[100_000.0, 0.0, 3000.0]])
            speeds[0, col] = bad
            with pytest.raises(DataError, match="speed stream"):
                run_fusion(speeds, [], gps, predictor)


def reference_fused_csv(path, states):
    """The per-state formatter that `write_fused_csv` replaced."""
    with open(path, "w", newline="\n") as fh:
        fh.write(FUSED_HEADER + "\n")
        for state in states:
            vals = ",".join(repr(float(v)) for v in state.mean)
            fh.write(f"{state.t_us},{vals},{float(np.trace(state.cov))!r}\n")


class TestWriteFusedCsv:
    def test_bytes_match_the_per_state_formatter(self, tmp_path, predictor):
        rng = np.random.default_rng(4)
        states = [random_state(rng, t_us=1000 * k) for k in range(50)]
        states.append(FusedState(t_us=7, mean=np.array([-0.0, 1e-300, 1e300, 24.0, 0.1, -2.5]), cov=np.diag([4.0, 4, 4, 4, 4, 4])))
        gps = np.array([[0, 0, 0, 0], [200_000, 1, 0, 0], [400_000, 2, 1, 0]])
        speeds = np.array([[100_000, 0, 3000.0], [100_000, 1, 3100.0], [300_000, 2, 2900.0]])
        states += run_fusion(speeds, [(50_000, "climb")], gps, predictor).states
        # repeats of one state object, and distinct states at one time
        states += [states[0], states[0], states[1], states[0], states[0]]
        states += [random_state(rng, t_us=5), random_state(rng, t_us=5), random_state(rng, t_us=5)]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_fused_csv(str(got), iter(states))
        reference_fused_csv(str(want), states)
        assert got.read_bytes() == want.read_bytes()
        rows = got.read_text().splitlines()
        assert len(rows) == 1 + len(states)
        assert rows[51] == "7,-0.0,1e-300,1e+300,24.0,0.1,-2.5,24.0"
        assert "np.float64(" not in got.read_text()
        table = read_table(str(got), FUSED_HEADER)
        assert same_bits(table[:, 7], [float(np.trace(s.cov)) for s in states])
