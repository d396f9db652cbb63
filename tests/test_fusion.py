import heapq
import logging
import math
from contextlib import contextmanager

import numpy as np
import oracles
import pytest
from hypothesis import given, settings, strategies as st

from rotorsense import fusion
from rotorsense.dynamics import COMMANDS, GRAVITY, rpm_to_rad_s
from rotorsense.errors import ConfigError, DataError, NumericalError
from rotorsense.fusion import (
    CHECK_STEPS,
    FusedState,
    FusedStates,
    KinematicPredictor,
    MotionPrior,
    _check_cov,
    predict,
    run_fusion,
    update,
)
from rotorsense.pipeline import read_table, write_fused_csv
from rotorsense import tables
from rotorsense.sim import DroneSpec, NO_NOISE, simulate_flight

HOVER = np.full(4, rpm_to_rad_s(3000.0))


@pytest.fixture()
def predictor():
    return KinematicPredictor.from_hover_calibration(HOVER)


def transition_and_noise(dt_s, accel_variance):
    """F and the white-acceleration Q of one step, as 6x6 matrices."""
    f, q = np.eye(6), np.zeros((6, 6))
    f[:3, 3:] = dt_s * np.eye(3)
    for rows, cols, scale in [(0, 0, 0.25 * dt_s**4), (0, 3, 0.5 * dt_s**3), (3, 0, 0.5 * dt_s**3), (3, 3, dt_s**2)]:
        q[rows : rows + 3, cols : cols + 3] = accel_variance * scale * np.eye(3)
    return f, q


def make_state(mean=None, cov=None, t_us=0):
    mean = np.zeros(6) if mean is None else np.asarray(mean, float)
    cov = np.eye(6) if cov is None else np.asarray(cov, float)
    return FusedState(t_us=t_us, mean=mean, cov=cov)


class TestMotionPrior:
    def test_validation(self):
        with pytest.raises(ConfigError):
            MotionPrior(command="sideways", speeds_rad_s=HOVER, process_noise_scale=0.1)
        with pytest.raises(DataError):
            MotionPrior(command="hover", speeds_rad_s=-HOVER, process_noise_scale=0.1)

    @pytest.mark.parametrize("shape", [(8,), (3,), (0,), (1, 4), ()])
    def test_one_speed_per_mixer_rotor(self, shape):
        # eight hover speeds under climb used to step +9.80665 m/s^2: the
        # four extra rotors counted as thrust
        with pytest.raises(DataError, match=rf"takes 4 rotor speeds, got shape \({', '.join(map(str, shape))},?\)"):
            MotionPrior(command="climb", speeds_rad_s=np.full(shape, HOVER[0]), process_noise_scale=0.0)


class TestPredict:
    def test_hover_zero_velocity_mean_unchanged_cov_grows(self, predictor):
        state = make_state()
        prior = MotionPrior(command="hover", speeds_rad_s=HOVER, process_noise_scale=0.2)
        out = predict(state, prior, dt_s=0.05, predictor=predictor)
        assert out.mean == pytest.approx(np.zeros(6))
        f, q = transition_and_noise(0.05, 0.2)
        expected_cov = f @ state.cov @ f.T + q
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
        assert out.mean[5] == pytest.approx(accel * dt, rel=1e-12)
        assert out.mean[2] == pytest.approx(0.5 * accel * dt**2, rel=1e-12)
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
        errors = np.linalg.norm(np.array([s.mean[:3] for s in result.states]), axis=1)
        assert errors.mean() < 2.0 * math.sqrt(3)  # within the noise floor

    def test_zero_duration_stream_empty_output(self, predictor):
        result = run_fusion(np.zeros((0, 3)), [], np.zeros((0, 4)), predictor)
        assert len(result.states) == 0 and list(result.states) == []

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
        # init, steps to the command and the speed rows, then the step to
        # the final fix and its update; the second speed row makes none
        assert [s.t_us for s in result.states] == [0, 50_000, 100_000, 200_000, 200_000]

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
    cov = a @ a.T + 0.1 * np.eye(6)
    return FusedState(t_us=t_us, mean=rng.normal(0, 10, 6), cov=0.5 * (cov + cov.T))


class TestPredictStep:
    @pytest.mark.parametrize("dt_s", [1e-6, 0.001, 0.0125, 1 / 3, 0.2, 7.0])
    @pytest.mark.parametrize("command", ["hover", "climb", "roll"])
    def test_predict_is_bit_equal_to_the_explicit_formula(self, predictor, dt_s, command):
        """The 3x3 block step, each scalar of b and Q a Python float, and
        F P F.T + Q, F x + b a up to rounding."""
        rng = np.random.default_rng(int(dt_s * 1e6))
        speeds = np.abs(HOVER + rng.normal(0, 20, 4))
        eye = np.eye(3)
        for noise_scale in (0.0, 0.05, 1.7):
            prior = MotionPrior(command=command, speeds_rad_s=speeds, process_noise_scale=noise_scale)
            state = random_state(rng, t_us=123)
            accel = predictor.acceleration(prior)
            q_pp, q_pv, q_vv = noise_scale * (0.25 * dt_s**4), noise_scale * (0.5 * dt_s**3), noise_scale * dt_s**2
            p, v = state.mean[:3], state.mean[3:]
            a, b, c = state.cov[:3, :3], state.cov[:3, 3:], state.cov[3:, 3:]
            mean = np.concatenate([p + (dt_s * v + (0.5 * dt_s**2) * accel), v + dt_s * accel])
            b_next = b + (dt_s * c + q_pv * eye)
            cov = np.block([
                [a + ((dt_s * (b + b.T) + (dt_s * dt_s) * c) + q_pp * eye), b_next],
                [b_next.T, c + q_vv * eye],
            ])
            out = predict(state, prior, dt_s, predictor)
            assert same_bits(out.mean, mean)
            assert same_bits(out.cov, cov)
            assert same_bits(_check_cov(cov, "test"), cov)  # exactly symmetric
            assert out.t_us == 123 + int(round(dt_s * 1e6))
            f, q = transition_and_noise(dt_s, noise_scale)
            b_matrix = np.vstack([0.5 * dt_s**2 * eye, dt_s * eye])
            scale = np.abs(state.cov).max() + abs(q).max()
            np.testing.assert_allclose(out.mean, f @ state.mean + b_matrix @ accel, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(out.cov, f @ state.cov @ f.T + q, rtol=0, atol=1e-12 * scale * (1 + dt_s) ** 2)


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
        fh.write(tables.FUSED + "\n")
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
        # repeats of one state, and distinct states at one time
        states += [states[0], states[0], states[1], states[0], states[0]]
        states += [random_state(rng, t_us=5), random_state(rng, t_us=5), random_state(rng, t_us=5)]
        arrays = FusedStates(np.array([s.t_us for s in states]), np.array([s.mean for s in states]),
                             np.array([s.cov for s in states]))
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_fused_csv(str(got), arrays)
        reference_fused_csv(str(want), states)
        assert got.read_bytes() == want.read_bytes()
        rows = got.read_text().splitlines()
        assert len(rows) == 1 + len(states)
        assert rows[51] == "7,-0.0,1e-300,1e+300,24.0,0.1,-2.5,24.0"
        assert "np.float64(" not in got.read_text()
        table = read_table(str(got), tables.FUSED)
        assert same_bits(table[:, 7], [float(np.trace(s.cov)) for s in states])


def per_step_fusion(speed_stream, command_stream, gps_stream, predictor, *, gps_sigma_m=2.0, process_noise_scale=0.05):
    """`run_fusion` as it ran with a check at every step: a MotionPrior and
    a checked `predict` per prediction, `update` per GPS fix."""
    speed_t, props, rpm = (column.tolist() for column in fusion._speed_rows(speed_stream))
    events = heapq.merge(
        [(int(t_us), 0, (label,)) for t_us, label in command_stream],
        [(t_us, 1, (prop, rpm)) for t_us, prop, rpm in zip(speed_t, props, rpm)],
        [(int(row[0]), 2, (np.array(row[1:4]),)) for row in np.asarray(gps_stream, dtype=np.float64).tolist()],
        key=lambda e: (e[0], e[1]),
    )
    r_gps = gps_sigma_m**2 * np.eye(3)
    speeds = np.full(4, math.sqrt(predictor.hover_speed_sq_sum / 4))
    command, state, result = "hover", None, oracles.FusionTrack()
    for t_us, kind, payload in events:
        if kind == 0:
            if payload[0] not in COMMANDS:
                raise DataError(f"unknown command {payload[0]!r} in command stream")
            command = payload[0]
        elif kind == 1:
            speeds[payload[0]] = payload[1] * 2.0 * math.pi / 60.0
        if state is None:
            if kind == 2:
                mean, cov = np.zeros(6), np.zeros((6, 6))
                mean[:3], cov[:3, :3], cov[3:, 3:] = payload[0], r_gps, 4.0 * np.eye(3)
                state = FusedState(t_us=t_us, mean=mean, cov=cov)
                result.states.append(state)
            continue
        if t_us < state.t_us:
            continue
        if t_us > state.t_us:
            prior = MotionPrior(command=command, speeds_rad_s=speeds, process_noise_scale=process_noise_scale)
            state = predict(state, prior, (t_us - state.t_us) * 1e-6, predictor)
            result.states.append(state)
        if kind == 2:
            state = update(state, payload[0], r_gps)
            result.states.append(state)
    return result


def fusion_outcome(run, streams, predictor, **kwargs):
    """The states `run` emits, or the type and message of what it raises."""
    try:
        return run(*streams, predictor, **kwargs).states
    except (ConfigError, DataError, NumericalError) as exc:
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert [s.t_us for s in got] == [s.t_us for s in want]
        for a, b in zip(got, want):
            assert same_bits(a.mean, b.mean) and same_bits(a.cov, b.cov)


def assert_references(got, streams, predictor, install=lambda: None, **kwargs):
    """`got` is what per_step_fusion and oracles.run_fusion give, each run
    after a fresh `install()` (a `bad_q_at` hook, or none)."""
    for reference in (per_step_fusion, oracles.run_fusion):
        install()
        assert_same_outcome(got, fusion_outcome(reference, streams, predictor, **kwargs))


def flight_streams(ms=600, gps_every_ms=200):
    """1 kHz rows of four rotors around hover, commands, GPS fixes."""
    rng = np.random.default_rng(ms)
    t = np.repeat(np.arange(1, ms + 1) * 1000, 4)
    speeds = np.column_stack([t, np.tile(np.arange(4), ms), 3000.0 + rng.normal(0, 60, t.size)])
    commands = [(0, "climb"), (ms * 400, "roll")]
    gps_t = np.arange(0, ms + 1, gps_every_ms) * 1000
    gps = np.column_stack([gps_t, rng.normal(0, 2.0, (gps_t.size, 3))])
    return speeds, commands, gps


def n_states(speeds, gps):
    """The states of `flight_streams`' fusion: the first fix, a step to
    each speed row time and an update per later fix (each fix and command
    falls on a speed row time)."""
    return len(np.unique(speeds[:, 0])) + len(gps)


def with_row(speeds, row, after=None):
    """`speeds` with `row` put after its time's rows, or after row index `after`."""
    at = int(np.searchsorted(speeds[:, 0], row[0], side="right")) if after is None else after + 1
    return np.insert(speeds, at, row, axis=0)


@pytest.fixture()
def bad_q_at(monkeypatch):
    """Make the process noise of the n-th prediction step (counted from 1)
    lose positive semidefiniteness: q_pp = -1e3 where each filter reads the
    steps' Q scalars, `fusion._predict_run` (`run_fusion` and `predict`)
    and the oracle's `_step_terms`. `install` returns the count of steps
    read so far."""

    predict_run, step_terms = fusion._predict_run, oracles._step_terms

    def install(*steps):
        count = [0]

        def poisoned_run(means, covs, k, accels, terms):
            bad = [n - 1 - count[0] for n in steps if count[0] < n <= count[0] + len(accels)]
            count[0] += len(accels)
            if bad:
                terms = terms.copy()
                terms[bad, 2] = -1e3
            predict_run(means, covs, k, accels, terms)

        def poisoned_terms(dt_s, accel_variance):
            count[0] += 1
            dt_s, half_dt2, q_pp, q_pv, q_vv = step_terms(dt_s, accel_variance)
            return dt_s, half_dt2, -1e3 if count[0] in steps else q_pp, q_pv, q_vv

        monkeypatch.setattr(fusion, "_predict_run", poisoned_run)
        monkeypatch.setattr(oracles, "_step_terms", poisoned_terms)
        return count

    return install


class TestDeferredChecks:
    """`run_fusion` checks its steps together; each input raises what a
    check at every step raises, from the first step that fails, and what
    the row-by-row reference `oracles.run_fusion` raises."""

    def compare(self, streams, predictor, install=lambda: None, **kwargs):
        """run_fusion's outcome, run after `install()`, once both references
        give the same, each run after a fresh `install()`."""
        install()
        got = fusion_outcome(run_fusion, streams, predictor, **kwargs)
        assert_references(got, streams, predictor, install, **kwargs)
        return got

    def test_no_failure_bit_equal(self, predictor):
        speeds, commands, gps = flight_streams()
        states = self.compare((speeds, commands, gps), predictor)
        assert len(states) == n_states(speeds, gps)

    def test_non_psd_step_inside_an_interval(self, predictor, bad_q_at):
        count = bad_q_at(57)
        got = fusion_outcome(run_fusion, flight_streams(), predictor)
        assert got[0] is NumericalError
        assert got[1].startswith("covariance lost positive semidefiniteness in predict: min eig -")
        assert count[0] > 57  # found when the interval was checked, not at once
        assert_references(got, flight_streams(), predictor, lambda: bad_q_at(57))

    @pytest.mark.parametrize("rpm", [1e200, np.inf, np.nan])
    def test_non_finite_acceleration(self, predictor, rpm):
        speeds, commands, gps = flight_streams()
        got = self.compare((with_row(speeds, [123_000, 2, rpm]), commands, gps), predictor)
        assert got == (DataError, "non-finite acceleration from predictor")

    def test_negative_rpm(self, predictor):
        speeds, commands, gps = flight_streams()
        got = self.compare((with_row(speeds, [123_000, 2, -1.0]), commands, gps), predictor)
        assert got == (DataError, "rotor speeds must be nonnegative")

    def test_negative_rpm_replaced_before_the_next_step(self, predictor):
        speeds, commands, gps = flight_streams()
        at = int(np.searchsorted(speeds[:, 0], 123_000))  # rotor 0's row predicts to t = 123 ms
        speeds = with_row(with_row(speeds, [123_000, 2, -1.0], after=at), [123_000, 2, 3000.0], after=at + 1)
        assert len(self.compare((speeds, commands, gps), predictor)) == n_states(speeds, gps)

    def test_negative_process_noise(self, predictor):
        got = self.compare(flight_streams(), predictor, process_noise_scale=-0.1)
        assert got == (ConfigError, "process noise scale must be nonnegative")

    def test_non_finite_gps_fix(self, predictor):
        speeds, commands, gps = flight_streams()
        gps[2, 2] = np.nan
        got = self.compare((speeds, commands, gps), predictor)
        assert got == (DataError, "GPS measurement must be a finite 3-vector")

    def test_unknown_command(self, predictor):
        speeds, commands, gps = flight_streams()
        got = self.compare((speeds, commands + [(250_000, "jump")], gps), predictor)
        assert got == (DataError, "unknown command 'jump' in command stream")

    @pytest.mark.parametrize(
        ("bad_step", "row", "error"),
        [
            (250, [280_000, 1, -1.0], NumericalError),  # the covariance first, then the rotor
            (310, [280_000, 1, -1.0], DataError),  # the rotor first
            (300, [260_000, 1, np.inf], DataError),  # the acceleration first
            (210, [260_000, 1, np.inf], NumericalError),
        ],
    )
    def test_two_failures_in_one_interval_raise_the_earlier(self, predictor, bad_q_at, bad_step, row, error):
        speeds, commands, gps = flight_streams()
        streams = (with_row(speeds, row), commands, gps)
        got = self.compare(streams, predictor, lambda: bad_q_at(bad_step))
        assert got[0] is error

    def test_non_psd_step_and_a_bad_gps_fix_in_one_interval(self, predictor, bad_q_at):
        speeds, commands, gps = flight_streams()
        gps[2, 1] = np.inf  # the fix at t = 400 ms
        assert self.compare((speeds, commands, gps), predictor, lambda: bad_q_at(350))[0] is NumericalError

    def test_a_failing_step_before_an_unknown_command(self, predictor, bad_q_at):
        speeds, commands, gps = flight_streams()
        for bad_step, error in [(210, NumericalError), (260, DataError)]:
            got = self.compare((speeds, commands + [(250_000, "jump")], gps), predictor, lambda: bad_q_at(bad_step))
            assert got[0] is error

    def test_a_failing_step_before_a_dropped_row_logs_nothing(self, predictor, bad_q_at, caplog):
        speeds, commands, gps = flight_streams()
        last = int(np.searchsorted(speeds[:, 0], 260_000, side="right")) - 1
        speeds = with_row(speeds, [250_000, 0, 3000.0], after=last)  # behind the clock at t = 260 ms
        for bad_step, warned in [(230, False), (280, True)]:
            caplog.clear()
            bad_q_at(bad_step)
            with caplog.at_level(logging.WARNING, logger="rotorsense.fusion"):
                got = fusion_outcome(run_fusion, (speeds, commands, gps), predictor)
            assert got[0] is NumericalError and ("out-of-order" in caplog.text) == warned
            assert_references(got, (speeds, commands, gps), predictor, lambda: bad_q_at(bad_step))

    def test_steps_past_check_steps_without_gps(self, predictor, bad_q_at):
        speeds, commands, gps = flight_streams(ms=2 * CHECK_STEPS + 300, gps_every_ms=10_000)
        assert len(gps) == 1
        states = self.compare((speeds, commands, gps), predictor)
        n_steps = len(np.unique(speeds[:, 0])) + 1  # and the roll command's
        assert len(states) == 1 + n_steps
        # a failing step is found by the check after every CHECK_STEPS steps, or at the end
        for bad_step, found_after in [(1000, CHECK_STEPS), (2 * CHECK_STEPS + 200, n_steps)]:
            count = bad_q_at(bad_step)
            got = fusion_outcome(run_fusion, (speeds, commands, gps), predictor)
            assert got[0] is NumericalError and count[0] == found_after
            assert_references(got, (speeds, commands, gps), predictor, lambda: bad_q_at(bad_step))

    @pytest.mark.parametrize("prop_id", [-1, 4, 65535])
    def test_a_rotor_id_outside_the_mixer_fails_before_any_step(self, predictor, bad_q_at, prop_id):
        """A late row of rotor id -1, 4 or 65535 raises DataError naming the
        id, not the error of the first step, which fails."""
        speeds, commands, gps = flight_streams(ms=40, gps_every_ms=20)
        speeds = with_row(speeds, [35_000, prop_id, 2900.0])
        got = self.compare((speeds, commands, gps), predictor, lambda: bad_q_at(1))
        assert got == (DataError, f"rotor id {prop_id} in the speed stream is outside 0..3")

    def test_an_eight_rotor_stream_is_rejected(self, predictor):
        """Eight rotors at hover speed under climb would count rotors 4-7 as
        thrust surplus: the stream is rejected, not fused."""
        gps = np.array([[0, 0.0, 0.0, 0.0], [10_000, 0.0, 0.0, 0.0]])
        speeds = np.array([[1000, p, 3000.0] for p in range(8)])
        got = self.compare((speeds, [(0, "climb")], gps), predictor)
        assert got == (DataError, "rotor id 4 in the speed stream is outside 0..3")

    def test_mean_overflow_fails_at_the_next_step(self):
        """A finite acceleration can overflow the mean: that step passes, the
        next one finds a non-finite state; without a next step nothing fails."""
        strong = KinematicPredictor.from_hover_calibration(np.full(4, 1e-100))  # k_f about 2.5e200
        gps = np.array([[0, 0.0, 0.0, 0.0]])
        # about 1e308 m/s^2 from t = 1 us, over 2 s: the mean overflows
        speeds = np.array([[1, p, 3.02e54] for p in range(4)] + [[2_000_001, 0, 3.02e54]])
        states = self.compare((speeds, [(0, "climb")], gps), strong)
        assert np.isfinite(states[-1].cov).all() and not np.isfinite(states[-1].mean).all()
        later = np.vstack([speeds, [[3_000_000, 0, 3000.0], [3_000_000, 1, 3000.0]]])
        got = self.compare((later, [(0, "climb")], gps), strong)
        assert got == (DataError, "non-finite filter state")

    def test_overflowing_covariance_is_a_numerical_error(self, predictor):
        speeds = np.array([[1000, 0, 3000.0], [2_000_000_000, 0, 3000.0]])
        gps = np.array([[0, 0.0, 0.0, 0.0], [3_000_000_000, 0.0, 0.0, 0.0]])
        got = self.compare((speeds, [(500, "hover")], gps), predictor, process_noise_scale=1e300)
        assert got == (NumericalError, "non-finite covariance in predict")

    def test_non_finite_initial_covariance_is_a_bad_state(self, predictor):
        got = self.compare(flight_streams(), predictor, gps_sigma_m=np.inf)
        assert got == (DataError, "non-finite filter state")

    def test_no_motion_prior_per_step(self, predictor, monkeypatch):
        def no_prior(**kwargs):
            raise AssertionError("run_fusion built a MotionPrior")

        speeds, commands, gps = flight_streams()
        want = fusion_outcome(per_step_fusion, (speeds, commands, gps), predictor)
        monkeypatch.setattr(fusion, "MotionPrior", no_prior)
        got = self.compare((speeds, commands, gps), predictor)
        assert_same_outcome(got, want)
        assert len(got) == n_states(speeds, gps)


class TestPredictRuns:
    """`run_fusion` steps the states between GPS fixes, dropped rows and
    checks in runs, with the bits of one `predict` per step."""

    def test_irregular_gaps_in_one_interval(self, predictor, bad_q_at):
        """Jittered row times, tied times, a 7 ms gap and more than
        CHECK_STEPS steps between two fixes."""
        rng = np.random.default_rng(28)
        gaps = rng.integers(1, 1500, CHECK_STEPS + 300)
        gaps[rng.choice(len(gaps), 40, replace=False)] = 0  # a row at the time of the row before
        gaps[700] = 7000
        t = 100 + np.cumsum(gaps)
        speeds = np.column_stack([t, rng.integers(0, 4, t.size), 3000.0 + rng.normal(0, 60, t.size)])
        commands = [(0, "climb"), (int(t[400]) + 3, "roll")]
        gps = np.array([[0, 0.0, 0.0, 0.0], [t[-1] + 500, 1.0, -1.0, 0.5]])
        got = fusion_outcome(run_fusion, (speeds, commands, gps), predictor)
        assert_references(got, (speeds, commands, gps), predictor)
        steps = np.diff([s.t_us for s in got])
        assert len(got) == 1 + len(np.unique(t)) + 1 + 2  # the roll command's step, the last fix's step and update
        assert 7000 in steps and len(np.unique(steps)) > 500 and (steps > 0).sum() > CHECK_STEPS
        for bad_step in (702, CHECK_STEPS + 100):  # just after the 7 ms gap, and past the first check
            bad_q_at(bad_step)
            got = fusion_outcome(run_fusion, (speeds, commands, gps), predictor)
            assert got[0] is NumericalError
            assert_references(got, (speeds, commands, gps), predictor, lambda: bad_q_at(bad_step))

    @pytest.mark.parametrize("streams", [{}, {"ms": 2 * CHECK_STEPS + 300, "gps_every_ms": 10_000}])
    def test_one_run_per_interval(self, predictor, monkeypatch, streams):
        """No step is its own loop iteration: the runs number at most the
        fixes, dropped rows, CHECK_STEPS blocks of steps and one more, and
        every covariance is exactly symmetric."""
        runs = []
        predict_run = fusion._predict_run

        def counted(means, covs, k, accels, terms):
            runs.append(len(accels))
            predict_run(means, covs, k, accels, terms)

        monkeypatch.setattr(fusion, "_predict_run", counted)
        speeds, commands, gps = flight_streams(**streams)
        states = run_fusion(speeds, commands, gps, predictor).states
        n_steps = sum(runs)
        assert n_steps == len(states) - len(gps)
        fixes, dropped = len(gps), 0
        assert len(runs) <= fixes + dropped + math.ceil(n_steps / CHECK_STEPS) + 1
        assert same_bits(states.cov, states.cov.transpose(0, 2, 1))


class TestCheckPsd:
    def test_a_stack_names_its_first_failing_covariance(self):
        covs = np.stack([np.eye(6)] * 5)
        covs[3, 0, 0] = -2.0
        covs[4, 1, 1] = np.nan
        with pytest.raises(NumericalError, match="in predict: min eig -2.0"):
            fusion._check_psd(covs, "predict")
        covs[3, 0, 0] = 1.0
        with pytest.raises(NumericalError, match="non-finite covariance in predict"):
            fusion._check_psd(covs, "predict")
        fusion._check_psd(covs[:4], "predict")
        fusion._check_psd(covs[:0], "predict")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_covariance_in_update(self, bad):
        state = make_state()
        with pytest.raises(NumericalError, match="non-finite covariance in update"):
            update(state, np.zeros(3), np.diag([1.0, 1.0, bad]))

    def test_a_stacked_check_words_its_error_as_the_per_step_check(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            a = rng.normal(size=(6, 6))
            cov = 0.5 * (a + a.T)
            want = f"covariance lost positive semidefiniteness in predict: min eig {np.linalg.eigvalsh(cov).min()}"
            for covs in (cov, np.stack([np.eye(6), cov, np.eye(6)])):
                with pytest.raises(NumericalError) as exc:
                    fusion._check_psd(covs, "predict")
                assert str(exc.value) == want


@contextmanager
def fusion_warnings():
    """The messages the fusion logger warns with inside the block."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("rotorsense.fusion")
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


# times on a 250 us grid tie often; a row drawn after a later one of its
# stream lands behind the filter clock
TIMES = st.integers(0, 40).map(lambda k: 250 * k)
RPMS = st.one_of(st.floats(2500.0, 3500.0), st.sampled_from([-1.0, 0.0, np.nan, np.inf, 3000.0]))


class TestMerge:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        speeds=st.lists(st.tuples(TIMES, st.integers(0, 3), RPMS), max_size=30),
        commands=st.lists(st.tuples(TIMES, st.sampled_from(COMMANDS * 3 + ("jump",))), max_size=6),
        fixes=st.lists(st.tuples(TIMES, *[st.floats(-5.0, 5.0)] * 3), max_size=6),
    )
    def test_unsorted_tied_streams_match_the_row_by_row_merge(self, speeds, commands, fixes):
        """Unsorted streams with tied times, rows before the first fix and
        behind the clock, negative or NaN rpm and unknown commands: the
        same states or error as `oracles.run_fusion`, and the same
        out-of-order warnings in the same order."""
        predictor = KinematicPredictor.from_hover_calibration(HOVER)
        streams = (np.array(speeds, dtype=float).reshape(-1, 3), commands, np.array(fixes, dtype=float).reshape(-1, 4))
        with fusion_warnings() as got_warnings:
            got = fusion_outcome(run_fusion, streams, predictor)
        with fusion_warnings() as want_warnings:
            want = fusion_outcome(oracles.run_fusion, streams, predictor)
        assert_same_outcome(got, want)
        assert got_warnings == want_warnings


def test_fuse_writes_the_reference_bytes_without_a_state_per_measurement(tmp_path, monkeypatch):
    """`fuse` over a 2 s flight's 1 kHz rotor speeds writes the fused.csv
    of the row-by-row reference and the per-state formatter, and builds at
    most one FusedState per GPS fix, not one per measurement."""
    from rotorsense import pipeline as pl
    from rotorsense.cli import main
    from rotorsense.config import PipelineConfig

    drone = DroneSpec(hover_rpm=3000.0, delta_rpm=300.0, rpm_jitter=60.0, gps_rate_hz=5.0, gps_sigma_m=2.0)
    script = [(0, "hover"), (500_000, "climb"), (1_200_000, "roll")]
    flight = simulate_flight(script, drone, NO_NOISE, duration_us=2_000_000, seed=3, tick_us=1000)
    truth = flight.truth
    t, prop, rpm = pl.prop_rpm_columns(truth.times_us, flight.rpm_traces)
    paths = {name: str(tmp_path / f"{name}.csv") for name in ("speeds", "commands", "gps", "fused", "want")}
    tables.SPEEDS.write(paths["speeds"], [t, prop, rpm, np.zeros(len(t))])
    pl.write_command_csv(paths["commands"], [(int(k), truth.command_labels[int(c)])
                                             for k, c in zip(truth.times_us[::100], truth.command_ids[::100])])
    pl.write_xyz_csv(paths["gps"], flight.gps)

    cfg = PipelineConfig()
    predictor = KinematicPredictor.from_hover_calibration(np.full(4, rpm_to_rad_s(cfg.hover_rpm)), cfg.tilt_fraction)
    want = oracles.run_fusion(
        pl.read_speed_csv(paths["speeds"])[:, :3], pl.read_command_csv(paths["commands"]),
        pl.read_table(paths["gps"], tables.GPS), predictor,
        gps_sigma_m=cfg.gps_sigma_m, process_noise_scale=cfg.process_noise_scale,
    )
    reference_fused_csv(paths["want"], want.states)

    calls = [0]
    init = FusedState.__init__

    def counting_init(self, *args, **kwargs):
        calls[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(FusedState, "__init__", counting_init)
    rc = main(["fuse", "--speeds", paths["speeds"], "--commands", paths["commands"], "--gps", paths["gps"],
               "--out-csv", paths["fused"]])
    assert rc == 0
    fused = open(paths["fused"], "rb").read()
    assert fused == open(paths["want"], "rb").read()
    lines = fused.splitlines()
    # a line per state, none repeated: one per step of the 1 kHz clock, one per update
    assert len(lines) == 1 + len(want.states) < len(t) and all(a != b for a, b in zip(lines, lines[1:]))
    assert calls[0] <= len(flight.gps)
