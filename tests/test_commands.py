import math
import re
import warnings

import numpy as np
import oracles
import pytest

from rotorsense import commands
from rotorsense.cli import EXIT_NUMERIC, EXIT_OK, main
from rotorsense.commands import (
    CommandModel,
    CommandSample,
    load_model,
    lowpass_filter,
    predict_command,
    predict_commands,
    save_model,
    stratified_folds,
    train_command_model,
)
from rotorsense.dynamics import COMMANDS, rpm_to_rad_s
from rotorsense.errors import ConfigError, DataError, NumericalError
from rotorsense.sim import NO_NOISE, DroneSpec, generate_command_dataset, simulate_flight


@pytest.fixture(scope="module")
def dataset():
    drone = DroneSpec(hover_rpm=3000.0, delta_rpm=300.0, rpm_jitter=60.0)
    raw = generate_command_dataset(40, drone, window_samples=100, rate_hz=1000.0, seed=11)
    return [CommandSample(speeds_sq=x, label=lab) for x, lab in raw]


class TestLowpass:
    def test_constant_trace_unchanged(self):
        x = np.full(200, 7.5)
        assert lowpass_filter(x, 20.0, 1000.0) == pytest.approx(x)

    def test_high_frequency_attenuation_matches_pole(self):
        """Two-pass gain of a single pole at f: ((1-a)^2 /
        (1 - 2a cos(2 pi f/fs) + a^2)); a tone far above cutoff drops
        below 0.1 amplitude."""
        fs, fc, f = 1000.0, 20.0, 200.0
        n = 4096
        t = np.arange(n) / fs
        x = np.sin(2 * np.pi * f * t)
        y = lowpass_filter(x, fc, fs)
        measured = np.abs(y[n // 4 : -n // 4]).max()
        a = math.exp(-2 * math.pi * fc / fs)
        expected = (1 - a) ** 2 / (1 - 2 * a * math.cos(2 * math.pi * f / fs) + a**2)
        assert measured < 0.1
        assert measured == pytest.approx(expected, rel=0.05)

    def test_step_response_monotone_no_overshoot(self):
        x = np.concatenate([np.zeros(100), np.ones(100)])
        y = lowpass_filter(x, 30.0, 1000.0)
        assert np.all(np.diff(y) >= -1e-12)
        assert y.max() <= 1.0 + 1e-12

    def test_cutoff_above_nyquist_rejected(self):
        with pytest.raises(ConfigError, match="Nyquist"):
            lowpass_filter(np.ones(10), 600.0, 1000.0)


class TestFeatures:
    def test_constant_trace_features(self):
        sample = np.full((1, 100), 42.0)
        f = oracles.extract_features(sample, rate_hz=1000.0)
        mean, std, domfreq, energy, entropy = f
        assert mean == pytest.approx(42.0)
        assert std == pytest.approx(0.0)
        assert domfreq == 0.0 and energy == 0.0 and entropy == 0.0

    def test_sinusoid_dominant_frequency_within_one_bin(self):
        fs, f0, n = 1000.0, 10.0, 1024
        t = np.arange(n) / fs
        sample = (5.0 + np.sin(2 * np.pi * f0 * t))[None, :]
        feats = oracles.extract_features(sample, rate_hz=fs)
        bin_hz = fs / n  # ~0.977 Hz
        assert abs(feats[2] - f0) <= bin_hz

    def test_entropy_noise_above_tone(self):
        fs, n = 1000.0, 256
        t = np.arange(n) / fs
        tone = (np.sin(2 * np.pi * 25.0 * t))[None, :] + 2.0
        wins = 0
        for seed in range(50):
            noise = np.abs(np.random.default_rng(seed).normal(2.0, 1.0, n))[None, :]
            e_noise = oracles.extract_features(noise, fs)[4]
            e_tone = oracles.extract_features(tone, fs)[4]
            wins += e_noise > e_tone
        assert wins == 50

    def test_deterministic_bit_for_bit(self, dataset):
        a = oracles.extract_features(dataset[0])
        b = oracles.extract_features(dataset[0])
        assert np.array_equal(a, b)

    def test_dimension_is_five_per_channel(self, dataset):
        assert oracles.extract_features(dataset[0]).shape == (5 * 4,)


def flat_and_spiky_windows(n: int, rng: np.random.Generator) -> np.ndarray:
    """Rows of length n: random, constant, constant plus a ripple below the
    flat floor, zero, and a square-speed-like trace."""
    base = 1e5 + rng.normal(0.0, 1.0, size=n)
    return np.stack([
        rng.normal(size=n), np.full(n, 42.0), 42.0 + 1e-13 * rng.normal(size=n), np.zeros(n),
        np.square(base), rng.uniform(0.0, 1e-3, size=n),
    ])


class TestBatchedMatchesOracles:
    """The stacked filter, the feature kernel and lockstep fits give the
    per-channel, per-fit references' bits."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 99, 100, 101])
    def test_filter_stack_equals_scalar_loop(self, n):
        rng = np.random.default_rng(n)
        stack = rng.normal(1e5, 300.0, size=(3, 4, n))
        got = lowpass_filter(stack, 50.0, 1000.0)
        assert got.shape == stack.shape
        for block, want_block in zip(got, stack):
            for row, trace in zip(block, want_block):
                assert np.array_equal(row, oracles.lowpass_filter(trace, 50.0, 1000.0))
        assert np.array_equal(lowpass_filter(stack[0, 0], 50.0, 1000.0), oracles.lowpass_filter(stack[0, 0], 50.0, 1000.0))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 99, 100, 101, 128])
    def test_features_equal_per_channel(self, n):
        rows = flat_and_spiky_windows(n, np.random.default_rng(n))
        got = commands._features(rows, 1000.0)
        want = np.stack([oracles.channel_features(row, 1000.0) for row in rows])
        assert np.array_equal(got, want)
        assert np.array_equal(oracles.extract_features(rows, 1000.0), want.reshape(-1))
        if n > 2:  # the constant rows take the flat branch
            assert np.array_equal(got[1, 2:], np.zeros(3)) and np.array_equal(got[2, 2:], np.zeros(3))

    @pytest.mark.parametrize("signal", [[1.0, 0.0, -1.0, 0.0], [1.0, 0.0, -1.0, 0.0] * 2, [1.0, -1.0] * 8,
                                        [3.0, 2.0, 1.0, 2.0] * 25])
    def test_zero_spectral_bin_keeps_the_positive_sum(self, signal):
        """A row with an exactly-zero bin sums only its positive terms,
        next to rows without one."""
        x = np.array(signal)
        rows = np.stack([x, np.random.default_rng(0).normal(size=x.size), x[::-1].copy()])
        padded = np.zeros(1 << (x.size - 1).bit_length())
        padded[: x.size] = x - x.mean()
        assert (np.abs(np.fft.rfft(padded)[1:]) == 0).any()
        want = np.stack([oracles.channel_features(row, 1000.0) for row in rows])
        assert np.array_equal(commands._features(rows, 1000.0), want)

    def test_features_do_not_warn(self):
        rows = np.vstack([flat_and_spiky_windows(100, np.random.default_rng(3)), np.full((1, 100), np.inf)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            feats = commands._features(rows, 1000.0)
        assert np.isfinite(feats[:-1]).all() and not np.isfinite(feats[-1]).all()

    def test_floor_of_a_huge_window_is_infinite(self):
        """A window of mean 1e164 has a floor that overflows a double: the
        per-channel reference raised OverflowError (exit 1 on
        `hover_rpm=1e82`); the kernel cannot tell whether the window is
        flat and gives NaN spectral features, next to finite rows."""
        rows = 1e164 + 1e150 * np.random.default_rng(2).normal(size=(2, 100))
        with pytest.raises(OverflowError):
            oracles.channel_features(rows[0], 1000.0)
        small = flat_and_spiky_windows(100, np.random.default_rng(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            feats = commands._features(np.vstack([rows, small]), 1000.0)
        assert np.array_equal(feats[:2, :2], np.stack([rows.mean(axis=1), rows.std(axis=1)], axis=1))
        assert np.isnan(feats[:2, 2:]).all()
        assert np.array_equal(feats[2:], commands._features(small, 1000.0))

    def test_huge_hover_speed_exits_4_with_one_stderr_line(self, tmp_path, capsys):
        """`hover_rpm=1e82` squares to about 1e164: every window's floor
        overflows, and training stops before it writes a model."""
        config = tmp_path / "drone.cfg"
        config.write_text("hover_rpm=1e82\n")
        model = tmp_path / "m.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--config", str(config), "train-command", "--model", str(model), "--samples-per-class", "6"])
        assert code == EXIT_NUMERIC and not model.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical error:")

    @pytest.mark.parametrize(
        "per_class, k_folds, cutoff_hz, seed",
        [(7, 5, 50.0, 1), (7, 5, None, 3), (11, 3, 50.0, 7919), (40, 5, 50.0, 11)],
    )
    def test_training_equals_per_sample_reference(self, per_class, k_folds, cutoff_hz, seed):
        """Fold sizes differ when k does not divide the per-class count (7
        per class in 5 folds: 30 and 36 training samples), so the fits step
        in groups of equal size."""
        drone = DroneSpec(hover_rpm=3000.0, delta_rpm=300.0, rpm_jitter=60.0)
        raw = generate_command_dataset(per_class, drone, window_samples=100, rate_hz=1000.0, seed=seed)
        samples = [CommandSample(speeds_sq=x, label=lab) for x, lab in raw]
        model, accs = train_command_model(samples, k_folds=k_folds, seed=seed, epochs=6, cutoff_hz=cutoff_hz)
        w, b, mean, std, want_accs = oracles.train_command_model(
            samples, k_folds, 1e-3, 6, seed, 1000.0, cutoff_hz,
        )
        for got, want in ((model.weights, w), (model.biases, b), (model.feature_mean, mean),
                          (model.feature_std, std), (accs, want_accs)):
            assert np.array_equal(got, want)

    def test_lockstep_fits_equal_sequential_fits(self):
        rng = np.random.default_rng(5)
        features, labels = rng.normal(size=(3, 50, 4)), rng.integers(0, 3, size=(3, 50))
        w, b = commands._pegasos_ovr(features, labels, 3, 1e-2, 5, [np.random.default_rng(s) for s in (1, 2, 3)])
        for f, s in enumerate((1, 2, 3)):
            want_w, want_b = oracles.pegasos_ovr(features[f], labels[f], 3, 1e-2, 5, np.random.default_rng(s))
            assert np.array_equal(w[f], want_w) and np.array_equal(b[f], want_b)

    def test_overflowing_jitter_exits_4_with_one_stderr_line(self, tmp_path, capsys):
        """Squared speeds of 1e200 RPM jitter overflow: the command reports
        that once, and numpy prints nothing."""
        assert np.geterr()["over"] == "warn"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["train-command", "--model", str(tmp_path / "m.txt"), "--jitter-rpm", "1e200",
                         "--samples-per-class", "6"])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical error:")


class TestTraining:
    def test_linearly_separable_two_class_perfect_folds(self):
        rng = np.random.default_rng(0)
        samples = []
        for label, base in (("hover", 50.0), ("climb", 200.0)):
            # constant traces at class-distinct levels: separation lives
            # entirely in the mean feature
            for _ in range(20):
                level = base + float(rng.uniform(-1.0, 1.0))
                samples.append(CommandSample(speeds_sq=np.full((4, 64), level), label=label))
        model, accs = train_command_model(
            samples, k_folds=5, seed=3, cutoff_hz=None, classes=("hover", "climb")
        )
        assert accs.mean() == 1.0
        # a training sample from the separable set maps to its own label
        for s in samples[::5]:
            assert predict_command(model, s)[0] == s.label

    def test_generated_dataset_reaches_90_percent(self, dataset):
        model, accs = train_command_model(dataset, k_folds=5, seed=11)
        assert accs.mean() >= 0.90

    def test_missing_class_listed(self, dataset):
        partial = [s for s in dataset if s.label != "yaw"]
        with pytest.raises(DataError, match="yaw"):
            train_command_model(partial, k_folds=5)

    def test_too_few_samples_per_class(self, dataset):
        small = dataset[:1] + [s for s in dataset if s.label != "hover"]
        with pytest.raises(DataError, match="hover"):
            train_command_model(small, k_folds=5)

    def test_determinism_per_seed(self, dataset):
        m1, a1 = train_command_model(dataset, k_folds=5, seed=7)
        m2, a2 = train_command_model(dataset, k_folds=5, seed=7)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.biases, m2.biases)
        assert np.array_equal(a1, a2)

    def test_duplicated_dataset_equivalent_decisions(self, dataset):
        """Duplicating every sample (with lambda adjusted for the doubled
        pass length) changes the shuffle but not the learned decision in
        any material way."""
        m1, a1 = train_command_model(dataset, k_folds=5, seed=7, lambda_reg=1e-3)
        m2, a2 = train_command_model(dataset + dataset, k_folds=5, seed=7, lambda_reg=5e-4)
        agree = np.mean([predict_command(m1, s)[0] == predict_command(m2, s)[0] for s in dataset])
        assert agree >= 0.95
        assert abs(a1.mean() - a2.mean()) <= 0.05

    def test_scale_invariance_after_refit(self, dataset):
        """Scaling all raw traces by a constant and refitting the
        standardization leaves every prediction unchanged."""
        scaled = [CommandSample(speeds_sq=s.speeds_sq * 4.0, label=s.label) for s in dataset]
        m1, _ = train_command_model(dataset, k_folds=5, seed=5)
        m2, _ = train_command_model(scaled, k_folds=5, seed=5)
        for s, ss in zip(dataset, scaled):
            assert predict_command(m1, s)[0] == predict_command(m2, ss)[0]


class TestPredict:
    def test_training_samples_mostly_self_labelled(self, dataset):
        model, _ = train_command_model(dataset, k_folds=5, seed=1)
        correct = np.mean([predict_command(model, s)[0] == s.label for s in dataset])
        assert correct >= 0.95

    def test_zero_scores_tie_break_to_hover(self, dataset):
        model, _ = train_command_model(dataset, k_folds=5, seed=2)
        model.weights = np.zeros_like(model.weights)
        model.biases = np.zeros_like(model.biases)
        label, scores = predict_command(model, dataset[-1])
        assert label == "hover"
        assert set(scores) == set(COMMANDS)

    def test_dimension_mismatch(self, dataset):
        model, _ = train_command_model(dataset, k_folds=5, seed=2)
        with pytest.raises(DataError, match="shape"):
            predict_command(model, np.ones((4, 17)))

    def test_climb_offset_on_hover_sample(self, dataset):
        """A hover-pattern window shifted up by delta on every rotor is
        read as climb."""
        model, _ = train_command_model(dataset, k_folds=5, seed=11)
        rng = np.random.default_rng(99)
        for _ in range(10):
            rpm = 3000.0 + rng.normal(0, 60.0, size=(4, 100))
            climb_sq = np.square(rpm_to_rad_s(rpm + 300.0))
            assert predict_command(model, climb_sq)[0] == "climb"


class TestBatchedPredict:
    """`predict_commands` classifies a stack through training's filter,
    features and standardization with the per-window reference's bits."""

    @pytest.fixture(scope="class", params=[50.0, None], ids=["cutoff50", "nocutoff"])
    def model(self, request):
        drone = DroneSpec(hover_rpm=3000.0, delta_rpm=300.0, rpm_jitter=60.0)
        raw = generate_command_dataset(7, drone, window_samples=100, rate_hz=1000.0, seed=5)
        samples = [CommandSample(speeds_sq=x, label=lab) for x, lab in raw]
        return train_command_model(samples, k_folds=5, seed=5, epochs=6, cutoff_hz=request.param)[0]

    @pytest.fixture(scope="class")
    def windows(self):
        drone = DroneSpec(hover_rpm=3000.0, delta_rpm=300.0, rpm_jitter=60.0)
        raw = generate_command_dataset(22, drone, window_samples=100, rate_hz=1000.0, seed=17)
        return np.stack([x for x, _ in raw])[np.random.default_rng(17).permutation(len(raw))]

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
    def test_stack_equals_per_window_reference(self, model, windows, n):
        labels, scores = predict_commands(model, windows[:n])
        assert scores.shape == (n, len(COMMANDS))
        for window, label, row in zip(windows[:n], labels, scores):
            want_label, want_scores = oracles.predict_command(model, window)
            assert label == want_label and np.array_equal(row, want_scores)

    def test_one_window_is_a_stack_of_one(self, model, windows):
        label, scores = predict_command(model, windows[3])
        want_label, want_scores = oracles.predict_command(model, windows[3])
        assert label == want_label
        assert np.array_equal([scores[c] for c in COMMANDS], want_scores)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e300])
    def test_non_finite_features_raise_without_a_warning(self, model, windows, bad):
        stack = windows[:3].copy()
        stack[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="not finite"):
                predict_commands(model, stack)

    def test_shape_mismatch(self, model, windows):
        with pytest.raises(DataError, match="shape"):
            predict_commands(model, windows[:, :, :50])
        with pytest.raises(DataError, match="no windows"):
            predict_commands(model, windows[:0])


class TestInferCommandCli:
    """`infer-command` collects every complete window, then classifies them
    in one call."""

    @pytest.fixture(scope="class")
    def model_path(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("model") / "model.txt")
        assert main(["--seed", "11", "train-command", "--model", path, "--samples-per-class", "40"]) == EXIT_OK
        return path

    @pytest.fixture(scope="class")
    def flight_rows(self):
        """1 kHz speed rows of a 1 s hover, climb, roll flight, time-ordered."""
        drone = DroneSpec(hover_rpm=3000.0, delta_rpm=300.0, rpm_jitter=60.0)
        flight = simulate_flight([(0, "hover"), (300_000, "climb"), (600_000, "roll")], drone, NO_NOISE,
                                 duration_us=1_000_000, seed=3, tick_us=1000)
        times = flight.truth.times_us
        return [f"{int(t)},{p},{float(flight.rpm_traces[p, k])!r},0.0\n" for k, t in enumerate(times) for p in range(4)]

    @staticmethod
    def infer(tmp_path, model_path, rows, name="speeds.csv"):
        speeds = tmp_path / name
        speeds.write_text("t_ref,prop_id,rpm,objective\n" + "".join(rows))
        out = tmp_path / (name + ".commands.csv")
        assert main(["infer-command", str(speeds), "--model", model_path, "--out-csv", str(out)]) == EXIT_OK
        return out.read_bytes()

    def test_labels_equal_the_per_window_reference(self, tmp_path, model_path, flight_rows):
        got = self.infer(tmp_path, model_path, flight_rows).decode().splitlines()
        speeds = np.array([[float(v) for v in row.split(",")] for row in flight_rows])
        want = oracles.infer_commands(load_model(model_path), speeds, 100_000.0)
        assert got == ["t,command"] + [f"{t},{label}" for t, label in want]
        assert len(want) == 10 and len({label for _, label in want}) > 1

    def test_row_order_does_not_change_the_labels(self, tmp_path, model_path, flight_rows):
        want = self.infer(tmp_path, model_path, flight_rows)
        shuffled = [flight_rows[i] for i in np.random.default_rng(0).permutation(len(flight_rows))]
        assert self.infer(tmp_path, model_path, flight_rows[::-1], "reversed.csv") == want
        assert self.infer(tmp_path, model_path, shuffled, "shuffled.csv") == want

    def test_overflowing_squares_exit_4_with_one_stderr_line(self, tmp_path, capsys, model_path):
        speeds = tmp_path / "speeds.csv"
        speeds.write_text("t_ref,prop_id,rpm,objective\n"
                          + "".join(f"{t},{p},1e200,0.0\n" for t in range(0, 300_000, 1000) for p in range(4)))
        out = tmp_path / "c.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["infer-command", str(speeds), "--model", model_path, "--out-csv", str(out)])
        assert code == EXIT_NUMERIC and not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical error:")


class TestFolds:
    def test_folds_disjoint_cover_stratified(self):
        labels = np.repeat(np.arange(6), 25)
        folds = stratified_folds(labels, 5, np.random.default_rng(0))
        all_idx = np.concatenate(folds)
        assert len(all_idx) == 150
        assert len(np.unique(all_idx)) == 150
        for fold in folds:
            counts = np.bincount(labels[fold], minlength=6)
            assert np.all(counts == 5)


class TestModelFile:
    def test_round_trip(self, dataset, tmp_path):
        model, _ = train_command_model(dataset, k_folds=5, seed=4)
        path = str(tmp_path / "model.txt")
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.biases, model.biases)
        assert np.array_equal(back.feature_mean, model.feature_mean)
        assert np.array_equal(back.feature_std, model.feature_std)
        assert np.array_equal(back.fold_accuracies, model.fold_accuracies)
        assert back.classes == model.classes
        assert (back.n_props, back.window, back.rate_hz, back.cutoff_hz) == (
            model.n_props, model.window, model.rate_hz, model.cutoff_hz,
        )
        for s in dataset[::17]:
            assert predict_command(back, s) == predict_command(model, s)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bogus.txt"
        path.write_text("not a model\n")
        with pytest.raises(DataError):
            load_model(str(path))


class TestModelFileGarbled:
    @staticmethod
    def saved_lines(tmp_path):
        n = len(COMMANDS)
        model = CommandModel(
            weights=np.arange(3.0 * n).reshape(n, 3), biases=np.linspace(-1.0, 1.0, n),
            feature_mean=np.array([0.5, 1.5, 2.5]), feature_std=np.array([1.0, 2.0, 3.0]),
            n_props=4, window=64, rate_hz=200.0, cutoff_hz=None, fold_accuracies=np.array([0.9, 0.8]),
        )
        path = tmp_path / "model.txt"
        save_model(model, str(path))
        assert load_model(str(path)).weights.shape == (n, 3)
        return path, path.read_text().splitlines()

    @pytest.mark.parametrize("keep", [1, 2, 3, 4])
    def test_truncated_file(self, tmp_path, keep):
        path, lines = self.saved_lines(tmp_path)
        path.write_text("\n".join(lines[:keep]) + "\n")
        with pytest.raises(DataError, match="truncated"):
            load_model(str(path))

    @pytest.mark.parametrize(
        "lineno, old, new",
        [
            (2, "n_props=4", "n_props=four"),
            (2, " cutoff_hz=none", ""),
            (3, "classes=", "labels="),
            (4, "0.5", "half"),
            (5, "feature_std=", "feature_std "),
            (6, "bias=", "bias "),
            (6, "weights=0.0", "weights=zero"),
        ],
    )
    def test_garbled_line_named(self, tmp_path, lineno, old, new):
        path, lines = self.saved_lines(tmp_path)
        assert old in lines[lineno - 1]
        lines[lineno - 1] = lines[lineno - 1].replace(old, new, 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=re.escape(f"{path}:{lineno}:")):
            load_model(str(path))

    @pytest.mark.parametrize("edit", ["drop_class", "short_weights", "short_std"])
    def test_inconsistent_tables(self, tmp_path, edit):
        path, lines = self.saved_lines(tmp_path)
        if edit == "drop_class":
            del lines[5]
        elif edit == "short_weights":
            lines[5] = lines[5].rsplit(" ", 1)[0]
        else:
            lines[4] = lines[4].rsplit(" ", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=re.escape(str(path))):
            load_model(str(path))
