import re
import warnings

import numpy as np
import oracles
import pytest

from rotorsense import commands
from rotorsense.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from rotorsense.commands import (
    CommandModel,
    load_model,
    predict_command,
    predict_commands,
    save_model,
    stratified_folds,
    train_command_model,
)
from rotorsense.dynamics import COMMANDS, command_rpm_pattern, rpm_to_rad_s
from rotorsense.errors import DataError, NumericalError
from rotorsense.sim import NO_NOISE, DroneSpec, generate_command_dataset, simulate_flight


@pytest.fixture(scope="module")
def dataset():
    """(windows, labels): 40 jittered windows of each command."""
    drone = DroneSpec(hover_rpm=3000.0, delta_rpm=300.0, rpm_jitter=60.0)
    return generate_command_dataset(40, drone, window_samples=100, seed=11)


class TestFeatures:
    def test_constant_trace_features(self):
        assert np.array_equal(commands._features(np.full((1, 100), 42.0)), [42.0])

    def test_deterministic_bit_for_bit(self, dataset):
        a = commands._features(dataset[0][0])
        b = commands._features(dataset[0][0])
        assert np.array_equal(a, b)

    def test_dimension_is_one_per_channel(self, dataset):
        assert commands._features(dataset[0][0]).shape == (4,)


def flat_and_spiky_windows(n: int, rng: np.random.Generator) -> np.ndarray:
    """Rows of length n: random, constant, constant plus a tiny ripple,
    zero, a square-speed-like trace and small values."""
    base = 1e5 + rng.normal(0.0, 1.0, size=n)
    return np.stack([
        rng.normal(size=n), np.full(n, 42.0), 42.0 + 1e-13 * rng.normal(size=n), np.zeros(n),
        np.square(base), rng.uniform(0.0, 1e-3, size=n),
    ])


class TestBatchedMatchesOracles:
    """The dataset draw, the feature kernel and lockstep fits give the
    per-window, per-channel, per-fit references' bits."""

    @pytest.mark.parametrize("jitter", [0.0, 60.0])
    def test_dataset_equals_per_window_draws(self, jitter):
        drone = DroneSpec(hover_rpm=3000.0, delta_rpm=300.0, rpm_jitter=jitter)
        windows, labels = generate_command_dataset(7, drone, window_samples=50, seed=3)
        want_windows, want_labels = oracles.generate_command_dataset(7, drone, 50, seed=3)
        assert windows.shape == (7 * len(COMMANDS), 4, 50) and windows.dtype == np.float64
        assert windows.tobytes() == want_windows.tobytes()
        assert labels == want_labels

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 99, 100, 101, 128])
    def test_features_equal_per_channel(self, n):
        rows = flat_and_spiky_windows(n, np.random.default_rng(n))
        want = oracles.channel_means(rows)
        assert np.array_equal(commands._features(rows), want)
        stack = np.stack([rows, rows[::-1], rows[:, ::-1]])  # a stack of windows, each row reduced alone
        got = commands._features(stack)
        assert got.shape == (3, rows.shape[0])
        for window, row in zip(stack, got):
            assert np.array_equal(row, oracles.channel_means(window))

    def test_features_do_not_warn(self):
        rows = np.vstack([flat_and_spiky_windows(100, np.random.default_rng(3)), np.full((1, 100), np.inf),
                          np.full((1, 100), 1e308)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            feats = commands._features(rows)
        assert np.isfinite(feats[:-2]).all() and np.isposinf(feats[-2:]).all()

    def test_training_rejects_features_that_do_not_vary(self):
        """Windows whose means are all the same double give a fit with
        nothing to separate by: NumericalError, not a chance-level model."""
        labels = [c for c in COMMANDS for _ in range(5)]
        with pytest.raises(NumericalError, match="no training feature varies"):
            train_command_model(np.full((len(labels), 4, 10), 1e163), labels, k_folds=5)

    def test_huge_hover_speed_exits_4_with_one_stderr_line(self, tmp_path, capsys):
        """`hover_rpm=1e82` squares to about 1e164, where the mixer's offsets
        and the jitter round away: every window has the same means, and
        training stops before it writes a model."""
        config = tmp_path / "drone.cfg"
        config.write_text("hover_rpm=1e82\n")
        model = tmp_path / "m.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--config", str(config), "train-command", "--model", str(model), "--samples-per-class", "6"])
        assert code == EXIT_NUMERIC and not model.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical error:")

    @pytest.mark.parametrize("per_class, k_folds, seed", [(7, 5, 1), (7, 5, 3), (11, 3, 7919), (40, 5, 11)])
    def test_training_equals_per_sample_reference(self, per_class, k_folds, seed):
        """Fold sizes differ when k does not divide the per-class count (7
        per class in 5 folds: 30 and 36 training samples), so the fits step
        in groups of equal size."""
        drone = DroneSpec(hover_rpm=3000.0, delta_rpm=300.0, rpm_jitter=60.0)
        windows, labels = generate_command_dataset(per_class, drone, window_samples=100, seed=seed)
        model, accs = train_command_model(windows, labels, k_folds=k_folds, seed=seed, epochs=6)
        w, b, mean, std, want_accs = oracles.train_command_model(windows, labels, k_folds, 1e-3, 6, seed)
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
        windows, labels = [], []
        for label, base in (("hover", 50.0), ("climb", 200.0)):
            # constant traces at class-distinct levels: separation lives
            # entirely in the mean feature
            for _ in range(20):
                level = base + float(rng.uniform(-1.0, 1.0))
                windows.append(np.full((4, 64), level))
                labels.append(label)
        model, accs = train_command_model(np.stack(windows), labels, k_folds=5, seed=3, classes=("hover", "climb"))
        assert accs.mean() == 1.0
        # a training sample from the separable set maps to its own label
        for window, label in zip(windows[::5], labels[::5]):
            assert predict_command(model, window)[0] == label

    def test_generated_dataset_reaches_90_percent(self, dataset):
        model, accs = train_command_model(*dataset, k_folds=5, seed=11)
        assert accs.mean() >= 0.90

    def test_missing_class_listed(self, dataset):
        windows, labels = dataset
        partial = [i for i, label in enumerate(labels) if label != "yaw"]
        with pytest.raises(DataError, match="yaw"):
            train_command_model(windows[partial], [labels[i] for i in partial], k_folds=5)

    def test_too_few_samples_per_class(self, dataset):
        windows, labels = dataset
        small = [0] + [i for i, label in enumerate(labels) if label != "hover"]
        with pytest.raises(DataError, match="hover"):
            train_command_model(windows[small], [labels[i] for i in small], k_folds=5)

    @pytest.mark.parametrize("windows, labels, message", [
        (np.ones((6, 10)), list(COMMANDS), "sample must be a 2-D"),
        (np.full((6, 4, 10), -1.0), list(COMMANDS), "squared speeds must be nonnegative"),
        (np.ones((6, 4, 10)), [*COMMANDS[:5], "flip"], "unknown label 'flip'"),
        (np.ones((6, 4, 10)), list(COMMANDS[:5]), "5 labels for 6 windows"),
    ], ids=["2d_stack", "negative_square", "unknown_label", "label_count"])
    def test_bad_training_data_raises(self, windows, labels, message):
        with pytest.raises(DataError, match=message):
            train_command_model(windows, labels, k_folds=1)

    def test_determinism_per_seed(self, dataset):
        m1, a1 = train_command_model(*dataset, k_folds=5, seed=7)
        m2, a2 = train_command_model(*dataset, k_folds=5, seed=7)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.biases, m2.biases)
        assert np.array_equal(a1, a2)

    def test_duplicated_dataset_equivalent_decisions(self, dataset):
        """Duplicating every sample (with lambda adjusted for the doubled
        pass length) changes the shuffle but not the learned decision in
        any material way."""
        windows, labels = dataset
        m1, a1 = train_command_model(windows, labels, k_folds=5, seed=7, lambda_reg=1e-3)
        m2, a2 = train_command_model(np.concatenate([windows, windows]), labels + labels, k_folds=5, seed=7,
                                     lambda_reg=5e-4)
        agree = np.mean([predict_command(m1, w)[0] == predict_command(m2, w)[0] for w in windows])
        assert agree >= 0.95
        assert abs(a1.mean() - a2.mean()) <= 0.05

    def test_scale_invariance_after_refit(self, dataset):
        """Scaling all raw traces by a constant and refitting the
        standardization leaves every prediction unchanged."""
        windows, labels = dataset
        m1, _ = train_command_model(windows, labels, k_folds=5, seed=5)
        m2, _ = train_command_model(windows * 4.0, labels, k_folds=5, seed=5)
        for w in windows:
            assert predict_command(m1, w)[0] == predict_command(m2, w * 4.0)[0]


class TestPredict:
    def test_training_samples_mostly_self_labelled(self, dataset):
        model, _ = train_command_model(*dataset, k_folds=5, seed=1)
        correct = np.mean([predict_command(model, w)[0] == label for w, label in zip(*dataset)])
        assert correct >= 0.95

    def test_zero_scores_tie_break_to_hover(self, dataset):
        model, _ = train_command_model(*dataset, k_folds=5, seed=2)
        model.weights = np.zeros_like(model.weights)
        model.biases = np.zeros_like(model.biases)
        label, scores = predict_command(model, dataset[0][-1])
        assert label == "hover"
        assert set(scores) == set(COMMANDS)

    def test_dimension_mismatch(self, dataset):
        model, _ = train_command_model(*dataset, k_folds=5, seed=2)
        with pytest.raises(DataError, match="shape"):
            predict_command(model, np.ones((4, 17)))

    def test_climb_offset_on_hover_sample(self, dataset):
        """A hover-pattern window shifted up by delta on every rotor is
        read as climb."""
        model, _ = train_command_model(*dataset, k_folds=5, seed=11)
        rng = np.random.default_rng(99)
        for _ in range(10):
            rpm = 3000.0 + rng.normal(0, 60.0, size=(4, 100))
            climb_sq = np.square(rpm_to_rad_s(rpm + 300.0))
            assert predict_command(model, climb_sq)[0] == "climb"


class TestBatchedPredict:
    """`predict_commands` classifies a stack through training's features
    and standardization with the per-window reference's bits."""

    @pytest.fixture(scope="class", params=[100, 300], ids=["window100", "window300"])
    def window(self, request):
        """Window lengths on both sides of the 128-element blocks of numpy's
        pairwise summation."""
        return request.param

    @pytest.fixture(scope="class")
    def model(self, window):
        drone = DroneSpec(hover_rpm=3000.0, delta_rpm=300.0, rpm_jitter=60.0)
        dataset = generate_command_dataset(7, drone, window_samples=window, seed=5)
        return train_command_model(*dataset, k_folds=5, seed=5, epochs=6)[0]

    @pytest.fixture(scope="class")
    def windows(self, window):
        drone = DroneSpec(hover_rpm=3000.0, delta_rpm=300.0, rpm_jitter=60.0)
        windows, _ = generate_command_dataset(22, drone, window_samples=window, seed=17)
        return windows[np.random.default_rng(17).permutation(len(windows))]

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

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e308])
    def test_non_finite_features_raise_without_a_warning(self, model, windows, bad):
        """1e308 is finite, but a rotor's window of it sums past a double."""
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


class TestJitterFreeCommands:
    """Windows without jitter lie outside the jittered training set; each
    rotor's mean squared speed still carries the mixer's pattern, so the
    model reads every command, as the untrained nearest-pattern rule of
    `oracles` does."""

    @pytest.fixture(scope="class")
    def model_path(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("model") / "model.txt")
        assert main(["--seed", "11", "train-command", "--model", path]) == EXIT_OK
        return path

    def test_mixer_pattern_windows_read_as_their_command(self, model_path):
        model = load_model(model_path)
        patterns = [np.square(rpm_to_rad_s(command_rpm_pattern(c, 3000.0, 300.0))) for c in COMMANDS]
        windows = np.stack([np.repeat(p[:, None], model.window, axis=1) for p in patterns])
        labels, _ = predict_commands(model, windows)
        assert labels == [oracles.nearest_mixer_pattern(w, 3000.0, 300.0) for w in windows] == list(COMMANDS)

    def test_jitter_free_flight_reads_every_window(self, tmp_path, model_path):
        script = [(200_000 * k, c) for k, c in enumerate(COMMANDS)]
        flight = simulate_flight(script, DroneSpec(hover_rpm=3000.0, delta_rpm=300.0, rpm_jitter=0.0), NO_NOISE,
                                 duration_us=1_200_000, seed=3, tick_us=1000)
        times = flight.truth.times_us
        speeds = tmp_path / "speeds.csv"
        speeds.write_text("t_ref,prop_id,rpm,objective\n" + "".join(
            f"{int(t)},{p},{float(flight.rpm_traces[p, k])!r},0.0\n" for k, t in enumerate(times) for p in range(4)))
        out = tmp_path / "commands.csv"
        assert main(["infer-command", str(speeds), "--model", model_path, "--out-csv", str(out)]) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 12
        # each 100 ms window lies inside one command's 200 ms
        assert [label for _, label in rows] == [COMMANDS[(int(t) - 1) // 200_000] for t, _ in rows]


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
        model, _ = train_command_model(*dataset, k_folds=5, seed=4)
        path = str(tmp_path / "model.txt")
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.biases, model.biases)
        assert np.array_equal(back.feature_mean, model.feature_mean)
        assert np.array_equal(back.feature_std, model.feature_std)
        assert np.array_equal(back.fold_accuracies, model.fold_accuracies)
        assert back.classes == model.classes
        assert (back.n_props, back.window, back.rate_hz) == (model.n_props, model.window, model.rate_hz)
        for window in dataset[0][::17]:
            assert predict_command(back, window) == predict_command(model, window)

    def test_a_v1_model_exits_3(self, tmp_path, capsys):
        """v1 files carried a low-pass cutoff and five spectral features
        per rotor; their weights do not fit the mean features."""
        model = tmp_path / "v1.model"
        model.write_text(
            "rotorsense-command-model v1\nn_props=1 window=2 rate_hz=1000.0 cutoff_hz=50.0\nclasses=hover,climb\n"
            "feature_mean=1.0 0.0 0.0 0.0 0.0\nfeature_std=1.0 1.0 1.0 1.0 1.0\n"
            "class hover bias=0.0 weights=1.0 0.0 0.0 0.0 0.0\nclass climb bias=0.0 weights=-1.0 0.0 0.0 0.0 0.0\n"
            "fold_accuracies=1.0\n"
        )
        speeds = tmp_path / "speeds.csv"
        speeds.write_text("t_ref,prop_id,rpm,objective\n" + "".join(f"{t},0,3000.0,0.0\n" for t in range(0, 10_000, 1000)))
        code = main(["infer-command", str(speeds), "--model", str(model), "--out-csv", str(tmp_path / "c.csv"),
                     "--window-ms", "2"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"{model}: not a 'rotorsense-command-model v2' file" in err[0]

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
            n_props=4, window=64, rate_hz=200.0, fold_accuracies=np.array([0.9, 0.8]),
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
            (2, " rate_hz=200.0", ""),
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
