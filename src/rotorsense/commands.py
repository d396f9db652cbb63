"""Flight-command classification from multi-propeller speed traces.

A window's feature is each rotor's mean squared speed over the window:
thrust scales with speed squared, and the command mixer
(`dynamics.command_rpm_pattern`) moves each rotor's speed per command,
so these means carry the command. They are z-scored with training
statistics and classified by one-vs-rest linear hinge-loss classifiers
trained with seeded stochastic subgradient descent. Stratified k-fold
cross-validation scores ship with the model. Fold validation and
inference share training's `_features`, `_standardize` and `_scores`,
which scores each window by its own matrix-vector product, so a stack
gets the bits of classifying its windows one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import COMMANDS
from .errors import DataError, NumericalError, open_text


def _features(windows: np.ndarray) -> np.ndarray:
    """Each rotor's mean squared speed: the means over the last axis of an
    (..., n_props, window) array.

    Each mean reduces one contiguous row, the float operations of that
    row alone. A window whose sum overflows gives inf without a warning;
    training and prediction reject it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.ascontiguousarray(windows, dtype=np.float64).mean(axis=-1)


@dataclass
class CommandModel:
    """One-vs-rest linear classifier plus its standardization statistics."""

    weights: np.ndarray  # (n_classes, dim)
    biases: np.ndarray  # (n_classes,)
    feature_mean: np.ndarray
    feature_std: np.ndarray
    n_props: int
    window: int
    rate_hz: float
    classes: tuple[str, ...] = COMMANDS
    fold_accuracies: np.ndarray = field(default_factory=lambda: np.zeros(0))


def _standardize(features: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """Z-scores of feature rows; a feature of zero spread is only centred."""
    return (features - mean) / np.where(std > 0, std, 1.0)


def _scores(weights: np.ndarray, biases: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(..., classes) scores of (..., dim) standardized rows. Each row
    takes its own matrix-vector product, the float operations of
    `weights @ row`; a matrix product `z @ weights.T` can round
    differently."""
    return np.matmul(weights, z[..., None])[..., 0] + biases


def _fit_standardization(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and std; NumericalError when either is not finite,
    or when no feature varies over the rows (at hover_rpm=1e82 the mixer's
    offsets round away), which leaves nothing to separate the classes by."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = features.mean(axis=0), features.std(axis=0)
    if not (np.isfinite(mean).all() and np.isfinite(std).all()):
        raise NumericalError("training features are not finite or overflow: cannot standardize them")
    if (features == features[0]).all():
        raise NumericalError("no training feature varies: every window has the same mean squared speeds")
    return mean, std


def _pegasos_ovr(
    features: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    lambda_reg: float,
    epochs: int,
    rngs: list[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Hinge-loss one-vs-rest by stochastic subgradient descent with a
    fixed seeded shuffle per epoch, for k fits of equal training-set size
    stepped in lockstep: features (k, n, dim), labels (k, n) and one
    generator per fit; returns weights (k, classes, dim) and biases
    (k, classes).

    The bias rides along as a regularized constant feature, the step
    schedule 1/(lambda*(t+n)) is warm-started to avoid the violent first
    steps, and the returned model averages the iterates of the second
    half of training (the last raw iterate is noisy enough to cost
    several accuracy points on fold evaluations). Each fit takes the
    float operations it would take alone: its scores come from a stacked
    matmul, which matches a single fit's `weights @ x`.
    """
    k, n, dim = features.shape
    augmented = np.concatenate([features, np.ones((k, n, 1))], axis=2)
    signs = np.full((k, n, n_classes), -1.0)
    np.put_along_axis(signs, labels[..., None], 1.0, axis=2)
    weights = np.zeros((k, n_classes, dim + 1))
    weights_sum = np.zeros_like(weights)
    n_averaged = 0
    fits = np.arange(k)
    t = 0
    for epoch in range(epochs):
        order = np.stack([rng.permutation(n) for rng in rngs], axis=1)  # (n, k)
        for x, s in zip(augmented[fits, order], signs[fits, order]):
            t += 1
            eta = 1.0 / (lambda_reg * (t + n))
            violated = s * np.matmul(weights, x[..., None])[..., 0] < 1.0
            weights *= 1.0 - eta * lambda_reg
            if violated.any():
                np.add(weights, (eta * s)[..., None] * x[:, None, :], out=weights, where=violated[..., None])
            if epoch >= epochs // 2:
                weights_sum += weights
                n_averaged += 1
    final = weights_sum / n_averaged if n_averaged else weights
    return final[..., :dim], final[..., dim].copy()


def stratified_folds(labels: np.ndarray, k: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Disjoint folds covering all samples, stratified per class."""
    folds: list[list[int]] = [[] for _ in range(k)]
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        idx = idx[rng.permutation(idx.size)]
        for pos, sample in enumerate(idx):
            folds[pos % k].append(int(sample))
    return [np.sort(np.array(f, dtype=np.int64)) for f in folds]


def train_command_model(
    windows: np.ndarray,
    labels: list[str],
    k_folds: int = 5,
    lambda_reg: float = 1e-3,
    epochs: int = 20,
    seed: int = 0,
    *,
    rate_hz: float = 1000.0,
) -> tuple[CommandModel, np.ndarray]:
    """Fit the classifier to an (n, n_props, window) stack of squared-speed
    windows, (rad/s)^2, and their n command labels, and score it by
    stratified k-fold validation.

    Deterministic per seed. Raises DataError when the stack is not 3-D,
    holds a negative square or does not match the label count, when a
    label is not a command, or when a command is missing from the
    training set or has fewer than k samples. Raises NumericalError when
    the features, or their mean or spread, are not finite, or when no
    feature varies. rate_hz is the sample rate of the windows, which
    `infer-command` resamples speed rows to.
    """
    data = np.asarray(windows, dtype=np.float64)
    if data.ndim != 3:
        raise DataError("sample must be a 2-D (n_props, window) array")
    if len(labels) != len(data):
        raise DataError(f"{len(labels)} labels for {len(data)} windows")
    if not len(data):
        raise DataError("no training samples")
    if np.any(data < 0):
        raise DataError("squared speeds must be nonnegative")
    unknown = [lab for lab in labels if lab not in COMMANDS]
    if unknown:
        raise DataError(f"unknown label {unknown[0]!r}")
    missing = [c for c in COMMANDS if c not in labels]
    if missing:
        raise DataError(f"classes missing from training data: {', '.join(missing)}")
    label_ids = np.array([COMMANDS.index(lab) for lab in labels])
    scarce = [COMMANDS[c] for c in range(len(COMMANDS)) if int((label_ids == c).sum()) < k_folds]
    if scarce:
        raise DataError(f"need at least {k_folds} samples per class, too few for: {', '.join(scarce)}")
    n_props, window = data.shape[1:]

    features_raw = _features(data)
    every = np.arange(len(data))
    folds = stratified_folds(label_ids, k_folds, np.random.default_rng(seed))
    # training rows and seed of each fold fit, then of the final fit on every sample
    rows = [np.setdiff1d(every, val_idx) for val_idx in folds] + [every]
    seeds = [seed + 1 + f for f in range(k_folds)] + [seed]
    stats = [_fit_standardization(features_raw[r]) for r in rows]
    # fits with equal training-set size step in lockstep
    fits: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for size in {r.size for r in rows}:
        group = [i for i, r in enumerate(rows) if r.size == size]
        w, b = _pegasos_ovr(
            np.stack([_standardize(features_raw[rows[i]], *stats[i]) for i in group]),
            np.stack([label_ids[rows[i]] for i in group]),
            len(COMMANDS), lambda_reg, epochs, [np.random.default_rng(seeds[i]) for i in group],
        )
        for j, i in enumerate(group):
            fits[i] = w[j], b[j]
    accuracies = np.zeros(k_folds)
    for f, val_idx in enumerate(folds):
        scores = _scores(*fits[f], _standardize(features_raw[val_idx], *stats[f]))
        accuracies[f] = float((np.argmax(scores, axis=1) == label_ids[val_idx]).mean())

    (mean, std), (w, b) = stats[k_folds], fits[k_folds]
    model = CommandModel(
        weights=w,
        biases=b,
        feature_mean=mean,
        feature_std=std,
        n_props=n_props,
        window=window,
        rate_hz=rate_hz,
        fold_accuracies=accuracies,
    )
    return model, accuracies


def predict_command(model: CommandModel, windows: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Classify an (n, n_props, window) stack of squared-speed windows
    through training's features and standardization; returns the labels
    and the (n, classes) scores. Ties break in fixed class order. Raises
    NumericalError when a window's features or scores are not finite."""
    data = np.asarray(windows, dtype=np.float64)
    if data.size == 0:
        raise DataError("no windows to classify")
    if data.ndim != 3 or data.shape[1:] != (model.n_props, model.window):
        raise DataError(
            f"windows of shape {data.shape} do not stack the model's ({model.n_props}, {model.window})"
        )
    if model.feature_mean.size != model.n_props:
        raise DataError(f"model has {model.feature_mean.size} features for {model.n_props} rotors, not one per rotor")
    features = _features(data)
    with np.errstate(over="ignore", invalid="ignore"):
        scores = _scores(model.weights, model.biases, _standardize(features, model.feature_mean, model.feature_std))
    if not np.isfinite(scores).all():
        raise NumericalError("window features or their scores are not finite or overflow: cannot classify them")
    best = np.argmax(scores, axis=1)  # first max wins: fixed class order
    return [model.classes[c] for c in best], scores


# --- Model file format (versioned plain text) ---

_MODEL_HEADER = "rotorsense-command-model v2"
# Highest resampling rate of a model: speed rows are stamped in whole
# microseconds, so a finer grid than 1 MHz adds nothing.
MAX_RATE_HZ = 1e6


def _fmt_vec(values: np.ndarray) -> str:
    return " ".join(repr(float(v)) for v in values)


def save_model(model: CommandModel, path: str) -> None:
    lines = [
        _MODEL_HEADER,
        f"n_props={model.n_props} window={model.window} rate_hz={float(model.rate_hz)!r}",
        "classes=" + ",".join(model.classes),
        "feature_mean=" + _fmt_vec(model.feature_mean),
        "feature_std=" + _fmt_vec(model.feature_std),
    ]
    for c, name in enumerate(model.classes):
        lines.append(f"class {name} bias={float(model.biases[c])!r} weights={_fmt_vec(model.weights[c])}")
    lines.append("fold_accuracies=" + _fmt_vec(model.fold_accuracies))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _model_floats(path: str, lineno: int, text: str) -> list[float]:
    try:
        return [float(v) for v in text.split()]
    except ValueError as exc:
        raise DataError(f"{path}:{lineno}: non-numeric value in {text!r}") from exc


def _model_value(path: str, lineno: int, text: str, key: str) -> str:
    """The value of a `key=value` field of a model file."""
    name, sep, value = text.partition("=")
    if name != key or not sep:
        raise DataError(f"{path}:{lineno}: expected {key}=..., got {text!r}")
    return value


def load_model(path: str) -> CommandModel:
    """Read a save_model file. A missing line or field, a non-numeric
    value or a weight table that does not fit the classes and features
    raises DataError naming the path (and the line where known)."""
    with open_text(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines or lines[0] != _MODEL_HEADER:
        raise DataError(f"{path}: not a {_MODEL_HEADER!r} file")
    if len(lines) < 5:
        raise DataError(f"{path}: truncated after line {len(lines)}, expected settings, classes and feature lines")
    fields = dict(text.partition("=")[::2] for text in lines[1].split())
    missing = [key for key in ("n_props", "window", "rate_hz") if not fields.get(key)]
    if missing:
        raise DataError(f"{path}:2: missing {', '.join(missing)} in {lines[1]!r}")
    try:
        n_props, window, rate_hz = int(fields["n_props"]), int(fields["window"]), float(fields["rate_hz"])
    except ValueError as exc:
        raise DataError(f"{path}:2: non-numeric setting in {lines[1]!r}") from exc
    if n_props < 1 or window < 1 or not 0 < rate_hz <= MAX_RATE_HZ:
        raise DataError(f"{path}:2: setting out of range in {lines[1]!r}")
    classes = tuple(_model_value(path, 3, lines[2], "classes").split(","))
    mean = _model_floats(path, 4, _model_value(path, 4, lines[3], "feature_mean"))
    std = _model_floats(path, 5, _model_value(path, 5, lines[4], "feature_std"))
    weights, biases = [], []
    folds: list[float] = []
    for lineno, line in enumerate(lines[5:], start=6):
        if line.startswith("class "):
            head, sep, weights_part = line.partition(" weights=")
            parts = head.split(" ")
            if not sep or len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected 'class NAME bias=... weights=...', got {line!r}")
            bias = _model_floats(path, lineno, _model_value(path, lineno, parts[2], "bias"))
            if len(bias) != 1:
                raise DataError(f"{path}:{lineno}: expected one bias, got {parts[2]!r}")
            biases.extend(bias)
            weights.append(_model_floats(path, lineno, weights_part))
        elif line.startswith("fold_accuracies="):
            folds = _model_floats(path, lineno, line.split("=", 1)[1])
    if len(weights) != len(classes) or len(std) != len(mean) or any(len(w) != len(mean) for w in weights):
        raise DataError(
            f"{path}: expected {len(classes)} class lines of {len(mean)} weights and {len(mean)} feature_std values"
        )
    return CommandModel(
        weights=np.array(weights),
        biases=np.array(biases),
        feature_mean=np.array(mean),
        feature_std=np.array(std),
        n_props=n_props,
        window=window,
        rate_hz=rate_hz,
        classes=classes,
        fold_accuracies=np.array(folds),
    )


def resample_zero_order_hold(
    times_us: np.ndarray, values: np.ndarray, rate_hz: float, t_start_us: int, t_end_us: int
) -> np.ndarray:
    """Uniform resampling of an irregular trace by zero-order hold."""
    period_us = 1e6 / rate_hz
    grid = np.arange(t_start_us, t_end_us + period_us / 2, period_us)
    idx = np.searchsorted(times_us, grid, side="right") - 1
    idx = np.clip(idx, 0, len(values) - 1)
    return values[idx]
