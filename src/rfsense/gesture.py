"""Gesture recognition pipeline: segmentation, wavelet features, classifiers.

Segmentation flags samples whose short-window variance exceeds a fraction of
the recent variance history; the history max is taken over a window that
trails the present by a guard lag, so an unfolding gesture is compared
against genuinely quiet background rather than against itself. Detected
segments are resampled to a fixed length, decomposed with a 3-level db3 DWT,
and summarized into a fixed feature layout consumed by one of three
classifiers (KNN, linear SVM, random forest).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np
from scipy.ndimage import maximum_filter1d

from . import classifiers as _clf
from .dsp import (
    HampelConfig,
    IirFilter,
    _check_order,
    _finite,
    _is_int,
    _non_negative,
    _positive,
    _require,
    _sample_count,
    _walk_block,
    butterworth_lowpass,
    filter_forward,
    hampel_filter,
    moving_average,
    moving_variance,
    periodogram,
)
from .trace import RssTrace
from .wavelet import db3, wavedec

GESTURE_LABELS = ("punch", "punchx2", "kick", "strike", "drag", "dodge", "push", "pull")

CLASSIFIER_KINDS = ("knn", "linear_svm", "random_forest")

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class SegmentationConfig:
    short_window: int = 45            # variance buffer, samples (~0.1 s at 449 Hz)
    long_window: int = 13470          # variance-history extent, samples (~30 s)
    threshold: float = 1.0            # activity ratio vs history max, in (0, 1]
    min_duration_s: float = 0.2
    merge_gap_s: float = 0.1
    guard_s: float = 2.0              # history lag; must exceed any one gesture
    lowpass_cutoff_hz: float = 90.0
    lowpass_order: int = 4
    mean_window_s: float = 1.0        # local mean removal extent
    trim_fraction: float = 0.02       # boundary refinement, fraction of peak variance
    min_prominence: float = 3.0       # required peak variance over the history max
    hampel: HampelConfig = field(default_factory=HampelConfig)

    def __post_init__(self):
        # lowpass_order and lowpass_cutoff_hz get the checks butterworth_lowpass
        # makes, so a config is refused before any trace is read
        _require(">= 2", lambda v: 2 <= v < math.inf, short_window=self.short_window)
        if not self.short_window < self.long_window:
            raise ValueError("short_window must be smaller than long_window")
        _require("an integer", _is_int, short_window=self.short_window,
                 long_window=self.long_window)
        _require("in (0, 1]", lambda v: 0 < v <= 1, threshold=self.threshold)
        _positive(min_duration_s=self.min_duration_s,
                  lowpass_cutoff_hz=self.lowpass_cutoff_hz,
                  mean_window_s=self.mean_window_s)
        _non_negative(merge_gap_s=self.merge_gap_s, guard_s=self.guard_s)
        _check_order(lowpass_order=self.lowpass_order)
        _require("in [0, 1)", lambda v: 0 <= v < 1, trim_fraction=self.trim_fraction)
        _require("finite and >= 1", lambda v: 1 <= v < math.inf,
                 min_prominence=self.min_prominence)


@dataclass(frozen=True)
class GestureSegment:
    start_s: float        # seconds from the trace's first sample
    end_s: float
    samples: np.ndarray   # preprocessed (filtered, mean-removed) dB series
    trace_id: str = ""

    def __post_init__(self):
        if len(self.samples) == 0:
            raise ValueError("segment has no samples")
        if self.end_s <= self.start_s:
            raise ValueError("segment end must follow start")

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@lru_cache(maxsize=8)
def _lowpass(order: int, cutoff_hz: float, fs: float) -> IirFilter:
    """The preprocessing lowpass, designed once per (order, cutoff, rate).

    Every caller shares the returned filter, so none may modify it.
    """
    return butterworth_lowpass(order, cutoff_hz, fs)


def _mean_samples(cfg: SegmentationConfig, fs: float) -> int:
    """The local mean window in samples at `fs`. Below 1.5 samples it rounds
    to a mean of one sample (or none), which would leave rounding residue."""
    return _sample_count("mean_window_s * fs", cfg.mean_window_s * fs, least=2)


def preprocess(rss_db: np.ndarray, fs: float, cfg: SegmentationConfig) -> np.ndarray:
    """Hampel -> lowpass -> local mean removal; the series segments see."""
    mean_n = _mean_samples(cfg, fs)
    x = hampel_filter(rss_db, cfg.hampel)
    if cfg.lowpass_cutoff_hz < fs / 2:
        x = filter_forward(_lowpass(cfg.lowpass_order, cfg.lowpass_cutoff_hz, fs), x)
    x -= moving_average(x, mean_n)  # x is this function's own array either way
    return x


def _history(v: np.ndarray, guard_n: int, long_n: int, a: int, b: int) -> np.ndarray:
    """The max of v over the long_n samples that end guard_n before each j
    in [a, b), for a >= guard_n + long_n - 1: one trailing maximum filter
    over the slice of v those windows cover, each of them inside it."""
    shifted = maximum_filter1d(v[a - guard_n - long_n + 1: b - guard_n], size=long_n,
                               mode="nearest", origin=long_n - 1 - long_n // 2)
    return shifted[long_n - 1:]


def _active(v: np.ndarray, threshold: float, guard_n: int, long_n: int) -> np.ndarray:
    """True at each j from guard_n + long_n - 1 on where v[j] exceeds
    threshold times its history. Activity needs a fully populated history
    window guard_n in the past; a thin reference (few variance samples)
    fires on ordinary noise records. The mask is built in blocks of
    _walk_block(long_n) samples, so no history of the series' length is
    held."""
    active = np.zeros(len(v), dtype=bool)
    step = _walk_block(long_n)
    for j0 in range(guard_n + long_n - 1, len(v), step):
        j1 = min(j0 + step, len(v))
        active[j0:j1] = v[j0:j1] > threshold * _history(v, guard_n, long_n, j0, j1)
    return active


def _apart(s0: np.ndarray, s1: np.ndarray, gap: int) -> np.ndarray:
    """True at the first interval [s0, s1] and at each one that starts gap
    or more samples clear of the end of the one before it."""
    new = np.ones(len(s0), dtype=bool)
    new[1:] = s0[1:] - s1[:-1] > gap
    return new


def segment(trace: RssTrace, cfg: SegmentationConfig = SegmentationConfig()
            ) -> list[GestureSegment]:
    """Variance-burst detection; returns segments ordered by start time.

    The candidates are sample intervals [s0[i], s1[i]], and each stage keeps
    a subset of them: runs, merge, minimum duration, prominence, phantom
    groups, then trim.
    """
    fs = trace.metadata.sample_rate_hz
    mean_n = _mean_samples(cfg, fs)
    n = len(trace)
    if n <= cfg.long_window:
        raise ValueError(f"trace of {n} samples no longer than the "
                         f"{cfg.long_window}-sample history window")
    pre = preprocess(trace.rss_db, fs, cfg)
    w = cfg.short_window
    v = moving_variance(pre, w)            # v[j] covers samples [j, j+w)
    guard_n = _sample_count("guard_s * fs", cfg.guard_s * fs)
    if guard_n + cfg.long_window - 1 >= len(v):
        raise ValueError("trace too short to populate the variance history")
    active = _active(v, cfg.threshold, guard_n, cfg.long_window)

    # runs of active windows as sample-space intervals: window start of the
    # first hit .. window end of the last
    edges = np.flatnonzero(np.diff(active, prepend=False, append=False))
    s0, s1 = edges[::2], edges[1::2] + w - 2

    # merge runs less than merge_gap_s apart; new[0] is True, so rolled back
    # by one it marks the last run of each merged group
    new = _apart(s0, s1, _sample_count("merge_gap_s * fs", cfg.merge_gap_s * fs))
    s0, s1 = s0[new], s1[np.roll(new, -1)]

    keep = s1 - s0 + 1 >= _sample_count("min_duration_s * fs", cfg.min_duration_s * fs)
    s0, s1 = s0[keep], s1[keep]
    peak = np.array([v[a: b - w + 2].max() for a, b in zip(s0, s1)])

    # Stationary noise sets fresh variance records against any finite trailing
    # window sooner or later (measured: a few marginal, ~1.1x records per ten
    # minutes), so a bare ratio test cannot stay silent on gesture-free input.
    # Demand that a run's peak clears its onset-time history by a real margin;
    # genuine gestures exceed it by three to four orders of magnitude.
    onset = np.array([v[a - guard_n - cfg.long_window + 1: a - guard_n + 1].max()
                      for a in s0])  # _history at each run start
    keep = peak > cfg.min_prominence * onset
    s0, s1, peak = s0[keep], s1[keep], peak[keep]

    # The centered local mean tracks a strong burst and leaks variance up to
    # mean_window/2 past its true extent. That leak can detach into phantom
    # runs flanking the burst and it pads the genuine run's boundaries, so
    # (a) drop runs that sit within one mean window of a far stronger one and
    # (b) shrink each survivor to where variance clears a fraction of its peak.
    if len(s0):  # np.maximum.reduceat refuses an empty array
        new = _apart(s0, s1, mean_n)
        top = np.maximum.reduceat(peak, np.flatnonzero(new))[np.cumsum(new) - 1]
        keep = peak >= cfg.trim_fraction * top
        s0, s1, peak = s0[keep], s1[keep], peak[keep]
    kept = []
    for a, b, p in zip(s0, s1, peak):
        hit = np.flatnonzero(v[a: b - w + 2] >= cfg.trim_fraction * p)
        kept.append((a + hit[0], a + hit[-1] + w - 1))

    t, t0 = trace.timestamps, trace.timestamps[0]
    trace_id = trace.metadata.extras.get("trace_id", "")
    return [GestureSegment(
        start_s=float(t[s0] - t0),
        end_s=float(t[s1] - t0),
        samples=pre[s0: s1 + 1].copy(),
        trace_id=trace_id,
    ) for s0, s1 in kept]


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------

SEGMENT_RESAMPLE_LEN = 1024
DWT_LEVELS = 3

_BAND_STATS = ("mean", "variance", "max", "min", "peak_power",
               "avg_freq", "half_point_freq")

_POWER_EPS = 1e-12


@dataclass(frozen=True)
class FeatureVector:
    values: np.ndarray
    layout: tuple[str, ...]

    def __post_init__(self):
        if len(self.values) != len(self.layout):
            raise ValueError("values and layout lengths differ")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("feature vector contains non-finite entries")


@lru_cache(maxsize=1)
def feature_layout() -> tuple[str, ...]:
    """Names of the feature entries, built once: every FeatureVector shares
    this tuple."""
    n_coefs = len(wavedec(np.zeros(SEGMENT_RESAMPLE_LEN), db3(), DWT_LEVELS).approx)
    bands = [f"cd{i}" for i in range(1, DWT_LEVELS + 1)] + [f"ca{DWT_LEVELS}"]
    names = [f"{band}_{stat}" for band in bands for stat in _BAND_STATS]
    names += [f"ca{DWT_LEVELS}_coef_{i}" for i in range(n_coefs)]
    names += [f"cd{DWT_LEVELS}_coef_{i}" for i in range(n_coefs)]
    return tuple(names)


def _band_stats(coefs: np.ndarray, band_fs: float) -> list[float]:
    psd = periodogram(coefs, band_fs)
    total = float(np.sum(psd.power))
    if total < _POWER_EPS:
        avg_f = 0.0
        half_f = 0.0
        peak = float(np.max(psd.power))
    else:
        avg_f = float(np.sum(psd.frequencies * psd.power) / total)
        cum = np.cumsum(psd.power)
        half_f = float(psd.frequencies[int(np.searchsorted(cum, total / 2.0))])
        peak = float(np.max(psd.power))
    return [float(np.mean(coefs)), float(np.var(coefs, ddof=1)),
            float(np.max(coefs)), float(np.min(coefs)),
            peak, avg_f, half_f]


def extract_features(seg: GestureSegment, fs: float) -> FeatureVector:
    """Fixed-length wavelet feature vector for one segment.

    The segment is linearly resampled to SEGMENT_RESAMPLE_LEN points spanning
    its original duration, so band frequencies are computed against the
    stretched rate SEGMENT_RESAMPLE_LEN*fs/n before the per-level halving.
    """
    x = np.asarray(seg.samples, dtype=np.float64)
    if len(x) < 2:
        raise ValueError("segment too short to resample")
    resampled = np.interp(
        np.linspace(0.0, len(x) - 1.0, SEGMENT_RESAMPLE_LEN),
        np.arange(len(x)), x)
    fs_resampled = SEGMENT_RESAMPLE_LEN * fs / len(x)
    dec = wavedec(resampled, db3(), DWT_LEVELS)
    bands = list(dec.details) + [dec.approx]
    rates = [fs_resampled / 2 ** lvl for lvl in range(1, DWT_LEVELS + 1)]
    rates.append(rates[-1])
    values = []
    for coefs, rate in zip(bands, rates):
        values.extend(_band_stats(coefs, rate))
    values.extend(dec.approx)
    values.extend(dec.details[-1])
    return FeatureVector(values=np.asarray(values), layout=feature_layout())


# ---------------------------------------------------------------------------
# Training, classification, evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainedModel:
    kind: str
    hyperparameters: dict
    layout: tuple[str, ...]
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    state: object    # KnnModel | LinearSvmModel | RandomForestModel


# each kind's fixed hyperparameters, which model.json stores
DEFAULT_HYPERPARAMETERS = {
    "knn": {"k": 5},
    "linear_svm": {"lam": 1e-3, "epochs": 40},
    "random_forest": {"n_trees": 15},
}


def _standardize(X: np.ndarray):
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    return mean, scale


def _label_indices(data) -> np.ndarray:
    """Index in GESTURE_LABELS of each (FeatureVector, label) pair's label."""
    for _, label in data:
        if label not in GESTURE_LABELS:
            raise ValueError(f"unknown label {label!r}")
    return np.array([GESTURE_LABELS.index(label) for _, label in data], dtype=np.int64)


def train(data, kind: str, seed: int = 0) -> TrainedModel:
    """Fit a classifier on (FeatureVector, label) pairs; deterministic per seed."""
    if kind not in CLASSIFIER_KINDS:
        raise ValueError(f"kind must be one of {CLASSIFIER_KINDS}")
    if not data:
        raise ValueError("empty training set")
    layout = data[0][0].layout
    for fv, _ in data:
        if fv.layout != layout:
            raise ValueError("feature layout mismatch in training data")
    y = _label_indices(data)
    if len(np.unique(y)) < 2:
        raise ValueError("training data must contain at least two classes")
    X = np.stack([fv.values for fv, _ in data])
    mean, scale = _standardize(X)
    Xz = (X - mean) / scale
    params = dict(DEFAULT_HYPERPARAMETERS[kind])
    n_classes = len(GESTURE_LABELS)
    if kind == "knn":
        state = _clf.knn_fit(Xz, y, n_classes, **params)
    elif kind == "linear_svm":
        state = _clf.svm_fit(Xz, y, n_classes, seed=seed, **params)
    else:
        state = _clf.forest_fit(Xz, y, n_classes, seed=seed, **params)
    return TrainedModel(kind=kind, hyperparameters=params, layout=layout,
                        feature_mean=mean, feature_scale=scale, state=state)


def _check_layout(model: TrainedModel, fv: FeatureVector) -> None:
    if fv.layout != model.layout:
        raise ValueError("feature layout does not match the trained model")


def _predict_matrix(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    Xz = (X - model.feature_mean) / model.feature_scale
    if model.kind == "knn":
        return _clf.knn_predict(model.state, Xz)
    if model.kind == "linear_svm":
        return _clf.svm_predict(model.state, Xz)
    return _clf.forest_predict(model.state, Xz)


def classify(model: TrainedModel, fv: FeatureVector) -> str:
    _check_layout(model, fv)
    idx = _predict_matrix(model, fv.values[None, :])[0]
    return GESTURE_LABELS[idx]


@dataclass(frozen=True)
class EvaluationResult:
    confusion: np.ndarray          # [predicted, actual], columns normalized
    per_class_accuracy: dict
    mean_accuracy: float
    n_samples: int


def evaluate(model: TrainedModel, data) -> EvaluationResult:
    """Column-normalized confusion matrix plus macro accuracy.

    Columns index the actual class, rows the prediction; each nonempty
    column sums to 1. Mean accuracy averages the diagonal over classes
    actually present.
    """
    if not data:
        raise ValueError("empty evaluation set")
    for fv, _ in data:
        _check_layout(model, fv)
    X = np.stack([fv.values for fv, _ in data])
    actual = _label_indices(data)
    pred = _predict_matrix(model, X)
    c = len(GESTURE_LABELS)
    counts = np.zeros((c, c))
    np.add.at(counts, (pred, actual), 1.0)
    col_totals = counts.sum(axis=0)
    confusion = np.divide(counts, col_totals[None, :],
                          out=np.zeros_like(counts), where=col_totals > 0)
    present = np.flatnonzero(col_totals > 0)
    per_class = {GESTURE_LABELS[i]: float(confusion[i, i]) for i in present}
    return EvaluationResult(
        confusion=confusion,
        per_class_accuracy=per_class,
        mean_accuracy=float(np.mean([confusion[i, i] for i in present])),
        n_samples=len(data),
    )


# ---------------------------------------------------------------------------
# Model persistence: versioned JSON, round-trip exact
# ---------------------------------------------------------------------------


def _state_from_json(kind: str, blob: dict, n_features: int, need):
    """Classifier state from its JSON object. A count that is not an int, a
    KNN k outside [1, number of points], a matrix of the wrong shape or with
    an entry that is not a finite float, a class id out of range or a
    malformed tree fails `need`, so that classify never meets it."""
    n_classes = blob["n_classes"]
    need("n_classes", _is_int(n_classes), "is not an integer")
    need("n_classes", n_classes == len(GESTURE_LABELS),
         f"is not {len(GESTURE_LABELS)}, one class per gesture label")
    if kind == "knn":
        need("k", _is_int(blob["k"]), "is not an integer")
        need("points", _is_matrix(blob["points"], n_features),
             f"is not a matrix of numbers with {n_features} columns")
        need("points", _all_finite(blob["points"]), "is not a matrix of finite numbers")
        need("k", 1 <= blob["k"] <= len(blob["points"]),
             f"is not in [1, {len(blob['points'])}], the number of points")
        need("labels", _list_of(blob["labels"], int)
             and len(blob["labels"]) == len(blob["points"]),
             "is not a list of integers, one per point")
        need("labels", all(0 <= v < n_classes for v in blob["labels"]),
             f"is not a list of class ids in [0, {n_classes})")
        return _clf.KnnModel(k=blob["k"], n_classes=n_classes,
                             points=np.asarray(blob["points"], dtype=np.float64),
                             labels=np.asarray(blob["labels"], dtype=np.int64))
    if kind == "linear_svm":
        need("weights", _is_matrix(blob["weights"], n_features + 1),
             f"is not a matrix of numbers with {n_features + 1} columns")
        need("weights", _all_finite(blob["weights"]), "is not a matrix of finite numbers")
        need("weights", len(blob["weights"]) == n_classes,
             f"is not a matrix with {n_classes} rows, one per class")
        return _clf.LinearSvmModel(weights=np.asarray(blob["weights"], dtype=np.float64),
                                   n_classes=n_classes)
    need("n_features", _is_int(blob["n_features"]), "is not an integer")
    need("trees", isinstance(blob["trees"], list) and len(blob["trees"]) > 0
         and all(_is_tree(t, n_features, n_classes) for t in blob["trees"]),
         f"is not a non-empty list of trees with leaves in [0, {n_classes}) "
         f"and split features in [0, {n_features})")
    return _clf.RandomForestModel(trees=tuple(blob["trees"]), n_classes=n_classes,
                                  n_features=blob["n_features"])


def save_model(model: TrainedModel, path) -> None:
    """Write format_version, then the model's fields and its state's in their
    dataclasses' declaration order."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"format_version": MODEL_FORMAT_VERSION, **asdict(model)}, fh,
                  default=np.ndarray.tolist)
        fh.write("\n")


def _list_of(value, types) -> bool:
    """True for a JSON array whose items are all of `types` (never bool)."""
    return isinstance(value, list) and all(
        isinstance(v, types) and not isinstance(v, bool) for v in value)


def _is_matrix(value, width: int) -> bool:
    """True for a non-empty JSON array of number arrays, each `width` long."""
    return (isinstance(value, list) and len(value) > 0
            and all(_list_of(row, (int, float)) and len(row) == width
                    for row in value))


def _all_finite(matrix) -> bool:
    """True when every entry of a JSON number matrix is a finite float."""
    return all(_finite(v) for row in matrix for v in row)


def _is_tree(tree, n_features: int, n_classes: int) -> bool:
    """True for a decision tree as forest_fit grows it: every node is a leaf
    {"leaf": class id} or a split {"feature": feature index, "threshold":
    finite number, "left": node, "right": node}. The walk keeps its own
    stack, so a deep tree cannot exhaust the interpreter's recursion limit."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if not isinstance(node, dict):
            return False
        if node.keys() == {"leaf"}:
            if not (_is_int(node["leaf"]) and 0 <= node["leaf"] < n_classes):
                return False
        elif node.keys() == {"feature", "threshold", "left", "right"}:
            if not (_is_int(node["feature"]) and 0 <= node["feature"] < n_features
                    and _finite(node["threshold"])):
                return False
            stack += (node["left"], node["right"])
        else:
            return False
    return True


def load_model(path) -> TrainedModel:
    """Read a model written by save_model; a malformed file raises ValueError."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: model file is nested too deeply to read") from None
        except ValueError as e:  # bad JSON or bad UTF-8
            raise ValueError(f"{path}: model file is not JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a model file holds a JSON object")
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported model format "
                         f"{doc.get('format_version')!r}")
    where = "model"   # "model state" once the checks reach the state object

    def need(key: str, ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(f"{path}: {where} {key!r} {what}")

    try:
        for key in ("hyperparameters", "state"):
            need(key, isinstance(doc[key], dict), "is not an object")
        layout = doc["layout"]
        need("layout", _list_of(layout, str), "is not a list of strings")
        for key in ("feature_mean", "feature_scale"):
            need(key, _list_of(doc[key], (int, float)), "is not a list of numbers")
            need(key, len(doc[key]) == len(layout),
                 f"has {len(doc[key])} entries for {len(layout)} layout entries")
        need("feature_mean", all(map(_finite, doc["feature_mean"])),
             "has a non-finite entry")
        # Training maps a zero spread to 1, so every stored scale is positive.
        need("feature_scale", all(_finite(v) and v > 0 for v in doc["feature_scale"]),
             "has an entry that is not finite and positive")
        need("kind", doc["kind"] in CLASSIFIER_KINDS, f"is not one of {CLASSIFIER_KINDS}")
        where = "model state"
        state = _state_from_json(doc["kind"], doc["state"], len(layout), need)
    except KeyError as e:
        raise ValueError(f"{path}: {where} lacks key {e}") from None
    return TrainedModel(kind=doc["kind"], hyperparameters=doc["hyperparameters"],
                        layout=tuple(layout), state=state,
                        feature_mean=np.asarray(doc["feature_mean"], dtype=np.float64),
                        feature_scale=np.asarray(doc["feature_scale"], dtype=np.float64))
