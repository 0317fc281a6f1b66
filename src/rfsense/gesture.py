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
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.ndimage import maximum_filter1d

from . import classifiers as _clf
from .dsp import (
    HampelConfig,
    IirFilter,
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
        if self.short_window < 2:
            raise ValueError("short_window must be >= 2 samples")
        if self.short_window >= self.long_window:
            raise ValueError("short_window must be smaller than long_window")
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must lie in (0, 1]")
        if self.min_duration_s <= 0:
            raise ValueError("min_duration_s must be positive")
        if self.guard_s < 0:
            raise ValueError("guard_s must be >= 0")
        if not 0.0 <= self.trim_fraction < 1.0:
            raise ValueError("trim_fraction must lie in [0, 1)")
        if self.min_prominence < 1.0:
            raise ValueError("min_prominence must be >= 1")


@dataclass(frozen=True)
class GestureSegment:
    start_s: float
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


def preprocess(rss_db: np.ndarray, fs: float, cfg: SegmentationConfig) -> np.ndarray:
    """Hampel -> lowpass -> local mean removal; the series segments see."""
    x = hampel_filter(rss_db, cfg.hampel)
    if cfg.lowpass_cutoff_hz < fs / 2:
        x = filter_forward(_lowpass(cfg.lowpass_order, cfg.lowpass_cutoff_hz, fs), x)
    mean_n = max(1, int(round(cfg.mean_window_s * fs)))
    return x - moving_average(x, mean_n)


def _trailing_max(v: np.ndarray, window: int) -> np.ndarray:
    """t[j] = max(v[max(0, j-window+1) .. j]); prefix uses the expanding max."""
    window = min(window, len(v))
    origin = window - 1 - window // 2
    t = maximum_filter1d(v, size=window, mode="nearest", origin=origin)
    if window > 1:
        t[: window - 1] = np.maximum.accumulate(v[: window - 1])
    return t


def segment(trace: RssTrace, cfg: SegmentationConfig = SegmentationConfig()
            ) -> list[GestureSegment]:
    """Variance-burst detection; returns segments ordered by start time."""
    fs = trace.metadata.sample_rate_hz
    n = len(trace)
    if n <= cfg.long_window:
        raise ValueError(f"trace of {n} samples no longer than the "
                         f"{cfg.long_window}-sample history window")
    pre = preprocess(trace.rss_db, fs, cfg)
    w = cfg.short_window
    v = moving_variance(pre, w)            # v[j] covers samples [j, j+w)
    hist = _trailing_max(v, cfg.long_window)
    guard_n = int(round(cfg.guard_s * fs))
    # Activity needs a fully populated history window guard_n in the past; a
    # thin reference (few variance samples) fires on ordinary noise records.
    jmin = guard_n + cfg.long_window - 1
    if jmin >= len(v):
        raise ValueError("trace too short to populate the variance history")
    active = np.zeros(len(v), dtype=bool)
    active[jmin:] = v[jmin:] > cfg.threshold * hist[jmin - guard_n: len(v) - guard_n]

    bounds = np.flatnonzero(np.diff(np.concatenate([[False], active, [False]])))
    runs = [(int(bounds[i]), int(bounds[i + 1]) - 1) for i in range(0, len(bounds), 2)]
    # sample-space intervals: window start of first hit .. window end of last
    spans = [(j0, j1 + w - 1) for j0, j1 in runs]

    merge_n = int(round(cfg.merge_gap_s * fs))
    merged: list[list[int]] = []
    for s0, s1 in spans:
        if merged and s0 - merged[-1][1] - 1 < merge_n:
            merged[-1][1] = max(merged[-1][1], s1)
        else:
            merged.append([s0, s1])

    min_n = int(round(cfg.min_duration_s * fs))
    kept = [(s0, s1) for s0, s1 in merged if s1 - s0 + 1 >= min_n]

    # Stationary noise sets fresh variance records against any finite trailing
    # window sooner or later (measured: a few marginal, ~1.1x records per ten
    # minutes), so a bare ratio test cannot stay silent on gesture-free input.
    # Demand that a run's peak clears its onset-time history by a real margin;
    # genuine gestures exceed it by three to four orders of magnitude.
    kept = [(s0, s1) for s0, s1 in kept
            if v[s0: s1 - w + 2].max()
            > cfg.min_prominence * hist[s0 - guard_n]]

    # The centered local mean tracks a strong burst and leaks variance up to
    # mean_window/2 past its true extent. That leak can detach into phantom
    # runs flanking the burst and it pads the genuine run's boundaries, so
    # (a) drop runs that sit within one mean window of a far stronger one and
    # (b) shrink each survivor to where variance clears a fraction of its peak.
    if cfg.trim_fraction > 0.0 and kept:
        peaks = [float(v[s0: s1 - w + 2].max()) for s0, s1 in kept]
        mean_n = max(1, int(round(cfg.mean_window_s * fs)))
        groups: list[list[int]] = [[0]]
        for i in range(1, len(kept)):
            if kept[i][0] - kept[i - 1][1] - 1 < mean_n:
                groups[-1].append(i)
            else:
                groups.append([i])
        survivors = []
        for grp in groups:
            top = max(peaks[i] for i in grp)
            survivors.extend(i for i in grp if peaks[i] >= cfg.trim_fraction * top)
        trimmed = []
        for i in survivors:
            j0, j1 = kept[i][0], kept[i][1] - w + 1
            vr = v[j0: j1 + 1]
            hit = np.flatnonzero(vr >= cfg.trim_fraction * vr.max())
            trimmed.append((j0 + int(hit[0]), j0 + int(hit[-1]) + w - 1))
        kept = trimmed

    trace_id = trace.metadata.extras.get("trace_id", "")
    return [GestureSegment(
        start_s=float(trace.timestamps[s0]),
        end_s=float(trace.timestamps[s1]),
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


def _dwt_band_lengths(n: int, levels: int = DWT_LEVELS, filt_len: int = 6) -> list[int]:
    lens = []
    for _ in range(levels):
        n = (n + filt_len - 1) // 2
        lens.append(n)
    return lens


def feature_layout(resample_len: int = SEGMENT_RESAMPLE_LEN) -> tuple[str, ...]:
    lens = _dwt_band_lengths(resample_len)
    bands = [f"cd{i}" for i in range(1, DWT_LEVELS + 1)] + [f"ca{DWT_LEVELS}"]
    names = [f"{band}_{stat}" for band in bands for stat in _BAND_STATS]
    names += [f"ca{DWT_LEVELS}_coef_{i}" for i in range(lens[-1])]
    names += [f"cd{DWT_LEVELS}_coef_{i}" for i in range(lens[-1])]
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


def extract_features(seg: GestureSegment, fs: float,
                     resample_len: int = SEGMENT_RESAMPLE_LEN) -> FeatureVector:
    """Fixed-length wavelet feature vector for one segment.

    The segment is linearly resampled to resample_len points spanning its
    original duration, so band frequencies are computed against the
    stretched rate resample_len*fs/n before the per-level halving.
    """
    x = np.asarray(seg.samples, dtype=np.float64)
    if len(x) < 2:
        raise ValueError("segment too short to resample")
    resampled = np.interp(
        np.linspace(0.0, len(x) - 1.0, resample_len),
        np.arange(len(x)), x)
    fs_resampled = resample_len * fs / len(x)
    dec = wavedec(resampled, db3(), levels=DWT_LEVELS, mode="symmetric")
    bands = list(dec.details) + [dec.approx]
    rates = [fs_resampled / 2 ** lvl for lvl in range(1, DWT_LEVELS + 1)]
    rates.append(rates[-1])
    values = []
    for coefs, rate in zip(bands, rates):
        values.extend(_band_stats(coefs, rate))
    values.extend(dec.approx)
    values.extend(dec.details[-1])
    return FeatureVector(values=np.asarray(values), layout=feature_layout(resample_len))


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


def train(data, kind: str, seed: int = 0, **hyper) -> TrainedModel:
    """Fit a classifier on (FeatureVector, label) pairs; deterministic per seed."""
    if kind not in CLASSIFIER_KINDS:
        raise ValueError(f"kind must be one of {CLASSIFIER_KINDS}")
    if not data:
        raise ValueError("empty training set")
    layout = data[0][0].layout
    for fv, label in data:
        if fv.layout != layout:
            raise ValueError("feature layout mismatch in training data")
        if label not in GESTURE_LABELS:
            raise ValueError(f"unknown label {label!r}")
    y = np.array([GESTURE_LABELS.index(label) for _, label in data], dtype=np.int64)
    if len(np.unique(y)) < 2:
        raise ValueError("training data must contain at least two classes")
    X = np.stack([fv.values for fv, _ in data])
    mean, scale = _standardize(X)
    Xz = (X - mean) / scale
    params = dict(DEFAULT_HYPERPARAMETERS[kind])
    params.update(hyper)
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
    actual = np.array([GESTURE_LABELS.index(label) for _, label in data])
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


def _state_to_json(model: TrainedModel):
    s = model.state
    if model.kind == "knn":
        return {"k": s.k, "points": s.points.tolist(), "labels": s.labels.tolist(),
                "n_classes": s.n_classes}
    if model.kind == "linear_svm":
        return {"weights": s.weights.tolist(), "n_classes": s.n_classes}
    return {"trees": list(s.trees), "n_classes": s.n_classes,
            "n_features": s.n_features}


def _state_from_json(kind: str, blob: dict, n_features: int, path):
    """Classifier state from its JSON object. A missing key, a count that is
    not an int, or a matrix of the wrong shape raises ValueError naming
    `path`, so that classify never meets it."""
    def need(key: str, ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(f"{path}: model state {key!r} is not {what}")

    try:
        need("n_classes", _is_int(blob["n_classes"]), "an integer")
        if kind == "knn":
            need("k", _is_int(blob["k"]), "an integer")
            need("points", _is_matrix(blob["points"], n_features),
                 f"a matrix of numbers with {n_features} columns")
            need("labels", _list_of(blob["labels"], int)
                 and len(blob["labels"]) == len(blob["points"]),
                 "a list of integers, one per point")
            return _clf.KnnModel(k=blob["k"], points=np.asarray(blob["points"]),
                                 labels=np.asarray(blob["labels"], dtype=np.int64),
                                 n_classes=blob["n_classes"])
        if kind == "linear_svm":
            need("weights", _is_matrix(blob["weights"], n_features + 1),
                 f"a matrix of numbers with {n_features + 1} columns")
            return _clf.LinearSvmModel(weights=np.asarray(blob["weights"]),
                                       n_classes=blob["n_classes"])
        need("n_features", _is_int(blob["n_features"]), "an integer")
        return _clf.RandomForestModel(trees=tuple(blob["trees"]),
                                      n_classes=blob["n_classes"],
                                      n_features=blob["n_features"])
    except KeyError as e:
        raise ValueError(f"{path}: model state lacks key {e}") from None


def save_model(model: TrainedModel, path) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "hyperparameters": model.hyperparameters,
        "layout": list(model.layout),
        "feature_mean": model.feature_mean.tolist(),
        "feature_scale": model.feature_scale.tolist(),
        "state": _state_to_json(model),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


_MODEL_KEYS = ("kind", "hyperparameters", "layout", "feature_mean",
               "feature_scale", "state")


def _list_of(value, types) -> bool:
    """True for a JSON array whose items are all of `types` (never bool)."""
    return isinstance(value, list) and all(
        isinstance(v, types) and not isinstance(v, bool) for v in value)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_matrix(value, width: int) -> bool:
    """True for a non-empty JSON array of number arrays, each `width` long."""
    return (isinstance(value, list) and len(value) > 0
            and all(_list_of(row, (int, float)) and len(row) == width
                    for row in value))


def load_model(path) -> TrainedModel:
    """Read a model written by save_model; a malformed file raises ValueError."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a model file holds a JSON object")
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported model format "
                         f"{doc.get('format_version')!r}")
    for key in _MODEL_KEYS:
        if key not in doc:
            raise ValueError(f"{path}: model lacks key {key!r}")
    for key in ("hyperparameters", "state"):
        if not isinstance(doc[key], dict):
            raise ValueError(f"{path}: model {key!r} is not an object")
    if not _list_of(doc["layout"], str):
        raise ValueError(f"{path}: model 'layout' is not a list of strings")
    for key in ("feature_mean", "feature_scale"):
        if not _list_of(doc[key], (int, float)):
            raise ValueError(f"{path}: model {key!r} is not a list of numbers")
    if doc["kind"] not in CLASSIFIER_KINDS:
        raise ValueError(f"{path}: unknown classifier kind {doc['kind']!r}")
    state = _state_from_json(doc["kind"], doc["state"], len(doc["layout"]), path)
    return TrainedModel(
        kind=doc["kind"],
        hyperparameters=doc["hyperparameters"],
        layout=tuple(doc["layout"]),
        feature_mean=np.asarray(doc["feature_mean"]),
        feature_scale=np.asarray(doc["feature_scale"]),
        state=state,
    )
