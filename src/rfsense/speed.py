"""Walking-speed estimation from the spectrogram's average frequency.

A person crossing the link compresses RSS energy toward low frequencies;
on a quiescent link the average frequency of the per-window spectrum sits
near half-Nyquist (wideband noise), so the crossing shows up as a deep dip.
The minimum of the smoothed average-frequency series locates the crossing,
and its depth scales with walking speed through a per-link constant alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dsp import (HampelConfig, _is_int, _non_negative, _positive, _require,
                  hampel_filter, moving_average, spectrogram)
from .trace import RssTrace

ALPHA_SIDECAR_MAGIC = "# rfsense-alpha-v1"
# a crossing is a drop of the smoothed f_av below this fraction of its
# quiescent median
_QUIET_FRACTION = 0.5


@dataclass(frozen=True)
class SpeedConfig:
    window_s: float = 2.0
    hop_s: float = 0.25
    smoothing_window: int = 5          # samples of the f_av series
    crossing_threshold_hz: float | None = None   # None: 0.5x quiescent median
    alpha_m: float | None = None       # per-link scale; required for speed output
    search_interval_s: float = 4.0
    nfft: int = 4096                   # zero-padded bins sharpen the f_av centroid
    # A single 3 dB impulse adds ~0.015 dB^2 of broadband power to a 2 s
    # window, enough to drag the centroid of a crossing dip by up to 1 Hz,
    # so outlier removal runs before the spectrogram.
    hampel: HampelConfig = field(default_factory=HampelConfig)

    def __post_init__(self):
        _positive(window_s=self.window_s, hop_s=self.hop_s,
                  search_interval_s=self.search_interval_s)
        _require(">= 1", lambda v: 1 <= v < math.inf, smoothing_window=self.smoothing_window)
        _require("an integer", _is_int, smoothing_window=self.smoothing_window)
        _require("an integer >= 2", lambda v: _is_int(v) and v >= 2, nfft=self.nfft)
        if self.crossing_threshold_hz is not None:  # +inf: every window is below
            _require("positive", lambda v: v > 0,
                     crossing_threshold_hz=self.crossing_threshold_hz)
        if self.alpha_m is not None:
            _positive(alpha_m=self.alpha_m)


@dataclass(frozen=True)
class CrossingEvent:
    t_cross_s: float  # seconds from the trace's first sample
    f_min_av_hz: float
    v_hat_mps: float

    def __post_init__(self):
        _non_negative(f_min_av_hz=self.f_min_av_hz)


def average_frequency(spec) -> tuple[np.ndarray, np.ndarray]:
    """Per-column spectral centroid; all-zero columns map to 0 Hz."""
    total = spec.power.sum(axis=0)
    weighted = (spec.frequencies[:, None] * spec.power).sum(axis=0)
    f_av = np.divide(weighted, total, out=np.zeros_like(total),
                     where=total >= 1e-12)
    return spec.times, f_av


def _smoothed_f_av(trace: RssTrace, cfg: SpeedConfig
                   ) -> tuple[np.ndarray, np.ndarray]:
    fs = trace.metadata.sample_rate_hz
    rss = hampel_filter(trace.rss_db, cfg.hampel)
    spec = spectrogram(rss, fs, window_s=cfg.window_s,
                       hop_s=cfg.hop_s, nfft=cfg.nfft)
    times, f_av = average_frequency(spec)
    return times, moving_average(f_av, cfg.smoothing_window)


def detect_crossing(times: np.ndarray, f_av: np.ndarray, cfg: SpeedConfig
                    ) -> tuple[float, float] | None:
    """First drop of the smoothed series below threshold opens the search
    interval; None when the series never drops (stationary scene)."""
    if len(times) == 0:
        raise ValueError("empty series")
    thr = cfg.crossing_threshold_hz
    if thr is None:
        thr = _QUIET_FRACTION * float(np.median(f_av))
    below = np.flatnonzero(f_av < thr)
    if len(below) == 0:
        return None
    t0 = float(times[below[0]])
    return t0, t0 + cfg.search_interval_s


def crossing_frequency(trace: RssTrace, cfg: SpeedConfig) -> CrossingEvent | None:
    """First crossing and its minimum average frequency, with v_hat left at
    0: calibration collects f_min_av before any alpha exists. cfg.alpha_m is
    not read."""
    times, f_av = _smoothed_f_av(trace, cfg)
    interval = detect_crossing(times, f_av, cfg)
    if interval is None:
        return None
    m = (times >= interval[0]) & (times <= interval[1])
    j = int(np.argmin(f_av[m]))
    return CrossingEvent(t_cross_s=float(times[m][j]),
                         f_min_av_hz=float(f_av[m][j]), v_hat_mps=0.0)


def estimate_speed(trace: RssTrace, cfg: SpeedConfig) -> CrossingEvent | None:
    """The crossing_frequency event, its minimum average frequency scaled to
    a speed. Requires a calibrated alpha."""
    if cfg.alpha_m is None:
        raise ValueError("alpha_m is not calibrated; run calibrate_alpha first")
    event = crossing_frequency(trace, cfg)
    if event is None:
        return None
    return replace(event, v_hat_mps=cfg.alpha_m * event.f_min_av_hz)


def calibrate_crossing_threshold(quiet_trace: RssTrace, cfg: SpeedConfig) -> float:
    """Crossing threshold from a quiescent recording: half the median
    smoothed average frequency of an empty scene.

    The per-trace fallback inside detect_crossing assumes the trace is
    mostly quiet; a slow walker keeps the whole recording fade-dominated
    and defeats it, so batch evaluation should calibrate once against a
    genuinely empty scene and pass the result in the config.
    """
    _, f_av = _smoothed_f_av(quiet_trace, cfg)
    thr = _QUIET_FRACTION * float(np.median(f_av))
    if thr <= 0:
        raise ValueError("quiescent reference has zero median f_av")
    return thr


def calibrate_alpha(points: list[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares through the origin over (f_min_av, true_speed) pairs.

    Returns (alpha, residual RMSE in m/s).
    """
    if len(points) < 2:
        raise ValueError("need at least two calibration points")
    f = np.array([p[0] for p in points], dtype=np.float64)
    v = np.array([p[1] for p in points], dtype=np.float64)
    denom = float(np.sum(f * f))
    if denom == 0.0:
        raise ValueError("all calibration frequencies are zero")
    alpha = float(np.sum(v * f)) / denom
    rmse = float(np.sqrt(np.mean((v - alpha * f) ** 2)))
    return alpha, rmse


def alphas_with(path, link_id: str, alpha: float) -> dict[str, float]:
    """The alphas stored in sidecar `path` ({} when it does not exist), with
    `link_id` set to `alpha`: what save_alpha then writes. A link id with a
    comma or a line break would not read back as itself: ValueError."""
    if any(c in link_id for c in ",\n\r"):
        raise ValueError(f"link_id {link_id!r} must not contain a comma or a line break")
    try:
        alphas = _read_alphas(path)
    except FileNotFoundError:
        alphas = {}
    return {**alphas, link_id: alpha}


def save_alpha(path, alphas: dict[str, float]) -> None:
    """One `<link_id>,alpha=<float>` line per link, sorted; rewrites `path`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ALPHA_SIDECAR_MAGIC + "\n")
        for key in sorted(alphas):
            fh.write(f"{key},alpha={alphas[key]!r}\n")


def load_alpha(path, link_id: str) -> float:
    if (alpha := _read_alphas(path).get(link_id)) is None:
        raise KeyError(f"no alpha stored for link {link_id!r}")
    return alpha


def _read_alphas(path) -> dict[str, float]:
    """{link_id: alpha} of sidecar `path`. A malformed line, an alpha that
    is not a finite positive number, or a link id already read raises
    ValueError naming `path:line`; a file that is not UTF-8 text raises
    ValueError naming `path`."""
    try:
        with open(path, encoding="utf-8") as fh:
            first, *lines = fh.read().split("\n")
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not an alpha sidecar: {e}") from None
    if first != ALPHA_SIDECAR_MAGIC:
        raise ValueError(f"{path}:1: not an alpha sidecar: leading line {first!r}")
    alphas = {}
    for lineno, line in enumerate(lines, start=2):
        if not line:
            continue
        key, _, tail = line.partition(",")
        if not tail.startswith("alpha="):
            raise ValueError(f"{path}:{lineno}: malformed sidecar line {line!r}")
        if key in alphas:
            raise ValueError(f"{path}:{lineno}: link {key!r} is stored twice")
        text = tail[len("alpha="):]
        try:
            alpha = float(text)
        except ValueError:
            alpha = math.nan
        if not (math.isfinite(alpha) and alpha > 0):
            raise ValueError(f"{path}:{lineno}: alpha must be a finite positive "
                             f"number, not {text!r}")
        alphas[key] = alpha
    return alphas
