"""Heart-rate estimation from a quasi-static RSS link.

The chest reflection modulates RSS by ~0.005 dB per beat. A trailing window
is outlier-filtered, bandpassed, and transformed to a zero-padded PSD; the
pulse is located by superimposing each candidate frequency's power with its
second harmonic (the pulse train is sharp, so the harmonic often carries
more power than the fundamental) and picking the argmax over the resting
band. A peak-power threshold suppresses estimates during gross motion,
which raises the PSD peak by orders of magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dsp import (
    HampelConfig,
    IirFilter,
    butterworth_bandpass,
    filter_forward,
    hampel_filter,
    hampel_refresh_edges,
    next_pow2,
    periodogram,
)
from .trace import DEFAULT_SAMPLE_RATE_HZ, RssTrace

STATUS_ESTIMATE = "estimate"
STATUS_SUPPRESSED = "suppressed_motion"
STATUS_INSUFFICIENT = "insufficient_data"

# motion-suppression threshold over the median quiescent peak
_THRESHOLD_MARGIN = 10.0


@dataclass(frozen=True)
class HeartRateConfig:
    f_min_hz: float = 0.84
    f_max_hz: float = 1.67
    window_s: float = 20.0
    update_period_s: float = 1.0
    psd_threshold: float | None = None    # None: never suppress
    bandpass_low_hz: float = 0.8
    bandpass_high_hz: float = 5.0
    bandpass_order: int = 4
    nfft_target_resolution_bpm: float = 0.5
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ
    hampel: HampelConfig = field(default_factory=HampelConfig)

    def __post_init__(self):
        if not 0.0 < self.f_min_hz < self.f_max_hz:
            raise ValueError("need 0 < f_min < f_max")
        if 2.0 * self.f_max_hz >= self.bandpass_high_hz:
            raise ValueError("second harmonic must fit below the bandpass upper edge")
        if self.window_s * self.f_min_hz <= 1.0:
            raise ValueError("window must span at least one pulse period")
        if self.update_period_s <= 0:
            raise ValueError("update_period must be positive")
        if self.nfft_target_resolution_bpm <= 0:
            raise ValueError("nfft_target_resolution_bpm must be positive")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if self.psd_threshold is not None and self.psd_threshold <= 0:
            raise ValueError("psd_threshold must be positive when set")

    @property
    def window_samples(self) -> int:
        return int(round(self.window_s * self.sample_rate_hz))

    @property
    def nfft(self) -> int:
        # bin width in bpm is 60 fs / nfft; pad until it reaches the target
        need = int(np.ceil(60.0 * self.sample_rate_hz / self.nfft_target_resolution_bpm))
        return next_pow2(max(need, self.window_samples))


@dataclass(frozen=True)
class HeartRateEstimate:
    time_s: float
    bpm: float | None
    peak_power: float
    status: str

    def __post_init__(self):
        if (self.bpm is not None) != (self.status == STATUS_ESTIMATE):
            raise ValueError("bpm must be present exactly when status is estimate")


def _band_psd(filtered: np.ndarray, cfg: HeartRateConfig,
              second_harmonic: bool) -> tuple[np.ndarray, np.ndarray]:
    psd = periodogram(filtered, cfg.sample_rate_hz, nfft=cfg.nfft)
    f = psd.frequencies
    k0 = int(np.searchsorted(f, cfg.f_min_hz, side="left"))
    k1 = int(np.searchsorted(f, cfg.f_max_hz, side="right")) - 1
    k = np.arange(k0, k1 + 1)
    summed = psd.power[k]
    if second_harmonic:
        # power-of-two nfft puts 2 f_k exactly on the grid at index 2k
        summed = summed + psd.power[2 * k]
    return f[k], summed


def _bandpass(cfg: HeartRateConfig) -> IirFilter:
    return butterworth_bandpass(cfg.bandpass_order, cfg.bandpass_low_hz,
                                cfg.bandpass_high_hz, cfg.sample_rate_hz)


def _estimate_filtered(window: np.ndarray, bp: IirFilter, cfg: HeartRateConfig,
                       time_s: float, second_harmonic: bool) -> HeartRateEstimate:
    filtered = filter_forward(bp, window - np.mean(window))
    freqs, summed = _band_psd(filtered, cfg, second_harmonic)
    peak = float(np.max(summed))
    if cfg.psd_threshold is not None and peak >= cfg.psd_threshold:
        return HeartRateEstimate(time_s, None, peak, STATUS_SUPPRESSED)
    bpm = 60.0 * float(freqs[int(np.argmax(summed))])
    return HeartRateEstimate(time_s, bpm, peak, STATUS_ESTIMATE)


def estimate_window(window_rss: np.ndarray, cfg: HeartRateConfig = HeartRateConfig(),
                    time_s: float = 0.0, second_harmonic: bool = True) -> HeartRateEstimate:
    """One heart-rate estimate from a trailing window of raw RSS.

    With second_harmonic=False the fundamental is scored alone (the baseline).
    """
    window_rss = np.asarray(window_rss, dtype=np.float64)
    if len(window_rss) < cfg.window_samples:
        return HeartRateEstimate(time_s, None, 0.0, STATUS_INSUFFICIENT)
    w = hampel_filter(window_rss, cfg.hampel)
    return _estimate_filtered(w, _bandpass(cfg), cfg, time_s, second_harmonic)


def estimate_window_single_harmonic(window_rss: np.ndarray,
                                    cfg: HeartRateConfig = HeartRateConfig(),
                                    time_s: float = 0.0) -> HeartRateEstimate:
    """Baseline variant scoring the fundamental alone (no harmonic sum)."""
    return estimate_window(window_rss, cfg, time_s, second_harmonic=False)


def stream_heart_rate(trace: RssTrace, cfg: HeartRateConfig = HeartRateConfig(),
                      second_harmonic: bool = True) -> list[HeartRateEstimate]:
    """Trailing-window estimates every update period, stamped at window end.

    The trace must be sampled at cfg.sample_rate_hz. The Hampel filter runs
    once over the whole trace; per-window results are kept bit-identical to
    filtering each window in isolation by recomputing the window-edge
    regions, where the filter's shrunken context differs.
    """
    fs = cfg.sample_rate_hz
    if trace.metadata.sample_rate_hz != fs:
        raise ValueError(f"trace is sampled at {trace.metadata.sample_rate_hz!r} Hz "
                         f"but the heart-rate config expects {fs!r} Hz")
    n = len(trace)
    n_win = cfg.window_samples
    full = hampel_filter(trace.rss_db, cfg.hampel)
    bp = _bandpass(cfg)
    out = []
    k = 1
    while True:
        t_end = k * cfg.update_period_s
        end = int(round(t_end * fs))
        if end > n:
            break
        start = end - n_win
        if start < 0:
            out.append(HeartRateEstimate(t_end, None, 0.0, STATUS_INSUFFICIENT))
        else:
            w = hampel_refresh_edges(trace.rss_db, full, start, end, cfg.hampel)
            out.append(_estimate_filtered(w, bp, cfg, t_end, second_harmonic))
        k += 1
    return out


def calibrate_threshold(quiet_trace: RssTrace,
                        cfg: HeartRateConfig = HeartRateConfig()) -> float:
    """Motion-suppression threshold from an artifact-free reference trace.

    Returns ten times the median windowed peak of the summed PSD; gross
    motion exceeds quiescent peaks by orders of magnitude, so that margin
    is safe on both sides.
    """
    base = replace(cfg, psd_threshold=None)
    peaks = [e.peak_power for e in stream_heart_rate(quiet_trace, base)
             if e.status == STATUS_ESTIMATE]
    if not peaks:
        raise ValueError("reference trace too short for a single window")
    return _THRESHOLD_MARGIN * float(np.median(peaks))
