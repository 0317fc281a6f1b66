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

import os
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import dsp
from .dsp import (
    HampelConfig,
    IirFilter,
    _frequencies,
    _psd_rows,
    butterworth_bandpass,
    filter_forward,
    hampel_filter,
    hampel_refresh_edges,
    next_pow2,
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
        dsp._positive(update_period_s=self.update_period_s,
                      nfft_target_resolution_bpm=self.nfft_target_resolution_bpm,
                      sample_rate_hz=self.sample_rate_hz)
        # the checks butterworth_bandpass makes, and a passband that holds
        # the whole heart-rate band
        dsp._check_order(bandpass_order=self.bandpass_order)
        if not 0.0 < self.bandpass_low_hz <= self.f_min_hz:
            raise ValueError("need 0 < bandpass_low_hz <= f_min_hz")
        if not self.bandpass_high_hz < self.sample_rate_hz / 2.0:
            raise ValueError(f"bandpass_high_hz {self.bandpass_high_hz!r} is not below "
                             f"half of sample_rate_hz {self.sample_rate_hz!r}")
        if self.psd_threshold is not None:  # +inf: never suppress
            dsp._require("positive", lambda v: v > 0, psd_threshold=self.psd_threshold)
        # the sizes the stream takes, refused here rather than mid-stream;
        # nfft rounds its count up, so it is checked, not converted
        if (h_win := 2 * self.hampel.half_window + 1) > self.window_samples:
            raise ValueError(f"the {h_win}-sample Hampel window is longer than the "
                             f"{self.window_samples}-sample window")
        dsp._sample_count("60 * sample_rate_hz / nfft_target_resolution_bpm",
                          60.0 * self.sample_rate_hz / self.nfft_target_resolution_bpm)
        dsp._sample_count("update_period_s * sample_rate_hz",
                          self.update_period_s * self.sample_rate_hz, least=1)

    @property
    def window_samples(self) -> int:
        return dsp._sample_count("window_s * sample_rate_hz",
                                 self.window_s * self.sample_rate_hz)

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


def _bandpass(cfg: HeartRateConfig) -> IirFilter:
    return butterworth_bandpass(cfg.bandpass_order, cfg.bandpass_low_hz,
                                cfg.bandpass_high_hz, cfg.sample_rate_hz)


def _band_spectra(windows: np.ndarray, bp: IirFilter, hann: np.ndarray,
                  cfg: HeartRateConfig, second_harmonic: bool
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The bpm of each resting-band bin and each row's power there, for
    Hampel-filtered windows, one per row; overwrites `windows`.

    Each row is mean-removed in place and bandpassed into a fresh copy, and
    the raw windows are dropped; _psd_rows then transforms the filtered
    rows to zero-padded periodograms with the taper `hann`, one at a time,
    keeping only the band bins; with second_harmonic each bin's harmonic is
    read too and added in. Every step is row-wise, so a row's power does
    not depend on the rest of the block.
    """
    fs = cfg.sample_rate_hz
    f = _frequencies(cfg.nfft, fs)
    k0 = int(np.searchsorted(f, cfg.f_min_hz, side="left"))
    k1 = int(np.searchsorted(f, cfg.f_max_hz, side="right")) - 1
    k = np.arange(k0, k1 + 1)
    # power-of-two nfft puts 2 f_k exactly on the grid at index 2k
    read = np.concatenate((k, 2 * k)) if second_harmonic else k
    windows -= windows.mean(axis=1, keepdims=True)
    windows = filter_forward(bp, windows)
    power = _psd_rows(windows, fs, cfg.nfft, hann, read)
    summed = power[:, :len(k)] + power[:, len(k):] if second_harmonic else power
    return 60.0 * f[k], summed


def _estimates(bpm: np.ndarray, summed: np.ndarray, times,
               cfg: HeartRateConfig) -> Iterator[HeartRateEstimate]:
    """One estimate per row of `summed`, stamped `times`: the bpm of its
    peak bin, or suppressed when the peak reaches cfg.psd_threshold."""
    for t, peak, best in zip(times, summed.max(axis=1), summed.argmax(axis=1)):
        peak = float(peak)
        if cfg.psd_threshold is not None and peak >= cfg.psd_threshold:
            yield HeartRateEstimate(t, None, peak, STATUS_SUPPRESSED)
        else:
            yield HeartRateEstimate(t, float(bpm[best]), peak, STATUS_ESTIMATE)


def estimate_window(window_rss: np.ndarray, cfg: HeartRateConfig = HeartRateConfig(),
                    time_s: float = 0.0, second_harmonic: bool = True) -> HeartRateEstimate:
    """One heart-rate estimate from a trailing window of raw RSS.

    With second_harmonic=False the fundamental is scored alone (the baseline).
    This is the one-row case of the scorer stream_heart_rate runs on blocks
    of windows, so the two agree bit for bit.
    """
    window_rss = np.asarray(window_rss, dtype=np.float64)
    if len(window_rss) < cfg.window_samples:
        return HeartRateEstimate(time_s, None, 0.0, STATUS_INSUFFICIENT)
    if len(window_rss) > cfg.nfft:
        raise ValueError(f"nfft={cfg.nfft} shorter than the window ({len(window_rss)})")
    w = hampel_filter(window_rss, cfg.hampel)
    bpm, summed = _band_spectra(w[None, :], _bandpass(cfg), np.hanning(len(w)), cfg,
                                second_harmonic)
    return next(_estimates(bpm, summed, [time_s], cfg))


def estimate_window_single_harmonic(window_rss: np.ndarray,
                                    cfg: HeartRateConfig = HeartRateConfig(),
                                    time_s: float = 0.0) -> HeartRateEstimate:
    """Baseline variant scoring the fundamental alone (no harmonic sum)."""
    return estimate_window(window_rss, cfg, time_s, second_harmonic=False)


def _workers() -> int:
    """One worker thread per CPU this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _schedule(trace: RssTrace, cfg: HeartRateConfig) -> tuple[list[float], np.ndarray]:
    """The update times k * update_period_s, k = 1, 2, ..., whose window end
    rint(time * fs) is within the trace, and the start of each window."""
    fs = cfg.sample_rate_hz
    if trace.metadata.sample_rate_hz != fs:
        raise ValueError(f"trace is sampled at {trace.metadata.sample_rate_hz!r} Hz "
                         f"but the heart-rate config expects {fs!r} Hz")
    # ends never decrease, and those of times past (n + 1) / fs pass n
    k = np.arange(1, int((len(trace) + 1) / (cfg.update_period_s * fs)) + 2)
    times = k * cfg.update_period_s
    ends = np.rint(times * fs)
    keep = ends <= len(trace)
    # tolist: the times stay Python floats, whose repr the CSV writes
    return times[keep].tolist(), ends[keep].astype(np.intp) - cfg.window_samples


def _band_rows(trace: RssTrace, cfg: HeartRateConfig, second_harmonic: bool,
               starts: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the (bpm, summed) band rows of the full windows among `starts`,
    a block at a time and in order. The Hampel filter runs once over the
    whole trace; per block, one call refreshes the window edges, where its
    context shrinks, and one bandpass and one _psd_rows call serve all rows.
    The blocks run on one worker thread per CPU the process may use
    (_workers), joined when the generator ends.
    """
    starts = starts[starts >= 0]
    if not len(starts):
        return
    full = hampel_filter(trace.rss_db, cfg.hampel)
    bp = _bandpass(cfg)
    hann = np.hanning(cfg.window_samples)
    # The tasks in flight together hold at most dsp._BLOCK padded samples
    # (rows x nfft) whenever one row fits: 16 rows at nfft = 65,536, 8 per
    # task with two workers, and no more workers than rows. A task holds its
    # windows until filtered, their filtered copy and one row's spectrum:
    # 0.6 + 0.5 MiB at 20 s and 8 rows. FFT, sosfilt and the edge refresh
    # release the GIL, so tasks overlap; they only read the arrays they share.
    rows = max(1, dsp._BLOCK // cfg.nfft)
    workers = min(_workers(), rows)
    rows //= workers

    def block(lo: int) -> tuple[np.ndarray, np.ndarray]:
        return _band_spectra(hampel_refresh_edges(
            trace.rss_db, full, starts[lo:lo + rows], len(hann), cfg.hampel),
            bp, hann, cfg, second_harmonic)

    with ThreadPoolExecutor(workers) as pool:
        yield from pool.map(block, range(0, len(starts), rows))


def stream_heart_rate(trace: RssTrace, cfg: HeartRateConfig = HeartRateConfig(),
                      second_harmonic: bool = True) -> list[HeartRateEstimate]:
    """Trailing-window estimates every update period, stamped at window end.

    The trace must be sampled at cfg.sample_rate_hz. The workers return band
    rows (_band_rows); _estimates decides each update from them, in order,
    on the calling thread, bit-identical to estimate_window on that window
    alone at any worker count. Updates without a full window are
    insufficient_data.
    """
    times, starts = _schedule(trace, cfg)
    out = [HeartRateEstimate(t, None, 0.0, STATUS_INSUFFICIENT)
           for t in times[:int(np.searchsorted(starts, 0))]]
    for bpm, summed in _band_rows(trace, cfg, second_harmonic, starts):
        out.extend(_estimates(bpm, summed, times[len(out):len(out) + len(summed)], cfg))
    return out


def calibrate_threshold(quiet_trace: RssTrace,
                        cfg: HeartRateConfig = HeartRateConfig()) -> float:
    """Motion-suppression threshold from an artifact-free reference trace:
    ten times the median peak of the summed PSD over its full windows, a
    margin that gross motion exceeds by orders of magnitude."""
    peaks = [summed.max(axis=1) for _, summed in
             _band_rows(quiet_trace, cfg, True, _schedule(quiet_trace, cfg)[1])]
    if not peaks:
        raise ValueError("reference trace too short for a single window")
    return _THRESHOLD_MARGIN * float(np.median(np.concatenate(peaks)))
