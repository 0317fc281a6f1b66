"""Heart-rate estimator tests: grid-exact peak picking, harmonic
superposition vs the single-harmonic baseline, motion suppression, and
stream/window bit-equality against a full-periodogram oracle."""

import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rfsense import dsp, heart
from rfsense.dsp import (
    HampelConfig,
    butterworth_bandpass,
    filter_forward,
    hampel_filter,
    periodogram,
)
from rfsense.heart import (
    STATUS_ESTIMATE,
    STATUS_INSUFFICIENT,
    STATUS_SUPPRESSED,
    HeartRateConfig,
    HeartRateEstimate,
    calibrate_threshold,
    estimate_window,
    estimate_window_single_harmonic,
    stream_heart_rate,
)
from rfsense.sim import NoiseModel, VitalSignsProfile, make_corpora, simulate_vitals
from rfsense.trace import make_trace

FS = 449.0
QUIET = NoiseModel(gaussian_sigma_db=0.0, impulse_prob=0.0)
CFG = HeartRateConfig()


def tone_window(freq_hz: float, amp_db: float = 0.01, n: int | None = None,
                extra=None) -> np.ndarray:
    n = n or CFG.window_samples
    t = np.arange(n) / FS
    x = -50.0 + amp_db * np.sin(2 * np.pi * freq_hz * t)
    if extra is not None:
        x = x + extra(t)
    return x


def oracle_estimate(window_rss, cfg, time_s, second_harmonic):
    """One window scored from its full one-sided periodogram, read at the
    band bins: the per-window scorer the block kernel replaced."""
    if len(window_rss) < cfg.window_samples:
        return HeartRateEstimate(time_s, None, 0.0, STATUS_INSUFFICIENT)
    w = hampel_filter(window_rss, cfg.hampel)
    bp = butterworth_bandpass(cfg.bandpass_order, cfg.bandpass_low_hz,
                              cfg.bandpass_high_hz, cfg.sample_rate_hz)
    psd = periodogram(filter_forward(bp, w - np.mean(w)), cfg.sample_rate_hz,
                      nfft=cfg.nfft)
    f = psd.frequencies
    k0 = int(np.searchsorted(f, cfg.f_min_hz, side="left"))
    k1 = int(np.searchsorted(f, cfg.f_max_hz, side="right")) - 1
    k = np.arange(k0, k1 + 1)
    summed = psd.power[k]
    if second_harmonic:
        summed = summed + psd.power[2 * k]
    peak = float(np.max(summed))
    if cfg.psd_threshold is not None and peak >= cfg.psd_threshold:
        return HeartRateEstimate(time_s, None, peak, STATUS_SUPPRESSED)
    return HeartRateEstimate(time_s, 60.0 * float(f[k][int(np.argmax(summed))]), peak,
                             STATUS_ESTIMATE)


def fields(e: HeartRateEstimate):
    return e.time_s, repr(e.bpm), repr(e.peak_power), e.status


def oracle_schedule(n, cfg):
    """The update loop the array schedule replaced: times k * update_period_s
    and window ends round(time * fs), k = 1, 2, ..., while the end is within
    the n samples."""
    times, ends = [], []
    k = 1
    while True:
        t_end = k * cfg.update_period_s
        end = int(round(t_end * cfg.sample_rate_hz))
        if end > n:
            return times, ends
        times.append(t_end)
        ends.append(end)
        k += 1


def oracle_threshold(trace, cfg):
    """calibrate_threshold as it was first defined: ten times the median
    peak_power of the estimate updates of the stream at psd_threshold=None."""
    ests = stream_heart_rate(trace, replace(cfg, psd_threshold=None))
    peaks = [e.peak_power for e in ests if e.status == STATUS_ESTIMATE]
    return 10.0 * float(np.median(peaks))


class TestConfig:
    def test_nfft_reaches_target_resolution(self):
        assert CFG.nfft == 65536
        assert 60.0 * FS / CFG.nfft <= 0.5
        assert CFG.window_samples == 8980

    def test_validation(self):
        with pytest.raises(ValueError):
            HeartRateConfig(f_min_hz=1.7, f_max_hz=1.6)
        with pytest.raises(ValueError):
            HeartRateConfig(f_max_hz=3.0)           # 2 f_max above bandpass edge
        with pytest.raises(ValueError):
            HeartRateConfig(window_s=1.0)           # below one pulse period
        with pytest.raises(ValueError):
            HeartRateConfig(psd_threshold=0.0)

    @pytest.mark.parametrize("fields, what", [
        ({"psd_threshold": float("nan")}, "psd_threshold must be positive, not nan"),
        ({"psd_threshold": -1.0}, "psd_threshold must be positive, not -1.0"),
        ({"update_period_s": float("nan")}, "update_period_s must be finite and positive, not nan"),
        ({"update_period_s": 0.0}, "update_period_s must be finite and positive, not 0.0"),
        ({"update_period_s": 1e-9},
         "update_period_s \\* sample_rate_hz is 4.49e-07, which rounds to 0 samples"),
        ({"update_period_s": 0.5 / FS},
         "update_period_s \\* sample_rate_hz is 0.5, which rounds to 0 samples"),
        ({"nfft_target_resolution_bpm": float("nan")},
         "nfft_target_resolution_bpm must be finite and positive, not nan"),
        ({"sample_rate_hz": float("nan")}, "sample_rate_hz must be finite and positive, not nan"),
        ({"sample_rate_hz": -449.0}, "sample_rate_hz must be finite and positive, not -449.0"),
    ])
    def test_nan_and_non_positive_values_rejected(self, fields, what):
        """A NaN psd_threshold used to pass `<= 0`, so the stream never
        suppressed; each check is now written so that NaN fails it."""
        with pytest.raises(ValueError, match=what):
            HeartRateConfig(**fields)

    @pytest.mark.parametrize("fields, what", [
        ({"window_s": 1e308}, "window_s \\* sample_rate_hz is inf"),
        ({"window_s": float("nan")}, "window_s \\* sample_rate_hz is nan"),
        ({"window_s": 1e17}, "window_s \\* sample_rate_hz is 4.49e\\+19"),
        ({"sample_rate_hz": 1e300}, "window_s \\* sample_rate_hz is 2e\\+301"),
        ({"nfft_target_resolution_bpm": 1e-320}, "nfft_target_resolution_bpm is inf"),
    ])
    def test_sample_counts_past_array_sizes_rejected(self, fields, what):
        """window_samples and nfft would overflow, or ask for arrays no
        machine holds; the config is refused before anything is sized."""
        with pytest.raises(ValueError, match=f"{what}, not a sample count"):
            HeartRateConfig(**fields)

    @pytest.mark.parametrize("fields, what", [
        ({"bandpass_order": 3}, "bandpass_order must be 2, 4, 6 or 8, not 3"),
        ({"bandpass_order": 10}, "bandpass_order must be 2, 4, 6 or 8, not 10"),
        ({"bandpass_low_hz": 0.0}, "need 0 < bandpass_low_hz <= f_min_hz"),
        ({"bandpass_low_hz": 4.0}, "need 0 < bandpass_low_hz <= f_min_hz"),
        ({"sample_rate_hz": 8.0}, "bandpass_high_hz 5.0 is not below half of "
                                  "sample_rate_hz 8.0"),
        ({"sample_rate_hz": 10.0}, "bandpass_high_hz 5.0 is not below half"),
    ])
    def test_bandpass_the_filter_designer_refuses_is_rejected(self, fields, what):
        """A band the designer would refuse, or one that filters out the
        heart-rate band, is a config error, not a failure mid-stream."""
        with pytest.raises(ValueError, match=what):
            HeartRateConfig(**fields)

    @pytest.mark.parametrize("fields", [
        {"bandpass_order": 2}, {"bandpass_order": 8},
        {"bandpass_low_hz": CFG.f_min_hz}, {"sample_rate_hz": 10.5},
    ])
    def test_bandpass_at_the_limits_is_designed(self, fields):
        cfg = HeartRateConfig(**fields)
        assert len(heart._bandpass(cfg).sos) == cfg.bandpass_order // 2

    def test_infinite_or_oversized_update_period_refused_by_name(self):
        """1e308 s used to end in an OverflowError in the stream's loop."""
        with pytest.raises(ValueError, match="^update_period_s must be finite and "
                                             "positive, not inf$"):
            HeartRateConfig(update_period_s=np.inf)
        with pytest.raises(ValueError, match="^update_period_s \\* sample_rate_hz is "
                                             "inf, not a sample count"):
            HeartRateConfig(update_period_s=1e308)

    def test_hampel_window_longer_than_the_window_refused(self):
        """The stream and estimate_window used to fail on it at run time,
        each with its own message."""
        with pytest.raises(ValueError, match="^the 1001-sample Hampel window is longer "
                                             "than the 898-sample window$"):
            HeartRateConfig(window_s=2.0, hampel=HampelConfig(half_window=500))
        with pytest.raises(ValueError, match="^the 899-sample Hampel"):
            HeartRateConfig(window_s=2.0, hampel=HampelConfig(half_window=449))
        assert HeartRateConfig(window_s=2.0,
                               hampel=HampelConfig(half_window=448)).window_samples == 898

    def test_largest_sample_counts_accepted(self):
        cfg = HeartRateConfig(window_s=2.0 ** 62 / FS,
                              nfft_target_resolution_bpm=60.0 * FS / 2.0 ** 62)
        assert cfg.window_samples <= cfg.nfft == 2 ** 62

    def test_estimate_field_coupling(self):
        with pytest.raises(ValueError):
            HeartRateEstimate(0.0, 72.0, 1.0, "suppressed_motion")
        with pytest.raises(ValueError):
            HeartRateEstimate(0.0, None, 1.0, "estimate")


class TestEstimateWindow:
    def test_pure_tone_on_grid(self):
        est = estimate_window(tone_window(1.2), CFG)
        assert est.status == "estimate"
        assert est.bpm == pytest.approx(72.0, abs=0.5)

    def test_pulse_train_with_breathing_and_noise(self):
        prof = VitalSignsProfile(heart_rate_bpm=60.0, breathing_rate_bpm=18.0)
        tr = simulate_vitals(prof, NoiseModel(seed=4), 20.0)
        est = estimate_window(tr.rss_db, CFG)
        assert est.status == "estimate"
        assert est.bpm == pytest.approx(60.0, abs=1.0)

    def test_short_window_insufficient(self):
        est = estimate_window(tone_window(1.2, n=4000), CFG)
        assert est.status == "insufficient_data"
        assert est.bpm is None

    def test_window_longer_than_nfft_rejected(self):
        with pytest.raises(ValueError, match=f"nfft={CFG.nfft} shorter than the"):
            estimate_window(tone_window(1.2, n=CFG.nfft + 1), CFG)

    def test_estimate_always_in_band(self):
        # out-of-band tones cannot drag the estimate out of the resting band
        for f in (0.3, 0.7, 2.5, 4.0):
            est = estimate_window(tone_window(f), CFG)
            assert 60 * CFG.f_min_hz <= est.bpm <= 60 * CFG.f_max_hz

    def test_scale_invariance_of_argmax(self):
        base = tone_window(1.1, amp_db=0.004)
        ref = estimate_window(base, CFG)
        for scale in (0.1, 7.0, 300.0):
            scaled = -50.0 + scale * (base - (-50.0))
            est = estimate_window(scaled, CFG)
            assert est.bpm == ref.bpm
            assert est.peak_power == pytest.approx(ref.peak_power * scale ** 2,
                                                   rel=1e-9)

    def test_breathing_tone_shifts_at_most_one_bin(self):
        bin_bpm = 60.0 * FS / CFG.nfft
        clean = tone_window(1.25, amp_db=0.005)
        est0 = estimate_window(clean, CFG)
        breathing = tone_window(
            1.25, amp_db=0.005,
            extra=lambda t: 0.05 * np.sin(2 * np.pi * 0.4 * t))
        est1 = estimate_window(breathing, CFG)
        assert abs(est1.bpm - est0.bpm) <= bin_bpm + 1e-9


class TestHarmonicSuperposition:
    def test_identical_on_pure_tone(self):
        w = tone_window(1.2)
        a = estimate_window(w, CFG)
        b = estimate_window_single_harmonic(w, CFG)
        assert a.bpm == b.bpm

    def test_strong_harmonic_defeats_single_baseline(self):
        # fundamental 1.0 Hz with a 3x-power 2nd harmonic, plus a 1.5 Hz
        # interferer stronger than the fundamental alone but weaker than
        # fundamental + harmonic
        def extra(t):
            return (np.sqrt(3.0) * 0.004 * np.sin(2 * np.pi * 2.0 * t)
                    + np.sqrt(2.0) * 0.004 * np.sin(2 * np.pi * 1.5 * t))

        w = tone_window(1.0, amp_db=0.004, extra=extra)
        single = estimate_window_single_harmonic(w, CFG)
        combined = estimate_window(w, CFG)
        assert single.bpm == pytest.approx(90.0, abs=0.5)
        assert combined.bpm == pytest.approx(60.0, abs=0.5)


@pytest.fixture(scope="module")
def quiet_trace():
    prof = VitalSignsProfile(heart_rate_bpm=66.0)
    return simulate_vitals(prof, NoiseModel(seed=9), 60.0)


@pytest.fixture(scope="module")
def drift_trace():
    prof = VitalSignsProfile(heart_rate_bpm=((0.0, 60.0), (300.0, 66.0)))
    return simulate_vitals(prof, NoiseModel(seed=1), 300.0)


class TestSuppression:
    def test_calibrated_threshold_passes_quiet_windows(self, quiet_trace):
        thd = calibrate_threshold(quiet_trace, CFG)
        cfg = HeartRateConfig(psd_threshold=thd)
        ests = stream_heart_rate(quiet_trace, cfg)
        usable = [e for e in ests if e.status != "insufficient_data"]
        assert usable and all(e.status == "estimate" for e in usable)

    def test_motion_artifact_suppressed(self, quiet_trace):
        thd = calibrate_threshold(quiet_trace, CFG)
        cfg = HeartRateConfig(psd_threshold=thd)
        rss = quiet_trace.rss_db[: cfg.window_samples].copy()
        t = np.arange(len(rss)) / FS
        rss += 1.0 * np.sin(2 * np.pi * 1.0 * t) * ((t > 8) & (t < 12))
        est = estimate_window(rss, cfg)
        assert est.status == "suppressed_motion"
        assert est.bpm is None
        assert est.peak_power >= thd

    @pytest.mark.parametrize("window_s", [10.0, 20.0, 40.0])
    def test_calibrate_equals_the_median_estimate_peak(self, rest_and_motion, window_s):
        """The threshold is read off the band rows' peaks; it equals the
        median peak of the estimate updates of a stream without a threshold,
        whatever threshold and update period the config holds."""
        for trace in rest_and_motion:
            for period in (1.0, 0.7):
                for thd in (None, 1e-300):
                    cfg = HeartRateConfig(window_s=window_s, update_period_s=period,
                                          psd_threshold=thd)
                    got = calibrate_threshold(trace, cfg)
                    assert repr(got) == repr(oracle_threshold(trace, cfg))

    def test_calibrate_rejects_short_reference(self):
        short = make_trace(np.full(100, -50.0), FS)
        with pytest.raises(ValueError):
            calibrate_threshold(short, CFG)

    @pytest.mark.parametrize("n", [150, 300, 500, CFG.window_samples - 1])
    def test_calibrate_names_a_reference_without_a_full_window(self, n):
        short = simulate_vitals(VitalSignsProfile(), NoiseModel(seed=5), 20.0)
        short = make_trace(short.rss_db[:n], FS)
        with pytest.raises(ValueError, match="reference trace too short for a single window"):
            calibrate_threshold(short, CFG)


class TestStream:
    def test_estimate_counts(self, drift_trace):
        ests = stream_heart_rate(drift_trace, CFG)
        assert len(ests) == 300
        usable = [e for e in ests if e.status != "insufficient_data"]
        assert len(usable) == 281
        assert usable[0].time_s == pytest.approx(20.0)
        assert ests[-1].time_s == pytest.approx(300.0)

    def test_tracks_drifting_rate(self, drift_trace):
        ests = [e for e in stream_heart_rate(drift_trace, CFG)
                if e.status == "estimate"]
        gt = np.interp([e.time_s for e in ests], drift_trace.timestamps,
                       drift_trace.ground_truth.hr_bpm)
        err = np.array([e.bpm for e in ests]) - gt
        assert np.sqrt(np.mean(err ** 2)) <= 2.0

    def test_stream_matches_isolated_windows(self, drift_trace):
        ests = stream_heart_rate(drift_trace, CFG)
        for t_end in (20.0, 150.0, 300.0):
            end = int(round(t_end * FS))
            ref = estimate_window(drift_trace.rss_db[end - CFG.window_samples: end],
                                  CFG, time_s=t_end)
            got = ests[int(round(t_end)) - 1]
            assert got.bpm == ref.bpm
            assert got.peak_power == ref.peak_power

    def test_constant_rate_variance_within_bin(self):
        prof = VitalSignsProfile(heart_rate_bpm=72.0)
        tr = simulate_vitals(prof, NoiseModel(seed=2), 120.0)
        ests = [e for e in stream_heart_rate(tr, CFG) if e.status == "estimate"]
        bpms = np.array([e.bpm for e in ests])
        bin_bpm = 60.0 * FS / CFG.nfft
        assert np.var(bpms) <= bin_bpm ** 2

    @pytest.mark.parametrize("n, updates", [(150, 0), (300, 0), (500, 1)])
    def test_trace_without_a_full_window_is_not_filtered(self, monkeypatch, n, updates):
        """150 samples are fewer than the 201 of the Hampel window; no update
        of these traces has a full window, so none calls the filter."""
        def refuse(*args):
            raise AssertionError("hampel_filter called without a full window")

        monkeypatch.setattr(heart, "hampel_filter", refuse)
        tr = simulate_vitals(VitalSignsProfile(), NoiseModel(seed=5), 20.0)
        ests = stream_heart_rate(make_trace(tr.rss_db[:n], FS), CFG)
        assert [fields(e) for e in ests] == [
            (float(k), "None", "0.0", STATUS_INSUFFICIENT) for k in range(1, updates + 1)]

    def test_trace_of_one_window(self):
        tr = simulate_vitals(VitalSignsProfile(), NoiseModel(seed=5), 20.0)
        assert len(tr) == CFG.window_samples
        ests = stream_heart_rate(tr, CFG)
        assert [e.status for e in ests] == [STATUS_INSUFFICIENT] * 19 + [STATUS_ESTIMATE]
        assert fields(ests[-1]) == fields(estimate_window(tr.rss_db, CFG, 20.0))
        assert calibrate_threshold(tr, CFG) == 10.0 * ests[-1].peak_power

    @pytest.mark.parametrize("duration_s", [0.3, 19.99, 20.0, 21.0, 61.3])
    def test_times_and_statuses_equal_the_update_loop(self, monkeypatch, duration_s):
        """The schedule is built once as arrays; its times, statuses and
        window starts are the loop's, and its times are Python floats, whose
        repr the CSV writes. The spectra are stubbed out: a 0.0015 s period
        on 61.3 s makes 40,867 updates."""
        tr = simulate_vitals(VitalSignsProfile(), NoiseModel(seed=3), duration_s)
        starts = []

        def refresh(x, full, s, *rest):
            starts.extend(s.tolist())
            return np.zeros((len(s), 1))

        monkeypatch.setattr(heart, "_workers", lambda: 1)
        monkeypatch.setattr(heart, "hampel_refresh_edges", refresh)
        monkeypatch.setattr(heart, "_band_spectra", lambda w, *rest: (np.array([60.0]), w))
        for period in (0.3, 0.7, 1.0, 1.3, 2.0, 0.0015):
            cfg = HeartRateConfig(update_period_s=period)
            times, ends = oracle_schedule(len(tr), cfg)
            starts.clear()
            ests = stream_heart_rate(tr, cfg)
            assert [repr(e.time_s) for e in ests] == [repr(t) for t in times]
            assert [e.status for e in ests] == [
                STATUS_INSUFFICIENT if end < cfg.window_samples else STATUS_ESTIMATE
                for end in ends]
            assert starts == [end - cfg.window_samples for end in ends
                              if end >= cfg.window_samples]

    def test_rejects_trace_at_another_rate(self):
        tr = simulate_vitals(VitalSignsProfile(), NoiseModel(seed=2), 30.0, fs=300.0)
        with pytest.raises(ValueError, match=r"300\.0 Hz.*449\.0 Hz"):
            stream_heart_rate(tr, CFG)
        ests = stream_heart_rate(tr, HeartRateConfig(sample_rate_hz=300.0))
        assert len(ests) == 30


class TestInputsStayTheCallers:
    """The block kernel mean-removes and tapers its own copies in place: a
    read-only series gives the same estimates as a writable one, and a
    writable one is left as it was."""

    @pytest.mark.parametrize("second_harmonic", [True, False])
    def test_estimate_window_on_a_read_only_window(self, drift_trace, second_harmonic):
        x = drift_trace.rss_db[1000:1000 + CFG.window_samples + 17].copy()
        frozen = x.copy()
        frozen.flags.writeable = False
        writable = x.copy()
        got = estimate_window(frozen, CFG, 3.0, second_harmonic)
        assert repr(got) == repr(estimate_window(writable, CFG, 3.0, second_harmonic))
        assert writable.tobytes() == x.tobytes()

    @pytest.mark.parametrize("window_s", [10.0, 40.0])
    def test_stream_on_a_read_only_trace(self, window_s):
        x = simulate_vitals(VitalSignsProfile(), NoiseModel(seed=4), 60.0).rss_db
        frozen, writable = make_trace(x.copy(), FS), make_trace(x.copy(), FS)
        frozen.rss_db.flags.writeable = False
        cfg = HeartRateConfig(window_s=window_s)
        got = stream_heart_rate(frozen, cfg)
        assert repr(got) == repr(stream_heart_rate(writable, cfg))
        assert writable.rss_db.tobytes() == x.tobytes()


@pytest.fixture(scope="module")
def rest_and_motion():
    """62 s at rest, and the same with a gross-motion burst at 50-53 s. 62 s
    leaves a partial last block of three rows at every window length tested."""
    rest = simulate_vitals(VitalSignsProfile(heart_rate_bpm=70.0), NoiseModel(seed=5), 62.0)
    t = rest.timestamps
    burst = 1.0 * np.sin(2 * np.pi * 1.0 * t) * ((t > 50.0) & (t < 53.0))
    return rest, make_trace(rest.rss_db + burst, FS)


class TestBlockKernel:
    @pytest.mark.parametrize("window_s", [10.0, 20.0, 40.0])
    @pytest.mark.parametrize("second_harmonic", [True, False])
    def test_stream_equals_oracle_and_isolated_windows(self, monkeypatch, rest_and_motion,
                                                       window_s, second_harmonic):
        rest, motion = rest_and_motion
        thd = calibrate_threshold(rest, HeartRateConfig(window_s=window_s))
        cfg = HeartRateConfig(window_s=window_s, psd_threshold=thd)
        rss = motion.rss_db
        want = []
        for k in range(1, 63):
            end = int(round(k * FS))
            window = rss[max(0, end - cfg.window_samples): end]
            oracle = oracle_estimate(window, cfg, float(k), second_harmonic)
            isolated = estimate_window(window, cfg, float(k), second_harmonic)
            assert fields(isolated) == fields(oracle)
            want.append(fields(oracle))
        statuses = {w[3] for w in want}
        assert statuses == {STATUS_INSUFFICIENT, STATUS_ESTIMATE, STATUS_SUPPRESSED}
        # One row per block, three rows (a partial block at the end), and the
        # default block of 16 rows: the 53, 43 and 23 full windows at 10, 20
        # and 40 s take 4, 3 and 2 blocks.
        for bound in (1, 3 * cfg.nfft, dsp._BLOCK):
            monkeypatch.setattr(dsp, "_BLOCK", bound)
            got = stream_heart_rate(motion, cfg, second_harmonic)
            assert [fields(e) for e in got] == want

    def test_a_block_holds_no_block_sized_spectrum(self):
        """A default block of 16 windows at 20 s (1.1 MiB) needs their
        filtered copy and one row's 0.5 MiB spectrum at a time, not the 8 MiB
        complex spectrum of the whole block."""
        rows = dsp._BLOCK // CFG.nfft
        tr = simulate_vitals(VitalSignsProfile(), NoiseModel(seed=4), 40.0)
        full = hampel_filter(tr.rss_db, CFG.hampel)
        starts = np.arange(rows) * int(FS)
        windows = heart.hampel_refresh_edges(tr.rss_db, full, starts,
                                             CFG.window_samples, CFG.hampel)
        bp, hann = heart._bandpass(CFG), np.hanning(CFG.window_samples)
        tracemalloc.start()
        try:
            bpm, summed = heart._band_spectra(windows, bp, hann, CFG, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rows, summed.shape[0]) == (16, 16)
        assert peak < windows.nbytes + 2 * 2 ** 20

    @pytest.mark.parametrize("workers, rows", [
        (1, [16] * 17 + [9]), (2, [8] * 35 + [1]), (3, [5] * 56 + [1]),
        (32, [1] * 281)])
    def test_the_workers_hold_16_windows_of_65536_points(self, monkeypatch, workers,
                                                         rows):
        """At nfft = 65,536 the workers' tasks hold 16 windows at most: a 300 s
        stream at 20 s windows has 281 full windows, so one worker takes 17
        blocks of 16 and one of 9, two take 35 of 8 and one of 1, and more
        workers than 16 are not started."""
        tasks, pools = [], []
        refresh = heart.hampel_refresh_edges
        pool = heart.ThreadPoolExecutor

        def spy(x, full, starts, *rest):
            tasks.append(len(starts))
            return refresh(x, full, starts, *rest)

        def pool_spy(max_workers):
            pools.append(max_workers)
            return pool(max_workers)

        monkeypatch.setattr(heart, "_workers", lambda: workers)
        monkeypatch.setattr(heart, "hampel_refresh_edges", spy)
        monkeypatch.setattr(heart, "ThreadPoolExecutor", pool_spy)
        tr = simulate_vitals(VitalSignsProfile(), NoiseModel(seed=4), 300.0)
        ests = stream_heart_rate(tr, CFG)
        windows = sum(e.status != STATUS_INSUFFICIENT for e in ests)
        assert (CFG.window_s, CFG.nfft, windows) == (20.0, 65536, 281)
        assert pools == [min(workers, 16)]
        # the workers start their tasks in order, but may reach the spy out of it
        assert sorted(tasks, reverse=True) == rows


@pytest.fixture(scope="module")
def seed0_vitals():
    """The first 62 s of each seed-0 evaluation vitals trace."""
    return [make_trace(tr.rss_db[:int(62 * FS)], FS) for tr in make_corpora(0)["vitals"]]


class TestWorkers:
    @pytest.mark.parametrize("window_s, vitals", [(10.0, 0), (20.0, 1), (40.0, 2)])
    @pytest.mark.parametrize("second_harmonic", [True, False])
    def test_estimates_do_not_depend_on_the_worker_count(
            self, monkeypatch, rest_and_motion, seed0_vitals, window_s, vitals,
            second_harmonic):
        """One, two and three workers on tasks of one row, of three rows
        shared among them and of the default 16 shared among them give the
        estimates of one worker on the default block, field for field. With
        a bound of one row no second worker starts, so one run covers all
        three counts there; each window length takes one seed-0 trace."""
        rest, motion = rest_and_motion
        thd = calibrate_threshold(rest, HeartRateConfig(window_s=window_s))
        cfg = HeartRateConfig(window_s=window_s, psd_threshold=thd)
        default = dsp._BLOCK
        for trace in (rest, motion, seed0_vitals[vitals]):
            monkeypatch.setattr(dsp, "_BLOCK", default)
            monkeypatch.setattr(heart, "_workers", lambda: 1)
            want = [fields(e) for e in stream_heart_rate(trace, cfg, second_harmonic)]
            assert STATUS_ESTIMATE in {w[3] for w in want}
            for bound, workers in [(1, 3), (3 * cfg.nfft, 1), (3 * cfg.nfft, 2),
                                   (3 * cfg.nfft, 3), (default, 2), (default, 3)]:
                monkeypatch.setattr(dsp, "_BLOCK", bound)
                monkeypatch.setattr(heart, "_workers", lambda: workers)
                got = stream_heart_rate(trace, cfg, second_harmonic)
                assert [fields(e) for e in got] == want, (bound, workers)

    def test_eight_workers_switching_every_microsecond(self, monkeypatch, rest_and_motion):
        """More workers than cores on one-row tasks, with the interpreter
        switching threads as often as it can: a task that wrote to an array
        another task reads, or a result gathered out of order, would change
        an estimate."""
        motion = rest_and_motion[1]
        monkeypatch.setattr(heart, "_workers", lambda: 1)
        want = [fields(e) for e in stream_heart_rate(motion, CFG)]
        monkeypatch.setattr(dsp, "_BLOCK", 8 * CFG.nfft)
        monkeypatch.setattr(heart, "_workers", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = stream_heart_rate(motion, CFG)
        finally:
            sys.setswitchinterval(interval)
        assert [fields(e) for e in got] == want

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_every_decision_runs_on_the_calling_thread(self, monkeypatch, rest_and_motion,
                                                       workers):
        """The workers return band rows; _estimates decides every update on
        the thread that called the stream, one call per block, in order."""
        spectra_on, decided = [], []
        band_spectra, estimates = heart._band_spectra, heart._estimates

        def spectra_spy(*args):
            spectra_on.append(threading.current_thread())
            return band_spectra(*args)

        def decide_spy(bpm, summed, times, cfg):
            decided.append((threading.current_thread(), times))
            return estimates(bpm, summed, times, cfg)

        monkeypatch.setattr(heart, "_band_spectra", spectra_spy)
        monkeypatch.setattr(heart, "_estimates", decide_spy)
        monkeypatch.setattr(heart, "_workers", lambda: workers)
        monkeypatch.setattr(dsp, "_BLOCK", 3 * CFG.nfft)
        ests = stream_heart_rate(rest_and_motion[1], CFG)
        assert {t for t, _ in decided} == {threading.current_thread()}
        assert [t for _, times in decided for t in times] == [
            e.time_s for e in ests if e.status != STATUS_INSUFFICIENT] == [
            float(k) for k in range(20, 63)]
        assert len(decided) == len(spectra_on) == -(-43 // (3 // workers))
        assert threading.current_thread() not in spectra_on

    def test_no_worker_outlives_the_stream(self, monkeypatch, rest_and_motion):
        monkeypatch.setattr(heart, "_workers", lambda: 2)
        before = threading.active_count()
        assert stream_heart_rate(rest_and_motion[0], CFG)
        assert threading.active_count() == before

    def test_a_failing_block_reaches_the_caller_and_the_pool_is_joined(
            self, monkeypatch, rest_and_motion):
        monkeypatch.setattr(heart, "_workers", lambda: 2)
        ran_on = []

        def fail(*args):
            ran_on.append(threading.current_thread())
            raise ValueError("block failed")

        monkeypatch.setattr(heart, "_band_spectra", fail)
        before = threading.active_count()
        with pytest.raises(ValueError, match="^block failed$"):
            stream_heart_rate(rest_and_motion[0], CFG)
        assert threading.active_count() == before
        assert ran_on and threading.main_thread() not in ran_on
        assert not any(t.is_alive() for t in ran_on)

    def test_workers_are_the_cpus_the_process_may_use(self, monkeypatch):
        monkeypatch.setattr(heart.os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
        assert heart._workers() == 3
        monkeypatch.delattr(heart.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(heart.os, "cpu_count", lambda: 4)
        assert heart._workers() == 4
        monkeypatch.setattr(heart.os, "cpu_count", lambda: None)
        assert heart._workers() == 1
