"""Heart-rate estimator tests: grid-exact peak picking, harmonic
superposition vs the single-harmonic baseline, motion suppression, and
stream/window bit-equality."""

import numpy as np
import pytest

from rfsense import heart
from rfsense.heart import (
    HeartRateConfig,
    HeartRateEstimate,
    calibrate_threshold,
    estimate_window,
    estimate_window_single_harmonic,
    stream_heart_rate,
)
from rfsense.sim import NoiseModel, QUIET, VitalSignsProfile, simulate_vitals
from rfsense.trace import make_trace

FS = 449.0
CFG = HeartRateConfig()


def tone_window(freq_hz: float, amp_db: float = 0.01, n: int | None = None,
                extra=None) -> np.ndarray:
    n = n or CFG.window_samples
    t = np.arange(n) / FS
    x = -50.0 + amp_db * np.sin(2 * np.pi * freq_hz * t)
    if extra is not None:
        x = x + extra(t)
    return x


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

    def test_calibrate_rejects_short_reference(self):
        short = make_trace(np.full(100, -50.0), FS)
        with pytest.raises(ValueError):
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

    def test_rejects_trace_at_another_rate(self):
        tr = simulate_vitals(VitalSignsProfile(), NoiseModel(seed=2), 30.0, fs=300.0)
        with pytest.raises(ValueError, match=r"300\.0 Hz.*449\.0 Hz"):
            stream_heart_rate(tr, CFG)
        ests = stream_heart_rate(tr, HeartRateConfig(sample_rate_hz=300.0))
        assert len(ests) == 30
