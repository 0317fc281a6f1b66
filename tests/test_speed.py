"""Speed estimation: average frequency, crossing detection, calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfsense import speed
from rfsense.dsp import Spectrogram, spectrogram
from rfsense.sim import (
    CROSSING_LINK,
    BodyModel,
    NoiseModel,
    VitalSignsProfile,
    WalkPath,
    simulate_crossing,
    simulate_vitals,
)
from rfsense.speed import (
    CrossingEvent,
    SpeedConfig,
    average_frequency,
    calibrate_alpha,
    calibrate_crossing_threshold,
    crossing_frequency,
    detect_crossing,
    estimate_speed,
    load_alpha,
    save_alpha,
)
from rfsense.trace import make_trace

FS = 449.0


def tone_trace(freq_hz, duration_s=8.0, amp=1.0, fs=FS):
    t = np.arange(int(round(duration_s * fs))) / fs
    return make_trace(-50.0 + amp * np.sin(2 * np.pi * freq_hz * t), fs)


@pytest.fixture(scope="module")
def quiet_trace():
    profile = VitalSignsProfile(breathing_amplitude_db=0.0, pulse_amplitude_db=0.0)
    return simulate_vitals(profile, NoiseModel(seed=7), duration_s=30.0)


@pytest.fixture(scope="module")
def crossing_trace():
    # perpendicular mid-link crossing at 1.0 m/s, crossing time 10 s
    path = WalkPath(1.0, 90.0, 1.0, -10.0, 20.0)
    return simulate_crossing(CROSSING_LINK, path, NoiseModel(seed=11))


@pytest.fixture(scope="module")
def tuned_cfg(quiet_trace):
    base = SpeedConfig(window_s=5.5, smoothing_window=5, search_interval_s=12.0)
    thr = calibrate_crossing_threshold(quiet_trace, base)
    return SpeedConfig(window_s=5.5, smoothing_window=5, search_interval_s=12.0,
                       crossing_threshold_hz=thr, alpha_m=1.0)


class TestConfig:
    def test_defaults(self):
        cfg = SpeedConfig()
        assert cfg.window_s == 2.0
        assert cfg.hop_s == 0.25
        assert cfg.smoothing_window == 5
        assert cfg.search_interval_s == 4.0

    @pytest.mark.parametrize("kwargs", [
        dict(window_s=0.0),
        dict(hop_s=-0.1),
        dict(smoothing_window=0),
        dict(crossing_threshold_hz=0.0),
        dict(alpha_m=-1.0),
        dict(search_interval_s=0.0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SpeedConfig(**kwargs)

    def test_event_rejects_negative_frequency(self):
        with pytest.raises(ValueError):
            CrossingEvent(1.0, -0.5, 1.0)


class TestAverageFrequency:
    def test_pure_tone_centroid(self):
        spec = spectrogram(tone_trace(30.0).rss_db, FS, window_s=2.0,
                           hop_s=0.25, nfft=4096)
        _, f_av = average_frequency(spec)
        bin_hz = FS / 4096
        assert np.all(np.abs(f_av - 30.0) < 2 * bin_hz)

    def test_two_equal_tones_average(self):
        t = np.arange(int(8 * FS)) / FS
        x = np.sin(2 * np.pi * 1.0 * t) + np.sin(2 * np.pi * 3.0 * t)
        spec = spectrogram(x, FS, window_s=4.0, hop_s=0.5, nfft=4096)
        _, f_av = average_frequency(spec)
        assert np.all(np.abs(f_av - 2.0) < 2 * (FS / 4096))

    def test_all_zero_column_yields_zero(self):
        spec = spectrogram(np.zeros(4490), FS, window_s=2.0, hop_s=0.25,
                           nfft=4096)
        times, f_av = average_frequency(spec)
        assert len(times) > 0
        assert np.all(f_av == 0.0)

    @given(scale=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=25, deadline=None)
    def test_power_scale_invariance(self, scale):
        rng = np.random.default_rng(0)
        power = rng.uniform(0.1, 1.0, size=(64, 5))
        freqs = np.linspace(0.0, 224.0, 64)
        times = np.arange(5, dtype=np.float64)
        _, base = average_frequency(Spectrogram(times, freqs, power))
        _, scaled = average_frequency(Spectrogram(times, freqs, scale * power))
        assert np.allclose(base, scaled, rtol=1e-9)

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_mass_shift_monotonicity(self, data):
        # moving power from a low bin to a higher bin never lowers f_av
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        power = rng.uniform(0.05, 1.0, size=(32, 1))
        freqs = np.linspace(0.0, 100.0, 32)
        i = data.draw(st.integers(0, 30))
        j = data.draw(st.integers(i + 1, 31))
        eps = data.draw(st.floats(1e-6, 0.05))
        shifted = power.copy()
        shifted[i, 0] -= eps
        shifted[j, 0] += eps
        times = np.zeros(1)
        _, before = average_frequency(Spectrogram(times, freqs, power))
        _, after = average_frequency(Spectrogram(times, freqs, shifted))
        assert after[0] >= before[0] - 1e-12


class TestDetectCrossing:
    def test_noise_only_never_triggers(self, quiet_trace, tuned_cfg):
        times, f_av = speed._smoothed_f_av(quiet_trace, tuned_cfg)
        assert detect_crossing(times, f_av, tuned_cfg) is None

    def test_interval_contains_true_crossing(self, crossing_trace, tuned_cfg):
        times, f_av = speed._smoothed_f_av(crossing_trace, tuned_cfg)
        interval = detect_crossing(times, f_av, tuned_cfg)
        assert interval is not None
        t0, t1 = interval
        assert t0 - 0.5 <= crossing_trace.ground_truth.cross_t_s <= t1 + 0.5

    def test_infinite_threshold_opens_immediately(self, quiet_trace):
        cfg = SpeedConfig(crossing_threshold_hz=np.inf)
        times, f_av = speed._smoothed_f_av(quiet_trace, cfg)
        interval = detect_crossing(times, f_av, cfg)
        assert interval is not None
        assert interval[0] == times[0]

    def test_empty_series_raises(self):
        with pytest.raises(ValueError):
            detect_crossing(np.array([]), np.array([]), SpeedConfig())


class TestEstimateSpeed:
    def test_requires_alpha(self, crossing_trace):
        with pytest.raises(ValueError, match="alpha"):
            estimate_speed(crossing_trace, SpeedConfig())

    def test_v_hat_linear_in_alpha(self, crossing_trace, tuned_cfg):
        from dataclasses import replace
        ev1 = estimate_speed(crossing_trace, tuned_cfg)
        ev2 = estimate_speed(crossing_trace, replace(tuned_cfg, alpha_m=2.5))
        assert ev2.f_min_av_hz == ev1.f_min_av_hz
        assert ev2.t_cross_s == ev1.t_cross_s
        assert np.isclose(ev2.v_hat_mps, 2.5 * ev1.v_hat_mps / tuned_cfg.alpha_m)

    def test_locates_crossing_time(self, crossing_trace, tuned_cfg):
        ev = estimate_speed(crossing_trace, tuned_cfg)
        assert abs(ev.t_cross_s - crossing_trace.ground_truth.cross_t_s) < 1.0

    def test_quiet_trace_yields_none(self, quiet_trace, tuned_cfg):
        assert estimate_speed(quiet_trace, tuned_cfg) is None

    def test_second_crossing_via_t_start(self, tuned_cfg):
        # two walkers stitched into one recording; crossings at 10 s and 26 s
        a = simulate_crossing(CROSSING_LINK, WalkPath(1.0, 90.0, 1.0, -10.0, 20.0),
                              NoiseModel(seed=21))
        b = simulate_crossing(CROSSING_LINK, WalkPath(1.0, 90.0, 0.6, -3.6, 14.0),
                              NoiseModel(seed=22))
        both = make_trace(np.concatenate([a.rss_db, b.rss_db]), FS)
        first = estimate_speed(both, tuned_cfg)
        assert abs(first.t_cross_s - 10.0) < 1.0
        second = estimate_speed(both, tuned_cfg, t_start=first.t_cross_s + 6.0)
        assert abs(second.t_cross_s - 26.0) < 1.0
        assert second.f_min_av_hz < first.f_min_av_hz  # slower walker

    def test_t_start_past_everything(self, crossing_trace, tuned_cfg):
        assert estimate_speed(crossing_trace, tuned_cfg, t_start=1e4) is None

    def test_calibrated_one_mps(self, quiet_trace, tuned_cfg):
        # calibrate alpha over a small speed grid, hold out a fresh 1.0 m/s run
        pts = []
        for k, v in enumerate((0.4, 0.7, 1.0, 1.3, 1.6)):
            tr = simulate_crossing(
                CROSSING_LINK, WalkPath(1.0, 90.0, v, -10.0 * v, 20.0),
                NoiseModel(seed=100 + k))
            ev = crossing_frequency(tr, tuned_cfg)
            pts.append((ev.f_min_av_hz, v))
        alpha, _ = calibrate_alpha(pts)
        probe = simulate_crossing(
            CROSSING_LINK, WalkPath(0.9, 90.0, 1.0, -10.0, 20.0),
            NoiseModel(seed=200))
        from dataclasses import replace
        ev = estimate_speed(probe, replace(tuned_cfg, alpha_m=alpha))
        assert abs(ev.v_hat_mps - 1.0) <= 0.1


class TestCrossingFrequency:
    def test_zero_v_hat_without_alpha(self, crossing_trace, tuned_cfg):
        ev = crossing_frequency(crossing_trace, tuned_cfg)
        assert ev.v_hat_mps == 0.0
        assert ev.f_min_av_hz > 0


class TestCalibrateAlpha:
    def test_exact_proportional_fit(self):
        f = np.array([0.5, 1.0, 2.0])
        pts = [(fi, 0.8 * fi) for fi in f]
        alpha, rmse = calibrate_alpha(pts)
        assert np.isclose(alpha, 0.8)
        assert rmse < 1e-12

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            calibrate_alpha([(1.0, 0.8)])

    def test_all_zero_frequencies_rejected(self):
        with pytest.raises(ValueError):
            calibrate_alpha([(0.0, 0.5), (0.0, 1.0)])

    def test_residual_reported(self):
        pts = [(1.0, 0.7), (2.0, 1.7)]
        alpha, rmse = calibrate_alpha(pts)
        pred = alpha * np.array([1.0, 2.0])
        expected = np.sqrt(np.mean((np.array([0.7, 1.7]) - pred) ** 2))
        assert np.isclose(rmse, expected)


class TestThresholdCalibration:
    def test_quiescent_median_scale(self, quiet_trace):
        cfg = SpeedConfig(window_s=5.5, smoothing_window=5)
        thr = calibrate_crossing_threshold(quiet_trace, cfg)
        # white noise pushes the centroid near half-Nyquist; half of that
        assert 0.35 * (FS / 4) < thr < 0.65 * (FS / 4)


class TestSerialization:
    def test_alpha_round_trip_multi_link(self, tmp_path):
        path = tmp_path / "alpha.txt"
        save_alpha(path, "hall-1", 0.88)
        save_alpha(path, "hall-2", 0.72)
        save_alpha(path, "hall-1", 0.9025)  # overwrite keeps other links
        assert load_alpha(path, "hall-1") == 0.9025
        assert load_alpha(path, "hall-2") == 0.72

    def test_alpha_missing_link(self, tmp_path):
        path = tmp_path / "alpha.txt"
        save_alpha(path, "hall-1", 0.88)
        with pytest.raises(KeyError):
            load_alpha(path, "nope")

    def test_alpha_rejects_bad_link_id(self, tmp_path):
        with pytest.raises(ValueError):
            save_alpha(tmp_path / "alpha.txt", "a,b", 1.0)

    def test_alpha_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "alpha.txt"
        path.write_text("something else\n")
        with pytest.raises(ValueError):
            load_alpha(path, "hall-1")
