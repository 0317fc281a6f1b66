"""The shared corpus evaluation protocol, checked against restated oracles."""

from dataclasses import replace

import numpy as np
import pytest

from rfsense.evaluate import (
    corpus_speed_config,
    crossing_points,
    empty_scene,
    hr_errors,
    rmse,
)
from rfsense.heart import HeartRateConfig, stream_heart_rate
from rfsense.sim import (
    CROSSING_LINK,
    NoiseModel,
    VitalSignsProfile,
    WalkPath,
    simulate_crossing,
    simulate_vitals,
)
from rfsense.speed import SpeedConfig, calibrate_crossing_threshold, crossing_frequency


def test_corpus_speed_config_is_the_quiet_scene_calibration():
    quiet = simulate_vitals(
        VitalSignsProfile(breathing_amplitude_db=0.0, pulse_amplitude_db=0.0),
        NoiseModel(seed=7), duration_s=30.0)
    base = SpeedConfig(window_s=5.5, smoothing_window=5, search_interval_s=12.0)
    expected = replace(base,
                       crossing_threshold_hz=calibrate_crossing_threshold(quiet, base))
    assert corpus_speed_config(7) == expected


def test_hr_rmse_matches_inline_numpy():
    trace = simulate_vitals(
        VitalSignsProfile(heart_rate_bpm=((0.0, 60.0), (90.0, 66.0))),
        NoiseModel(seed=4), 90.0)
    peaks = [e.peak_power for e in stream_heart_rate(trace, HeartRateConfig())
             if e.status == "estimate"]
    # a threshold at the median peak suppresses about half the windows
    cfg = HeartRateConfig(psd_threshold=float(np.median(peaks)))
    ests = stream_heart_rate(trace, cfg)
    usable = [e for e in ests if e.status == "estimate"]
    assert usable and any(e.status == "suppressed_motion" for e in ests)
    t = np.array([e.time_s for e in usable])
    bpm = np.array([e.bpm for e in usable])
    ref = np.interp(t, trace.timestamps, trace.ground_truth.hr_bpm)
    errors = hr_errors(trace, ests)
    assert errors.tolist() == (bpm - ref).tolist()
    assert rmse(errors) == float(np.sqrt(np.mean((bpm - ref) ** 2)))


def test_hr_errors_count_seconds_from_the_first_sample():
    # the updates are stamped in seconds from the first sample, so a copy of
    # the trace whose t_s starts 60 s later must score the same
    trace = simulate_vitals(
        VitalSignsProfile(heart_rate_bpm=((0.0, 60.0), (120.0, 72.0))),
        NoiseModel(seed=4), 120.0)
    shifted = replace(trace, timestamps=trace.timestamps + 60.0)
    ests = stream_heart_rate(trace, HeartRateConfig())
    assert [e.time_s for e in ests] == [e.time_s for e in stream_heart_rate(shifted)]
    assert hr_errors(shifted, ests).tolist() == hr_errors(trace, ests).tolist()


def test_crossing_points_pairs_f_min_with_true_speed():
    cfg = corpus_speed_config(7)
    walks = [simulate_crossing(CROSSING_LINK,
                               WalkPath(1.0, 90.0, v, -v * 10.0, 20.0),
                               NoiseModel(seed=20 + k))
             for k, v in enumerate((0.6, 1.2))]
    assert crossing_points(walks, cfg) == [
        (crossing_frequency(w, cfg).f_min_av_hz, v) for w, v in zip(walks, (0.6, 1.2))]


def test_crossing_points_rejects_a_walk_without_crossing():
    with pytest.raises(ValueError, match="walk 0"):
        crossing_points([empty_scene(7, 30.0)], corpus_speed_config(7))
