"""End-to-end acceptance gate: eleven numbered guarantees, one test each.

Every test prints one line with the measured figure next to its bound, so a
verbose run doubles as a scorecard. The simulation corpora are built once
and shared; each stated runtime budget is timed around the evaluation it
covers, not around corpus generation.
"""

import filecmp
import time
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest

from rfsense import cli
from rfsense.dsp import (
    butterworth_bandpass,
    butterworth_lowpass,
    hampel_filter,
    sos_response,
)
from rfsense.gesture import GESTURE_LABELS, SegmentationConfig
from rfsense.gesture import evaluate as gesture_evaluate
from rfsense.gesture import extract_features, segment
from rfsense.gesture import train as gesture_train
from rfsense.heart import (
    HeartRateConfig,
    estimate_window,
    estimate_window_single_harmonic,
    stream_heart_rate,
)
from rfsense.sim import (
    CROSSING_DURATION_S,
    CROSSING_LINK,
    CROSSING_POSITIONS,
    NoiseModel,
    VitalSignsProfile,
    WalkPath,
    make_corpora,
    simulate_crossing,
    simulate_vitals,
)
from rfsense.speed import (
    SpeedConfig,
    calibrate_alpha,
    calibrate_crossing_threshold,
    crossing_frequency,
    estimate_speed,
)
from rfsense.wavelet import db3, wavedec
from wavelet_inverse import waverec

FS = 449.0
EDGE_DB = 20.0 * np.log10(1.0 / np.sqrt(2.0))

# expensive intermediate results shared across tests; tests run in file
# order, so later ones reuse what earlier ones computed
_cache: dict = {}


@pytest.fixture(scope="module")
def corpora():
    # make_corpora simulates a corpus on its first read; reading all four
    # here keeps the simulation out of the criteria's timed regions
    return dict(make_corpora(seed=0))


def report(n: int, detail: str, ok: bool) -> None:
    print(f"criterion {n}: {detail} -> {'PASS' if ok else 'FAIL'}")


# ---------------------------------------------------------------------------
# 1-2: numeric foundations
# ---------------------------------------------------------------------------


def test_criterion_01_filter_and_outlier_oracles(corpora):
    t0 = time.perf_counter()

    bp = butterworth_bandpass(4, 0.8, 5.0, FS)
    lp = butterworth_lowpass(4, 90.0, FS)
    edge_gains = np.concatenate([
        np.abs(sos_response(bp.sos, [0.8, 5.0], FS)),
        np.abs(sos_response(lp.sos, [90.0], FS)),
    ])
    edge_err = float(np.max(np.abs(20.0 * np.log10(edge_gains) - EDGE_DB)))

    rss = corpora["vitals"][0].rss_db
    rng = np.random.default_rng(0)
    starts = rng.choice(np.arange(200, len(rss) - 200, 8), size=300,
                        replace=False)
    lengths = rng.integers(1, 3, size=300)
    signs = rng.choice([-3.0, 3.0], size=300)
    idx = np.concatenate([np.arange(s, s + l) for s, l in zip(starts, lengths)])
    corrupted = rss.copy()
    corrupted[idx] += np.repeat(signs, lengths)

    filtered = hampel_filter(corrupted)
    replaced = float(np.mean(np.abs(filtered[idx] - corrupted[idx]) > 1.0))
    clean = np.ones(len(rss), dtype=bool)
    clean[idx] = False
    clean_shift = float(np.median(np.abs(filtered[clean] - rss[clean])))

    dt = time.perf_counter() - t0
    ok = edge_err <= 0.2 and replaced >= 0.99 and clean_shift < 1e-6 and dt < 5.0
    report(1, f"band edges off -3 dB by {edge_err:.4f} dB (<= 0.2), "
              f"{replaced:.1%} impulses replaced (>= 99%), clean median shift "
              f"{clean_shift:.2e} dB (< 1e-6), {dt:.1f}s (< 5)", ok)
    assert edge_err <= 0.2
    assert replaced >= 0.99
    assert clean_shift < 1e-6
    assert dt < 5.0


def test_criterion_02_wavelet_perfect_reconstruction():
    t0 = time.perf_counter()
    bank = db3()

    tol = 1e-10
    identities = [abs(float(np.sum(bank.rec_lo)) - np.sqrt(2.0)),
                  abs(float(np.dot(bank.rec_lo, bank.rec_lo)) - 1.0),
                  abs(float(np.sum(bank.rec_hi)))]
    for k in (1, 2):
        identities.append(abs(float(np.dot(bank.rec_lo[2 * k:],
                                           bank.rec_lo[:-2 * k]))))
        identities.append(abs(float(np.dot(bank.rec_hi[2 * k:],
                                           bank.rec_hi[:-2 * k]))))
    n = np.arange(len(bank.rec_hi), dtype=np.float64)
    for moment in range(3):
        identities.append(abs(float(np.dot(n ** moment, bank.rec_hi))))
    worst_identity = max(identities)

    rng = np.random.default_rng(1)
    worst_rec = 0.0
    for trial in range(40):
        length = int(rng.integers(64, 4097))
        levels = int(rng.integers(1, 4))
        x = rng.standard_normal(length)
        xr = waverec(wavedec(x, bank, levels=levels), bank, length)
        worst_rec = max(worst_rec, float(np.max(np.abs(xr - x))))

    dt = time.perf_counter() - t0
    ok = worst_identity < 1e-10 and worst_rec < 1e-8 and dt < 5.0
    report(2, f"filter identities off by {worst_identity:.2e} (< 1e-10), "
              f"reconstruction error {worst_rec:.2e} (< 1e-8), "
              f"{dt:.1f}s (< 5)", ok)
    assert worst_identity < tol
    assert worst_rec < 1e-8
    assert dt < 5.0


# ---------------------------------------------------------------------------
# 3-5: heart rate
# ---------------------------------------------------------------------------


def _vitals_rmse(corpora, window_s: float, second_harmonic: bool = True) -> float:
    key = ("hr_rmse", window_s, second_harmonic)
    if key not in _cache:
        cfg = HeartRateConfig(window_s=window_s)
        errors = []
        for trace in corpora["vitals"]:
            ests = [e for e in stream_heart_rate(trace, cfg,
                                                 second_harmonic=second_harmonic)
                    if e.status == "estimate"]
            gt = np.interp([e.time_s for e in ests], trace.timestamps,
                           trace.ground_truth.hr_bpm)
            errors.extend(np.array([e.bpm for e in ests]) - gt)
        _cache[key] = float(np.sqrt(np.mean(np.square(errors))))
    return _cache[key]


def test_criterion_03_heart_rate_stream_rmse(corpora):
    t0 = time.perf_counter()
    rmse = _vitals_rmse(corpora, 20.0)
    dt = time.perf_counter() - t0
    ok = rmse <= 2.0 and dt < 30.0
    report(3, f"20 s-window stream RMSE {rmse:.3f} bpm (<= 2.0), "
              f"{dt:.1f}s (< 30)", ok)
    assert rmse <= 2.0
    assert dt < 30.0


def test_criterion_04_harmonic_superposition(corpora):
    rmse_combined = _vitals_rmse(corpora, 20.0, second_harmonic=True)
    rmse_single = _vitals_rmse(corpora, 20.0, second_harmonic=False)

    # fundamental at 60 bpm with a 3x-power 2nd harmonic plus a 1.5 Hz
    # interferer; the single-harmonic spectrum peaks at the interferer
    cfg = HeartRateConfig()
    t = np.arange(cfg.window_samples) / FS
    window = (-50.0 + 0.004 * np.sin(2 * np.pi * 1.0 * t)
              + np.sqrt(3.0) * 0.004 * np.sin(2 * np.pi * 2.0 * t)
              + np.sqrt(2.0) * 0.004 * np.sin(2 * np.pi * 1.5 * t))
    err_single = abs(estimate_window_single_harmonic(window, cfg).bpm - 60.0)
    err_combined = abs(estimate_window(window, cfg).bpm - 60.0)

    ok = (rmse_combined <= rmse_single and err_single >= 15.0
          and err_combined <= 2.0)
    report(4, f"corpus RMSE {rmse_combined:.3f} <= single-harmonic "
              f"{rmse_single:.3f} bpm; adversarial errors single "
              f"{err_single:.1f} (>= 15), combined {err_combined:.2f} (<= 2)",
           ok)
    assert rmse_combined <= rmse_single
    assert err_single >= 15.0
    assert err_combined <= 2.0


def test_criterion_05_window_length_sweep(corpora):
    rmse = {w: _vitals_rmse(corpora, w) for w in (10.0, 20.0, 40.0)}
    ok = rmse[10.0] > rmse[20.0] and rmse[40.0] > rmse[20.0]
    report(5, "RMSE by window "
              + ", ".join(f"{int(w)}s={rmse[w]:.3f}" for w in sorted(rmse))
              + " bpm; 20 s is the minimum", ok)
    assert rmse[10.0] > rmse[20.0]
    assert rmse[40.0] > rmse[20.0]


# ---------------------------------------------------------------------------
# 6-7: gestures
# ---------------------------------------------------------------------------

CORPUS_SEG_CFG = SegmentationConfig(long_window=4490)


def _boundary_iou(seg, start_s: float, end_s: float) -> float:
    inter = min(seg.end_s, end_s) - max(seg.start_s, start_s)
    union = max(seg.end_s, end_s) - min(seg.start_s, start_s)
    return max(0.0, inter) / union


def _featurize(traces):
    data = []
    for trace in traces:
        segs = segment(trace, CORPUS_SEG_CFG)
        if not segs:
            continue
        best = max(segs, key=lambda s: s.duration_s)
        data.append((extract_features(best, FS), trace.ground_truth.label))
    return data


def test_criterion_06_gesture_segmentation(corpora):
    quiet = simulate_vitals(
        VitalSignsProfile(breathing_amplitude_db=0.0, pulse_amplitude_db=0.0),
        NoiseModel(seed=5), duration_s=600.0)

    t0 = time.perf_counter()
    traces = corpora["gesture_train"] + corpora["gesture_test"]
    hits = 0
    for trace in traces:
        gt = trace.ground_truth
        best = max((_boundary_iou(s, gt.start_s, gt.end_s)
                    for s in segment(trace, CORPUS_SEG_CFG)), default=0.0)
        hits += best >= 0.5
    rate = hits / len(traces)

    false_segments = segment(quiet, CORPUS_SEG_CFG)

    dt = time.perf_counter() - t0
    ok = rate >= 0.95 and not false_segments and dt < 30.0
    report(6, f"{hits}/{len(traces)} gestures at IoU >= 0.5 ({rate:.1%}, "
              f">= 95%), {len(false_segments)} false segments in 10 min of "
              f"quiescence (= 0), {dt:.1f}s (< 30)", ok)
    assert rate >= 0.95
    assert not false_segments
    assert dt < 30.0


def test_criterion_07_gesture_classification(corpora):
    t0 = time.perf_counter()
    train_data = _featurize(corpora["gesture_train"])
    test_data = _featurize(corpora["gesture_test"])

    forest = gesture_train(train_data, kind="random_forest", seed=0)
    knn = gesture_train(train_data, kind="knn", seed=0)
    forest_res = gesture_evaluate(forest, test_data)
    knn_res = gesture_evaluate(knn, test_data)
    col_sums = forest_res.confusion.sum(axis=0)
    col_err = float(np.max(np.abs(col_sums - 1.0)))

    dt = time.perf_counter() - t0
    ok = (forest_res.mean_accuracy >= 0.85
          and forest_res.mean_accuracy >= knn_res.mean_accuracy
          and col_err <= 1e-9 and dt < 120.0)
    report(7, f"random forest {forest_res.mean_accuracy:.1%} (>= 85%) >= "
              f"knn {knn_res.mean_accuracy:.1%}; confusion columns sum to "
              f"1 +/- {col_err:.1e} (<= 1e-9), {dt:.1f}s (< 120)", ok)
    assert forest_res.mean_accuracy >= 0.85
    assert forest_res.mean_accuracy >= knn_res.mean_accuracy
    assert len(col_sums) == len(GESTURE_LABELS)
    assert col_err <= 1e-9
    assert dt < 120.0


# ---------------------------------------------------------------------------
# 8-10: walking speed
# ---------------------------------------------------------------------------


def _tuned_speed_config() -> SpeedConfig:
    """Crossing-corpus evaluation settings: a window wide enough for the
    slowest transit and a threshold calibrated against an empty scene."""
    if "speed_cfg" not in _cache:
        base = SpeedConfig(window_s=5.5, smoothing_window=5,
                           search_interval_s=12.0)
        quiet = simulate_vitals(
            VitalSignsProfile(breathing_amplitude_db=0.0,
                              pulse_amplitude_db=0.0),
            NoiseModel(seed=7), duration_s=30.0)
        thr = calibrate_crossing_threshold(quiet, base)
        _cache["speed_cfg"] = replace(base, crossing_threshold_hz=thr)
    return _cache["speed_cfg"]


def _calibrated_alpha(corpora) -> float:
    if "alpha" not in _cache:
        cfg = _tuned_speed_config()
        points = []
        for trace in corpora["crossing"][::2]:
            event = crossing_frequency(trace, cfg)
            points.append((event.f_min_av_hz, trace.ground_truth.speed_mps))
        _cache["alpha"], _ = calibrate_alpha(points)
    return _cache["alpha"]


def test_criterion_08_speed_rmse_and_monotonicity(corpora):
    t0 = time.perf_counter()
    cfg = replace(_tuned_speed_config(), alpha_m=_calibrated_alpha(corpora))

    by_speed = defaultdict(list)
    errors = []
    for trace in corpora["crossing"][1::2]:
        event = estimate_speed(trace, cfg)
        assert event is not None, trace.metadata.extras["trace_id"]
        truth = trace.ground_truth.speed_mps
        by_speed[truth].append(event.v_hat_mps)
        errors.append(event.v_hat_mps - truth)
    rmse = float(np.sqrt(np.mean(np.square(errors))))
    means = [float(np.mean(by_speed[v])) for v in sorted(by_speed)]
    monotone = all(b > a for a, b in zip(means, means[1:]))

    dt = time.perf_counter() - t0
    ok = rmse <= 0.10 and monotone and dt < 60.0
    report(8, f"held-out RMSE {rmse:.4f} m/s (<= 0.10) over "
              f"{len(errors)} crossings, mean v_hat strictly increasing: "
              f"{monotone}, {dt:.1f}s (< 60)", ok)
    assert rmse <= 0.10
    assert monotone
    assert dt < 60.0


def test_criterion_09_position_invariance(corpora):
    cfg = replace(_tuned_speed_config(), alpha_m=_calibrated_alpha(corpora))
    v_hats = []
    for i, pos in enumerate(CROSSING_POSITIONS):
        path = WalkPath(crossing_m=float(pos), angle_deg=90.0, speed_mps=0.813,
                        start_offset_m=-0.813 * CROSSING_DURATION_S / 2.0,
                        duration_s=CROSSING_DURATION_S)
        trace = simulate_crossing(CROSSING_LINK, path, NoiseModel(seed=300 + i))
        event = estimate_speed(trace, cfg)
        assert event is not None
        v_hats.append(event.v_hat_mps)
    std = float(np.std(v_hats))
    ok = std <= 0.05
    report(9, f"v_hat std {std:.4f} m/s (<= 0.05) across "
              f"{len(v_hats)} crossing positions at 0.813 m/s", ok)
    assert std <= 0.05


def test_criterion_10_angle_robustness(corpora):
    cfg = replace(_tuned_speed_config(), alpha_m=_calibrated_alpha(corpora))
    f_by_angle = {}
    errors = []
    for i, angle in enumerate((10.0, 15.0, 20.0, 25.0, 30.0, 45.0,
                               60.0, 75.0, 90.0)):
        path = WalkPath(crossing_m=1.0, angle_deg=angle, speed_mps=0.813,
                        start_offset_m=-0.813 * CROSSING_DURATION_S / 2.0,
                        duration_s=CROSSING_DURATION_S)
        trace = simulate_crossing(CROSSING_LINK, path, NoiseModel(seed=400 + i))
        event = estimate_speed(trace, cfg)
        assert event is not None
        f_by_angle[angle] = event.f_min_av_hz
        if angle >= 30.0:
            errors.append(event.v_hat_mps - 0.813)
    rmse = float(np.sqrt(np.mean(np.square(errors))))
    wide = max(f for a, f in f_by_angle.items() if a >= 30.0)
    rises = f_by_angle[10.0] > 1.5 * wide
    ok = rmse <= 0.11 and rises
    report(10, f"RMSE {rmse:.4f} m/s (<= 0.11) for angles >= 30 deg; "
               f"f_av at 10 deg {f_by_angle[10.0]:.3f} Hz vs wide-angle max "
               f"{wide:.3f} Hz (ratio > 1.5)", ok)
    assert rmse <= 0.11
    assert rises


# ---------------------------------------------------------------------------
# 11: reproducibility
# ---------------------------------------------------------------------------


def test_criterion_11_cli_determinism(tmp_path):
    commands = [
        ["simulate", "vitals", "--hr", "70", "--duration", "30", "--seed", "4"],
        ["simulate", "crossing", "--speed", "1.2", "--seed", "6"],
        ["simulate", "gesture", "--label", "kick", "--seed", "2"],
    ]
    checked = 0
    for i, args in enumerate(commands):
        a, b = tmp_path / f"{i}a", tmp_path / f"{i}b"
        for out in (a, b):
            assert cli.main(args + ["-o", str(out)]) == 0
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        same, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        assert not mismatch and not errors
        checked += len(same)

    vitals = tmp_path / "0a" / "vitals.csv"
    for out in ("ha", "hb"):
        assert cli.main(["heartrate", str(vitals), "--window", "20",
                         "-o", str(tmp_path / out)]) == 0
    names = sorted(p.name for p in (tmp_path / "ha").iterdir())
    same, mismatch, errors = filecmp.cmpfiles(tmp_path / "ha", tmp_path / "hb",
                                              names, shallow=False)
    assert not mismatch and not errors
    checked += len(same)
    report(11, f"{checked} output files byte-identical across reruns "
               f"of 4 commands", True)
