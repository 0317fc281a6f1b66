"""Gesture pipeline tests on constructed traces and synthetic feature data.

Corpus-level checks (detection rate, classifier accuracy on simulated
gestures) live in the acceptance suite; here every expected value comes from
a hand-built signal or a hand-built cluster layout.
"""

import hashlib
import json
import re
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import maximum_filter1d

from rfsense import classifiers as clf
from rfsense import dsp, gesture
from rfsense.gesture import (
    DEFAULT_HYPERPARAMETERS,
    GESTURE_LABELS,
    EvaluationResult,
    FeatureVector,
    GestureSegment,
    SegmentationConfig,
    TrainedModel,
    classify,
    evaluate,
    extract_features,
    feature_layout,
    load_model,
    preprocess,
    save_model,
    segment,
    train,
)
from rfsense.evaluate import CORPUS_SEGMENTATION
from rfsense.sim import (
    DEFAULT_TEMPLATES,
    NoiseModel,
    VitalSignsProfile,
    make_corpora,
    simulate_gesture,
    simulate_vitals,
)
from rfsense.trace import RssTrace, make_trace

FS = 449.0


def quiet_trace(duration_s, seed=0, sigma=0.01):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, sigma, int(round(duration_s * FS)))


def add_burst(x, t0_s, duration_s=0.5, amp_db=2.0, freq_hz=15.0):
    i0 = int(round(t0_s * FS))
    n = int(round(duration_s * FS))
    t = np.arange(n) / FS
    x[i0: i0 + n] += amp_db * np.hanning(n) * np.sin(2 * np.pi * freq_hz * t)
    return (t0_s, t0_s + duration_s)


def overlap_fraction(seg, true_start, true_end):
    inter = min(seg.end_s, true_end) - max(seg.start_s, true_start)
    return max(0.0, inter) / (true_end - true_start)


# 10 s history keeps the constructed traces short
TEST_CFG = SegmentationConfig(long_window=4490)


class TestSegmentation:
    def test_quiet_trace_yields_nothing(self):
        trace = make_trace(quiet_trace(60.0, seed=1), FS)
        assert segment(trace, TEST_CFG) == []

    def test_single_burst_found_once(self):
        x = quiet_trace(45.0, seed=2)
        lo, hi = add_burst(x, 30.0)
        segs = segment(make_trace(x, FS), TEST_CFG)
        assert len(segs) == 1
        assert overlap_fraction(segs[0], lo, hi) >= 0.8

    def test_two_bursts_one_second_apart(self):
        x = quiet_trace(45.0, seed=3)
        a = add_burst(x, 30.0)
        b = add_burst(x, 31.5)
        segs = segment(make_trace(x, FS), TEST_CFG)
        assert len(segs) == 2
        assert overlap_fraction(segs[0], *a) >= 0.8
        assert overlap_fraction(segs[1], *b) >= 0.8

    def test_close_bursts_merge(self):
        x = quiet_trace(45.0, seed=4)
        add_burst(x, 30.0, duration_s=0.3)
        add_burst(x, 30.34, duration_s=0.3)  # 0.04 s gap < merge_gap_s
        segs = segment(make_trace(x, FS), TEST_CFG)
        assert len(segs) == 1

    def test_sub_minimum_burst_dropped(self):
        x = quiet_trace(45.0, seed=5)
        add_burst(x, 30.0, duration_s=0.05)
        assert segment(make_trace(x, FS), TEST_CFG) == []

    def test_translation_covariance(self):
        shift_s = 1.5
        base = quiet_trace(48.0, seed=6)
        xa, xb = base.copy(), base.copy()
        add_burst(xa, 30.0)
        add_burst(xb, 30.0 + shift_s)
        sa = segment(make_trace(xa, FS), TEST_CFG)
        sb = segment(make_trace(xb, FS), TEST_CFG)
        assert len(sa) == len(sb) == 1
        tol = TEST_CFG.short_window / FS
        assert abs((sb[0].start_s - sa[0].start_s) - shift_s) <= tol
        assert abs((sb[0].end_s - sa[0].end_s) - shift_s) <= tol

    def test_times_count_from_the_first_sample(self):
        # once stamped at absolute timestamps, 60 s later than the same
        # burst in a trace starting at 0 s
        x = quiet_trace(45.0, seed=2)
        add_burst(x, 30.0)
        at_zero = make_trace(x, FS)
        shifted = RssTrace(at_zero.metadata, at_zero.timestamps + 60.0, x)
        (a,), (b,) = segment(at_zero, TEST_CFG), segment(shifted, TEST_CFG)
        assert abs(b.start_s - a.start_s) <= 1e-9
        assert abs(b.end_s - a.end_s) <= 1e-9
        assert b.samples.tobytes() == a.samples.tobytes()

    def test_short_trace_rejected(self):
        with pytest.raises(ValueError):
            segment(make_trace(quiet_trace(5.0), FS), TEST_CFG)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SegmentationConfig(threshold=0.0)
        with pytest.raises(ValueError):
            SegmentationConfig(threshold=1.5)
        with pytest.raises(ValueError):
            SegmentationConfig(short_window=100, long_window=50)
        with pytest.raises(ValueError):
            SegmentationConfig(trim_fraction=1.0)
        with pytest.raises(ValueError):
            SegmentationConfig(min_prominence=0.5)

    @pytest.mark.parametrize("key, value", [
        ("lowpass_order", 3), ("lowpass_order", 10), ("lowpass_cutoff_hz", 0.0),
        ("lowpass_cutoff_hz", -5.0), ("mean_window_s", 0.0), ("mean_window_s", -1.0),
        ("merge_gap_s", -0.1), ("short_window", 45.5), ("long_window", 4490.5),
        ("lowpass_order", 4.0),
    ])
    def test_config_refuses_what_its_kernels_cannot_use(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must"):
            SegmentationConfig(**{key: value})

    @pytest.mark.parametrize("key, need", [
        ("guard_s", "finite and >= 0"), ("merge_gap_s", "finite and >= 0"),
        ("min_duration_s", "finite and positive"), ("mean_window_s", "finite and positive"),
    ])
    def test_infinite_or_oversized_duration_refused_by_name(self, key, need):
        """+inf used to pass the config and 1e308 s to end in an OverflowError
        where segment rounds it to samples; the rate is the trace's, so the
        sample count is refused there."""
        with pytest.raises(ValueError, match=f"^{key} must be {need}, not inf$"):
            replace(TEST_CFG, **{key: np.inf})
        with pytest.raises(ValueError, match=f"^{key} \\* fs is inf, not a sample count"):
            segment(make_trace(quiet_trace(45.0, seed=2), FS),
                    replace(TEST_CFG, **{key: 1e308}))

    def test_config_edges_accepted(self):
        for order in (2, 4, 6, 8):
            SegmentationConfig(lowpass_order=order)
        SegmentationConfig(merge_gap_s=0.0, lowpass_cutoff_hz=1.0, mean_window_s=0.5)

    @pytest.mark.parametrize("samples", [1e-3 * FS, 0.5, 1.0, 1.49])
    def test_mean_window_below_one_and_a_half_samples_is_refused(self, samples):
        """It rounded to a one-sample mean (or none), so every later stage
        saw rounding residue in place of the series."""
        cfg = replace(TEST_CFG, mean_window_s=samples / FS)
        x = quiet_trace(45.0, seed=2)
        what = re.escape(f"mean_window_s * fs is {cfg.mean_window_s * FS!r}, "
                         f"which rounds to {round(cfg.mean_window_s * FS)} samples")
        with pytest.raises(ValueError, match=f"^{what}$"):
            segment(make_trace(x, FS), cfg)
        with pytest.raises(ValueError, match=f"^{what}$"):
            preprocess(x, FS, cfg)
        # the sample rate decides: the same window is two samples at 2 / mean_window_s
        preprocess(x, 2.0 / cfg.mean_window_s, cfg)

    @pytest.mark.parametrize("samples", [1.5, 1.51, 2.0])
    def test_mean_window_from_one_and_a_half_samples_is_used(self, samples):
        cfg = replace(TEST_CFG, mean_window_s=samples / FS)
        x = quiet_trace(45.0, seed=2)
        add_burst(x, 30.0)
        # a one-sample mean left at most 7e-15 of a 2 dB burst
        assert np.max(np.abs(preprocess(x, FS, cfg))) > 0.1
        assert isinstance(segment(make_trace(x, FS), cfg), list)

    def test_peak_memory_of_a_long_trace_is_bounded(self):
        """600 s of a gesture-free scene: segment holds the preprocessed
        series, its moving variance (2.1 MiB each) and one bool mask, and
        the moving statistics, the history and the Hampel screen work in
        blocks. Holding the whole history and the cumulative sums took 8.7
        MiB."""
        trace = simulate_vitals(VitalSignsProfile(breathing_amplitude_db=0.0,
                                                  pulse_amplitude_db=0.0),
                                NoiseModel(seed=3), 600.0)
        assert len(trace) == 269_400
        cfg = SegmentationConfig(**CORPUS_SEGMENTATION)
        tracemalloc.start()
        try:
            segs = segment(trace, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert segs == []
        assert peak < 2 * trace.rss_db.nbytes + 2 ** 20


def oracle_trailing_max(v, window):
    """The trailing max as first written: a shifted maximum filter, then the
    expanding max over the prefix."""
    window = min(window, len(v))
    origin = window - 1 - window // 2
    t = maximum_filter1d(v, size=window, mode="nearest", origin=origin)
    if window > 1:
        t[: window - 1] = np.maximum.accumulate(v[: window - 1])
    return t


def oracle_segment(trace, cfg):
    """segment as first written, one list of (start, end) pairs per stage."""
    fs = trace.metadata.sample_rate_hz
    mean_n = gesture._mean_samples(cfg, fs)
    pre = preprocess(trace.rss_db, fs, cfg)
    w = cfg.short_window
    v = dsp.moving_variance(pre, w)
    hist = oracle_trailing_max(v, cfg.long_window)
    guard_n = int(round(cfg.guard_s * fs))
    jmin = guard_n + cfg.long_window - 1
    active = np.zeros(len(v), dtype=bool)
    active[jmin:] = v[jmin:] > cfg.threshold * hist[jmin - guard_n: len(v) - guard_n]

    bounds = np.flatnonzero(np.diff(np.concatenate([[False], active, [False]])))
    runs = [(int(bounds[i]), int(bounds[i + 1]) - 1) for i in range(0, len(bounds), 2)]
    spans = [(j0, j1 + w - 1) for j0, j1 in runs]

    merge_n = int(round(cfg.merge_gap_s * fs))
    merged = []
    for s0, s1 in spans:
        if merged and s0 - merged[-1][1] - 1 < merge_n:
            merged[-1][1] = max(merged[-1][1], s1)
        else:
            merged.append([s0, s1])

    min_n = int(round(cfg.min_duration_s * fs))
    kept = [(s0, s1) for s0, s1 in merged if s1 - s0 + 1 >= min_n]
    kept = [(s0, s1) for s0, s1 in kept
            if v[s0: s1 - w + 2].max() > cfg.min_prominence * hist[s0 - guard_n]]

    if kept:
        peaks = [float(v[s0: s1 - w + 2].max()) for s0, s1 in kept]
        groups = [[0]]
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
    return [GestureSegment(start_s=float(trace.timestamps[s0]),
                           end_s=float(trace.timestamps[s1]),
                           samples=pre[s0: s1 + 1].copy(), trace_id=trace_id)
            for s0, s1 in kept]


def assert_same_segments(got, want):
    assert [(g.start_s, g.end_s, g.samples.tobytes(), g.trace_id) for g in got] \
        == [(g.start_s, g.end_s, g.samples.tobytes(), g.trace_id) for g in want]


def segments_digest(segment_lists) -> str:
    """sha256 over the times, trace ids and sample bytes of lists of segments."""
    h = hashlib.sha256()
    for segs in segment_lists:
        for s in segs:
            h.update(struct.pack("<dd", s.start_s, s.end_s))
            h.update(s.trace_id.encode())
            h.update(s.samples.tobytes())
        h.update(b"|")
    return h.hexdigest()


def burst_trace(rng, n_bursts):
    """40 s of receiver noise and n_bursts bursts of random strength, length
    and pitch; about half start within 1.2 s of the end of the one before,
    where merging and phantom grouping reach them."""
    x = rng.normal(0.0, 0.01, int(40 * FS))
    end = 2.0
    for _ in range(n_bursts):
        dur = rng.uniform(0.03, 1.0)
        t0 = end + rng.uniform(0.0, 1.2) if rng.random() < 0.5 else rng.uniform(2.0, 38.0)
        t0 = min(t0, 39.0 - dur)
        i0, m = int(round(t0 * FS)), int(round(dur * FS))
        x[i0:i0 + m] += 10 ** rng.uniform(-1.5, 0.5) * np.hanning(m) * np.sin(
            2 * np.pi * rng.uniform(3.0, 30.0) * np.arange(m) / FS)
        end = t0 + dur
    return make_trace(x, FS)


class TestSegmentationOracle:
    """segment keeps subsets of interval arrays; the oracle is the list
    code it replaced. Every seed-0 corpus trace yields one segment, so only
    the synthetic traces reach merge, phantom grouping and trim with several
    candidates."""

    def test_history_equals_a_direct_max(self):
        rng = np.random.default_rng(11)
        for _ in range(3000):
            long_n, guard_n = int(rng.integers(1, 80)), int(rng.integers(0, 10))
            jmin = guard_n + long_n - 1
            v = rng.integers(0, 5, jmin + int(rng.integers(1, 60))).astype(np.float64)  # ties
            a = int(rng.integers(jmin, len(v)))
            b = int(rng.integers(a, len(v) + 1))
            want = [v[j - guard_n - long_n + 1: j - guard_n + 1].max() for j in range(a, b)]
            assert gesture._history(v, guard_n, long_n, a, b).tolist() == want

    @pytest.mark.parametrize("block", [1, 128 * 7, dsp._BLOCK])
    def test_mask_equals_one_history_over_the_series(self, monkeypatch, block):
        """_active in blocks of max(block // 128, long_n) samples against the
        oracle's mask from one trailing max over the whole series."""
        monkeypatch.setattr(dsp, "_BLOCK", block)
        rng = np.random.default_rng(12)
        for _ in range(400):
            long_n, guard_n = int(rng.integers(1, 12)), int(rng.integers(0, 12))
            n = guard_n + long_n - 1 + int(rng.integers(1, 60))
            v = rng.integers(0, 6, n).astype(np.float64)  # ties
            threshold = float(rng.choice([0.5, 1.0]))
            hist = oracle_trailing_max(v, long_n)
            jmin = guard_n + long_n - 1
            want = np.zeros(n, dtype=bool)
            want[jmin:] = v[jmin:] > threshold * hist[jmin - guard_n: n - guard_n]
            got = gesture._active(v, threshold, guard_n, long_n)
            assert got.tolist() == want.tolist()

    def test_a_gap_of_exactly_the_limit_starts_a_group(self):
        # the oracle merges while s0 - previous end - 1 < gap: 4 free samples
        # merge at gap 5, and 5 do not
        s0, s1 = np.array([0, 10, 21]), np.array([5, 15, 30])
        assert gesture._apart(s0, s1, 5).tolist() == [True, False, True]
        assert gesture._apart(s0[:0], s1[:0], 5).tolist() == []

    @pytest.mark.parametrize("split", ["gesture_train", "gesture_test"])
    def test_matches_oracle_on_the_corpus(self, split):
        cfg = SegmentationConfig(**CORPUS_SEGMENTATION)
        for trace in make_corpora(0)[split]:
            assert_same_segments(segment(trace, cfg), oracle_segment(trace, cfg))

    @pytest.mark.parametrize("seed, pin", [
        (0, "acf7fb92e6e588ff1c1628f47ec4150be0db7b7f8ffc529c6a1f638239722822"),
        (1, "6f34b3f911b466038f4e470d2b70330afdaf8daf91f09b86947f6efdba234910")])
    def test_corpus_segments_are_pinned(self, seed, pin):
        """The bytes of every segment of the seed's gesture corpora, as
        segment wrote them before it built its mask block by block."""
        cfg = SegmentationConfig(**CORPUS_SEGMENTATION)
        corpora = make_corpora(seed)
        got = [segment(trace, cfg) for split in ("gesture_train", "gesture_test")
               for trace in corpora[split]]
        if seed == 1:  # test_matches_oracle_on_the_corpus covers seed 0
            for segs, trace in zip(got, corpora["gesture_train"] + corpora["gesture_test"]):
                assert_same_segments(segs, oracle_segment(trace, cfg))
        assert segments_digest(got) == pin

    def test_long_idle_trace_matches_oracle_and_pin(self):
        """600 s, so the mask takes 33 blocks at the default dsp._BLOCK; a
        loose threshold and prominence give it 37 segments to keep."""
        trace = simulate_vitals(VitalSignsProfile(breathing_amplitude_db=0.0,
                                                  pulse_amplitude_db=0.0),
                                NoiseModel(seed=3), 600.0)
        corpus = SegmentationConfig(**CORPUS_SEGMENTATION)
        loose = replace(corpus, min_prominence=1.0, threshold=0.5)
        got = [segment(trace, corpus), segment(trace, loose)]
        assert got[0] == []
        assert len(got[1]) == 37
        assert_same_segments(got[1], oracle_segment(trace, loose))
        assert segments_digest(got) == \
            "6c2d57c919bc8a180a6e97bb51a4a69609da3ba94fe51e8df3903def3f8e0122"

    @pytest.mark.parametrize("block", [1, 128 * 600])
    def test_matches_oracle_in_small_blocks(self, monkeypatch, block):
        """Blocks of one history window (block 1) or of 600 samples: the mask
        and the moving statistics of a 40 s trace take several blocks."""
        monkeypatch.setattr(dsp, "_BLOCK", block)
        rng = np.random.default_rng(22)
        for i in range(40):
            cfg = SegmentationConfig(long_window=int(rng.integers(500, 4491)),
                                     min_prominence=float(rng.choice([1.0, 3.0])),
                                     guard_s=float(rng.choice([0.0, 2.0])))
            trace = burst_trace(rng, i % 8)
            assert_same_segments(segment(trace, cfg), oracle_segment(trace, cfg))

    def test_matches_oracle_on_synthetic_bursts(self):
        rng = np.random.default_rng(21)
        for i in range(240):
            cfg = SegmentationConfig(
                long_window=int(rng.integers(500, 4491)),
                merge_gap_s=float(rng.choice([0.0, 0.1, 0.5])),
                min_duration_s=float(rng.choice([0.01, 0.2])),
                min_prominence=float(rng.choice([1.0, 3.0, 10.0])),
                trim_fraction=float(rng.choice([0.0, 0.02, 0.5])),
                guard_s=float(rng.choice([0.0, 2.0])))
            trace = burst_trace(rng, i % 8)
            assert_same_segments(segment(trace, cfg), oracle_segment(trace, cfg))

    def test_no_candidate(self):
        trace = make_trace(np.zeros(int(45 * FS)), FS)
        assert segment(trace, TEST_CFG) == oracle_segment(trace, TEST_CFG) == []

    def test_prominence_drops_every_candidate(self):
        x = quiet_trace(45.0, seed=2)
        add_burst(x, 30.0, amp_db=0.03)
        trace = make_trace(x, FS)
        # at min_prominence 1 the one candidate is kept: threshold 1 already
        # puts its onset above its lagged history
        loose = replace(TEST_CFG, min_prominence=1.0)
        assert len(segment(trace, loose)) == 1
        assert_same_segments(segment(trace, loose), oracle_segment(trace, loose))
        strict = replace(TEST_CFG, min_prominence=10.0)
        assert segment(trace, strict) == oracle_segment(trace, strict) == []


class TestFeatures:
    def seg_from(self, samples):
        return GestureSegment(start_s=0.0, end_s=len(samples) / FS,
                              samples=np.asarray(samples, dtype=np.float64))

    def test_layout_length(self):
        layout = feature_layout()
        # 4 bands x 7 stats + two level-3 coefficient blocks of 132
        assert len(layout) == 28 + 2 * 132
        assert layout[0] == "cd1_mean"
        assert layout[27] == "ca3_half_point_freq"

    def test_every_vector_shares_one_layout(self):
        a = extract_features(self.seg_from(np.full(500, 2.0)), FS)
        b = extract_features(self.seg_from(np.arange(300.0)), FS)
        assert a.layout is feature_layout() and b.layout is feature_layout()

    def test_constant_segment(self):
        fv = extract_features(self.seg_from(np.full(500, 2.0)), FS)
        names = dict(zip(fv.layout, fv.values))
        # constant passes through three lowpass stages of gain sqrt(2) each
        assert names["ca3_mean"] == pytest.approx(2.0 * 2 ** 1.5, rel=1e-9)
        for band in ("cd1", "cd2", "cd3"):
            assert abs(names[f"{band}_mean"]) < 1e-9
            assert names[f"{band}_variance"] < 1e-18
            assert names[f"{band}_avg_freq"] == 0.0
            assert names[f"{band}_half_point_freq"] == 0.0
        ca3_block = fv.values[28: 28 + 132]
        np.testing.assert_allclose(ca3_block, 2.0 * 2 ** 1.5, rtol=1e-9)

    def test_tone_average_frequency_recovered(self):
        t = np.arange(449) / FS
        fv = extract_features(self.seg_from(np.sin(2 * np.pi * 5.0 * t)), FS)
        names = dict(zip(fv.layout, fv.values))
        # 5 Hz sits below every band's Nyquist after decimation, so the
        # leaked component keeps its frequency in each band's own PSD
        assert names["ca3_avg_freq"] == pytest.approx(5.0, abs=1.5)
        assert names["cd3_avg_freq"] == pytest.approx(5.0, abs=1.5)

    def test_offset_moves_only_approximation_features(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0.0, 1.0, 700)
        fa = extract_features(self.seg_from(x), FS)
        fb = extract_features(self.seg_from(x + 10.0), FS)
        detail_idx = [i for i, name in enumerate(fa.layout)
                      if name.startswith("cd")]
        np.testing.assert_allclose(fb.values[detail_idx], fa.values[detail_idx],
                                   rtol=1e-7, atol=1e-9)
        names_a = dict(zip(fa.layout, fa.values))
        names_b = dict(zip(fb.layout, fb.values))
        assert names_b["ca3_mean"] - names_a["ca3_mean"] == pytest.approx(
            10.0 * 2 ** 1.5, rel=1e-6)

    def test_determinism_bit_exact(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=600)
        a = extract_features(self.seg_from(x), FS)
        b = extract_features(self.seg_from(x), FS)
        assert np.array_equal(a.values, b.values)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            FeatureVector(values=np.array([1.0, np.nan]), layout=("a", "b"))

    def test_too_short_segment_rejected(self):
        with pytest.raises(ValueError):
            extract_features(self.seg_from([1.0]), FS)


# ---------------------------------------------------------------------------


def blob_dataset(seed, per_class=20, spread=0.5):
    """8 well-separated 2-D clusters, one per label."""
    rng = np.random.default_rng(seed)
    layout = ("f0", "f1")
    data = []
    for i, label in enumerate(GESTURE_LABELS):
        angle = 2 * np.pi * i / 8
        center = 10.0 * np.array([np.cos(angle), np.sin(angle)])
        for _ in range(per_class):
            v = center + rng.normal(0.0, spread, 2)
            data.append((FeatureVector(values=v, layout=layout), label))
    return data


def train_with(data, kind, seed=0, **params):
    """train() with `params` in place of the kind's default hyperparameters,
    which train takes no arguments to change."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(DEFAULT_HYPERPARAMETERS, kind,
                   {**DEFAULT_HYPERPARAMETERS[kind], **params})
        return train(data, kind, seed=seed)


class TestClassifiers:
    @pytest.mark.parametrize("kind", ["knn", "linear_svm", "random_forest"])
    def test_separable_blobs_holdout(self, kind):
        train_data = blob_dataset(seed=0)
        test_data = blob_dataset(seed=1)
        model = train(train_data, kind, seed=42)
        correct = sum(classify(model, fv) == label for fv, label in test_data)
        assert correct / len(test_data) >= 0.95

    def test_knn_tie_breaks_to_first_label(self):
        layout = ("f0",)
        pts = [(0.5, "punch"), (-1.0, "punch"),
               (0.6, "punchx2"), (-1.1, "punchx2"),
               (0.7, "kick"), (9.0, "kick"), (-9.0, "punch")]
        data = [(FeatureVector(values=np.array([v]), layout=layout), lab)
                for v, lab in pts]
        model = train(data, "knn", seed=0)
        # 5 nearest to 0: punch, punchx2, kick, punch, punchx2 -> 2/2/1 tie
        probe = FeatureVector(values=np.array([0.0]), layout=layout)
        assert classify(model, probe) == "punch"

    def test_forest_prediction_is_vote_plurality(self):
        data = blob_dataset(seed=2, per_class=10)
        model = train(data, "random_forest", seed=3)
        for fv, _ in blob_dataset(seed=4, per_class=2):
            xz = (fv.values[None, :] - model.feature_mean) / model.feature_scale
            votes = clf.forest_votes(model.state, xz)[0]
            assert len(votes) == 15
            counts = np.bincount(votes, minlength=8)
            assert classify(model, fv) == GESTURE_LABELS[int(np.argmax(counts))]

    @pytest.mark.parametrize("kind", ["linear_svm", "random_forest"])
    def test_seeded_training_is_deterministic(self, kind):
        data = blob_dataset(seed=5, per_class=8)
        probes = blob_dataset(seed=6, per_class=3)
        m1 = train(data, kind, seed=11)
        m2 = train(data, kind, seed=11)
        assert [classify(m1, fv) for fv, _ in probes] == \
               [classify(m2, fv) for fv, _ in probes]

    def test_single_class_rejected(self):
        layout = ("f0",)
        data = [(FeatureVector(values=np.array([float(i)]), layout=layout), "punch")
                for i in range(6)]
        with pytest.raises(ValueError):
            train(data, "knn")

    def test_layout_mismatch_rejected(self):
        data = blob_dataset(seed=7, per_class=3)
        model = train(data, "knn")
        bad = FeatureVector(values=np.zeros(3), layout=("a", "b", "c"))
        with pytest.raises(ValueError):
            classify(model, bad)
        with pytest.raises(ValueError):
            evaluate(model, [(bad, "punch")])

    def test_unknown_kind_and_label_rejected(self):
        data = blob_dataset(seed=8, per_class=3)
        with pytest.raises(ValueError):
            train(data, "perceptron")
        layout = data[0][0].layout
        data_bad = data + [(FeatureVector(values=np.zeros(2), layout=layout), "wave")]
        with pytest.raises(ValueError, match="unknown label 'wave'"):
            train(data_bad, "knn")
        with pytest.raises(ValueError, match="unknown label 'wave'"):
            evaluate(train(data, "knn"), data_bad)


def oracle_knn_predict(model, X):
    """The one-shot KNN: the whole (rows, points, features) difference array
    at once, stable argsort, per-row bincount votes."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    d2 = ((X[:, None, :] - model.points[None, :, :]) ** 2).sum(axis=2)
    nearest = np.argsort(d2, axis=1, kind="stable")[:, : model.k]
    return np.array([np.argmax(np.bincount(model.labels[row], minlength=model.n_classes))
                     for row in nearest], dtype=np.int64).reshape(len(X))


@pytest.fixture(scope="module")
def gesture_features():
    """DWT features of 4 simulated instances per gesture label, each cut at
    its true extent from the preprocessed trace."""
    cfg = SegmentationConfig()
    data = []
    for label in GESTURE_LABELS:
        for i in range(4):
            tr = simulate_gesture(DEFAULT_TEMPLATES[label], NoiseModel(seed=i),
                                  pre_pad_s=1.0, post_pad_s=0.5, seed=100 + i)
            gt = tr.ground_truth
            pre = preprocess(tr.rss_db, FS, cfg)
            samples = pre[int(round(gt.start_s * FS)):int(round(gt.end_s * FS))]
            seg = GestureSegment(start_s=gt.start_s, end_s=gt.end_s, samples=samples)
            data.append((extract_features(seg, FS), label))
    return data


class TestKnnBlocks:
    """knn_predict in slabs of at most dsp._BLOCK // 8 difference elements
    gives the one-shot oracle's labels at every slab size: each block below
    is eight times a slab, from one element through the default 1 MiB slab
    to the 8 MiB one it replaced."""

    BLOCKS = [8, 56, dsp._BLOCK, 8 * dsp._BLOCK]

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("k", [1, 5, 7])
    def test_gesture_features_match_oracle(self, gesture_features, monkeypatch,
                                           block, k):
        model = train_with(gesture_features[::2], "knn", k=k)
        X = np.stack([fv.values for fv, _ in gesture_features])
        Xz = (X - model.feature_mean) / model.feature_scale
        want = oracle_knn_predict(model.state, Xz)
        widths = []
        squared_distances = clf._squared_distances

        def spy(A, B):
            widths.append(len(B))
            return squared_distances(A, B)

        monkeypatch.setattr(clf, "_squared_distances", spy)
        monkeypatch.setattr(dsp, "_BLOCK", block)
        assert np.array_equal(clf.knn_predict(model.state, Xz), want)
        n = len(model.state.points)
        # 292 features: a small slab compares one row with one point at a time
        assert set(widths) == ({1} if block // 8 < 292 else {n})

    def test_one_row_slabs_match_oracle(self, gesture_features, monkeypatch):
        """A slab of exactly one row's differences against every point."""
        model = train_with(gesture_features[::2], "knn", k=5)
        X = np.stack([fv.values for fv, _ in gesture_features])
        Xz = (X - model.feature_mean) / model.feature_scale
        shapes = []
        squared_distances = clf._squared_distances

        def spy(A, B):
            shapes.append((len(A), len(B)))
            return squared_distances(A, B)

        monkeypatch.setattr(clf, "_squared_distances", spy)
        monkeypatch.setattr(dsp, "_BLOCK", 8 * model.state.points.size)
        assert np.array_equal(clf.knn_predict(model.state, Xz),
                              oracle_knn_predict(model.state, Xz))
        assert set(shapes) == {(1, len(model.state.points))}

    @pytest.mark.parametrize("block", BLOCKS)
    def test_random_shapes_match_oracle(self, monkeypatch, block):
        monkeypatch.setattr(dsp, "_BLOCK", block)
        rng = np.random.default_rng(block)
        for case in range(60):
            n, F, q = (int(v) for v in rng.integers(1, [40, 12, 25]))
            points = rng.normal(size=(n, F)) * 10.0 ** rng.uniform(-3, 3)
            X = rng.normal(size=(q, F)) * 10.0 ** rng.uniform(-3, 3)
            if case % 3 == 0:      # exact distance ties
                points, X = np.round(points), np.round(X)
            model = clf.KnnModel(k=int(rng.integers(1, n + 1)), points=points,
                                 labels=rng.integers(0, 8, n), n_classes=8)
            assert np.array_equal(clf.knn_predict(model, X),
                                  oracle_knn_predict(model, X)), case

    def test_one_point_block_per_row_when_a_row_overflows(self, monkeypatch):
        """A row's 3 points x 4 features exceed a 9-element slab, so each row
        meets the points two at a time, then the last one alone."""
        monkeypatch.setattr(dsp, "_BLOCK", 8 * 9)
        shapes = []
        squared_distances = clf._squared_distances

        def spy(A, B):
            shapes.append((len(A), len(B)))
            return squared_distances(A, B)

        monkeypatch.setattr(clf, "_squared_distances", spy)
        model = clf.knn_fit(np.arange(12.0).reshape(3, 4), [0, 1, 2], 8, k=1)
        assert clf.knn_predict(model, [[0.0] * 4, [8.0] * 4]).tolist() == [0, 2]
        assert shapes == [(1, 2), (1, 1)] * 2

    def test_peak_memory_is_bounded(self):
        rng = np.random.default_rng(0)
        model = clf.knn_fit(rng.normal(size=(320, 292)), rng.integers(0, 8, 320), 8)
        X = rng.normal(size=(200, 292))
        tracemalloc.start()
        try:
            got = clf.knn_predict(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the one-shot difference array alone is 200 * 320 * 292 * 8 B = 143
        # MiB; one row's slab is 0.71 MiB, and an 8 MiB slab held 7.96 MiB
        assert peak < 2 ** 20 + got.nbytes
        assert np.array_equal(got, oracle_knn_predict(model, X))


@pytest.fixture(scope="module")
def corpus_training_sets():
    """The (features, label) pairs of the seed-0 and seed-1 gesture_train
    corpora, each trace cut at its longest segment: 320 rows of 292
    features."""
    cfg = SegmentationConfig(**CORPUS_SEGMENTATION)
    sets = []
    for seed in (0, 1):
        data = []
        for tr in make_corpora(seed)["gesture_train"]:
            segments = segment(tr, cfg)
            best = max(segments, key=lambda s: s.duration_s)
            data.append((extract_features(best, FS), tr.ground_truth.label))
        sets.append(data)
    return sets


class TestForestFit:
    # sha256 of json.dumps(trees) before the trees took only their sampled
    # feature columns, for corpus seeds 0 and 1 and forest seeds 0 and 1
    PINS = {
        (0, 0): "e37b4a35cb37addacc4f2a3a2f70c9ffa9d885d70e35419a1dc12ae9dfc95be7",
        (0, 1): "25a71141792993db16e9c76e1bccd2f731e3a02593bef95ec23b4d52d8eb549d",
        (1, 0): "ffa5f7c99e29ad1dd91548d333f5305b5dc00f0d944f465b44177b8f8c9882bd",
        (1, 1): "95f82883575fac26c4ce568b1efce28729b09d5ab7333a2a755baa8ade4b75e9",
    }

    @pytest.mark.parametrize("corpus, seed", sorted(PINS))
    def test_corpus_forests_are_pinned(self, corpus_training_sets, corpus, seed):
        data = corpus_training_sets[corpus]
        assert (len(data), len(data[0][0].values)) == (320, 292)
        trees = train(data, "random_forest", seed=seed).state.trees
        digest = hashlib.sha256(json.dumps(trees).encode()).hexdigest()
        assert digest == self.PINS[corpus, seed]

    def test_peak_memory_is_bounded(self, corpus_training_sets):
        """Each tree copies its 18 sampled columns down the recursion, not
        all 292: the seed-0 fit peaked at 5.17 MiB when it copied all of
        them, and takes 2.21 MiB now."""
        data = corpus_training_sets[0]
        tracemalloc.start()
        try:
            train(data, "random_forest")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20


class TestEvaluate:
    def test_perfect_classifier_identity_confusion(self):
        data = blob_dataset(seed=9, per_class=6)
        model = train_with(data, "knn", k=1)
        result = evaluate(model, data)
        np.testing.assert_allclose(result.confusion, np.eye(8), atol=1e-12)
        assert result.mean_accuracy == pytest.approx(1.0)

    def test_constant_classifier_chance_level(self):
        # 1-NN on a single-class-dominated space: force every prediction to
        # one label by building the state directly
        layout = ("f0", "f1")
        state = clf.knn_fit(np.zeros((1, 2)), np.array([0]), n_classes=8, k=1)
        model = TrainedModel(kind="knn", hyperparameters={"k": 1}, layout=layout,
                             feature_mean=np.zeros(2), feature_scale=np.ones(2),
                             state=state)
        data = blob_dataset(seed=10, per_class=4)
        result = evaluate(model, data)
        assert result.mean_accuracy == pytest.approx(1.0 / 8.0)
        np.testing.assert_allclose(result.confusion.sum(axis=0), 1.0, atol=1e-9)

    def test_columns_sum_to_one(self):
        data = blob_dataset(seed=11, per_class=5)
        model = train(data, "random_forest", seed=1)
        result = evaluate(model, blob_dataset(seed=12, per_class=5))
        np.testing.assert_allclose(result.confusion.sum(axis=0), 1.0, atol=1e-9)

    def test_empty_rejected(self):
        model = train(blob_dataset(seed=13, per_class=3), "knn")
        with pytest.raises(ValueError):
            evaluate(model, [])


class TestPersistence:
    @pytest.mark.parametrize("kind", ["knn", "linear_svm", "random_forest"])
    def test_round_trip_preserves_predictions(self, kind, tmp_path):
        data = blob_dataset(seed=14, per_class=8)
        probes = blob_dataset(seed=15, per_class=4)
        model = train(data, kind, seed=2)
        path = tmp_path / f"{kind}.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kind == kind
        assert loaded.layout == model.layout
        assert [classify(loaded, fv) for fv, _ in probes] == \
               [classify(model, fv) for fv, _ in probes]

    @pytest.mark.parametrize("key", ["kind", "hyperparameters", "layout", "state"])
    def test_missing_key_names_file_and_key(self, key, tmp_path):
        path = tmp_path / "m.json"
        save_model(train(blob_dataset(seed=14, per_class=4), "knn"), path)
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .*'{key}'"):
            load_model(path)

    def test_missing_state_key_names_the_state(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(train(blob_dataset(seed=14, per_class=4), "knn"), path)
        doc = json.loads(path.read_text())
        del doc["state"]["points"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: model state "
                                             "lacks key 'points'"):
            load_model(path)

    @pytest.mark.parametrize("kind, state_keys", [
        ("knn", ["k", "points", "labels", "n_classes"]),
        ("linear_svm", ["weights", "n_classes"]),
        ("random_forest", ["trees", "n_classes", "n_features"]),
    ])
    def test_file_keys_keep_their_order(self, kind, state_keys, tmp_path):
        """save_model writes the dataclasses' fields in declaration order, so
        reordering a field would change the file; the order is pinned here."""
        path = tmp_path / "m.json"
        save_model(train(blob_dataset(seed=14, per_class=4), kind), path)
        doc = json.loads(path.read_text())
        assert list(doc) == ["format_version", "kind", "hyperparameters", "layout",
                             "feature_mean", "feature_scale", "state"]
        assert list(doc["state"]) == state_keys
        assert path.read_text().endswith("}\n")

    @pytest.mark.parametrize("key, value, kind", [
        ("kind", "svm", "one of"),
        ("state", [], "an object"),
        ("state", 5, "an object"),
        ("hyperparameters", [1], "an object"),
        ("layout", 5, "a list of strings"),
        ("layout", ["ok", 1], "a list of strings"),
        ("feature_mean", "0.5", "a list of numbers"),
        ("feature_mean", [0.5, "x"], "a list of numbers"),
        ("feature_scale", [1.0, True], "a list of numbers"),
        ("feature_scale", {"a": 1.0}, "a list of numbers"),
    ])
    def test_wrong_type_names_file_and_key(self, key, value, kind, tmp_path):
        path = tmp_path / "m.json"
        save_model(train(blob_dataset(seed=14, per_class=4), "knn"), path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError,
                           match=f"{re.escape(str(path))}: model '{key}' is not {kind}"):
            load_model(path)

    @pytest.mark.parametrize("kind, key, value, what", [
        ("knn", "k", "3", "an integer"),
        ("knn", "k", True, "an integer"),
        ("knn", "n_classes", 8.0, "an integer"),
        ("knn", "points", [], "a matrix of numbers with 2 columns"),
        ("knn", "points", [[0.0]], "a matrix of numbers with 2 columns"),
        ("knn", "points", [[0.0, "x"]], "a matrix of numbers with 2 columns"),
        ("knn", "points", [0.0, 1.0], "a matrix of numbers with 2 columns"),
        ("knn", "labels", ["0"], "a list of integers, one per point"),
        ("knn", "labels", [0], "a list of integers, one per point"),
        ("linear_svm", "weights", [[1.0, 2.0]], "a matrix of numbers with 3 columns"),
        ("linear_svm", "n_classes", "8", "an integer"),
        ("random_forest", "n_features", 2.5, "an integer"),
        ("random_forest", "n_classes", False, "an integer"),
    ])
    def test_wrong_state_names_file_and_key(self, kind, key, value, what, tmp_path):
        path = tmp_path / "m.json"
        save_model(train(blob_dataset(seed=14, per_class=4), kind), path)
        doc = json.loads(path.read_text())
        doc["state"][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: model state "
                                             f"'{key}' is not {what}"):
            load_model(path)

    @pytest.mark.parametrize("kind, key, value, what", [
        ("knn", "n_classes", 7, "8, one class per gesture label"),
        ("knn", "labels", None, r"a list of class ids in \[0, 8\)"),
        ("linear_svm", "weights", [[1.0, 2.0, 3.0]], "a matrix with 8 rows, one per class"),
        ("knn", "k", 0, r"in \[1, 32\], the number of points"),
        ("knn", "k", -3, r"in \[1, 32\], the number of points"),
        ("knn", "k", 33, r"in \[1, 32\], the number of points"),
        ("knn", "k", 10 ** 6, r"in \[1, 32\], the number of points"),
        ("knn", "points", [[0.0, float("nan")]] * 32, "a matrix of finite numbers"),
        ("knn", "points", [[float("inf"), 0.0]] * 32, "a matrix of finite numbers"),
        ("linear_svm", "weights", [[0.0, 0.0, float("-inf")]] * 8,
         "a matrix of finite numbers"),
        ("linear_svm", "weights", [[10 ** 400, 0.0, 0.0]] * 8,
         "a matrix of finite numbers"),
    ])
    def test_state_out_of_range_names_file_and_key(self, kind, key, value, what, tmp_path):
        path = tmp_path / "m.json"
        save_model(train(blob_dataset(seed=14, per_class=4), kind), path)
        doc = json.loads(path.read_text())
        if value is None:  # one label past the last class
            doc["state"]["labels"][-1] = 8
        else:
            doc["state"][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: model state "
                                             f"'{key}' is not {what}"):
            load_model(path)

    def test_integer_matrix_entries_load_as_floats(self, tmp_path):
        """JSON ints, one too large for int64, become float64 points."""
        path = tmp_path / "m.json"
        model = train_with(blob_dataset(seed=14, per_class=4), "knn", k=1)
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["state"]["points"] = [[round(v) for v in row] for row in doc["state"]["points"]]
        doc["state"]["points"][0][0] = 10 ** 30
        path.write_text(json.dumps(doc))
        points = load_model(path).state.points
        assert points.dtype == np.float64
        assert points[0, 0] == 1e30
        assert np.array_equal(points[1:], np.round(model.state.points[1:]))

    def test_standardization_loads_as_float64(self, tmp_path):
        """All-integer entries, one too large for int64, become float64."""
        path = tmp_path / "m.json"
        save_model(train(blob_dataset(seed=14, per_class=4), "knn"), path)
        doc = json.loads(path.read_text())
        doc["feature_mean"] = [0, 10 ** 30]
        doc["feature_scale"] = [1, 2]
        path.write_text(json.dumps(doc))
        model = load_model(path)
        assert model.feature_mean.dtype == model.feature_scale.dtype == np.float64
        assert model.feature_mean.tolist() == [0.0, 1e30]
        assert model.feature_scale.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("trees", [
        [],
        {"leaf": 0},
        [{"feature": 0}],
        [{"leaf": 8}],
        [{"leaf": -1}],
        [{"leaf": True}],
        [{"leaf": 1.0}],
        [{"leaf": 0, "extra": 1}],
        [{"feature": 2, "threshold": 0.5, "left": {"leaf": 0}, "right": {"leaf": 1}}],
        [{"feature": 0, "threshold": "0.5", "left": {"leaf": 0}, "right": {"leaf": 1}}],
        [{"feature": 0, "threshold": float("nan"), "left": {"leaf": 0},
          "right": {"leaf": 1}}],
        [{"feature": 0, "threshold": 0.5, "left": {"leaf": 0}, "right": [1]}],
        [{"feature": 0, "threshold": 0.5, "left": {"leaf": 0},
          "right": {"feature": 1, "threshold": 0.0, "left": {"leaf": 1},
                    "right": {"leaf": 9}}}],
    ])
    def test_malformed_forest_trees_name_file(self, trees, tmp_path):
        path = tmp_path / "m.json"
        save_model(train(blob_dataset(seed=14, per_class=4), "random_forest"), path)
        doc = json.loads(path.read_text())
        doc["state"]["trees"] = trees
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: model state "
                                             "'trees' is not a non-empty list of trees"):
            load_model(path)

    @pytest.mark.parametrize("key", ["feature_mean", "feature_scale"])
    def test_standardization_length_must_match_layout(self, key, tmp_path):
        path = tmp_path / "m.json"
        save_model(train(blob_dataset(seed=14, per_class=4), "knn"), path)
        doc = json.loads(path.read_text())
        doc[key] = doc[key] + [1.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: model '{key}' "
                                             "has 3 entries for 2 layout entries"):
            load_model(path)

    @pytest.mark.parametrize("kind", ["knn", "random_forest", "linear_svm"])
    @pytest.mark.parametrize("key, value, what", [
        ("feature_scale", 0, "not finite and positive"),
        ("feature_scale", -1, "not finite and positive"),
        ("feature_scale", float("nan"), "not finite and positive"),
        ("feature_scale", float("inf"), "not finite and positive"),
        ("feature_scale", 10 ** 400, "not finite and positive"),
        ("feature_mean", float("nan"), "a non-finite entry"),
        ("feature_mean", float("-inf"), "a non-finite entry"),
        ("feature_mean", -10 ** 400, "a non-finite entry"),
    ])
    def test_standardization_values_checked(self, kind, key, value, what, tmp_path):
        path = tmp_path / "m.json"
        save_model(train(blob_dataset(seed=14, per_class=4), kind), path)
        doc = json.loads(path.read_text())
        doc[key] = [value] * len(doc[key])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: model "
                                             f"'{key}' has .*{what}"):
            load_model(path)

    def test_deep_document_is_a_named_error(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"a":' * 100_000 + "1" + "}" * 100_000)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*too deeply"):
            load_model(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format_version": 99, "kind": "knn"}')
        with pytest.raises(ValueError):
            load_model(path)


# Bytes that shape a JSON model file, so edits often reach the loader's checks.
JSON_BYTES = st.sampled_from(b'{}[]",:.-+eE0159 ntfalseruNaIiy')


@pytest.fixture(scope="module")
def small_models(tmp_path_factory):
    """Saved bytes of one small model of each kind, 2 features, 16 points."""
    root = tmp_path_factory.mktemp("models")
    data = blob_dataset(seed=21, per_class=2)
    hyper = {"knn": {"k": 3}, "linear_svm": {"epochs": 2},
             "random_forest": {"n_trees": 2}}
    out = {}
    for kind, params in hyper.items():
        path = root / f"{kind}.json"
        save_model(train_with(data, kind, **params), path)
        out[kind] = path.read_bytes()
    return out


class TestLoadModelFuzz:
    @pytest.mark.parametrize("kind", ["knn", "linear_svm", "random_forest"])
    @settings(max_examples=200, deadline=None)
    @given(edits=st.lists(
        st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                  st.floats(0.0, 1.0, exclude_max=True),
                  st.one_of(JSON_BYTES, st.integers(0, 255))),
        min_size=1, max_size=6))
    def test_byte_edits_raise_only_value_error(self, small_models, tmp_path_session,
                                               kind, edits):
        """A damaged model file either loads and classifies, or raises
        ValueError (JSON and UTF-8 decoding errors included): never another
        exception."""
        data = bytearray(small_models[kind])
        for op, where, byte in edits:
            i = int(where * len(data))
            if op == "replace" and data:
                data[i] = byte
            elif op == "insert":
                data.insert(i, byte)
            elif data:
                del data[i]
        p = tmp_path_session / f"fuzz_{kind}.json"
        p.write_bytes(bytes(data))
        try:
            model = load_model(p)
        except ValueError:
            return
        probe = FeatureVector(values=np.zeros(len(model.layout)), layout=model.layout)
        assert classify(model, probe) in GESTURE_LABELS
