"""Tests for the signal-processing kernels.

The Butterworth tests compare the designed cascades against the closed-form
magnitude response of the analog prototype mapped through the bilinear
transform, computed here independently of the design code.
"""

import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rfsense import dsp, gesture, heart
from rfsense.dsp import (
    HampelConfig,
    IirFilter,
    Psd,
    butterworth_bandpass,
    butterworth_lowpass,
    filter_forward,
    hampel_filter,
    hampel_refresh_edges,
    moving_average,
    moving_variance,
    next_pow2,
    periodogram,
    sos_response,
    spectrogram,
)
from rfsense.sim import NoiseModel, VitalSignsProfile, simulate_vitals

MAD_SCALE = 1.4826


def naive_hampel(x, cfg):
    """Reference implementation: plain loop, shrunken edge windows."""
    x = np.asarray(x, dtype=np.float64)
    k = cfg.half_window
    n = len(x)
    if n < 2 * k + 1:
        raise ValueError("too short")
    out = x.copy()
    for i in range(n):
        w = x[max(0, i - k): min(n, i + k + 1)]
        med = np.median(w)
        mad = np.median(np.abs(w - med))
        if abs(x[i] - med) > cfg.n_sigmas * MAD_SCALE * mad:
            out[i] = med
    return out


class TestSampleCount:
    """dsp._sample_count is int(round(value)) on [0, 2**62] and a named
    ValueError elsewhere."""

    @given(st.one_of(st.floats(0.0, 2.0 ** 62),
                     st.integers(0, 2 ** 52 - 1).map(lambda i: i + 0.5)))
    @settings(max_examples=300, deadline=None)
    def test_equals_int_round(self, value):
        assert dsp._sample_count("x", value) == int(round(value))

    @pytest.mark.parametrize("value", [0.0, -0.0, 0.5, 1.5, 2.5, 2.0 ** 52 - 0.5,
                                       2.0 ** 62])
    def test_edges_and_half_integers(self, value):
        got = dsp._sample_count("x", value)
        assert type(got) is int and got == int(round(value))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.5, -5e-324,
                                       2.0 ** 62 * (1 + 2.0 ** -52)])
    def test_refuses_by_name(self, value):
        what = re.escape(f"window_s * fs is {value!r}, not a sample count up to 2**62")
        with pytest.raises(ValueError, match=f"^{what}$"):
            dsp._sample_count("window_s * fs", value)


class TestHampel:
    def test_single_impulse_removed(self):
        x = np.array([1.0, 1, 1, 9, 1, 1, 1])
        out = hampel_filter(x, HampelConfig(half_window=2))
        assert np.array_equal(out, np.ones(7))

    def test_zero_mad_replaces_any_deviation(self):
        # Window of identical values: MAD == 0, so the center is replaced the
        # moment it deviates at all.
        x = np.ones(301)
        x[150] += 1e-12
        out = hampel_filter(x, HampelConfig())
        assert out[150] == 1.0

    def test_inlier_with_spread_kept(self):
        x = np.array([1.0, 2, 3, 100, 5, 6, 7])
        out = hampel_filter(x, HampelConfig(half_window=3))
        # med=5, mad=2 -> threshold 8.9; only the 100 is beyond it
        assert out[3] == 5.0
        assert np.array_equal(out[[0, 1, 2, 4, 5, 6]], x[[0, 1, 2, 4, 5, 6]])

    @pytest.mark.parametrize("fields, what", [
        ({"n_sigmas": np.nan}, "n_sigmas must be finite and positive, not nan"),
        ({"n_sigmas": 0.0}, "n_sigmas must be finite and positive, not 0.0"),
        ({"n_sigmas": -3.0}, "n_sigmas must be finite and positive, not -3.0"),
        ({"half_window": np.nan}, "half_window must be >= 1, not nan"),
        ({"half_window": 0}, "half_window must be >= 1, not 0"),
        ({"half_window": 2.5}, "half_window must be an integer, not 2.5"),
    ])
    def test_config_refuses_nan_and_non_positive_values(self, fields, what):
        # n_sigmas=nan used to pass `n_sigmas <= 0` and keep every outlier
        with pytest.raises(ValueError, match=what):
            HampelConfig(**fields)

    @pytest.mark.parametrize("value", [np.inf, True, "3", 10 ** 400])
    def test_config_refuses_inf_and_what_is_not_a_number(self, value):
        """A bool, a string and an int no float holds fail the one checker
        by name rather than with a TypeError or OverflowError later."""
        what = re.escape(f"n_sigmas must be finite and positive, not {value!r}")
        with pytest.raises(ValueError, match=f"^{what}$"):
            HampelConfig(n_sigmas=value)

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError):
            hampel_filter(np.zeros(200), HampelConfig(half_window=100))

    def test_matches_reference_on_random_data(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0.0, 1.0, 500)
        x[rng.choice(500, 12, replace=False)] += rng.choice([-1, 1], 12) * 15.0
        cfg = HampelConfig(half_window=20)
        assert np.array_equal(hampel_filter(x, cfg), naive_hampel(x, cfg))

    @given(
        data=st.lists(st.floats(-1e3, 1e3), min_size=7, max_size=60),
        k=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_hypothesis(self, data, k):
        x = np.asarray(data)
        cfg = HampelConfig(half_window=k)
        if len(x) < 2 * k + 1:
            return
        assert np.array_equal(hampel_filter(x, cfg), naive_hampel(x, cfg))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_with_huge_samples(self, seed):
        # +-1e300 samples, also within half_window of either end, in both the
        # interior and the edge paths: huge medians, MADs and deviations.
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 1.0, 80)
        x[rng.choice(80, 10, replace=False)] += 15.0
        pos = rng.choice(80, 4 + 4 * seed, replace=False)
        x[pos] = rng.choice([1e300, -1e300], len(pos))
        x[[0, 79]] = rng.choice([1e300, -1e300], 2)
        for k in (1, 4, 9):
            cfg = HampelConfig(half_window=k)
            assert hampel_filter(x, cfg).tobytes() == naive_hampel(x, cfg).tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("pos", [(0,), (8979,), (49, 50, 4000), (4488, 8979)],
                             ids=["first", "last", "interior", "two"])
    @pytest.mark.parametrize("entry", [
        lambda x: hampel_filter(x),
        lambda x: heart.estimate_window(x),
        lambda x: gesture.preprocess(x, 449.0, gesture.SegmentationConfig()),
    ], ids=["hampel_filter", "estimate_window", "preprocess"])
    def test_non_finite_samples_are_refused(self, entry, pos, value):
        """A NaN sample used to pass through the filter, and estimate_window
        then reported a rate with a NaN peak power as an estimate."""
        x = np.random.default_rng(5).normal(-50.0, 0.01, 8980)
        x[list(pos)] = value
        with pytest.raises(ValueError, match=re.escape(
                f"series holds {len(pos)} non-finite (NaN/+-inf) sample(s); "
                f"the first is at index {pos[0]}")):
            entry(x)

    def test_even_shrunken_window_bounds_the_mad(self):
        # The first window, 0.6, 0, 2.4, 10, has median 1.5 and MAD 0.9, so
        # 0.6 is an outlier at n_sigmas=0.5. Ranks 0 and 2 bound the MAD by
        # min(1.5, 0.9); ranks 0 and 3 would give 1.5 and keep 0.6.
        x = np.array([0.6, 0.0, 2.4, 10.0, 1.0, 1.0, 1.0])
        cfg = HampelConfig(n_sigmas=0.5, half_window=3)
        out = hampel_filter(x, cfg)
        assert out[0] == 1.5
        assert np.array_equal(out, naive_hampel(x, cfg))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_idempotent_on_sparse_impulses(self, seed):
        # Smooth baseline plus isolated impulses: one pass removes the
        # impulses, and because replacements are window medians, a second
        # pass changes nothing. (Not true for arbitrary data, where inliers
        # can sit right at the threshold.)
        rng = np.random.default_rng(seed)
        x = np.sin(2 * np.pi * np.arange(2000) / 1700.0)
        pos = rng.choice(np.arange(150, 1850, 300), 5, replace=False)
        x[pos] += 8.0
        cfg = HampelConfig()
        once = hampel_filter(x, cfg)
        assert not np.array_equal(once, x)
        assert np.array_equal(hampel_filter(once, cfg), once)

    def test_refresh_edges_equals_slice_filter(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0.0, 1.0, 3000)
        x[::700] += 20.0
        cfg = HampelConfig()
        full = hampel_filter(x, cfg)
        slices = [(0, 500), (250, 1500), (2400, 3000)]
        for start, stop in slices:
            want = hampel_filter(x[start:stop], cfg)
            got = hampel_refresh_edges(x, full, [start], stop - start, cfg)
            assert got.shape == (1, stop - start)
            assert np.array_equal(got[0], want)
        # Outliers just inside and just outside each slice's shrunken
        # edges, where the refreshed windows differ from the full.
        for pos in (3, 150, 260, 330, 1420, 1560, 2460, 2950):
            x[pos] = rng.choice([-1e300, -40.0, 40.0, 1e300])
        full = hampel_filter(x, cfg)
        for start, stop in slices:
            want = hampel_filter(x[start:stop], cfg)
            got = hampel_refresh_edges(x, full, [start], stop - start, cfg)
            assert got[0].tobytes() == want.tobytes()
        # One call over overlapping slices of one length, the first and the
        # last touching the ends of the series.
        length = 600
        starts = [0, 1, 150, 199, 1400, 2250, 2399, 2400]
        got = hampel_refresh_edges(x, full, starts, length, cfg)
        assert got.shape == (len(starts), length)
        for row, start in zip(got, starts):
            assert row.tobytes() == hampel_filter(x[start:start + length], cfg).tobytes()

    def test_refresh_edges_rejects_slices_off_the_series(self):
        x = np.random.default_rng(4).normal(size=1000)
        cfg = HampelConfig()
        full = hampel_filter(x, cfg)
        for starts in ([-1], [0, 501]):
            with pytest.raises(ValueError, match="outside the series"):
                hampel_refresh_edges(x, full, starts, 500, cfg)
        with pytest.raises(ValueError, match="shorter than the filter window"):
            hampel_refresh_edges(x, full, [0], 200, cfg)

    @pytest.mark.parametrize("block", [None, 7])
    @given(
        k=st.integers(1, 25),
        extra=st.integers(0, 650),
        seed=st.integers(0, 2**32 - 1),
        step=st.sampled_from([0.1, 1.0]),
        n_sigmas=st.sampled_from([0.5, 3.0]),
        special=st.lists(st.tuples(st.integers(0, 699), st.booleans(),
                                   st.sampled_from([-1e300, -0.0, 1e300])),
                         max_size=6),
    )
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_screened_kernel_matches_reference(self, monkeypatch, block, k, extra, seed,
                                               step, n_sigmas, special):
        # Heavy-tailed samples on a coarse grid (ties, -0.0 from rounding)
        # give certified samples, uncertified ones and zero-MAD windows in
        # both the interior and the shrunken edges. Special values land
        # anywhere or, with the flag set, within k of the right end. block=7
        # splits the uncertified windows into blocks of one to three rows and
        # the interior into spans of four windows: up to 55 spans at k=1 and
        # 4 at k=25. The edge refresh of two random slices of the same
        # series must equal the filter of each slice.
        if block is not None:
            monkeypatch.setattr(dsp, "_BLOCK", block)
        n = 2 * k + 1 + extra
        rng = np.random.default_rng(seed)
        x = np.round(rng.standard_t(2, n) / step) * step
        for pos, at_end, value in special:
            x[n - 1 - pos % (k + 1) if at_end else pos % n] = value
        cfg = HampelConfig(n_sigmas=n_sigmas, half_window=k)
        want = naive_hampel(x, cfg)
        got = hampel_filter(x, cfg)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        length = int(rng.integers(2 * k + 1, n + 1))
        starts = rng.integers(0, n - length + 1, 2)
        rows = hampel_refresh_edges(x, got, starts, length, cfg)
        for s, row in zip(starts, rows):
            assert row.tobytes() == naive_hampel(x[s:s + length], cfg).tobytes()

    @pytest.mark.parametrize("value", [-1e300, 40.0, 1e300])
    def test_outlier_near_a_span_boundary(self, monkeypatch, value):
        # block=7 cuts the interior into spans of 4 * 11 = 44 centres, so the
        # centres 5 + 44 m start a span. An outlier up to k + 1 on either
        # side of a boundary lies in the windows of both spans.
        monkeypatch.setattr(dsp, "_BLOCK", 7)
        spans = []
        uncertified = dsp._uncertified
        monkeypatch.setattr(dsp, "_uncertified",
                            lambda s, cfg: spans.append(len(s)) or uncertified(s, cfg))
        k, n = 5, 150
        cfg = HampelConfig(half_window=k)
        x = np.round(np.random.default_rng(8).standard_t(2, n) / 0.1) * 0.1
        for boundary in (49, 93, 137):
            for pos in range(boundary - k - 1, min(boundary + k + 2, n)):
                y = x.copy()
                y[pos] = value
                assert hampel_filter(y, cfg).tobytes() == naive_hampel(y, cfg).tobytes()
        assert spans[:4] == [54, 54, 54, 18]

    def test_peak_memory_of_a_long_series_is_bounded(self):
        """600 s at 449 Hz, gesture-free: the output is 2.1 MiB, and the
        interior screen works in spans of 16,384 centres, not on 11 arrays
        of the whole series (23.4 MiB)."""
        x = simulate_vitals(VitalSignsProfile(breathing_amplitude_db=0.0,
                                              pulse_amplitude_db=0.0),
                            NoiseModel(seed=3), 600.0).rss_db
        assert len(x) == 269_400
        tracemalloc.start()
        try:
            hampel_filter(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 * 2 ** 20


class TestInputsStayTheCallers:
    """The spectral kernels taper their own copy in place, and the moving
    statistics and preprocess work in place on arrays they made: a
    read-only input gives the same bits as a writable one, and a writable
    one is left as it was. block=1 cuts the Hampel interior into spans of
    four windows: 9 at half_window=20, 2 at the default 100."""

    @pytest.mark.parametrize("kernel, block", [
        (lambda x: periodogram(x, 100.0).power, None),
        (lambda x: periodogram(x, 100.0, nfft=4096).power, None),
        (lambda x: spectrogram(x, 100.0, window_s=2.0, hop_s=0.5).power, None),
        (lambda x: spectrogram(x, 100.0, window_s=2.0, hop_s=0.5, nfft=1024).power, None),
        (lambda x: hampel_filter(x, HampelConfig(half_window=20)), None),
        (lambda x: hampel_filter(x, HampelConfig(half_window=20)), 1),
        (lambda x: moving_average(x, 45), None),
        (lambda x: moving_average(x, 4), None),
        (lambda x: moving_variance(x, 45), None),
        (lambda x: gesture.preprocess(x, 449.0, gesture.SegmentationConfig()), 1),
    ], ids=["periodogram", "periodogram_nfft", "spectrogram", "spectrogram_nfft",
            "hampel_filter", "hampel_filter_spans", "moving_average_odd",
            "moving_average_even", "moving_variance", "preprocess_spans"])
    def test_read_only_input_gives_the_same_bits(self, monkeypatch, kernel, block):
        if block is not None:
            monkeypatch.setattr(dsp, "_BLOCK", block)
        x = np.random.default_rng(13).normal(-50.0, 3.0, 1500)
        x[::97] += 20.0
        frozen = x.copy()
        frozen.flags.writeable = False
        writable = x.copy()
        got = kernel(frozen)
        assert got.tobytes() == kernel(writable).tobytes()
        assert writable.tobytes() == x.tobytes()


# ---------------------------------------------------------------------------


def analytic_lowpass_mag(f, order, cutoff_hz, fs):
    w = 2.0 * fs * np.tan(np.pi * np.asarray(f) / fs)
    wc = 2.0 * fs * np.tan(np.pi * cutoff_hz / fs)
    return 1.0 / np.sqrt(1.0 + (w / wc) ** (2 * order))


def analytic_bandpass_mag(f, order, low_hz, high_hz, fs):
    n = order // 2
    w = 2.0 * fs * np.tan(np.pi * np.asarray(f) / fs)
    w1 = 2.0 * fs * np.tan(np.pi * low_hz / fs)
    w2 = 2.0 * fs * np.tan(np.pi * high_hz / fs)
    with np.errstate(divide="ignore"):
        om = np.abs(w * w - w1 * w2) / ((w2 - w1) * w)
    return 1.0 / np.sqrt(1.0 + om ** (2 * n))


def _search_sos(analog, zeros, f_unit_hz, fs):
    """The sos of the design path that paired digital poles by search: every
    analog pole mapped by the bilinear transform, then a walk in
    (real, |imag|) order taking each pole's conjugate, or for a real pole the
    next real one, from those within a tolerance. The designers pair
    poles by construction and must give the same bytes."""
    c = 2.0 * fs
    poles = (c + analog) / (c - analog)
    pairs, used = [], np.zeros(len(poles), dtype=bool)
    for i in np.lexsort((np.abs(poles.imag), poles.real)):
        if used[i]:
            continue
        used[i] = True
        if abs(poles[i].imag) > 1e-10:
            cand = np.flatnonzero(~used & (np.abs(poles - np.conj(poles[i])) < 1e-8))
        else:
            cand = np.flatnonzero(~used & (np.abs(poles.imag) <= 1e-10))
        used[cand[0]] = True
        pairs.append((poles[i], poles[cand[0]]))
    b = np.real(np.poly(zeros))
    sos = np.asarray([np.concatenate([b, np.real(np.poly(pair))]) for pair in pairs])
    sos[0, :3] *= 1.0 / abs(sos_response(sos, [f_unit_hz], fs)[0])
    return IirFilter(sos)


def _search_lowpass(order, cutoff_hz, fs):
    wc = 2.0 * fs * np.tan(np.pi * cutoff_hz / fs)
    return _search_sos(wc * dsp._prototype_poles(order), (-1.0, -1.0), 0.0, fs)


def _search_bandpass(order, low_hz, high_hz, fs):
    w1 = 2.0 * fs * np.tan(np.pi * low_hz / fs)
    w2 = 2.0 * fs * np.tan(np.pi * high_hz / fs)
    bw, w0sq = w2 - w1, w1 * w2
    analog = []
    for p in dsp._prototype_poles(order // 2):
        bp = bw * p
        disc = np.sqrt(bp * bp - 4.0 * w0sq)
        analog.extend([(bp + disc) / 2.0, (bp - disc) / 2.0])
    f_center = fs / np.pi * np.arctan(np.sqrt(w0sq) / (2.0 * fs))
    return _search_sos(np.asarray(analog), (1.0, -1.0), f_center, fs)


_SEARCH_DESIGNS = {butterworth_lowpass: _search_lowpass,
                   butterworth_bandpass: _search_bandpass}


def _outcome(design, *args):
    """The sos bytes of a design, or its refusal message."""
    try:
        return design(*args).sos.tobytes()
    except ValueError as e:
        return str(e)


class TestButterworth:
    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    def test_lowpass_matches_analytic_magnitude(self, order):
        fs, fc = 449.0, 90.0
        filt = butterworth_lowpass(order, fc, fs)
        f = np.linspace(0.5, fs / 2 * 0.98, 400)
        got = np.abs(sos_response(filt.sos, f, fs))
        want = analytic_lowpass_mag(f, order, fc, fs)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    def test_bandpass_matches_analytic_magnitude(self, order):
        fs, lo, hi = 449.0, 0.8, 5.0
        filt = butterworth_bandpass(order, lo, hi, fs)
        f = np.linspace(0.05, 40.0, 600)
        got = np.abs(sos_response(filt.sos, f, fs))
        want = analytic_bandpass_mag(f, order, lo, hi, fs)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)

    def test_band_edges_at_minus_3db(self):
        fs = 449.0
        filt = butterworth_bandpass(4, 0.8, 5.0, fs)
        h = np.abs(sos_response(filt.sos, [0.8, 5.0], fs))
        np.testing.assert_allclose(20 * np.log10(h), -10 * np.log10(2), atol=1e-8)
        lp = butterworth_lowpass(4, 90.0, fs)
        h = abs(sos_response(lp.sos, [90.0], fs)[0])
        np.testing.assert_allclose(20 * np.log10(h), -10 * np.log10(2), atol=1e-8)

    def test_section_count_is_half_the_order(self):
        assert len(butterworth_bandpass(4, 0.8, 5.0, 449.0).sos) == 2
        assert len(butterworth_bandpass(8, 0.8, 5.0, 449.0).sos) == 4
        assert len(butterworth_lowpass(6, 90.0, 449.0).sos) == 3

    def test_unsupported_order_rejected(self):
        for bad in (1, 3, 5, 7, 0, -2, 4.5, 4.0, math.nan, "4"):
            msg = re.escape(f"order must be 2, 4, 6 or 8, not {bad!r}")
            with pytest.raises(ValueError, match=f"^{msg}$"):
                butterworth_bandpass(bad, 0.8, 5.0, 449.0)
            with pytest.raises(ValueError, match=f"^{msg}$"):
                butterworth_lowpass(bad, 90.0, 449.0)

    # sha256 of sos.tobytes() per order, recorded before the two designers
    # shared one bilinear, pairing and gain path: (90 Hz lowpass, 0.8-5 Hz
    # bandpass) at 449 Hz, the designs of the gesture and heart pipelines
    SOS_SHA256 = {
        2: ("2c25bfb893b097dbfab4622ef53a12e1e1e1fc88c97376ce7b625b0a075912a5",
            "e59ec50d52a5d402ce2aa84751cb9f503c6191de5b3ce1b56188b7dd93ab459c"),
        4: ("fc64e905f98fb59538e480f67a6d4bfe82d0ce6d9ddb882a2155583b164f8e88",
            "8595dbd72efa052ae66d5aeb80e9522df137016911a2da1492f83f0676479f45"),
        6: ("816744c135359d7665de460e2ca1276c2a0d5ba253759540edcb43b74d923899",
            "a35b731676e5ad189b2d6ad9b6be665a696f5165dd3f12a433b82e48d4f20db9"),
        8: ("c9a3438497025eb90878f139a3d0a71bc3b9b937d92c6cf4731d61dd149033d2",
            "0a47674f099d3bccd750da66945113c1e37cb2d93bcb79a8e470229afc67d0b7"),
    }

    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    def test_design_bytes_are_pinned(self, order):
        lp = butterworth_lowpass(order, 90.0, 449.0).sos
        bp = butterworth_bandpass(order, 0.8, 5.0, 449.0).sos
        got = tuple(hashlib.sha256(sos.tobytes()).hexdigest() for sos in (lp, bp))
        assert got == self.SOS_SHA256[order]

    def test_pairing_matches_the_pole_search_on_random_designs(self):
        # Orders 2-8 at 100 Hz to 44.1 kHz, band edges down to 1e-5 of
        # Nyquist and bands 1.001 to 1000 wide, so that a real prototype
        # pole's images are both real in some designs and conjugate in others.
        rng = np.random.default_rng(29)
        mismatched, real_images = [], set()
        for _ in range(1500):
            order = int(rng.choice([2, 4, 6, 8]))
            fs = float(np.exp(rng.uniform(np.log(100.0), np.log(44_100.0))))
            lo = fs / 2 * float(np.exp(rng.uniform(np.log(1e-5), np.log(0.99))))
            if rng.random() < 0.5:
                design, args = butterworth_lowpass, (order, lo, fs)
            else:
                hi = min(lo * float(np.exp(rng.uniform(np.log(1.001), np.log(1000.0)))),
                         0.999 * fs / 2)
                design, args = butterworth_bandpass, (order, lo, hi, fs)
                w1, w2 = (2.0 * fs * np.tan(np.pi * f / fs) for f in (lo, hi))
                if order // 2 % 2:
                    real_images.add(bool((w2 - w1) ** 2 > 4.0 * w1 * w2))
            got, want = (_outcome(f, *args) for f in (design, _SEARCH_DESIGNS[design]))
            if got != want:
                mismatched.append(args)
        assert real_images == {True, False}
        assert mismatched == []

    def test_band_limits_validated(self):
        with pytest.raises(ValueError):
            butterworth_bandpass(4, 5.0, 0.8, 449.0)
        with pytest.raises(ValueError):
            butterworth_bandpass(4, 0.8, 300.0, 449.0)
        with pytest.raises(ValueError):
            butterworth_lowpass(4, 0.0, 449.0)
        with pytest.raises(ValueError):
            butterworth_lowpass(4, 250.0, 449.0)

    def test_unstable_sos_rejected(self):
        # pole pair at radius 1.01
        with pytest.raises(ValueError):
            IirFilter(np.array([[1.0, 0, 0, 1.0, -2.0 * 1.01 * 0.5, 1.01 ** 2]]))

    def test_unnormalized_sos_rejected(self):
        with pytest.raises(ValueError):
            IirFilter(np.array([[1.0, 0, 0, 2.0, 0.0, 0.0]]))

    def test_impulse_response_decays(self):
        filt = butterworth_bandpass(4, 0.8, 5.0, 449.0)
        impulse = np.zeros(60_000)
        impulse[0] = 1.0
        h = filter_forward(filt, impulse)
        energy = np.cumsum(h * h)
        assert energy[-1] - energy[30_000] < 1e-9 * energy[-1]

    @given(
        a=st.floats(-50, 50),
        b=st.floats(-50, 50),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_forward_filtering_is_linear(self, a, b, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=300)
        y = rng.normal(size=300)
        filt = butterworth_lowpass(4, 30.0, 449.0)
        lhs = filter_forward(filt, a * x + b * y)
        rhs = a * filter_forward(filt, x) + b * filter_forward(filt, y)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-9 * (1 + abs(a) + abs(b)))


# ---------------------------------------------------------------------------


class TestPeriodogram:
    def test_parseval(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0.0, 2.0, 1000)
        psd = periodogram(x, fs=449.0)
        y = (x - x.mean()) * np.hanning(len(x))
        df = psd.frequencies[1] - psd.frequencies[0]
        np.testing.assert_allclose(psd.power.sum() * df, np.mean(y * y), rtol=1e-10)

    def test_white_noise_level(self):
        rng = np.random.default_rng(6)
        x = rng.normal(0.0, 1.0, 200_000)
        psd = periodogram(x, fs=100.0, nfft=next_pow2(len(x)))
        # Hann window scales the variance by mean(w^2) = 3/8.
        df = psd.frequencies[1] - psd.frequencies[0]
        assert abs(psd.power.sum() * df - 0.375) < 0.05 * 0.375

    def test_tone_at_bin_center_peaks_there(self):
        fs, n = 449.0, 4096
        f0 = 40 * fs / n  # exact bin
        t = np.arange(n) / fs
        psd = periodogram(np.sin(2 * np.pi * f0 * t), fs, nfft=n)
        assert psd.frequencies[np.argmax(psd.power)] == pytest.approx(f0)

    def test_frequency_grid(self):
        psd = periodogram(np.random.default_rng(0).normal(size=300), fs=449.0)
        assert len(psd.frequencies) == 512 // 2 + 1
        assert psd.frequencies[0] == 0.0
        assert psd.frequencies[-1] == pytest.approx(449.0 / 2)
        assert psd.frequencies[1] - psd.frequencies[0] == pytest.approx(449.0 / 512)

    def test_mean_removal_kills_dc(self):
        psd = periodogram(np.full(500, 7.3), fs=100.0)
        assert np.all(psd.power < 1e-20)

    def test_nfft_shorter_than_signal_rejected(self):
        with pytest.raises(ValueError):
            periodogram(np.zeros(100), fs=10.0, nfft=64)

    def test_default_nfft_next_pow2(self):
        for n, want in [(1, 1), (2, 2), (3, 4), (1024, 1024), (1025, 2048)]:
            assert next_pow2(n) == want


class TestSpectrogram:
    def test_columns_are_window_periodograms(self):
        rng = np.random.default_rng(9)
        fs = 100.0
        x = rng.normal(size=1000)
        spec = spectrogram(x, fs, window_s=2.0, hop_s=0.5)
        win_n, hop_n = 200, 50
        n_cols = (1000 - win_n) // hop_n + 1
        assert spec.power.shape == (next_pow2(win_n) // 2 + 1, n_cols)
        for j in [0, 3, n_cols - 1]:
            start = j * hop_n
            ref = periodogram(x[start: start + win_n], fs)
            np.testing.assert_array_equal(spec.power[:, j], ref.power)
        np.testing.assert_allclose(spec.times, (np.arange(n_cols) * hop_n + win_n / 2) / fs)

    def test_chirp_ridge_moves(self):
        fs = 100.0
        t = np.arange(3000) / fs
        f_inst = 5.0 + 10.0 * t / t[-1]
        x = np.sin(2 * np.pi * np.cumsum(f_inst) / fs)
        spec = spectrogram(x, fs, window_s=2.0, hop_s=0.25)
        ridge = spec.frequencies[np.argmax(spec.power, axis=0)]
        assert ridge[0] < 8.0 < 12.0 < ridge[-1]
        assert np.all(np.diff(ridge) > -1.0)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            spectrogram(np.zeros(50), 100.0, window_s=2.0, hop_s=0.5)

    @pytest.mark.parametrize("key, samples, count", [("hop_s", 0.4, 0),
                                                      ("window_s", 1.4, 1)])
    def test_sub_sample_hop_and_window_are_refused(self, key, samples, count):
        """A hop under half a sample was taken as a 1-sample hop, silently."""
        fs = 100.0
        times = {"window_s": 2.0, "hop_s": 0.5, key: samples / fs}
        what = re.escape(f"{key} * fs is {times[key] * fs!r}, "
                         f"which rounds to {count} samples")
        with pytest.raises(ValueError, match=f"^{what}$"):
            spectrogram(np.zeros(500), fs, **times)

    @pytest.mark.parametrize("block", [None, 1, 3000])
    @pytest.mark.parametrize("hop_s, nfft", [(0.5, None), (0.01, 512), (3.3, 1024)])
    def test_bit_identical_to_periodogram_loop(self, monkeypatch, block, hop_s, nfft):
        # block=1 puts each window in its own block, 3000 holds seven, three
        # and one window with their power at nfft 256, 512 and 1024, None is
        # the module's default.
        if block is not None:
            monkeypatch.setattr(dsp, "_BLOCK", block)
        rng = np.random.default_rng(11)
        fs = 100.0
        x = rng.normal(-50.0, 3.0, 1234)
        spec = spectrogram(x, fs, window_s=2.0, hop_s=hop_s, nfft=nfft)
        win_n, hop_n = 200, max(1, int(round(hop_s * fs)))
        cols = [periodogram(x[s: s + win_n], fs, nfft)
                for s in range(0, len(x) - win_n + 1, hop_n)]
        assert spec.power.tobytes() == np.column_stack([c.power for c in cols]).tobytes()
        assert spec.frequencies.tobytes() == cols[0].frequencies.tobytes()

    def test_peak_memory_of_a_long_series_is_bounded(self):
        """600 s at 449 Hz with the corpus speed window: 2,384 columns of
        2,049 bins are 37 MiB of output. Beyond it one block of windows and
        their power (6 MiB) is held, not the 8 MiB complex spectrum of a
        block transformed at once (14 MiB above the output)."""
        x = np.random.default_rng(5).normal(-50.0, 1.0, 269_400)
        tracemalloc.start()
        try:
            spec = spectrogram(x, 449.0, window_s=5.5, hop_s=0.25, nfft=4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.power.shape == (2049, 2384)
        assert peak < spec.power.nbytes + 8 * 2 ** 20


def oracle_psd_rows(rows, fs, nfft, hann, bins=slice(None)):
    """dsp._psd_rows as first written: the whole block transformed at once."""
    n = rows.shape[1]
    rows -= rows.mean(axis=1, keepdims=True)
    rows *= hann
    power = np.abs(np.fft.rfft(rows, nfft, axis=1)[:, bins])
    np.multiply(power, power, out=power)
    weights = np.full(nfft // 2 + 1, 2.0)
    weights[0] = 1.0
    if nfft % 2 == 0:
        weights[-1] = 1.0
    power *= weights[bins] / (n * fs)
    return power


class TestPsdRows:
    """The row-at-a-time kernel gives the block transform's bits."""

    @pytest.mark.parametrize("seed", range(12))
    def test_equal_to_the_block_transform(self, seed):
        rng = np.random.default_rng(seed)
        rows, n = int(rng.integers(1, 6)), int(rng.integers(2, 300))
        # even and odd nfft, and nfft == n (odd or even with n)
        for nfft in sorted({n, n + 1, next_pow2(n), 2 * next_pow2(n) + 1}):
            half = nfft // 2 + 1
            band = np.arange(half // 4, max(half // 4 + 1, half // 2))
            for bins in (slice(None), band, np.concatenate((band, 2 * band))):
                x = rng.normal(-50.0, 3.0, (rows, n))
                hann = np.hanning(n)
                want = oracle_psd_rows(x.copy(), 449.0, nfft, hann, bins)
                got = dsp._psd_rows(x.copy(), 449.0, nfft, hann, bins)
                assert got.tobytes() == want.tobytes(), (nfft, bins)

    @pytest.mark.parametrize("block", [1, 7, None])
    def test_periodogram_and_spectrogram_equal_the_block_transform(self, monkeypatch,
                                                                   block):
        if block is not None:
            monkeypatch.setattr(dsp, "_BLOCK", block)
        x = np.random.default_rng(13).normal(-50.0, 3.0, 2345)

        def outputs():
            return [periodogram(x, 100.0).power, periodogram(x[:999], 100.0, 999).power,
                    spectrogram(x, 100.0, 2.0, 0.37).power,
                    spectrogram(x, 100.0, 3.01, 1.0, nfft=301).power]

        got = outputs()
        monkeypatch.setattr(dsp, "_psd_rows", oracle_psd_rows)
        want = outputs()
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


# ---------------------------------------------------------------------------


def oracle_moving_variance(x, window):
    """The one-shot formula: both cumulative sums concatenated behind a zero."""
    xc = x - x.mean()
    c1 = np.concatenate([[0.0], np.cumsum(xc)])
    c2 = np.concatenate([[0.0], np.cumsum(xc * xc)])
    s1 = c1[window:] - c1[:-window]
    s2 = c2[window:] - c2[:-window]
    return np.maximum((s2 - s1 * s1 / window) / (window - 1), 0.0)


def oracle_moving_average(x, window):
    """The one-shot formula: every sample's window bounds as index arrays."""
    n = len(x)
    left = (window - 1) // 2
    right = window - 1 - left
    c = np.concatenate([[0.0], np.cumsum(x)])
    idx = np.arange(n)
    lo = np.maximum(idx - left, 0)
    hi = np.minimum(idx + right + 1, n)
    return (c[hi] - c[lo]) / (hi - lo)


def unblocked_moving_variance(x, window):
    """moving_variance before its cumulative sums were taken in blocks."""
    x = np.asarray(x, dtype=np.float64)
    xc = x - x.mean()
    c1 = np.empty(len(xc) + 1)
    c1[0] = 0
    np.cumsum(xc, out=c1[1:])
    np.multiply(xc, xc, out=xc)
    c2 = np.empty(len(xc) + 1)
    c2[0] = 0
    np.cumsum(xc, out=c2[1:])
    s1 = c1[window:] - c1[:-window]
    s2 = c2[window:] - c2[:-window]
    s1 *= s1
    s1 /= window
    s2 -= s1
    s2 /= window - 1
    return np.maximum(s2, 0.0, out=s2)


def unblocked_moving_average(x, window):
    """moving_average before its cumulative sum was taken in blocks."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    left = (window - 1) // 2
    right = window - 1 - left
    c = np.empty(n + 1)
    c[0] = 0
    np.cumsum(x, out=c[1:])
    out = np.empty(n)
    whole = max(0, n + 1 - window)
    np.subtract(c[window:], c[:whole], out=out[left:left + whole])
    out[left:left + whole] /= window
    idx = np.concatenate((np.arange(min(left, n)), np.arange(left + whole, n)))
    lo = np.maximum(idx - left, 0)
    hi = np.minimum(idx + right + 1, n)
    out[idx] = (c[hi] - c[lo]) / (hi - lo)
    return out


@st.composite
def walked_series(draw):
    """(x, window, block): a block of 1 to 9 positions (dsp._BLOCK is 128
    times it), a length within two samples of a multiple of it, a window
    from 1 through n + 1, and samples of any sign and scale, -0.0 and runs
    of exact ties included."""
    block = draw(st.integers(1, 9))
    n = max(0, draw(st.integers(0, 6)) * block + draw(st.integers(-2, 2)))
    window = draw(st.integers(1, n + 1))
    x = np.array(draw(st.lists(
        st.sampled_from([0.0, -0.0, 1.0, -3.0]) | st.floats(-1e6, 1e6),
        min_size=n, max_size=n)), dtype=np.float64)
    return x, window, block


class TestMovingStats:
    @given(walked_series())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_blocks_give_the_unblocked_bits(self, monkeypatch, case):
        x, window, block = case
        monkeypatch.setattr(dsp, "_BLOCK", 128 * block)
        assert dsp._walk_block(window) == max(block, window)
        got = moving_average(x, window)
        assert got.tobytes() == unblocked_moving_average(x, window).tobytes()
        if 2 <= window <= len(x):
            got = moving_variance(x, window)
            assert got.tobytes() == unblocked_moving_variance(x, window).tobytes()

    @pytest.mark.parametrize("n", [8191, 8192, 8193, 3 * 8192 + 45])
    @pytest.mark.parametrize("window", [2, 45, 449, 9000])
    def test_default_blocks_give_the_unblocked_bits(self, n, window):
        x = np.random.default_rng(n + window).normal(-50.0, 3.0, n)
        assert moving_average(x, window).tobytes() == \
            unblocked_moving_average(x, window).tobytes()
        if window <= n:
            assert moving_variance(x, window).tobytes() == \
                unblocked_moving_variance(x, window).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 449, 1000])
    def test_equal_to_the_one_shot_formulas(self, n):
        # windows 1 and 2, odd and even, window == n and window > n (every
        # sample an edge); a NaN and +-inf in one of the series
        rng = np.random.default_rng(n)
        series = [rng.normal(-50.0, 3.0, n), np.round(rng.standard_t(2, n) / 0.1) * 0.1]
        series[1][rng.integers(0, n, 3)] = [np.nan, np.inf, -np.inf]
        for x in series:
            for w in sorted({1, 2, 3, 4, 45, 100, n, n + 1, n + 7}):
                with np.errstate(invalid="ignore"):
                    got = moving_average(x, w)
                    assert got.tobytes() == oracle_moving_average(x, w).tobytes(), w
                    if 2 <= w <= n:
                        got = moving_variance(x, w)
                        assert got.tobytes() == oracle_moving_variance(x, w).tobytes(), w

    def test_moving_variance_oracle(self):
        out = moving_variance(np.array([0.0, 0, 4, 4]), 2)
        np.testing.assert_array_equal(out, [0.0, 8.0, 0.0])

    def test_moving_variance_matches_numpy(self):
        rng = np.random.default_rng(12)
        x = rng.normal(3.0, 2.0, 400)
        out = moving_variance(x, 45)
        want = np.array([np.var(x[j: j + 45], ddof=1) for j in range(400 - 44)])
        np.testing.assert_allclose(out, want, rtol=1e-9, atol=1e-12)

    def test_moving_variance_constant_is_zero(self):
        out = moving_variance(np.full(100, 5.0), 10)
        assert np.all(out == 0.0)

    def test_moving_variance_validation(self):
        with pytest.raises(ValueError):
            moving_variance(np.zeros(10), 1)
        with pytest.raises(ValueError):
            moving_variance(np.zeros(3), 4)

    def test_moving_average_oracle(self):
        out = moving_average(np.array([0.0, 3.0, 0.0]), 3)
        np.testing.assert_array_equal(out, [1.5, 1.0, 1.5])

    def test_moving_average_preserves_length_and_mean_of_constant(self):
        x = np.full(57, 2.5)
        out = moving_average(x, 8)
        assert len(out) == 57
        np.testing.assert_array_equal(out, x)

    def test_moving_average_interior_matches_convolution(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=200)
        w = 11
        out = moving_average(x, w)
        want = np.convolve(x, np.ones(w) / w, mode="valid")
        np.testing.assert_allclose(out[5:-5], want, rtol=1e-9, atol=1e-12)
