"""Simulator checks: knife-edge gain against an independent oracle, channel
geometry invariants, vitals waveform structure, and corpus determinism."""

import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from rfsense.dsp import periodogram
from rfsense.sim import (
    BodyModel,
    CROSSING_ANGLES,
    CROSSING_POSITIONS,
    CROSSING_SPEEDS,
    DEFAULT_TEMPLATES,
    GestureTemplate,
    LinkGeometry,
    NoiseModel,
    VitalSignsProfile,
    WalkPath,
    knife_edge_gain,
    make_corpora,
    simulate_crossing,
    simulate_gesture,
    simulate_vitals,
)
from rfsense import sim
from rfsense import trace as rftrace
from rfsense.gesture import GESTURE_LABELS

FS = 449.0
QUIET = NoiseModel(gaussian_sigma_db=0.0, impulse_prob=0.0)


def mp_knife_edge(nu: float) -> complex:
    """Independent Fresnel-integral route via mpmath."""
    import mpmath

    c = complex(mpmath.fresnelc(nu))
    s = complex(mpmath.fresnels(nu))
    return complex((1 + 1j) / 2 * ((0.5 - c) - 1j * (0.5 - s)))


class TestKnifeEdge:
    def test_matches_mpmath_oracle(self):
        nu = np.linspace(-6.0, 6.0, 61)
        got = knife_edge_gain(nu)
        want = np.array([mp_knife_edge(float(x)) for x in nu])
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_limits(self):
        assert abs(knife_edge_gain(0.0)) == pytest.approx(0.5, abs=1e-12)
        # amplitude -6.02 dB at a grazing edge
        assert 20 * np.log10(abs(knife_edge_gain(0.0))) == pytest.approx(-6.0206, abs=1e-3)
        assert abs(knife_edge_gain(-50.0)) == pytest.approx(1.0, abs=0.01)
        assert abs(knife_edge_gain(50.0)) < 0.01

    def test_monotone_blockage_trend(self):
        # deeper obstruction means less power, once past the oscillatory lobe
        nu = np.array([0.0, 1.0, 2.0, 4.0])
        mags = np.abs(knife_edge_gain(nu))
        assert np.all(np.diff(mags) < 0)


class TestVitals:
    def test_constant_when_amplitudes_zero(self):
        prof = VitalSignsProfile(pulse_amplitude_db=0.0, breathing_amplitude_db=0.0)
        tr = simulate_vitals(prof, QUIET, 5.0)
        assert np.all(tr.rss_db == tr.rss_db[0])

    def test_beat_spacing_at_60_bpm(self):
        prof = VitalSignsProfile(heart_rate_bpm=60.0, breathing_amplitude_db=1e-12)
        tr = simulate_vitals(prof, QUIET, 10.0)
        x = tr.rss_db - np.median(tr.rss_db)
        peaks = [i for i in range(1, len(x) - 1)
                 if x[i] > x[i - 1] and x[i] > x[i + 1] and x[i] > 0.004]
        times = np.array(peaks) / FS
        assert np.allclose(np.diff(times), 1.0, atol=0.01)

    def test_spectrum_has_breathing_and_pulse_harmonics(self):
        prof = VitalSignsProfile(heart_rate_bpm=66.0, breathing_rate_bpm=15.0)
        tr = simulate_vitals(prof, QUIET, 120.0)
        psd = periodogram(tr.rss_db, FS, nfft=1 << 17)
        f = psd.frequencies

        def band_peak(lo, hi):
            m = (f >= lo) & (f <= hi)
            return f[m][np.argmax(psd.power[m])]

        assert band_peak(0.1, 0.5) == pytest.approx(0.25, abs=0.02)      # breathing
        assert band_peak(0.9, 1.3) == pytest.approx(1.1, abs=0.02)       # pulse f0
        assert band_peak(2.0, 2.4) == pytest.approx(2.2, abs=0.03)       # 2nd harmonic

    def test_ground_truth_tracks_profile(self):
        prof = VitalSignsProfile(heart_rate_bpm=((0.0, 60.0), (10.0, 80.0)))
        tr = simulate_vitals(prof, QUIET, 10.0)
        assert tr.ground_truth.hr_bpm[0] == pytest.approx(60.0)
        assert tr.ground_truth.hr_bpm[-1] == pytest.approx(80.0, abs=0.1)
        mid = tr.ground_truth.hr_bpm[len(tr) // 2]
        assert mid == pytest.approx(70.0, abs=0.1)

    def test_peak_memory_is_the_outputs_and_one_series(self, monkeypatch):
        """600 s: the rss, the heart-rate truth and the shared time axis are
        6.2 MiB. The breathing term and the beat phase share one buffer and
        the impulse uniforms come in blocks, so at most one more series is
        held. A private time axis, a phase of its own and one draw of
        uniforms held 12.6 MiB."""
        monkeypatch.setattr(rftrace, "_nominal_axis", (0.0, np.empty(0), []))
        profile = VitalSignsProfile(heart_rate_bpm=((0.0, 60.0), (600.0, 80.0)))
        tracemalloc.start()
        try:
            tr = simulate_vitals(profile, NoiseModel(seed=3), 600.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        series = tr.rss_db.nbytes
        assert series == 269_400 * 8
        assert np.shares_memory(tr.timestamps, rftrace._nominal_axis[1])
        outputs = 3 * series  # rss_db, hr_bpm and the axis
        assert peak < outputs + series + 2 ** 20

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            VitalSignsProfile(heart_rate_bpm=150.0)
        with pytest.raises(ValueError):
            VitalSignsProfile(heart_rate_bpm=((0.0, 60.0), (0.0, 70.0)))
        with pytest.raises(ValueError):
            VitalSignsProfile(pulse_width_s=0.0)
        with pytest.raises(ValueError, match="pulse_width_s"):
            simulate_vitals(VitalSignsProfile(pulse_width_s=1e-3), QUIET, 1.0)
        with pytest.raises(ValueError):
            simulate_vitals(VitalSignsProfile(), QUIET, duration_s=0.0)


class TestCrossing:
    def test_dip_at_crossing_time(self):
        path = WalkPath(crossing_m=0.5, angle_deg=90.0, speed_mps=1.0,
                        start_offset_m=-4.0, duration_s=8.0)
        tr = simulate_crossing(LinkGeometry(), path, QUIET)
        t_min = tr.timestamps[np.argmin(tr.rss_db)]
        assert abs(t_min - tr.ground_truth.cross_t_s) < 0.6
        # blockage carves several dB out of the quiescent level
        assert tr.rss_db[0] - tr.rss_db.min() > 3.0

    def test_time_speed_equivalence(self):
        # doubling speed and sample rate while halving duration visits the
        # exact same positions, so the noise-free traces are identical
        p_slow = WalkPath(0.5, 60.0, 0.5, -2.0, 8.0)
        p_fast = WalkPath(0.5, 60.0, 1.0, -2.0, 4.0)
        a = simulate_crossing(LinkGeometry(), p_slow, QUIET, fs=FS)
        b = simulate_crossing(LinkGeometry(), p_fast, QUIET, fs=2 * FS)
        assert np.array_equal(a.rss_db, b.rss_db)

    def test_oscillation_slows_toward_crossing(self):
        path = WalkPath(0.5, 90.0, 1.0, -4.0, 8.0)
        tr = simulate_crossing(LinkGeometry(), path, QUIET)
        x = tr.rss_db - np.mean(tr.rss_db)

        def zero_crossings(lo_s, hi_s):
            seg = x[int(lo_s * FS): int(hi_s * FS)]
            seg = seg - np.mean(seg)
            return int(np.sum(np.abs(np.diff(np.signbit(seg)))))

        far = zero_crossings(0.0, 1.5)
        near = zero_crossings(2.5, 4.0)
        assert far > 2 * near

    def test_ground_truth_and_extras(self):
        path = WalkPath(crossing_m=0.4, angle_deg=45.0, speed_mps=1.2,
                        start_offset_m=-3.0, duration_s=5.0)
        tr = simulate_crossing(LinkGeometry(), path, QUIET)
        assert tr.ground_truth.speed_mps == 1.2
        assert tr.ground_truth.cross_t_s == pytest.approx(2.5)
        assert tr.metadata.extras["angle_deg"] == "45.0"
        assert tr.metadata.extras["crossing_m"] == "0.4"

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkGeometry(tx=(0.0, 0.0), rx=(0.0, 0.0))
        with pytest.raises(ValueError):
            WalkPath(0.5, 0.0, 1.0, -1.0, 4.0)
        with pytest.raises(ValueError):
            WalkPath(0.5, 91.0, 1.0, -1.0, 4.0)
        with pytest.raises(ValueError):
            WalkPath(0.5, 90.0, 0.05, -1.0, 4.0)
        with pytest.raises(ValueError):     # crossing point outside the link
            simulate_crossing(LinkGeometry(), WalkPath(1.5, 90.0, 1.0, -1.0, 4.0), QUIET)
        with pytest.raises(ValueError):     # never reaches the link
            simulate_crossing(LinkGeometry(), WalkPath(0.5, 90.0, 1.0, -9.0, 4.0), QUIET)
        with pytest.raises(ValueError):
            BodyModel(radius_m=0.0)


def oracle_sample(nm, rng, n):
    """NoiseModel.sample as first written, with one draw of n uniforms."""
    out = rng.normal(0.0, nm.gaussian_sigma_db, n) if nm.gaussian_sigma_db > 0 \
        else np.zeros(n)
    starts = np.flatnonzero(rng.random(n) < nm.impulse_prob)
    if len(starts):
        lengths = rng.integers(1, sim.IMPULSE_MAX_LEN + 1, len(starts))
        signs = rng.choice([-1.0, 1.0], len(starts))
        for s, ln, sg in zip(starts, lengths, signs):
            out[s: s + ln] += sg * nm.impulse_scale_db
    return out


class TestNoise:
    def test_impulses_have_expected_shape(self):
        nm = NoiseModel(gaussian_sigma_db=0.0, impulse_prob=0.002, impulse_scale_db=3.0)
        rng = np.random.default_rng(5)
        x = nm.sample(rng, 200_000)
        hit = np.flatnonzero(x != 0.0)
        assert len(hit) > 0
        # isolated impulses are exactly +-3 dB (overlaps may stack)
        iso = np.abs(x[hit])
        assert np.all((np.isclose(iso % 3.0, 0.0, atol=1e-12)) | (iso >= 3.0))
        # rate within 3 sigma of binomial expectation (1.5 samples per start)
        expect = 200_000 * 0.002 * 1.5
        assert abs(len(hit) - expect) < 4 * np.sqrt(expect)

    def test_deterministic_given_seed(self):
        nm = NoiseModel(seed=11)
        a = simulate_vitals(VitalSignsProfile(), nm, 5.0)
        b = simulate_vitals(VitalSignsProfile(), nm, 5.0)
        assert np.array_equal(a.rss_db, b.rss_db)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(impulse_prob=1.5)
        with pytest.raises(ValueError):
            NoiseModel(gaussian_sigma_db=-0.1)

    @pytest.mark.parametrize("n", [0, 1, 8191, 8192, 8193, 3 * 8192 + 5])
    @pytest.mark.parametrize("prob", [0.0, 0.05, 1.0])
    @pytest.mark.parametrize("sigma", [0.0, 0.01])
    def test_blocked_draws_equal_one_draw(self, n, prob, sigma):
        """The impulse uniforms, drawn in blocks of 8,192 (one block below
        n = 8,193), give the bits of oracle_sample's one draw and leave the
        generator where it left it."""
        nm = NoiseModel(gaussian_sigma_db=sigma, impulse_prob=prob)
        got_rng, want_rng = np.random.default_rng(17), np.random.default_rng(17)
        got, want = nm.sample(got_rng, n), oracle_sample(nm, want_rng, n)
        assert got.tobytes() == want.tobytes()
        assert got_rng.random() == want_rng.random()


NAN = float("nan")


def refused(name, value, need):
    return pytest.raises(ValueError, match="^" + re.escape(
        f"{name} must be {need}, not {value!r}") + "$")


class TestNonFiniteInputs:
    """Every simulator check is written so that NaN fails it, and names the
    field. A NaN gaussian_sigma_db used to give a noise-free trace; others
    ended in numpy's "cannot convert float NaN to integer" or in RssTrace's
    non-finite error, which names no field."""

    @pytest.mark.parametrize("value", [NAN, np.inf, 0.0])
    def test_link_geometry(self, value):
        with refused("wavelength_m", value, "finite and positive"):
            LinkGeometry(wavelength_m=value)
        with pytest.raises(ValueError, match="^tx and rx must be distinct finite points$"):
            LinkGeometry(rx=(0.0, value))

    @pytest.mark.parametrize("name, need", [
        ("radius_m", "finite and positive"),
        ("half_length_m", "finite and >= 0"),
        ("scatter_amp", "finite and >= 0"),
    ])
    def test_body_model(self, name, need):
        with refused(name, NAN, need):
            BodyModel(**{name: NAN})

    @pytest.mark.parametrize("name, what", [
        ("angle_deg", "path angle must lie in (0, 90] degrees"),
        ("speed_mps", "speed must lie in [0.1, 3.0] m/s"),
        ("duration_s", "duration_s must be finite and positive, not nan"),
        ("crossing_m", "crossing_m must be finite, not nan"),
        ("start_offset_m", "start_offset_m must be finite, not nan"),
    ])
    def test_walk_path(self, name, what):
        fields = dict(crossing_m=0.5, angle_deg=90.0, speed_mps=1.0,
                      start_offset_m=-2.0, duration_s=4.0)
        with pytest.raises(ValueError, match="^" + re.escape(what) + "$"):
            WalkPath(**{**fields, name: NAN})

    @pytest.mark.parametrize("name, need", [
        ("breathing_rate_bpm", "finite and positive"),
        ("pulse_width_s", "finite and positive"),
        ("breathing_amplitude_db", "finite and >= 0"),
        ("pulse_amplitude_db", "finite and >= 0"),
    ])
    def test_vital_signs_profile(self, name, need):
        with refused(name, NAN, need):
            VitalSignsProfile(**{name: NAN})

    @pytest.mark.parametrize("name, need", [
        ("gaussian_sigma_db", "finite and >= 0"),
        ("impulse_scale_db", "finite and >= 0"),
    ])
    def test_noise_model(self, name, need):
        with refused(name, NAN, need):
            NoiseModel(**{name: NAN})
        with pytest.raises(ValueError, match="^impulse_prob must be a probability$"):
            NoiseModel(impulse_prob=NAN)

    @pytest.mark.parametrize("name, need", [
        ("amp_db", "finite and positive"),
        ("freq_start_hz", "finite and positive"),
        ("freq_end_hz", "finite and positive"),
        ("amp_jitter", "finite and in [0, 1)"),
        ("duration_jitter", "finite and in [0, 1)"),
        ("freq_jitter", "finite and in [0, 1)"),
        ("dc_shift_db", "finite"),
    ])
    def test_gesture_template(self, name, need):
        with refused(name, NAN, need):
            GestureTemplate(**{**dict(label="punch", duration_s=0.5, amp_db=2.0,
                                      freq_start_hz=10.0, freq_end_hz=5.0), name: NAN})

    @pytest.mark.parametrize("value", [NAN, np.inf, 0.0])
    def test_simulate_vitals_duration(self, value):
        with refused("duration_s", value, "finite and positive"):
            simulate_vitals(VitalSignsProfile(), QUIET, duration_s=value)

    @pytest.mark.parametrize("simulate", [
        lambda d: simulate_vitals(VitalSignsProfile(), QUIET, d),
        lambda d: simulate_crossing(LinkGeometry(), WalkPath(0.5, 90.0, 1.0, -d / 2, d),
                                    QUIET),
    ], ids=["vitals", "crossing"])
    def test_duration_under_half_a_sample(self, simulate):
        """0.001 s at 449 Hz rounds to no sample: vitals raised IndexError
        and crossing built an empty trace that save_trace refused."""
        with pytest.raises(ValueError, match=r"^duration_s \* fs is 0\.449, which "
                                             "rounds to 0 samples$"):
            simulate(0.001)
        assert len(simulate(0.002)) == 1

    @pytest.mark.parametrize("name", ["pre_pad_s", "post_pad_s"])
    @pytest.mark.parametrize("value", [NAN, -1.0])
    def test_simulate_gesture_pads(self, name, value):
        with refused(name, value, "finite and >= 0"):
            simulate_gesture(DEFAULT_TEMPLATES["punch"], QUIET, **{name: value})

    @pytest.mark.parametrize("simulate", [
        lambda fs: simulate_vitals(VitalSignsProfile(), QUIET, 5.0, fs=fs),
        lambda fs: simulate_crossing(LinkGeometry(), WalkPath(0.5, 90.0, 1.0, -2.0, 4.0),
                                     QUIET, fs=fs),
        lambda fs: simulate_gesture(DEFAULT_TEMPLATES["punch"], QUIET, fs=fs),
    ], ids=["vitals", "crossing", "gesture"])
    def test_sample_rate(self, simulate):
        with refused("fs", NAN, "finite and positive"):
            simulate(NAN)


class TestGestureSim:
    def test_ground_truth_brackets_burst(self):
        nm = NoiseModel(impulse_prob=0.0, seed=3)
        tr = simulate_gesture(DEFAULT_TEMPLATES["kick"], nm, seed=9)
        gt = tr.ground_truth
        assert gt.label == "kick"
        assert gt.start_s == pytest.approx(13.0)
        assert 0.3 <= gt.end_s - gt.start_s <= 3.0
        # burst energy inside the marked span, quiet outside
        i0, i1 = int(gt.start_s * FS), int(gt.end_s * FS)
        inside = np.std(tr.rss_db[i0:i1])
        outside = np.std(tr.rss_db[: i0 - 45])
        assert inside > 10 * outside

    def test_seed_controls_jitter_and_noise(self):
        nm = NoiseModel(seed=3)
        a = simulate_gesture(DEFAULT_TEMPLATES["punch"], nm, seed=1)
        b = simulate_gesture(DEFAULT_TEMPLATES["punch"], nm, seed=1)
        c = simulate_gesture(DEFAULT_TEMPLATES["punch"], nm, seed=2)
        assert np.array_equal(a.rss_db, b.rss_db)
        assert not np.array_equal(a.rss_db, c.rss_db)
        assert a.ground_truth.end_s != c.ground_truth.end_s  # duration jitter

    def test_every_label_has_a_template(self):
        assert set(DEFAULT_TEMPLATES) == set(GESTURE_LABELS)
        for label, tpl in DEFAULT_TEMPLATES.items():
            assert tpl.label == label

    def test_durations_stay_under_history_guard(self):
        # jittered gestures must stay shorter than the segmenter's 2 s guard
        for tpl in DEFAULT_TEMPLATES.values():
            assert tpl.duration_s * (1 + tpl.duration_jitter) < 2.0

    @pytest.mark.parametrize("pads", [{}, {"pre_pad_s": 0.0, "post_pad_s": 0.0}])
    def test_waveform_of_no_sample_is_refused(self, pads):
        """At 1 Hz the punch's jittered 0.34-0.46 s round to no sample. The
        trace carried start_s == end_s truth for a gesture that was not
        there, or with no pads was empty, and save_trace refused it."""
        with pytest.raises(ValueError, match=r"^gesture duration \* fs is 0\.\d+, "
                                             "which rounds to 0 samples$"):
            simulate_gesture(DEFAULT_TEMPLATES["punch"], QUIET, fs=1.0, **pads)
        # a 0.7 s kick rounds to one sample at 1 Hz
        tr = simulate_gesture(DEFAULT_TEMPLATES["kick"], QUIET, fs=1.0, seed=1, **pads)
        assert tr.ground_truth.end_s - tr.ground_truth.start_s == 1.0

    def test_template_validation(self):
        with pytest.raises(ValueError):
            GestureTemplate("nope", 0.5, 2.0, 10.0, 5.0)
        with pytest.raises(ValueError):
            GestureTemplate("punch", 0.1, 2.0, 10.0, 5.0)
        with pytest.raises(ValueError):
            GestureTemplate("punch", 0.5, 2.0, 10.0, 5.0, envelope="square")


N_TRACES = 3 + 65 * len(GESTURE_LABELS) + 240


def _digest(traces) -> str:
    h = hashlib.sha256()
    for t in traces:
        gt = t.ground_truth
        h.update(t.metadata.extras["trace_id"].encode())
        h.update(t.rss_db.tobytes())
        h.update(b"" if gt.hr_bpm is None else gt.hr_bpm.tobytes())
        h.update(repr((gt.speed_mps, gt.cross_t_s, gt.label, gt.start_s,
                       gt.end_s)).encode())
    return h.hexdigest()


class TestCorpora:
    def test_sizes_and_determinism(self):
        a = make_corpora(123)
        assert len(a["vitals"]) == 3
        assert len(a["gesture_train"]) == 40 * len(GESTURE_LABELS)
        assert len(a["gesture_test"]) == 25 * len(GESTURE_LABELS)
        n_cross = len(CROSSING_SPEEDS) * len(CROSSING_POSITIONS) * len(CROSSING_ANGLES)
        assert len(a["crossing"]) == n_cross
        b = make_corpora(123)
        assert np.array_equal(a["crossing"][7].rss_db, b["crossing"][7].rss_db)
        c = make_corpora(124)
        assert not np.array_equal(a["crossing"][7].rss_db, c["crossing"][7].rss_db)

    def test_ground_truth_and_ids_present(self):
        corp = make_corpora(99)
        assert all(t.ground_truth.hr_bpm is not None for t in corp["vitals"])
        assert all(t.ground_truth.label in GESTURE_LABELS for t in corp["gesture_train"])
        assert all(t.ground_truth.speed_mps in CROSSING_SPEEDS for t in corp["crossing"])
        ids = [t.metadata.extras["trace_id"] for bucket in corp.values() for t in bucket]
        assert len(ids) == len(set(ids)) == N_TRACES

    # sha256 of each corpus's ids, samples and ground truth (_digest),
    # recorded when make_corpora still built all four corpora at once
    PINNED = {
        0: {"vitals": "7f5f82cce05dec28b55f0b7b4d66022da90c0aea5d4591d3e5875ac16d44982f",
            "gesture_train": "0cade4bd67fa72633ebf718fe7bb84313e214ff8b1fff95661082c79921f5f0a",
            "gesture_test": "1c014c71c9794961194d2a1559195785850957153950c6c0f3343d85fd7a75c8",
            "crossing": "36879ac0bcdb0de5376c6e9d1c9767bf77186b950ffed58f635e812a05384aff"},
        1: {"vitals": "cd44274f7bacadc7f2ad045fea30d59877d9f50ac9f0b51e041f8fa8297e06e4",
            "gesture_train": "4d62b5a92d5b7e437693d519eeda3a6e74f5a4565c543c7c7ef1a6daa788c725",
            "gesture_test": "a1f015f91701f0573127a4243d98ed47864dcf119ee013ca428fb613a4cf2ad9",
            "crossing": "48087118b2c49731bf6c792be08f1e0da36223d0746d6c8b5fb7e48b7d1ab163"},
    }

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bytes_are_pinned_whatever_the_read_order(self, seed):
        corp = make_corpora(seed)
        got = {name: _digest(corp[name]) for name in reversed(list(corp))}
        assert list(corp) == ["vitals", "gesture_train", "gesture_test", "crossing"]
        assert got == self.PINNED[seed]

    def test_a_corpus_is_simulated_on_first_read_only(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated a corpus that was not read")

        monkeypatch.setattr(sim, "simulate_gesture", refuse)
        monkeypatch.setattr(sim, "simulate_crossing", refuse)
        corp = make_corpora(0)
        assert "crossing" in corp and "gait" not in corp and len(corp) == 4
        vitals = corp["vitals"]
        assert corp["vitals"] is vitals
        assert _digest(vitals) == self.PINNED[0]["vitals"]
        with pytest.raises(AssertionError, match="not read"):
            corp["crossing"]
        with pytest.raises(KeyError):
            corp["gait"]
        with pytest.raises(TypeError):
            corp["vitals"] = []

    def test_walking_items_builds_every_corpus(self):
        """test_ground_truth_and_ids_present walks values()."""
        traces = [t for _, bucket in make_corpora(5).items() for t in bucket]
        ids = {t.metadata.extras["trace_id"] for t in traces}
        assert len(traces) == len(ids) == N_TRACES

    def test_traces_share_one_time_axis(self, monkeypatch):
        """Every corpus trace views the one nominal axis rather than holding
        its own np.arange(n) / fs, which was about half the corpora's memory
        (100.8 MiB held with a copy per trace, 53 MiB with the shared axis).
        All four corpora are read inside the traced region."""
        monkeypatch.setattr(rftrace, "_nominal_axis", (0.0, np.empty(0), []))
        tracemalloc.start()
        try:
            corp = make_corpora(0)
            assert sum(len(bucket) for bucket in corp.values()) == N_TRACES
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 60 * 2 ** 20
        axis = rftrace._nominal_axis[1]
        for tr in (t for bucket in corp.values() for t in bucket):
            assert np.shares_memory(tr.timestamps, axis)

    def test_noise_differs_between_traces(self):
        corp = make_corpora(7)
        g = corp["gesture_train"]
        assert not np.array_equal(g[0].rss_db[:500], g[1].rss_db[:500])
