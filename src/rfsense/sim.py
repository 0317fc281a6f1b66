"""Physics-based trace generation standing in for the radio hardware.

Three scene generators, all emitting standard traces with ground truth:

  simulate_vitals    breathing sinusoid + a Gaussian-pulse train at the
                     integrated heart rate, at the dB amplitudes a chest
                     reflection actually produces (0.005 dB scale)
  simulate_crossing  complex channel h = F(nu) + a_s exp(-j 2 pi delta / lambda):
                     knife-edge diffraction of the line-of-sight path by the
                     moving body plus a single point scatterer with its
                     excess-path phase
  simulate_gesture   quiescent noise around one amplitude/frequency-modulated
                     oscillation burst drawn from a per-label template

The body is modeled as a segment of finite half-length aligned with the walk
direction (radius body.radius_m around it) for the shadowing term; a pure
point body makes every crossing timescale proportional to v sin(angle),
which is measurably wrong for shallow crossing angles.

Noise: Gaussian floor plus one-to-two-sample impulses of either sign,
sampled per trace from the generator seed.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import fresnel

from .dsp import (_finite, _non_negative, _positive, _require, _sample_count,
                  _walk_block)
from .gesture import GESTURE_LABELS
from .trace import (DEFAULT_SAMPLE_RATE_HZ, GroundTruth, RssTrace, _nominal_axis_at,
                    make_trace)

DEFAULT_BASELINE_DB = -50.0

IMPULSE_MAX_LEN = 2

# resting heart-rate band, bpm
HR_BAND = (50.4, 100.2)


@dataclass(frozen=True)
class LinkGeometry:
    tx: tuple = (0.0, 0.0)
    rx: tuple = (0.0, 1.0)
    wavelength_m: float = 0.69

    def __post_init__(self):
        if len(self.tx) != 2 or len(self.rx) != 2:
            raise ValueError("tx and rx must be (x, y) points")
        _positive(wavelength_m=self.wavelength_m)
        if not 0.0 < self.d < math.inf:
            raise ValueError("tx and rx must be distinct finite points")

    @property
    def d(self) -> float:
        return float(np.hypot(self.rx[0] - self.tx[0], self.rx[1] - self.tx[1]))


@dataclass(frozen=True)
class BodyModel:
    radius_m: float = 0.15
    half_length_m: float = 0.375    # along the walk direction
    scatter_amp: float = 0.1        # relative to LOS at a mid-link crossing

    def __post_init__(self):
        _positive(radius_m=self.radius_m)
        _non_negative(half_length_m=self.half_length_m, scatter_amp=self.scatter_amp)


@dataclass(frozen=True)
class WalkPath:
    crossing_m: float        # along-link position where the path meets the link
    angle_deg: float         # between path and link line; 90 = perpendicular
    speed_mps: float
    start_offset_m: float    # signed position along the path at t = 0
    duration_s: float

    def __post_init__(self):
        if not 0.0 < self.angle_deg <= 90.0:
            raise ValueError("path angle must lie in (0, 90] degrees")
        if not 0.1 <= self.speed_mps <= 3.0:
            raise ValueError("speed must lie in [0.1, 3.0] m/s")
        _positive(duration_s=self.duration_s)
        _require("finite", math.isfinite, crossing_m=self.crossing_m,
                 start_offset_m=self.start_offset_m)

    @classmethod
    def centred(cls, crossing_m, angle_deg, speed_mps, duration_s) -> WalkPath:
        """The walk that meets the link halfway through its duration."""
        return cls(crossing_m, angle_deg, speed_mps,
                   -speed_mps * duration_s / 2.0, duration_s)


@dataclass(frozen=True)
class VitalSignsProfile:
    """heart_rate_bpm is piecewise linear: ((t0, bpm0), (t1, bpm1), ...) of
    finite numbers; a bare number means constant. Rates outside the resting
    band are refused because the estimator's search band would clip them
    silently."""

    heart_rate_bpm: object = 66.0
    breathing_rate_bpm: float = 15.0
    breathing_amplitude_db: float = 0.05
    pulse_amplitude_db: float = 0.005
    pulse_width_s: float = 0.08

    def __post_init__(self):
        pts = self.heart_rate_points()
        if any(not HR_BAND[0] <= bpm <= HR_BAND[1] for _, bpm in pts):
            raise ValueError(f"heart rate outside the {HR_BAND} bpm resting band")
        if any(t1 <= t0 for (t0, _), (t1, _) in zip(pts, pts[1:])):
            raise ValueError("heart-rate breakpoints must increase in time")
        _positive(breathing_rate_bpm=self.breathing_rate_bpm,
                  pulse_width_s=self.pulse_width_s)
        _non_negative(breathing_amplitude_db=self.breathing_amplitude_db,
                      pulse_amplitude_db=self.pulse_amplitude_db)

    def heart_rate_points(self) -> list:
        hr = self.heart_rate_bpm
        if _finite(hr):
            return [(0.0, float(hr))]
        if not (isinstance(hr, (list, tuple)) and hr and all(
                isinstance(p, (list, tuple)) and len(p) == 2 and all(map(_finite, p))
                for p in hr)):
            raise ValueError("heart_rate_bpm must be a finite number or a non-empty "
                             "list of [t_s, bpm] pairs of finite numbers")
        return [(float(t), float(b)) for t, b in hr]


@dataclass(frozen=True)
class NoiseModel:
    gaussian_sigma_db: float = 0.01
    impulse_prob: float = 0.001      # per-sample probability of an impulse start
    impulse_scale_db: float = 3.0
    seed: int = 0

    def __post_init__(self):
        _non_negative(gaussian_sigma_db=self.gaussian_sigma_db,
                      impulse_scale_db=self.impulse_scale_db)
        if not 0.0 <= self.impulse_prob <= 1.0:
            raise ValueError("impulse_prob must be a probability")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n samples of noise. The impulse starts' uniforms are drawn in
        blocks of _walk_block() samples; the generator hands them out in
        the same order as in one draw of n, so no series-length array of
        them is held."""
        out = rng.normal(0.0, self.gaussian_sigma_db, n) if self.gaussian_sigma_db > 0 \
            else np.zeros(n)
        step = _walk_block()
        starts = np.concatenate([np.empty(0, dtype=np.intp)] + [
            lo + np.flatnonzero(rng.random(min(step, n - lo)) < self.impulse_prob)
            for lo in range(0, n, step)])
        if len(starts):
            lengths = rng.integers(1, IMPULSE_MAX_LEN + 1, len(starts))
            signs = rng.choice([-1.0, 1.0], len(starts))
            for s, ln, sg in zip(starts, lengths, signs):
                out[s: s + ln] += sg * self.impulse_scale_db
        return out


def knife_edge_gain(nu) -> np.ndarray:
    """Complex knife-edge diffraction gain F(nu).

    F(-inf) = 1 (no obstruction), |F(0)| = 0.5 (-6 dB, edge grazing the
    line of sight), F(+inf) = 0 (fully blocked).
    """
    s, c = fresnel(np.asarray(nu, dtype=np.float64))
    return (1.0 + 1.0j) / 2.0 * ((0.5 - c) - 1.0j * (0.5 - s))


def simulate_vitals(profile: VitalSignsProfile, noise: NoiseModel, duration_s: float,
                    fs: float = DEFAULT_SAMPLE_RATE_HZ) -> RssTrace:
    _positive(duration_s=duration_s, fs=fs)
    # a narrower pulse falls between samples: the trace would carry no beat
    if profile.pulse_width_s < 1.0 / fs:
        raise ValueError(f"pulse_width_s {profile.pulse_width_s!r} is below one "
                         f"sample period (1/{fs!r} s)")
    n = _sample_count("duration_s * fs", duration_s * fs, least=1)
    t = _nominal_axis_at(fs, n)[1][:n]  # the time axis make_trace views
    pts = profile.heart_rate_points()
    hr = np.interp(t, [p[0] for p in pts], [p[1] for p in pts])

    # beat times: integer crossings of the integrated heart rate. np.interp
    # copies the read-only axis, so they are found before rss exists.
    phase = np.empty(n)
    phase[0] = 0.0
    np.divide(hr[:-1], 60.0, out=phase[1:])
    np.cumsum(phase[1:], out=phase[1:])
    phase[1:] /= fs
    beats = np.arange(1.0, np.floor(phase[-1]) + 1.0)
    beat_times = np.interp(beats, phase, t)

    # the phase's buffer takes the breathing term, and is freed before the
    # noise is drawn
    rss = np.full(n, DEFAULT_BASELINE_DB)
    breathing = np.multiply(2.0 * np.pi * (profile.breathing_rate_bpm / 60.0), t,
                            out=phase)
    np.sin(breathing, out=breathing)
    breathing *= profile.breathing_amplitude_db
    rss += breathing
    del phase, breathing

    sigma = profile.pulse_width_s
    half = int(np.ceil(4.0 * sigma * fs))
    for tb in beat_times:
        i0 = max(0, int(np.floor((tb - 4.0 * sigma) * fs)))
        i1 = min(n, i0 + 2 * half + 1)
        rss[i0:i1] += profile.pulse_amplitude_db * np.exp(
            -((t[i0:i1] - tb) ** 2) / (2.0 * sigma * sigma))

    rng = np.random.default_rng(noise.seed)
    rss += noise.sample(rng, n)
    return make_trace(rss, fs, ground_truth=GroundTruth(hr_bpm=hr))


def _crossing_channel(geom: LinkGeometry, path: WalkPath, body: BodyModel,
                      t: np.ndarray) -> np.ndarray:
    d = geom.d
    theta = np.deg2rad(path.angle_deg)
    s = path.start_offset_m + path.speed_mps * t
    u = path.crossing_m + s * np.cos(theta)    # along-link coordinate
    w = s * np.sin(theta)                      # perpendicular offset

    # shadowing: penetration of the body segment into the line-of-sight
    seg_clearance = np.maximum(0.0, np.abs(w) - body.half_length_m * np.sin(theta))
    h_ob = body.radius_m - seg_clearance
    u_f = np.clip(u, 0.01, d - 0.01)
    nu = h_ob * np.sqrt(2.0 * d / (geom.wavelength_m * u_f * (d - u_f)))

    # single point scatterer at the body center
    r_tx = np.maximum(np.hypot(u, w), 0.05)
    r_rx = np.maximum(np.hypot(d - u, w), 0.05)
    delta = r_tx + r_rx - d
    a_s = body.scatter_amp * (d * d / 4.0) / (r_tx * r_rx)
    return knife_edge_gain(nu) + a_s * np.exp(-2.0j * np.pi * delta / geom.wavelength_m)


def simulate_crossing(geom: LinkGeometry, path: WalkPath, noise: NoiseModel,
                      fs: float = DEFAULT_SAMPLE_RATE_HZ,
                      body: BodyModel = BodyModel()) -> RssTrace:
    _positive(fs=fs)
    d = geom.d
    if not 0.0 < path.crossing_m < d:
        raise ValueError("crossing point must lie strictly inside the link")
    cross_t = -path.start_offset_m / path.speed_mps
    if not 0.0 <= cross_t <= path.duration_s:
        raise ValueError("path does not cross the link within the trace duration")
    n = _sample_count("duration_s * fs", path.duration_s * fs, least=1)
    t = np.arange(n) / fs
    h = _crossing_channel(geom, path, body, t)
    rss = 20.0 * np.log10(np.maximum(np.abs(h), 1e-9)) + DEFAULT_BASELINE_DB
    rng = np.random.default_rng(noise.seed)
    rss += noise.sample(rng, n)
    return make_trace(
        rss, fs,
        ground_truth=GroundTruth(speed_mps=path.speed_mps, cross_t_s=cross_t),
        extras={"angle_deg": repr(float(path.angle_deg)),
                "crossing_m": repr(float(path.crossing_m))})


# ---------------------------------------------------------------------------
# Gestures
# ---------------------------------------------------------------------------

ENVELOPES = ("hann", "attack_decay", "double_bump")


@dataclass(frozen=True)
class GestureTemplate:
    label: str
    duration_s: float
    amp_db: float
    freq_start_hz: float
    freq_end_hz: float
    envelope: str = "hann"
    dc_shift_db: float = 0.0      # slow level excursion through the gesture
    amp_jitter: float = 0.15
    duration_jitter: float = 0.15
    freq_jitter: float = 0.10

    def __post_init__(self):
        if self.label not in GESTURE_LABELS:
            raise ValueError(f"unknown gesture label {self.label!r}")
        _require("in [0.3, 3]", lambda v: 0.3 <= v <= 3, duration_s=self.duration_s)
        if self.envelope not in ENVELOPES:
            raise ValueError(f"envelope must be one of {ENVELOPES}")
        _positive(amp_db=self.amp_db, freq_start_hz=self.freq_start_hz,
                  freq_end_hz=self.freq_end_hz)
        _require("finite and in [0, 1)", lambda v: 0 <= v < 1, amp_jitter=self.amp_jitter,
                 duration_jitter=self.duration_jitter, freq_jitter=self.freq_jitter)
        _require("finite", math.isfinite, dc_shift_db=self.dc_shift_db)


DEFAULT_TEMPLATES = {
    "punch": GestureTemplate("punch", 0.4, 2.0, 18.0, 6.0),
    "punchx2": GestureTemplate("punchx2", 0.8, 2.0, 18.0, 6.0, envelope="double_bump"),
    "kick": GestureTemplate("kick", 0.7, 2.8, 12.0, 4.0),
    "strike": GestureTemplate("strike", 0.5, 2.2, 15.0, 15.0, envelope="attack_decay"),
    "drag": GestureTemplate("drag", 1.4, 1.4, 3.0, 5.0),
    "dodge": GestureTemplate("dodge", 0.9, 1.6, 4.0, 9.0),
    "push": GestureTemplate("push", 0.8, 1.8, 10.0, 3.0, dc_shift_db=-1.0),
    "pull": GestureTemplate("pull", 0.8, 1.8, 3.0, 10.0, dc_shift_db=1.0),
}


def _envelope(kind: str, n: int) -> np.ndarray:
    if kind == "hann":
        return np.hanning(n)
    if kind == "attack_decay":
        n_a = max(1, int(round(0.15 * n)))
        env = np.empty(n)
        env[:n_a] = np.linspace(0.0, 1.0, n_a, endpoint=False)
        env[n_a:] = np.exp(-4.0 * np.arange(n - n_a) / max(1, n - n_a))
        return env
    # double_bump: two hann lobes with a gap
    env = np.zeros(n)
    lobe = int(round(0.45 * n))
    env[:lobe] = np.hanning(lobe)
    env[n - lobe:] = np.hanning(lobe)
    return env


def _gesture_waveform(tpl: GestureTemplate, rng: np.random.Generator,
                      fs: float) -> np.ndarray:
    ampl = tpl.amp_db * (1.0 + rng.uniform(-tpl.amp_jitter, tpl.amp_jitter))
    dur = float(np.clip(
        tpl.duration_s * (1.0 + rng.uniform(-tpl.duration_jitter, tpl.duration_jitter)),
        0.3, 3.0))
    f0 = tpl.freq_start_hz * (1.0 + rng.uniform(-tpl.freq_jitter, tpl.freq_jitter))
    f1 = tpl.freq_end_hz * (1.0 + rng.uniform(-tpl.freq_jitter, tpl.freq_jitter))
    # with no sample, the trace would carry truth for a gesture it does not hold
    n = _sample_count("gesture duration * fs", dur * fs, least=1)
    tau = np.arange(n) / fs
    f_inst = f0 + (f1 - f0) * tau / dur
    phase = 2.0 * np.pi * np.cumsum(f_inst) / fs
    wave = ampl * _envelope(tpl.envelope, n) * np.sin(phase)
    if tpl.dc_shift_db != 0.0:
        wave += tpl.dc_shift_db * np.hanning(n)
    return wave


def simulate_gesture(template: GestureTemplate, noise: NoiseModel,
                     pre_pad_s: float = 13.0, post_pad_s: float = 2.5,
                     fs: float = DEFAULT_SAMPLE_RATE_HZ, seed: int = 0) -> RssTrace:
    """One gesture instance flanked by quiescence.

    The default pre-pad leaves room for the segmenter's variance history
    (long_window + guard) to fill before the gesture begins.
    """
    _non_negative(pre_pad_s=pre_pad_s, post_pad_s=post_pad_s)
    _positive(fs=fs)
    rng = np.random.default_rng([seed, noise.seed])
    wave = _gesture_waveform(template, rng, fs)
    n_pre = _sample_count("pre_pad_s * fs", pre_pad_s * fs)
    n_post = _sample_count("post_pad_s * fs", post_pad_s * fs)
    rss = np.full(n_pre + len(wave) + n_post, DEFAULT_BASELINE_DB)
    rss[n_pre: n_pre + len(wave)] += wave
    rss += noise.sample(rng, len(rss))
    gt = GroundTruth(label=template.label, start_s=n_pre / fs,
                     end_s=(n_pre + len(wave)) / fs)
    return make_trace(rss, fs, ground_truth=gt)


# ---------------------------------------------------------------------------
# Standard corpora
# ---------------------------------------------------------------------------

CROSSING_SPEEDS = (0.3, 0.6, 0.9, 1.2, 1.5, 1.8)
CROSSING_ANGLES = (30.0, 45.0, 60.0, 75.0, 90.0)
CROSSING_LINK = LinkGeometry(rx=(0.0, 2.0))
# equispaced mid-link band, well clear of the near-antenna diffraction blowup
CROSSING_POSITIONS = tuple(np.linspace(0.7, 1.3, 8))
CROSSING_DURATION_S = 20.0
GESTURES_PER_LABEL_TRAIN = 40
GESTURES_PER_LABEL_TEST = 25

VITALS_HR_PROFILES = (
    ((0.0, 60.0), (300.0, 66.0)),
    ((0.0, 72.0), (60.0, 72.0), (300.0, 90.0)),
    ((0.0, 85.0), (300.0, 61.0)),
)


class _Corpora(Mapping):
    """Read-only map from corpus name to its list of traces. Each corpus is
    specified as an ordered map from trace_id to a zero-argument simulator
    call; the calls run on the corpus's first read, each trace gets its
    trace_id in its extras (which every simulator builds afresh for its
    trace), and the list is then kept.

    Iteration, `values()` and `items()` read through `[]`, so walking the
    map builds every corpus.
    """

    def __init__(self, specs: dict):
        self._specs = specs
        self._built: dict = {}

    def __getitem__(self, name: str) -> list:
        if name not in self._built:
            self._built[name] = [simulate() for simulate in self._specs[name].values()]
            for trace, trace_id in zip(self._built[name], self._specs[name]):
                trace.metadata.extras["trace_id"] = trace_id
        return self._built[name]

    # Mapping's default reads the corpus, which would simulate it
    def __contains__(self, name) -> bool:
        return name in self._specs

    def __iter__(self):
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)


def make_corpora(seed: int) -> Mapping:
    """Deterministic evaluation corpora: vitals, gesture train/test, crossing.

    Every trace seed is drawn here, in the order of the names, so each
    corpus is the same whichever corpora are read and in what order. A
    corpus is simulated on its first read and kept: a caller pays only for
    the corpora it reads, and reading all four costs what building them
    at once did.
    """
    root_rng = np.random.default_rng(seed)

    def next_seed() -> int:
        return int(root_rng.integers(0, 2 ** 63))

    specs = {name: {} for name in ("vitals", "gesture_train", "gesture_test", "crossing")}
    for i, profile_pts in enumerate(VITALS_HR_PROFILES):
        profile = VitalSignsProfile(heart_rate_bpm=profile_pts)
        # 0.02 dB receiver noise puts the 0.005 dB pulse where both window
        # regimes are visible: 10 s windows are peak-jitter limited, 40 s
        # windows lag the drifting rate
        noise = NoiseModel(gaussian_sigma_db=0.02, seed=next_seed())
        specs["vitals"][f"vitals_{i}"] = partial(simulate_vitals, profile, noise, 300.0)
    # each gesture trace takes a noise seed, then a waveform seed
    for split, count in (("train", GESTURES_PER_LABEL_TRAIN),
                         ("test", GESTURES_PER_LABEL_TEST)):
        for label in GESTURE_LABELS:
            for i in range(count):
                noise = NoiseModel(seed=next_seed())
                specs[f"gesture_{split}"][f"gesture_{split}_{label}_{i:02d}"] = partial(
                    simulate_gesture, DEFAULT_TEMPLATES[label], noise, seed=next_seed())
    for v in CROSSING_SPEEDS:
        for pos in CROSSING_POSITIONS:
            for ang in CROSSING_ANGLES:
                path = WalkPath.centred(pos, ang, v, CROSSING_DURATION_S)
                noise = NoiseModel(seed=next_seed())
                specs["crossing"][f"crossing_v{v:.1f}_p{pos:.3f}_a{int(ang)}"] = partial(
                    simulate_crossing, CROSSING_LINK, path, noise)
    return _Corpora(specs)
