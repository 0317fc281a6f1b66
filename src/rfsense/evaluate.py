"""The corpus evaluation protocol, shared by the CLI and the experiment scripts.

Heart rate is scored by the error of each windowed estimate against the true
rate. Speed is calibrated on known walks, with a crossing threshold taken
from an empty scene. Results go out as CSV tables through `write_rows`.
"""

from __future__ import annotations

import csv
from dataclasses import replace
from pathlib import Path

import numpy as np

from .heart import STATUS_ESTIMATE, HeartRateEstimate
from .sim import NoiseModel, VitalSignsProfile, simulate_vitals
from .speed import SpeedConfig, calibrate_crossing_threshold, crossing_frequency
from .trace import RssTrace

# segmentation/speed settings sized for the bundled simulation corpora:
# gesture traces are ~16 s, so the variance history must fit inside them;
# the speed window has to cover the slowest transit in the speed grid.
CORPUS_SEGMENTATION = {"long_window": 4490}
CORPUS_SPEED = {"window_s": 5.5, "smoothing_window": 5, "search_interval_s": 12.0}


def empty_scene(noise_seed: int, duration_s: float) -> RssTrace:
    """A motion-free recording: receiver noise only, no breathing or pulse."""
    profile = VitalSignsProfile(breathing_amplitude_db=0.0, pulse_amplitude_db=0.0)
    return simulate_vitals(profile, NoiseModel(seed=noise_seed), duration_s=duration_s)


def corpus_speed_config(noise_seed: int) -> SpeedConfig:
    """CORPUS_SPEED with the crossing threshold calibrated on a 30 s empty
    scene drawn with `noise_seed`."""
    base = SpeedConfig(**CORPUS_SPEED)
    thr = calibrate_crossing_threshold(empty_scene(noise_seed, 30.0), base)
    return replace(base, crossing_threshold_hz=thr)


def hr_errors(trace: RssTrace, estimates: list[HeartRateEstimate]) -> np.ndarray:
    """Estimated minus true bpm for each `estimate` update, in order; the
    true rate is interpolated at the update time."""
    usable = [e for e in estimates if e.status == STATUS_ESTIMATE]
    truth = np.interp([e.time_s for e in usable], trace.timestamps,
                      trace.ground_truth.hr_bpm)
    return np.array([e.bpm for e in usable]) - truth


def crossing_points(traces: list[RssTrace], cfg: SpeedConfig
                    ) -> list[tuple[float, float]]:
    """(f_min_av_hz, speed_mps) of each calibration walk, for calibrate_alpha.

    Every walk must carry its true speed and show a crossing under `cfg`.
    """
    points = []
    for i, trace in enumerate(traces):
        event = crossing_frequency(trace, cfg)
        truth = trace.ground_truth.speed_mps
        if event is None or truth is None:
            raise ValueError(f"calibration walk {i} has no detectable crossing "
                             "or no true speed")
        points.append((event.f_min_av_hz, truth))
    return points


def rmse(errors) -> float:
    return float(np.sqrt(np.mean(np.square(errors))))


def write_rows(path: Path, header: list[str], rows: list[list]) -> None:
    """Write one CSV table, making its directory: LF line ends, floats by
    repr, None as ""."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(v) if isinstance(v, float) else v for v in row]
                         for row in rows)
