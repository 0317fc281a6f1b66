"""The three benchmark workloads.

A workload builds its inputs from the seed (`setup`), then runs rounds. A
round has a prepare phase (fitting or calibration, with the calibration
traces written first in speed-files) and a run phase (the pipeline calls a
user waits on); it returns the outputs that `check` judges. Every pipeline
call on one trace, every trace write and every CLI command goes through
`Recorder.op`, which times it and counts it as
attempted, and as failed when it raises or returns no result where one is
due.
"""

from __future__ import annotations

import json
import shutil
import time
import traceback
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from rfsense import cli, gesture, heart, sim, speed
from rfsense import trace as rftrace
from rfsense.gesture import SegmentationConfig
from rfsense.heart import HeartRateConfig
from rfsense.sim import NoiseModel, VitalSignsProfile
from rfsense.speed import SpeedConfig

import checks

SEG_CFG = SegmentationConfig(**cli.CORPUS_SEGMENTATION)
SPEED_BASE = SpeedConfig(**cli.CORPUS_SPEED)
HR_WINDOWS_S = (10.0, 20.0, 40.0)
# (window_s, second_harmonic): the window sweep plus the single-harmonic baseline
HR_STREAMS = tuple((w, True) for w in HR_WINDOWS_S) + ((20.0, False),)
MAX_REPORTED_ERRORS = 5


def _is_result(r) -> bool:
    return r is not None


def _exit_ok(r) -> bool:
    return r == 0


def _always(r) -> bool:
    return True


class Recorder:
    """Times operations and phases of the current round."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.rounds: list[dict] = []
        self._phase = None

    def start_round(self) -> None:
        self.rounds.append({"prepare_s": 0.0, "run_s": 0.0, "trace_s": 0.0,
                            "prepare_ops_s": [], "ops_s": []})

    @contextmanager
    def phase(self, name: str):
        self._phase = name
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.rounds[-1][f"{name}_s"] += time.perf_counter() - t0
            self._phase = None

    def op(self, fn, *args, ok=_is_result, trace_s: float = 0.0, **kwargs):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            why = None if ok(result) else f"returned {result!r}"
        except Exception:
            dt = time.perf_counter() - t0
            result, why = None, f"raised:\n{traceback.format_exc()}"
        if why is not None:
            self.failed += 1
            if len(self.errors) < MAX_REPORTED_ERRORS:
                self.errors.append(f"{fn.__name__} {why}")
            result = None
        if self._phase == "run":
            cur = self.rounds[-1]
            cur["ops_s"].append(dt)
            cur["trace_s"] += trace_s
        elif self._phase == "prepare":
            self.rounds[-1]["prepare_ops_s"].append(dt)
        return result


def _aux_seeds(seed: int) -> list[int]:
    """Seeds of the inputs a workload adds to sim.make_corpora(seed)."""
    return [int(s) for s in np.random.default_rng([seed, 2018]).integers(0, 2 ** 31, 3)]


def _empty_scene(noise_seed: int, duration_s: float):
    return sim.simulate_vitals(
        VitalSignsProfile(breathing_amplitude_db=0.0, pulse_amplitude_db=0.0),
        NoiseModel(seed=noise_seed), duration_s=duration_s)


class Workload:
    name = ""

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    def warm(self, inputs: dict) -> None:
        """Run the workload's kernels once on a small input before timing
        starts, so one-time costs of a first call stay out of the rounds."""

    def cleanup(self) -> None:
        """Remove what the rounds left on disk."""
        shutil.rmtree(self.work_dir, ignore_errors=True)


class VitalsStream(Workload):
    """Heart-rate streams over the 300 s vitals traces at 10, 20 and 40 s
    windows plus the 20 s single-harmonic baseline, each with a motion
    threshold calibrated on a separate motion-free recording."""

    name = "vitals-stream"

    def setup(self, seed: int) -> dict:
        corpora = sim.make_corpora(seed)
        reference = sim.simulate_vitals(
            VitalSignsProfile(heart_rate_bpm=66.0),
            NoiseModel(gaussian_sigma_db=0.02, seed=_aux_seeds(seed)[0]),
            duration_s=300.0)
        return {"vitals": corpora["vitals"], "reference": reference}

    def warm(self, inputs: dict) -> None:
        for w in HR_WINDOWS_S:
            cfg = HeartRateConfig(window_s=w)
            heart.estimate_window(inputs["reference"].rss_db[:cfg.window_samples], cfg)

    def round(self, inputs: dict, rec: Recorder, seed: int) -> dict:
        with rec.phase("prepare"):
            thresholds = {w: rec.op(heart.calibrate_threshold, inputs["reference"],
                                    HeartRateConfig(window_s=w))
                          for w in HR_WINDOWS_S}
        streams = {}
        with rec.phase("run"):
            for w, harmonic in HR_STREAMS:
                cfg = HeartRateConfig(window_s=w, psd_threshold=thresholds[w])
                streams[(w, harmonic)] = (cfg, [
                    rec.op(heart.stream_heart_rate, trace, cfg, harmonic,
                           ok=bool, trace_s=trace.duration_s)
                    for trace in inputs["vitals"]])
        return {"streams": streams}

    def check(self, inputs, out, seed):
        return checks.check_vitals(inputs, out, seed)


def _featurize(trace):
    """Segments of one trace and the features of its longest segment."""
    segments = gesture.segment(trace, SEG_CFG)
    if not segments:
        return None
    best = max(segments, key=lambda s: s.duration_s)
    return segments, gesture.extract_features(best, trace.metadata.sample_rate_hz)


def _label(trace, model):
    found = _featurize(trace)
    if found is None:
        return None
    segments, fv = found
    return segments, fv, gesture.classify(model, fv)


class GestureBatch(Workload):
    """Segment and featurize the 520 gesture traces, fit a random forest and
    KNN on the train split, label the test split, and segment a 600 s
    gesture-free trace."""

    name = "gesture-batch"

    def setup(self, seed: int) -> dict:
        corpora = sim.make_corpora(seed)
        return {"gesture_train": corpora["gesture_train"],
                "gesture_test": corpora["gesture_test"],
                "idle": _empty_scene(_aux_seeds(seed)[1], 600.0)}

    def warm(self, inputs: dict) -> None:
        _featurize(inputs["gesture_train"][0])

    def round(self, inputs: dict, rec: Recorder, seed: int) -> dict:
        with rec.phase("prepare"):
            train = [rec.op(_featurize, t) for t in inputs["gesture_train"]]
            data = [(r[1], t.ground_truth.label)
                    for t, r in zip(inputs["gesture_train"], train) if r]
            forest = rec.op(gesture.train, data, "random_forest", seed=0)
            knn = rec.op(gesture.train, data, "knn", seed=0)
        with rec.phase("run"):
            test = [rec.op(_label, t, forest, trace_s=t.duration_s)
                    for t in inputs["gesture_test"]]
            idle = inputs["idle"]
            idle_segments = rec.op(gesture.segment, idle, SEG_CFG, trace_s=idle.duration_s)
            test_data = [(r[1], t.ground_truth.label)
                         for t, r in zip(inputs["gesture_test"], test) if r]
            forest_eval = rec.op(gesture.evaluate, forest, test_data)
            knn_eval = rec.op(gesture.evaluate, knn, test_data)
        return {"train_segments": [r and r[0] for r in train],
                "test_segments": [r and r[0] for r in test],
                "test_labels": [r and r[2] for r in test],
                "idle_segments": idle_segments,
                "forest_eval": forest_eval, "knn_eval": knn_eval}

    def check(self, inputs, out, seed):
        return checks.check_gesture(inputs, out)


def calibration_split(crossing: list) -> tuple[list, list]:
    """48 calibration traces, one per speed and position with the angle
    cycling, so every speed, position and angle is among them; the other
    192 are held out."""
    n = len(sim.CROSSING_ANGLES)
    calibration = [i % n == (i // n) % n for i in range(len(crossing))]
    return ([t for t, c in zip(crossing, calibration) if c],
            [t for t, c in zip(crossing, calibration) if not c])


class SpeedFiles(Workload):
    """Crossing traces recorded to disk and run through the command line:
    write the 48 calibration traces, `rfsense speed calibrate` on them with
    a crossing threshold calibrated on an empty scene; then, for each of the
    192 held-out traces, write it and `rfsense speed estimate` on it."""

    name = "speed-files"

    @property
    def dir(self) -> Path:
        return self.work_dir / "speed"

    def setup(self, seed: int) -> dict:
        calibration, held_out = calibration_split(sim.make_corpora(seed)["crossing"])
        return {"calibration": calibration, "held_out": held_out,
                "empty": _empty_scene(_aux_seeds(seed)[2], 30.0)}

    def warm(self, inputs: dict) -> None:
        speed.crossing_frequency(inputs["calibration"][0], SPEED_BASE)

    def _record_and_estimate(self, trace, config: Path) -> int:
        """Write one held-out trace, then estimate its speed from the file."""
        trace_id = trace.metadata.extras["trace_id"]
        path = self.dir / "held_out" / f"{trace_id}.csv"
        rftrace.save_trace(trace, path)
        return cli.main(["speed", "estimate", str(path), "--config", str(config),
                         "--alpha-file", str(self.dir / "calibrated" / "alpha.txt"),
                         "-o", str(self.dir / "estimates" / trace_id)])

    def round(self, inputs: dict, rec: Recorder, seed: int) -> dict:
        shutil.rmtree(self.dir, ignore_errors=True)
        for sub in ("calibration", "held_out", "estimates"):
            (self.dir / sub).mkdir(parents=True)
        config = self.dir / "config.json"
        calibrate = ["speed", "calibrate", str(self.dir / "calibration"),
                     "--config", str(config), "-o", str(self.dir / "calibrated")]
        with rec.phase("prepare"):
            threshold = rec.op(speed.calibrate_crossing_threshold, inputs["empty"],
                               SPEED_BASE)
            config.write_text(json.dumps({"speed": {
                **cli.CORPUS_SPEED, "crossing_threshold_hz": threshold}}) + "\n")
            for t in inputs["calibration"]:
                rec.op(rftrace.save_trace, t,
                       self.dir / "calibration" / f"{t.metadata.extras['trace_id']}.csv",
                       ok=_always)
            rc_cal = rec.op(cli.main, calibrate, ok=_exit_ok)
        with rec.phase("run"):
            rc_est = [rec.op(self._record_and_estimate, t, config, ok=_exit_ok,
                             trace_s=t.duration_s)
                      for t in inputs["held_out"]]
        return {"dir": self.dir, "threshold": threshold,
                "exit_codes": {"speed calibrate": rc_cal, "speed estimate": rc_est}}

    def check(self, inputs, out, seed):
        return checks.check_speed_files(inputs, out, seed)


WORKLOADS = {c.name: c for c in (VitalsStream, GestureBatch, SpeedFiles)}
