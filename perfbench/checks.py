"""Output checks for the benchmark workloads.

Each `check_*` function takes a workload's inputs and the outputs of one
round and returns a list of problems (empty when the outputs are correct)
and a dict of accuracy figures for the run record. Outputs are judged
against the simulator's ground truth, against a computation made here apart
from the program, or against a property the method must have, never against
stored output.

Accuracy is gated on statistics that hold on every seed: the 90th
percentile of the heart-rate error and the median speed error. The RMSE
bounds of the acceptance tests (2.0 bpm, 0.10 m/s) hold at seed 0 but not
on every seed, because a few windows lock onto a noise peak; their RMSEs are
reported as figures instead.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy.signal import butter, sosfilt

from rfsense.dsp import MAD_SCALE
from rfsense.gesture import GESTURE_LABELS
from rfsense.heart import (STATUS_ESTIMATE, STATUS_INSUFFICIENT, estimate_window,
                           estimate_window_single_harmonic)
from rfsense.speed import (CrossingEvent, SpeedConfig, calibrate_alpha, crossing_frequency,
                           estimate_speed, load_alpha)
from rfsense.trace import load_trace

# windows per (configuration, trace) recomputed apart from the program
WINDOWS_PER_STREAM = 1
LOADED_BACK_SAMPLE = 8
# written calibration points and speed estimates recomputed from the
# in-memory traces
RECOMPUTED_SPEED_POINTS = 16


# ---------------------------------------------------------------------------
# vitals-stream
# ---------------------------------------------------------------------------


def plain_hampel(x: np.ndarray, half_window: int, n_sigmas: float) -> np.ndarray:
    """Hampel filter from np.median: full windows row by row of a sliding
    view, the shrunken edge windows one sample at a time."""
    k = half_window
    full = np.lib.stride_tricks.sliding_window_view(x, 2 * k + 1)
    med = np.full(len(x), np.nan)
    mad = np.full(len(x), np.nan)
    med[k:len(x) - k] = np.median(full, axis=1)
    mad[k:len(x) - k] = np.median(np.abs(full - med[k:len(x) - k, None]), axis=1)
    for i in (*range(k), *range(len(x) - k, len(x))):
        w = x[max(0, i - k): i + k + 1]
        med[i] = np.median(w)
        mad[i] = np.median(np.abs(w - med[i]))
    return np.where(np.abs(x - med) > n_sigmas * MAD_SCALE * mad, med, x)


def independent_bin(window: np.ndarray, cfg, second_harmonic: bool) -> int:
    """FFT bin of the pulse: Hampel, scipy Butterworth, Hann-windowed rfft."""
    fs, nfft = cfg.sample_rate_hz, cfg.nfft
    x = plain_hampel(window, cfg.hampel.half_window, cfg.hampel.n_sigmas)
    sos = butter(cfg.bandpass_order // 2, [cfg.bandpass_low_hz, cfg.bandpass_high_hz],
                 btype="bandpass", fs=fs, output="sos")
    y = sosfilt(sos, x - x.mean())
    n = len(y)
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / (n - 1))
    power = np.abs(np.fft.rfft((y - y.mean()) * hann, nfft)) ** 2
    k = np.arange(len(power))
    band = k[(k * fs / nfft >= cfg.f_min_hz) & (k * fs / nfft <= cfg.f_max_hz)]
    score = power[band] + (power[2 * band] if second_harmonic else 0.0)
    return int(band[np.argmax(score)])


def stream_bin(bpm: float, cfg) -> int:
    return int(round(bpm / 60.0 * cfg.nfft / cfg.sample_rate_hz))


def sampled_windows(seed: int, streams: dict) -> list[tuple]:
    """Seeded (configuration key, trace index, update index) triples."""
    rng = np.random.default_rng([seed, 11])
    picks = []
    for key in sorted(streams, key=str):
        cfg, estimates_per_trace = streams[key]
        for ti, estimates in enumerate(estimates_per_trace):
            full = [j for j, e in enumerate(estimates)
                    if int(round(e.time_s * cfg.sample_rate_hz)) >= cfg.window_samples]
            for j in rng.choice(full, size=WINDOWS_PER_STREAM, replace=False):
                picks.append((key, ti, int(j)))
    return picks


def _hr_errors(traces, estimates_per_trace) -> np.ndarray:
    """Absolute bpm error of every estimate against the simulator's rate."""
    errors = []
    for trace, estimates in zip(traces, estimates_per_trace):
        usable = [e for e in estimates if e.status == STATUS_ESTIMATE]
        truth = np.interp([e.time_s for e in usable], trace.timestamps,
                          trace.ground_truth.hr_bpm)
        errors.extend(np.abs(np.array([e.bpm for e in usable]) - truth))
    return np.array(errors)


def check_vitals(inputs: dict, out: dict, seed: int) -> tuple[list[str], dict]:
    """`out["streams"]` maps (window_s, second_harmonic) to (config, one
    estimate list per trace)."""
    traces = inputs["vitals"]
    problems = []
    for key, (cfg, per_trace) in out["streams"].items():
        if len(per_trace) != len(traces) or any(e is None for e in per_trace):
            problems.append(f"{key}: missing stream output")
            return problems, {}
        for trace, estimates in zip(traces, per_trace):
            for e in estimates:
                end = int(round(e.time_s * cfg.sample_rate_hz))
                want = STATUS_INSUFFICIENT if end < cfg.window_samples else STATUS_ESTIMATE
                if e.status != want:
                    problems.append(f"{key}: update at {e.time_s} s is {e.status}, "
                                    f"expected {want}")
                    break
    errors = {key: _hr_errors(traces, per_trace)
              for key, (_, per_trace) in out["streams"].items()}
    p90 = {key: float(np.percentile(e, 90)) for key, e in errors.items()}
    figures = {f"hr_{int(w)}s{'' if h else '_single'}": {
        "rmse_bpm": float(np.sqrt(np.mean(e ** 2))), "p90_abs_error_bpm": p90[(w, h)]}
        for (w, h), e in errors.items()}
    h20, s20 = p90[(20.0, True)], p90[(20.0, False)]
    if not h20 <= 2.0:
        problems.append(f"20 s 90th-percentile error {h20:.3f} bpm > 2.0")
    if not (h20 < p90[(10.0, True)] and h20 < p90[(40.0, True)]):
        problems.append(f"20 s 90th-percentile error {h20:.3f} is not below 10 s "
                        f"{p90[(10.0, True)]:.3f} and 40 s {p90[(40.0, True)]:.3f}")
    if not h20 <= s20:
        problems.append(f"harmonic sum 90th-percentile error {h20:.3f} worse than "
                        f"single harmonic {s20:.3f}")

    for key, ti, j in sampled_windows(seed, out["streams"]):
        cfg, per_trace = out["streams"][key]
        got = per_trace[ti][j]
        end = int(round(got.time_s * cfg.sample_rate_hz))
        window = traces[ti].rss_db[end - cfg.window_samples: end]
        isolated = (estimate_window if key[1] else estimate_window_single_harmonic)(
            window, cfg, got.time_s)
        if isolated != got:
            problems.append(f"{key} trace {ti} update {j}: stream {got} != "
                            f"isolated window {isolated}")
        want = independent_bin(window, cfg, key[1])
        if got.bpm is None or stream_bin(got.bpm, cfg) != want:
            problems.append(f"{key} trace {ti} update {j}: bpm {got.bpm} is not "
                            f"bin {want} of the independent recomputation")
    return problems, figures


# ---------------------------------------------------------------------------
# gesture-batch
# ---------------------------------------------------------------------------


def _best_iou(segments, start_s: float, end_s: float) -> float:
    best = 0.0
    for s in segments:
        inter = min(s.end_s, end_s) - max(s.start_s, start_s)
        union = max(s.end_s, end_s) - min(s.start_s, start_s)
        best = max(best, max(0.0, inter) / union)
    return best


def check_gesture(inputs: dict, out: dict) -> tuple[list[str], dict]:
    """`out` holds per-trace segments for the train and test splits, the
    forest's per-trace test labels, the idle trace's segments and the
    program's evaluation of both models on the test split."""
    problems = []
    traces = inputs["gesture_train"] + inputs["gesture_test"]
    segments = out["train_segments"] + out["test_segments"]
    hits = sum(_best_iou(segs or [], t.ground_truth.start_s, t.ground_truth.end_s) >= 0.5
               for t, segs in zip(traces, segments))
    if hits < 0.95 * len(traces):
        problems.append(f"{hits}/{len(traces)} gestures segmented at IoU >= 0.5 (< 95%)")
    if out["idle_segments"] is None or len(out["idle_segments"]) != 0:
        problems.append(f"idle trace gave segments {out['idle_segments']}")

    forest, knn = out["forest_eval"], out["knn_eval"]
    if forest is None or knn is None:
        return problems + ["model evaluation missing"], {}
    if not forest.mean_accuracy >= 0.85:
        problems.append(f"forest macro accuracy {forest.mean_accuracy:.3f} < 0.85")
    if not forest.mean_accuracy >= knn.mean_accuracy:
        problems.append(f"forest {forest.mean_accuracy:.3f} below knn "
                        f"{knn.mean_accuracy:.3f}")
    for name, res in (("forest", forest), ("knn", knn)):
        err = float(np.max(np.abs(res.confusion.sum(axis=0) - 1.0)))
        if not err <= 1e-9:
            problems.append(f"{name} confusion columns sum to 1 +/- {err:.2e}")

    # the forest's confusion, rebuilt from the labels it gave trace by trace
    c = len(GESTURE_LABELS)
    counts = np.zeros((c, c))
    for trace, label in zip(inputs["gesture_test"], out["test_labels"]):
        if label is not None:
            counts[GESTURE_LABELS.index(label),
                   GESTURE_LABELS.index(trace.ground_truth.label)] += 1.0
    totals = counts.sum(axis=0)
    confusion = np.divide(counts, totals, out=np.zeros_like(counts), where=totals > 0)
    if not np.array_equal(confusion, forest.confusion):
        problems.append("per-trace forest labels disagree with the forest's "
                        "confusion matrix")
    return problems, {"segmented_share": hits / len(traces),
                      "forest_accuracy": forest.mean_accuracy,
                      "knn_accuracy": knn.mean_accuracy}


# ---------------------------------------------------------------------------
# speed-files
# ---------------------------------------------------------------------------

def read_columns(path: Path) -> tuple[dict, list[str], np.ndarray]:
    """Header pairs, column names and the numeric body of a written trace,
    read with numpy's own parser rather than the program's loader."""
    with open(path) as fh:
        meta = dict(item.split("=", 1) for item in fh.readline()[2:].rstrip("\n").split(","))
        names = fh.readline().rstrip("\n").split(",")
    body = np.loadtxt(path, delimiter=",", skiprows=2, dtype=np.float64, ndmin=2)
    return meta, names, body


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def trace_mismatch(trace, meta: dict, names: list[str], body: np.ndarray) -> str | None:
    """Why a written trace differs from the in-memory one, or None."""
    gt = trace.ground_truth
    want_meta = {"sample_rate_hz": repr(trace.metadata.sample_rate_hz),
                 "center_freq_hz": repr(trace.metadata.center_freq_hz),
                 **trace.metadata.extras}
    if gt.label is not None:
        want_meta["gt_label"] = gt.label
    if meta != want_meta:
        return f"header {meta} != {want_meta}"
    n = len(trace)
    want = {"t_s": trace.timestamps, "rss_db": trace.rss_db}
    if gt.hr_bpm is not None:
        want["gt_hr_bpm"] = gt.hr_bpm
    for attr in ("speed_mps", "cross_t_s", "start_s", "end_s"):
        if getattr(gt, attr) is not None:
            want[f"gt_{attr}"] = np.full(n, getattr(gt, attr))
    if names != list(want) or body.shape != (n, len(want)):
        return f"columns {names} x {body.shape[0]} rows != {list(want)} x {n}"
    for i, (name, series) in enumerate(want.items()):
        bad = np.flatnonzero(_bits(body[:, i]) != _bits(series))
        if len(bad):
            return f"column {name} differs at {len(bad)} rows, first row {bad[0]}"
    return None


def _same_trace(a, b) -> bool:
    return (a.metadata == b.metadata and a.ground_truth == b.ground_truth
            and np.array_equal(_bits(a.timestamps), _bits(b.timestamps))
            and np.array_equal(_bits(a.rss_db), _bits(b.rss_db)))


def _rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:] if line]


def _judge_speeds(held_out, events, points, fit) -> tuple[list[str], dict]:
    """Calibration fit, v_hat = alpha * f_min and accuracy of the held-out
    estimates against the simulator's speeds."""
    problems = []
    alpha, residual = fit
    f = np.array([p[0] for p in points])
    v = np.array([p[1] for p in points])
    alpha_ls = float(np.dot(f, v) / np.dot(f, f))
    residual_ls = float(np.sqrt(np.mean((v - alpha_ls * f) ** 2)))
    if not (np.isclose(alpha, alpha_ls, rtol=1e-12, atol=0)
            and np.isclose(residual, residual_ls, rtol=1e-9, atol=1e-15)):
        problems.append(f"alpha {alpha!r} / residual {residual!r} differ from the "
                        f"least-squares fit {alpha_ls!r} / {residual_ls!r}")
    scaled = [e for e in events if e.v_hat_mps != alpha * e.f_min_av_hz]
    if scaled:
        problems.append(f"{len(scaled)} events where v_hat != alpha * f_min_av")
    truth = np.array([t.ground_truth.speed_mps for t in held_out])
    v_hat = np.array([e.v_hat_mps for e in events])
    abs_error = np.abs(v_hat - truth)
    median_error = float(np.median(abs_error))
    if not median_error <= 0.10:
        problems.append(f"held-out median speed error {median_error:.4f} m/s > 0.10")
    by_speed = defaultdict(list)
    for true_v, est in zip(truth, v_hat):
        by_speed[true_v].append(est)
    means = [float(np.mean(by_speed[s])) for s in sorted(by_speed)]
    if not all(b > a for a, b in zip(means, means[1:])):
        problems.append(f"mean estimate by true speed not increasing: {means}")
    return problems, {"speed_rmse_mps": float(np.sqrt(np.mean(abs_error ** 2))),
                      "speed_median_abs_error_mps": median_error,
                      "alpha_m": alpha, "fit_rmse_mps": residual}


def check_speed_files(inputs: dict, out: dict, seed: int) -> tuple[list[str], dict]:
    """`out` holds the output directory and the commands' exit codes."""
    codes = out["exit_codes"]
    bad = [i for i, rc in enumerate(codes["speed estimate"]) if rc != 0]
    if codes["speed calibrate"] != 0 or bad:
        return [f"`speed calibrate` exited {codes['speed calibrate']}; `speed "
                f"estimate` exited non-zero for held-out traces {bad}"], {}
    root = Path(out["dir"])
    problems = []
    rng = np.random.default_rng([seed, 13])

    # every written trace, read with numpy's parser, equals the in-memory
    # trace bit for bit; a seeded sample also through the program's loader
    expected = {root / group / f"{t.metadata.extras['trace_id']}.csv": t
                for group in ("calibration", "held_out") for t in inputs[group]}
    written = {p for group in ("calibration", "held_out")
               for p in (root / group).glob("*.csv")}
    if written != set(expected):
        problems.append(f"{len(written)} trace files written, expected {len(expected)}")
    for path, trace in expected.items():
        if path.exists():
            why = trace_mismatch(trace, *read_columns(path))
            if why:
                problems.append(f"{path.relative_to(root)}: {why}")
    paths = sorted(expected)
    for i in rng.choice(len(paths), size=LOADED_BACK_SAMPLE, replace=False):
        if not _same_trace(load_trace(paths[i]), expected[paths[i]]):
            problems.append(f"load_trace({paths[i].relative_to(root)}) differs "
                            "from the in-memory trace")
    if problems:
        return problems, {}

    # calibration: every calibration file in the order the command reads
    # them with its true speed; a seeded sample of f_min_av recomputed in
    # this process from the in-memory traces with the written config; the
    # written alpha equals calibrate_alpha over the written points
    config = json.loads((root / "config.json").read_text())
    cfg = SpeedConfig(**config["speed"])
    if cfg.crossing_threshold_hz != out["threshold"]:
        problems.append(f"written threshold {cfg.crossing_threshold_hz!r} != "
                        f"calibrated {out['threshold']!r}")
    by_file = {f"{t.metadata.extras['trace_id']}.csv": t for t in inputs["calibration"]}
    rows = _rows(root / "calibrated" / "calibration.csv")
    if [r[0] for r in rows] != sorted(by_file):
        return problems + [f"calibration.csv lists {len(rows)} files, "
                           f"expected the {len(by_file)} calibration traces"], {}
    points = [(float(f), float(v)) for _, f, v in rows]
    if any(v != by_file[name].ground_truth.speed_mps
           for (name, _, _), (_, v) in zip(rows, points)):
        problems.append("calibration.csv speeds differ from the simulator's")
    for i in rng.choice(len(rows), size=RECOMPUTED_SPEED_POINTS, replace=False):
        event = crossing_frequency(by_file[rows[i][0]], cfg)
        if event is None or event.f_min_av_hz != points[i][0]:
            problems.append(f"{rows[i][0]}: written f_min_av {points[i][0]!r} != "
                            f"{event and event.f_min_av_hz!r} from the in-memory trace")
    fit = calibrate_alpha(points)
    summary = dict(_rows(root / "calibrated" / "summary.csv"))
    written_fit = (float(summary["alpha_m"]), float(summary["fit_rmse_mps"]))
    alpha = load_alpha(root / "calibrated" / "alpha.txt", "default")
    if written_fit != fit or alpha != fit[0]:
        problems.append(f"written alpha/residual {written_fit}, alpha.txt {alpha!r} "
                        f"!= in-process calibrate_alpha {fit}")

    # estimates: one crossing per held-out file, with its true speed; a
    # seeded sample recomputed in this process from the in-memory traces
    events = []
    for t in inputs["held_out"]:
        trace_id = t.metadata.extras["trace_id"]
        row = _rows(root / "estimates" / trace_id / "events.csv")
        if len(row) != 1 or row[0][:2] != [f"{trace_id}.csv", "ok"]:
            return problems + [f"{trace_id}: events.csv rows {row}, expected one "
                               "crossing"], {}
        _, _, t_cross, f_min, v_hat, truth = row[0]
        if float(truth) != t.ground_truth.speed_mps:
            problems.append(f"{trace_id}: events.csv speed {truth} differs from "
                            "the simulator's")
        events.append(CrossingEvent(float(t_cross), float(f_min), float(v_hat)))
    est_cfg = replace(cfg, alpha_m=alpha)
    for i in rng.choice(len(events), size=RECOMPUTED_SPEED_POINTS, replace=False):
        want = estimate_speed(inputs["held_out"][i], est_cfg)
        if want != events[i]:
            problems.append(f"held-out trace {i}: written {events[i]} != {want} "
                            "from the in-memory trace")
    found, figures = _judge_speeds(inputs["held_out"], events, points, fit)
    return problems + found, figures
