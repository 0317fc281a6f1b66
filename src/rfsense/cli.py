"""Command-line front end tying the pieces together.

Subcommands: simulate (vitals|crossing|gesture|corpora), heartrate,
gesture (train|classify|eval), speed (calibrate|estimate), version.
Every run writes its outputs plus a manifest.json snapshotting command,
seed, and effective configuration; nothing written carries a timestamp,
so a rerun with the same arguments produces byte-identical files.

Configuration comes from module defaults, optionally overridden by a JSON
config file (sections: heart, segmentation, speed, vitals, noise, link,
body), then by explicit flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__, gesture, heart, speed
from .dsp import HampelConfig
from .gesture import GESTURE_LABELS, SegmentationConfig
from .heart import HeartRateConfig
from .sim import (
    DEFAULT_TEMPLATES,
    BodyModel,
    LinkGeometry,
    NoiseModel,
    VitalSignsProfile,
    WalkPath,
    make_corpora,
    simulate_crossing,
    simulate_gesture,
    simulate_vitals,
)
from .speed import SpeedConfig
from .trace import load_trace, save_trace

# segmentation/speed settings sized for the bundled simulation corpora:
# gesture traces are ~16 s, so the variance history must fit inside them;
# the speed window has to cover the slowest transit in the speed grid.
CORPUS_SEGMENTATION = {"long_window": 4490}
CORPUS_SPEED = {"window_s": 5.5, "smoothing_window": 5, "search_interval_s": 12.0}


class UsageError(Exception):
    """Bad flags or config; reported as exit status 2."""


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise UsageError(f"config file {path} is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return cfg


def _dataclass_from(section: dict, cls, what: str, **prebuilt):
    merged = dict(section)
    merged.update(prebuilt)
    if "hampel" in merged and isinstance(merged["hampel"], dict):
        merged["hampel"] = HampelConfig(**merged["hampel"])
    try:
        return cls(**merged)
    except (TypeError, ValueError) as e:
        raise UsageError(f"bad {what} config: {e}")


def _heart_config(config: dict) -> HeartRateConfig:
    return _dataclass_from(config.get("heart", {}), HeartRateConfig, "heart")


def _segmentation_config(config: dict) -> SegmentationConfig:
    return _dataclass_from(config.get("segmentation", {}), SegmentationConfig,
                           "segmentation")


def _speed_config(config: dict) -> SpeedConfig:
    return _dataclass_from(config.get("speed", {}), SpeedConfig, "speed")


def _noise_model(config: dict, seed: int) -> NoiseModel:
    section = dict(config.get("noise", {}))
    section["seed"] = seed
    return _dataclass_from(section, NoiseModel, "noise")


def _link_geometry(config: dict) -> LinkGeometry:
    section = dict(config.get("link", {}))
    for key in ("tx", "rx"):
        if key in section:
            section[key] = tuple(section[key])
    return _dataclass_from(section, LinkGeometry, "link")


def _body_model(config: dict) -> BodyModel:
    return _dataclass_from(config.get("body", {}), BodyModel, "body")


def _out_dir(args) -> Path:
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, command: str, seed: int, config_used: dict,
                    inputs: list, outputs: list) -> Path:
    payload = {
        "command": command,
        "config": config_used,
        "inputs": [str(p) for p in inputs],
        "outputs": sorted(str(Path(p).relative_to(out)) for p in outputs),
        "seed": seed,
        "version": __version__,
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _write_rows(path: Path, header: list[str], rows: list[list]) -> None:
    """Write one CSV table: LF line ends, floats by repr, None as ""."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(v) if isinstance(v, float) else v for v in row]
                         for row in rows)


def _collect_traces(paths: list[str]) -> list[Path]:
    """Expand directories into their CSV files; keep explicit files as-is."""
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            found = sorted(q for q in p.iterdir() if q.suffix == ".csv"
                           and q.name != "manifest.csv")
            if not found:
                raise UsageError(f"no trace CSVs inside directory {p}")
            files.extend(found)
        elif p.exists():
            files.append(p)
        else:
            raise UsageError(f"no such trace file or directory: {p}")
    return files


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _cmd_simulate(args, config: dict) -> int:
    out = _out_dir(args)
    outputs: list[Path] = []

    if args.kind == "vitals":
        section = dict(config.get("vitals", {}))
        if args.hr is not None:
            section["heart_rate_bpm"] = args.hr
        profile = _dataclass_from(section, VitalSignsProfile, "vitals")
        trace = simulate_vitals(profile, _noise_model(config, args.seed),
                                duration_s=args.duration)
        path = out / "vitals.csv"
        save_trace(trace, path)
        outputs.append(path)
        cfg_used = {"vitals": asdict(profile)}

    elif args.kind == "crossing":
        link = _link_geometry(config)
        body = _body_model(config)
        path_def = WalkPath(
            crossing_m=args.position if args.position is not None else link.d / 2,
            angle_deg=args.angle,
            speed_mps=args.speed,
            start_offset_m=-args.speed * args.duration / 2.0,
            duration_s=args.duration,
        )
        trace = simulate_crossing(link, path_def, _noise_model(config, args.seed),
                                  body=body)
        path = out / "crossing.csv"
        save_trace(trace, path)
        outputs.append(path)
        cfg_used = {"link": asdict(link), "body": asdict(body),
                    "path": asdict(path_def)}

    elif args.kind == "gesture":
        if args.label not in DEFAULT_TEMPLATES:
            raise UsageError(f"unknown gesture label {args.label!r}; "
                             f"choose from {', '.join(GESTURE_LABELS)}")
        template = DEFAULT_TEMPLATES[args.label]
        trace = simulate_gesture(template, _noise_model(config, args.seed),
                                 seed=args.seed)
        path = out / "gesture.csv"
        save_trace(trace, path)
        outputs.append(path)
        cfg_used = {"template": asdict(template)}

    else:  # corpora
        outputs, cfg_used = _write_corpora(out, args.seed)

    _write_manifest(out, f"simulate {args.kind}", args.seed, cfg_used,
                    inputs=[], outputs=outputs)
    return 0


def _write_corpora(out: Path, seed: int) -> tuple[list[Path], dict]:
    corpora = make_corpora(seed)
    outputs: list[Path] = []

    for name in ("vitals", "crossing"):
        d = out / name
        d.mkdir(parents=True, exist_ok=True)
        for trace in corpora[name]:
            path = d / f"{trace.metadata.extras['trace_id']}.csv"
            save_trace(trace, path)
            outputs.append(path)

    for name in ("gesture_train", "gesture_test"):
        d = out / name
        d.mkdir(parents=True, exist_ok=True)
        rows = []
        for trace in corpora[name]:
            path = d / f"{trace.metadata.extras['trace_id']}.csv"
            save_trace(trace, path)
            outputs.append(path)
            gt = trace.ground_truth
            rows.append([path.name, gt.label, gt.start_s, gt.end_s])
        manifest = d / "manifest.csv"
        _write_rows(manifest, ["file", "label", "start_s", "end_s"], rows)
        outputs.append(manifest)

    # threshold calibrated against an empty scene with the same noise seed
    quiet = simulate_vitals(
        VitalSignsProfile(breathing_amplitude_db=0.0, pulse_amplitude_db=0.0),
        NoiseModel(seed=seed), duration_s=30.0)
    base = _dataclass_from(CORPUS_SPEED, SpeedConfig, "speed")
    thr = speed.calibrate_crossing_threshold(quiet, base)
    corpus_config = {
        "segmentation": dict(CORPUS_SEGMENTATION),
        "speed": {**CORPUS_SPEED, "crossing_threshold_hz": thr},
    }
    cfg_path = out / "corpus_config.json"
    cfg_path.write_text(json.dumps(corpus_config, indent=2, sort_keys=True) + "\n")
    outputs.append(cfg_path)
    return outputs, corpus_config


# ---------------------------------------------------------------------------
# heartrate
# ---------------------------------------------------------------------------


def _cmd_heartrate(args, config: dict) -> int:
    cfg = _heart_config(config)
    if args.window is not None:
        try:
            cfg = replace(cfg, window_s=args.window)
        except ValueError as e:
            raise UsageError(f"bad --window: {e}")
    trace = load_trace(args.trace)
    cfg = replace(cfg, sample_rate_hz=trace.metadata.sample_rate_hz)
    estimates = heart.stream_heart_rate(trace, cfg)

    out = _out_dir(args)
    est_path = out / "estimates.csv"
    _write_rows(est_path, ["t_s", "bpm", "status", "peak_power"],
                [[e.time_s, e.bpm, e.status, e.peak_power] for e in estimates])
    outputs = [est_path]

    usable = [e for e in estimates if e.status == heart.STATUS_ESTIMATE]
    summary = [
        ["n_updates", len(estimates)],
        ["n_estimates", len(usable)],
        ["n_suppressed", sum(e.status == heart.STATUS_SUPPRESSED for e in estimates)],
        ["n_insufficient", sum(e.status == heart.STATUS_INSUFFICIENT for e in estimates)],
    ]
    if trace.ground_truth.hr_bpm is not None and usable:
        t = np.array([e.time_s for e in usable])
        est = np.array([e.bpm for e in usable])
        ref = np.interp(t, trace.timestamps, trace.ground_truth.hr_bpm)
        summary.append(["rmse_bpm", float(np.sqrt(np.mean((est - ref) ** 2)))])
    sum_path = out / "summary.csv"
    _write_rows(sum_path, ["metric", "value"], summary)
    outputs.append(sum_path)

    _write_manifest(out, "heartrate", args.seed, {"heart": asdict(cfg)},
                    inputs=[args.trace], outputs=outputs)
    return 0


# ---------------------------------------------------------------------------
# gesture
# ---------------------------------------------------------------------------


def _read_gesture_manifest(corpus_dir: Path) -> list[tuple[Path, str]]:
    manifest = corpus_dir / "manifest.csv"
    if not manifest.exists():
        raise UsageError(f"{corpus_dir} has no manifest.csv")
    with open(manifest, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows or rows[0][:2] != ["file", "label"]:
        raise UsageError(f"{manifest} must start with a file,label header")
    entries = []
    for row in rows[1:]:
        label = row[1] if len(row) > 1 else ""
        if label not in GESTURE_LABELS:
            raise UsageError(f"{manifest}: unknown label {label!r}")
        entries.append((corpus_dir / row[0], label))
    if not entries:
        raise UsageError(f"{manifest} lists no traces")
    return entries


def _dominant_feature(trace, seg_cfg: SegmentationConfig):
    """Features of the longest detected segment, or None when silent."""
    segments = gesture.segment(trace, seg_cfg)
    if not segments:
        return None
    best = max(segments, key=lambda s: s.duration_s)
    return gesture.extract_features(best, trace.metadata.sample_rate_hz)


def _cmd_gesture(args, config: dict) -> int:
    seg_cfg = _segmentation_config(config)
    out = _out_dir(args)

    if args.action == "train":
        entries = _read_gesture_manifest(Path(args.corpus))
        data, skipped = [], 0
        for path, label in entries:
            fv = _dominant_feature(load_trace(path), seg_cfg)
            if fv is None:
                skipped += 1
                continue
            data.append((fv, label))
        if skipped:
            print(f"warning: no activity detected in {skipped} training "
                  f"trace(s); trained on {len(data)}", file=sys.stderr)
        model = gesture.train(data, kind=args.kind, seed=args.seed)
        model_path = out / "model.json"
        gesture.save_model(model, model_path)
        _write_manifest(out, "gesture train", args.seed,
                        {"segmentation": asdict(seg_cfg), "kind": args.kind},
                        inputs=[args.corpus], outputs=[model_path])
        return 0

    model = gesture.load_model(args.model)

    if args.action == "classify":
        fv = _dominant_feature(load_trace(args.trace), seg_cfg)
        if fv is None:
            print("no gesture detected")
            label = None
        else:
            label = gesture.classify(model, fv)
            print(label)
        pred_path = out / "prediction.csv"
        _write_rows(pred_path, ["file", "predicted"],
                    [[Path(args.trace).name, label or "(none)"]])
        _write_manifest(out, "gesture classify", args.seed,
                        {"segmentation": asdict(seg_cfg)},
                        inputs=[args.trace, args.model], outputs=[pred_path])
        return 0

    # eval
    entries = _read_gesture_manifest(Path(args.corpus))
    rows, data = [], []
    for path, label in entries:
        fv = _dominant_feature(load_trace(path), seg_cfg)
        if fv is None:
            rows.append([path.name, label, "(none)"])
            continue
        predicted = gesture.classify(model, fv)
        rows.append([path.name, label, predicted])
        data.append((fv, label))
    if not data:
        raise UsageError("no gestures detected anywhere in the corpus")
    result = gesture.evaluate(model, data)

    pred_path = out / "predictions.csv"
    _write_rows(pred_path, ["file", "actual", "predicted"], rows)
    conf_path = out / "confusion.csv"
    conf_rows = [[GESTURE_LABELS[i]] + [float(x) for x in result.confusion[i]]
                 for i in range(len(GESTURE_LABELS))]
    _write_rows(conf_path, ["predicted\\actual"] + list(GESTURE_LABELS), conf_rows)
    sum_path = out / "summary.csv"
    summary = [["mean_accuracy", result.mean_accuracy],
               ["n_samples", result.n_samples],
               ["n_undetected", len(rows) - len(data)]]
    summary += [[f"accuracy_{label}", acc]
                for label, acc in sorted(result.per_class_accuracy.items())]
    _write_rows(sum_path, ["metric", "value"], summary)
    _write_manifest(out, "gesture eval", args.seed,
                    {"segmentation": asdict(seg_cfg)},
                    inputs=[args.corpus, args.model],
                    outputs=[pred_path, conf_path, sum_path])
    return 0


# ---------------------------------------------------------------------------
# speed
# ---------------------------------------------------------------------------


def _cmd_speed(args, config: dict) -> int:
    cfg = _speed_config(config)
    out = _out_dir(args)
    files = _collect_traces(args.traces)

    if args.action == "calibrate":
        points, rows, skipped = [], [], 0
        for path in files:
            trace = load_trace(path)
            truth = trace.ground_truth.speed_mps
            if truth is None:
                skipped += 1
                continue
            event = speed.crossing_frequency(trace, cfg)
            if event is None:
                skipped += 1
                continue
            points.append((event.f_min_av_hz, truth))
            rows.append([path.name, event.f_min_av_hz, truth])
        if len(points) < 2:
            raise UsageError("calibration needs at least two traces with "
                             "ground-truth speed and a detectable crossing")
        if skipped:
            print(f"warning: skipped {skipped} trace(s) without ground truth "
                  f"or crossing", file=sys.stderr)
        alpha, residual = speed.calibrate_alpha(points)
        alpha_path = Path(args.alpha_file) if args.alpha_file else out / "alpha.txt"
        speed.save_alpha(alpha_path, args.link_id, alpha)
        cal_path = out / "calibration.csv"
        _write_rows(cal_path, ["file", "f_min_av_hz", "speed_mps"], rows)
        sum_path = out / "summary.csv"
        _write_rows(sum_path, ["metric", "value"],
                    [["alpha_m", alpha], ["fit_rmse_mps", residual],
                     ["n_points", len(points)]])
        outputs = [cal_path, sum_path]
        if alpha_path.resolve().is_relative_to(out.resolve()):
            outputs.append(alpha_path)
        _write_manifest(out, "speed calibrate", args.seed,
                        {"speed": asdict(cfg), "link_id": args.link_id},
                        inputs=[str(p) for p in files], outputs=outputs)
        return 0

    # estimate
    if not args.alpha_file:
        raise UsageError("speed estimate needs --alpha-file; "
                         "run `rfsense speed calibrate` first")
    try:
        alpha = speed.load_alpha(args.alpha_file, args.link_id)
    except FileNotFoundError:
        raise UsageError(f"alpha file {args.alpha_file} not found; "
                         "run `rfsense speed calibrate` first")
    except KeyError:
        raise UsageError(f"link {args.link_id!r} is not calibrated in "
                         f"{args.alpha_file}; run `rfsense speed calibrate`")
    cfg = replace(cfg, alpha_m=alpha)

    rows, errors = [], []
    for path in files:
        trace = load_trace(path)
        event = speed.estimate_speed(trace, cfg)
        truth = trace.ground_truth.speed_mps
        if event is None:
            rows.append([path.name, "no_crossing", None, None, None, truth])
        else:
            rows.append([path.name, "ok", event.t_cross_s, event.f_min_av_hz,
                         event.v_hat_mps, truth])
            if truth is not None:
                errors.append(event.v_hat_mps - truth)
    ev_path = out / "events.csv"
    _write_rows(ev_path,
                ["file", "status", "t_cross_s", "f_min_av_hz", "v_hat_mps",
                 "gt_speed_mps"], rows)
    summary = [["alpha_m", alpha], ["n_traces", len(files)],
               ["n_crossings", sum(r[1] == "ok" for r in rows)]]
    if errors:
        summary.append(["rmse_mps", float(np.sqrt(np.mean(np.square(errors))))])
    sum_path = out / "summary.csv"
    _write_rows(sum_path, ["metric", "value"], summary)
    _write_manifest(out, "speed estimate", args.seed,
                    {"speed": asdict(cfg), "link_id": args.link_id},
                    inputs=[str(p) for p in files], outputs=[ev_path, sum_path])
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for anything stochastic (default 0)")
    common.add_argument("--config", default=None,
                        help="JSON config file overriding module defaults")
    common.add_argument("--output", "-o", default=".",
                        help="output directory (default current)")

    parser = argparse.ArgumentParser(
        prog="rfsense",
        description="Narrowband RSS sensing: simulation, heart rate, "
                    "gestures, walking speed.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", parents=[common],
                         help="generate traces or full corpora")
    sim.add_argument("kind", choices=("vitals", "crossing", "gesture", "corpora"))
    sim.add_argument("--hr", type=float, default=None,
                     help="vitals: constant heart rate in bpm")
    sim.add_argument("--duration", type=float, default=None,
                     help="trace duration in seconds")
    sim.add_argument("--speed", type=float, default=1.0,
                     help="crossing: walking speed in m/s")
    sim.add_argument("--angle", type=float, default=90.0,
                     help="crossing: path angle in degrees")
    sim.add_argument("--position", type=float, default=None,
                     help="crossing: link-crossing position in m (default mid-link)")
    sim.add_argument("--label", default="punch",
                     help="gesture: template label")
    sim.set_defaults(func=_cmd_simulate)

    hr = sub.add_parser("heartrate", parents=[common],
                        help="streaming heart-rate estimates for one trace")
    hr.add_argument("trace", help="input trace CSV")
    hr.add_argument("--window", type=float, default=None,
                    help="analysis window in seconds")
    hr.set_defaults(func=_cmd_heartrate)

    ges = sub.add_parser("gesture", parents=[common],
                         help="gesture model training and evaluation")
    ges.add_argument("action", choices=("train", "classify", "eval"))
    ges.add_argument("corpus", nargs="?", default=None,
                     help="corpus directory with manifest.csv (train/eval)")
    ges.add_argument("--trace", default=None, help="trace CSV (classify)")
    ges.add_argument("--model", default=None,
                     help="model file (classify/eval input)")
    ges.add_argument("--kind", default="random_forest",
                     choices=("random_forest", "knn", "linear_svm"))
    ges.set_defaults(func=_cmd_gesture)

    spd = sub.add_parser("speed", parents=[common],
                         help="walking-speed calibration and estimation")
    spd.add_argument("action", choices=("calibrate", "estimate"))
    spd.add_argument("traces", nargs="+",
                     help="trace CSVs or directories of them")
    spd.add_argument("--link-id", default="default",
                     help="calibration key for this link")
    spd.add_argument("--alpha-file", default=None,
                     help="alpha sidecar path (default <output>/alpha.txt)")
    spd.set_defaults(func=_cmd_speed)

    ver = sub.add_parser("version", help="print version and exit")
    ver.set_defaults(func=None)

    return parser


def _validate_args(args) -> None:
    if args.command == "simulate" and args.duration is None:
        args.duration = {"vitals": 300.0, "crossing": 20.0}.get(args.kind)
    if args.command == "gesture":
        if args.action in ("train", "eval") and not args.corpus:
            raise UsageError(f"gesture {args.action} needs a corpus directory")
        if args.action == "classify" and not args.trace:
            raise UsageError("gesture classify needs --trace")
        if args.action in ("classify", "eval") and not args.model:
            raise UsageError(f"gesture {args.action} needs --model")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "version":
        print(__version__)
        return 0
    try:
        _validate_args(args)
        config = _load_config(args.config)
        return args.func(args, config)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
