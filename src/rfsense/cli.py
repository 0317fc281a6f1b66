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
import math
import sys
import typing
from dataclasses import asdict, is_dataclass, replace
from pathlib import Path

from . import __version__, gesture, heart, speed
from .evaluate import (
    CORPUS_SEGMENTATION,
    CORPUS_SPEED,
    corpus_speed_config,
    hr_errors,
    rmse,
    write_rows,
)
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


def _section(config: dict, name: str, cls, **flags):
    """Config dataclass `cls` from config section `name`, then `flags`."""
    return _dataclass_from(config.get(name, {}), cls, name, **flags)


def _dataclass_from(section, cls, what: str, **flags):
    """Build config dataclass `cls` from a JSON object.

    Each value is checked against its field's annotation first: an int
    field takes an int that is not a bool, a float field a finite number
    (ints included), a dataclass field such as `hampel` a JSON object built
    the same way, a tuple field a JSON array, and null only where the
    annotation admits None.
    """
    if not isinstance(section, dict):
        raise UsageError(f"bad {what} config: need a JSON object, not {section!r}")
    hints = typing.get_type_hints(cls)
    fields = {name: _field_value(value, hints[name], f"{what}.{name}")
              if name in hints else value
              for name, value in {**section, **flags}.items()}
    try:
        return cls(**fields)
    except (TypeError, ValueError) as e:
        raise UsageError(f"bad {what} config: {e}")


def _field_value(value, kind, what: str):
    options = typing.get_args(kind)
    if type(None) in options:
        if value is None:
            return None
        (kind,) = (k for k in options if k is not type(None))
    if is_dataclass(kind):
        return _dataclass_from(value, kind, what)
    if kind is tuple and isinstance(value, list):
        return tuple(value)
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise UsageError(f"bad {what} config: need an integer, not {value!r}")
    if kind is float and (isinstance(value, bool)
                          or not isinstance(value, (int, float))
                          or not math.isfinite(value)):
        raise UsageError(f"bad {what} config: need a finite number, not {value!r}")
    return value


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
    if args.kind == "corpora":
        outputs, cfg_used = _write_corpora(out, args.seed)
        _write_manifest(out, "simulate corpora", args.seed, cfg_used,
                        inputs=[], outputs=outputs)
        return 0

    noise = _section(config, "noise", NoiseModel, seed=args.seed)
    if args.kind == "vitals":
        hr = {} if args.hr is None else {"heart_rate_bpm": args.hr}
        profile = _section(config, "vitals", VitalSignsProfile, **hr)
        trace = simulate_vitals(profile, noise, duration_s=args.duration)
        cfg_used = {"vitals": asdict(profile)}

    elif args.kind == "crossing":
        link = _section(config, "link", LinkGeometry)
        body = _section(config, "body", BodyModel)
        path_def = WalkPath(
            crossing_m=args.position if args.position is not None else link.d / 2,
            angle_deg=args.angle,
            speed_mps=args.speed,
            start_offset_m=-args.speed * args.duration / 2.0,
            duration_s=args.duration,
        )
        trace = simulate_crossing(link, path_def, noise, body=body)
        cfg_used = {"link": asdict(link), "body": asdict(body),
                    "path": asdict(path_def)}

    else:  # gesture
        if args.label not in DEFAULT_TEMPLATES:
            raise UsageError(f"unknown gesture label {args.label!r}; "
                             f"choose from {', '.join(GESTURE_LABELS)}")
        template = DEFAULT_TEMPLATES[args.label]
        trace = simulate_gesture(template, noise, seed=args.seed)
        cfg_used = {"template": asdict(template)}

    path = out / f"{args.kind}.csv"
    save_trace(trace, path)
    _write_manifest(out, f"simulate {args.kind}", args.seed, cfg_used,
                    inputs=[], outputs=[path])
    return 0


def _write_corpora(out: Path, seed: int) -> tuple[list[Path], dict]:
    corpora = make_corpora(seed)
    outputs: list[Path] = []

    for name in ("vitals", "crossing", "gesture_train", "gesture_test"):
        d = out / name
        d.mkdir(parents=True, exist_ok=True)
        rows = []
        for trace in corpora[name]:
            path = d / f"{trace.metadata.extras['trace_id']}.csv"
            save_trace(trace, path)
            outputs.append(path)
            gt = trace.ground_truth
            rows.append([path.name, gt.label, gt.start_s, gt.end_s])
        if name.startswith("gesture"):
            manifest = d / "manifest.csv"
            write_rows(manifest, ["file", "label", "start_s", "end_s"], rows)
            outputs.append(manifest)

    # threshold calibrated against an empty scene with the same noise seed
    thr = corpus_speed_config(seed).crossing_threshold_hz
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
    window = {} if args.window is None else {"window_s": args.window}
    cfg = _section(config, "heart", HeartRateConfig, **window)
    trace = load_trace(args.trace)
    cfg = replace(cfg, sample_rate_hz=trace.metadata.sample_rate_hz)
    estimates = heart.stream_heart_rate(trace, cfg)

    out = _out_dir(args)
    est_path = out / "estimates.csv"
    write_rows(est_path, ["t_s", "bpm", "status", "peak_power"],
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
        summary.append(["rmse_bpm", rmse(hr_errors(trace, estimates))])
    sum_path = out / "summary.csv"
    write_rows(sum_path, ["metric", "value"], summary)
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
    seg_cfg = _section(config, "segmentation", SegmentationConfig)
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
        write_rows(pred_path, ["file", "predicted"],
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
    write_rows(pred_path, ["file", "actual", "predicted"], rows)
    conf_path = out / "confusion.csv"
    conf_rows = [[GESTURE_LABELS[i]] + [float(x) for x in result.confusion[i]]
                 for i in range(len(GESTURE_LABELS))]
    write_rows(conf_path, ["predicted\\actual"] + list(GESTURE_LABELS), conf_rows)
    sum_path = out / "summary.csv"
    summary = [["mean_accuracy", result.mean_accuracy],
               ["n_samples", result.n_samples],
               ["n_undetected", len(rows) - len(data)]]
    summary += [[f"accuracy_{label}", acc]
                for label, acc in sorted(result.per_class_accuracy.items())]
    write_rows(sum_path, ["metric", "value"], summary)
    _write_manifest(out, "gesture eval", args.seed,
                    {"segmentation": asdict(seg_cfg)},
                    inputs=[args.corpus, args.model],
                    outputs=[pred_path, conf_path, sum_path])
    return 0


# ---------------------------------------------------------------------------
# speed
# ---------------------------------------------------------------------------


def _cmd_speed(args, config: dict) -> int:
    cfg = _section(config, "speed", SpeedConfig)
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
        write_rows(cal_path, ["file", "f_min_av_hz", "speed_mps"], rows)
        sum_path = out / "summary.csv"
        write_rows(sum_path, ["metric", "value"],
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
    write_rows(ev_path,
               ["file", "status", "t_cross_s", "f_min_av_hz", "v_hat_mps",
                "gt_speed_mps"], rows)
    summary = [["alpha_m", alpha], ["n_traces", len(files)],
               ["n_crossings", sum(r[1] == "ok" for r in rows)]]
    if errors:
        summary.append(["rmse_mps", rmse(errors)])
    sum_path = out / "summary.csv"
    write_rows(sum_path, ["metric", "value"], summary)
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
