"""Command-line interface: subcommands, config plumbing, reproducibility."""

import contextlib
import csv
import filecmp
import io
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfsense import cli, gesture, heart
from rfsense.sim import (DEFAULT_TEMPLATES, NoiseModel, VitalSignsProfile,
                         simulate_gesture, simulate_vitals)
from rfsense.trace import load_trace, make_trace, save_trace


def run(args):
    return cli.main(args)


@pytest.fixture(scope="module")
def vitals_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("vitals")
    rc = run(["simulate", "vitals", "--hr", "66", "--duration", "40",
              "--seed", "3", "-o", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def link_config(tmp_path_factory):
    """2 m link plus the wide-window speed settings sized for 20 s crossings."""
    path = tmp_path_factory.mktemp("cfg") / "link.json"
    path.write_text(json.dumps({
        "link": {"rx": [0.0, 2.0]},
        "speed": {"window_s": 5.5, "smoothing_window": 5,
                  "search_interval_s": 12.0},
    }))
    return path


@pytest.fixture(scope="module")
def crossing_files(tmp_path_factory, link_config):
    files = []
    for i, v in enumerate(("0.6", "1.0", "1.4")):
        out = tmp_path_factory.mktemp(f"cross{i}")
        rc = run(["simulate", "crossing", "--speed", v, "--seed", str(i + 1),
                  "--config", str(link_config), "-o", str(out)])
        assert rc == 0
        files.append(out / "crossing.csv")
    return files


@pytest.fixture(scope="module")
def calibrated(tmp_path_factory, crossing_files, link_config):
    out = tmp_path_factory.mktemp("cal")
    rc = run(["speed", "calibrate", *map(str, crossing_files),
              "--config", str(link_config), "-o", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def gesture_corpus(tmp_path_factory):
    """Tiny two-label corpus; quality is tested elsewhere, plumbing here."""
    seg_cfg = tmp_path_factory.mktemp("gcfg") / "seg.json"
    seg_cfg.write_text(json.dumps({"segmentation": {"long_window": 4490}}))
    train = tmp_path_factory.mktemp("gtrain")
    test = tmp_path_factory.mktemp("gtest")
    scratch = tmp_path_factory.mktemp("gscratch")
    seed = 0
    for split, count in ((train, 4), (test, 2)):
        rows = ["file,label,start_s,end_s"]
        for label in ("punch", "drag"):
            for k in range(count):
                seed += 1
                rc = run(["simulate", "gesture", "--label", label,
                          "--seed", str(seed), "-o", str(scratch)])
                assert rc == 0
                name = f"{label}_{k}.csv"
                (scratch / "gesture.csv").rename(split / name)
                rows.append(f"{name},{label},,")
        (split / "manifest.csv").write_text("\n".join(rows) + "\n")
    return train, test, seg_cfg


@pytest.fixture
def tiny_corpora(monkeypatch):
    """`simulate corpora` on one vitals and one gesture trace, no crossings."""
    def with_id(trace, trace_id):
        trace.metadata.extras["trace_id"] = trace_id
        return trace

    def make(seed):
        noise = NoiseModel(seed=seed)
        vit = with_id(simulate_vitals(VitalSignsProfile(), noise, 10.0), "vitals_0")
        ges = with_id(
            simulate_gesture(DEFAULT_TEMPLATES["punch"], noise, seed=seed),
            "gesture_punch_00")
        return {"vitals": [vit], "gesture_train": [ges],
                "gesture_test": [ges], "crossing": []}

    monkeypatch.setattr(cli, "make_corpora", make)


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory, gesture_corpus):
    train, _, seg_cfg = gesture_corpus
    out = tmp_path_factory.mktemp("model")
    assert run(["gesture", "train", str(train), "--kind", "knn",
                "--config", str(seg_cfg), "-o", str(out)]) == 0
    return out / "model.json"


class TestVersionAndParsing:
    def test_version_prints_and_exits_zero(self, capsys):
        assert run(["version"]) == 0
        assert capsys.readouterr().out.strip() == cli.__version__

    def test_module_is_runnable(self):
        proc = subprocess.run([sys.executable, "-m", "rfsense.cli", "version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == cli.__version__

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_config_file_must_exist(self, tmp_path):
        rc = run(["simulate", "vitals", "--config", str(tmp_path / "nope.json"),
                  "-o", str(tmp_path)])
        assert rc == 2

    def test_config_file_must_be_json_object(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        rc = run(["simulate", "vitals", "--config", str(bad), "-o", str(tmp_path)])
        assert rc == 2

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"speed": {"window_sec": 3.0}}))
        rc = run(["speed", "estimate", "missing.csv", "--config", str(bad),
                  "-o", str(tmp_path)])
        assert rc == 2


class TestConfigValues:
    """Each config value is checked against its field's type: exit 2 with a
    named error, never a traceback or a silently non-finite setting."""

    def command(self, section, vitals_dir, calibrated, crossing_files, tmp_path):
        if section == "heart":
            return ["heartrate", str(vitals_dir / "vitals.csv"), "-o", str(tmp_path)]
        return ["speed", "estimate", str(crossing_files[1]),
                "--alpha-file", str(calibrated / "alpha.txt"), "-o", str(tmp_path)]

    @pytest.mark.parametrize("section, key, value", [
        ("heart", "hampel", {"half_window": 2.5}),
        ("heart", "hampel", None),
        ("heart", "psd_threshold", float("nan")),
        ("speed", "nfft", 4096.5),
        ("speed", "smoothing_window", 2.5),
        ("speed", "crossing_threshold_hz", float("nan")),
        ("speed", "window_s", True),
        ("speed", "hampel", 3),
        ("speed", "hampel", None),
    ])
    def test_wrong_value_type_exits_2_naming_the_field(
            self, section, key, value, vitals_dir, calibrated, crossing_files,
            tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        args = self.command(section, vitals_dir, calibrated, crossing_files,
                            tmp_path / "out")
        assert run(args + ["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad {section}.{key}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [0, 1, -4096])
    def test_speed_nfft_below_2_exits_2(self, value, vitals_dir, calibrated,
                                        crossing_files, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"speed": {"nfft": value}}))
        args = self.command("speed", vitals_dir, calibrated, crossing_files,
                            tmp_path / "out")
        assert run(args + ["--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: bad speed config: nfft must be an integer >= 2, not {value}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rx, what", [
        ({"0": 1.0}, "bad link.rx config: need a JSON array, not {'0': 1.0}"),
        ([1.0], "bad link config: tx and rx must be (x, y) points"),
    ])
    def test_link_point_that_is_not_a_pair_exits_2(self, rx, what, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"link": {"rx": rx}}))
        rc = run(["simulate", "crossing", "--config", str(cfg),
                  "-o", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {what}") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, what", [
        ("window_s", 10 ** 400, "bad heart.window_s config: need a finite number"),
        ("window_s", 1e308, "bad heart config: window_s * sample_rate_hz is inf"),
        ("nfft_target_resolution_bpm", 1e-320,
         "bad heart config: 60 * sample_rate_hz / nfft_target_resolution_bpm is inf"),
    ])
    def test_value_past_a_sample_count_exits_2(self, key, value, what, vitals_dir,
                                               tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"heart": {key: value}}))
        rc = run(["heartrate", str(vitals_dir / "vitals.csv"), "--config", str(cfg),
                  "-o", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {what}") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("data", [b'{"heart": {"window_s": 1' + b"0" * 5000 + b"}}",
                                      b'{"heart": {"window_s": 2\xff}}'])
    def test_unparseable_config_exits_2(self, data, vitals_dir, tmp_path, capsys):
        """Past 4,300 digits json.load refuses an integer with a plain
        ValueError, and bad UTF-8 raises UnicodeDecodeError."""
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(data)
        rc = run(["heartrate", str(vitals_dir / "vitals.csv"), "--config", str(cfg),
                  "-o", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg} is not valid JSON")
        assert not (tmp_path / "out").exists()

    def test_trace_rate_past_a_sample_count_exits_2(self, tmp_path, capsys):
        """The config is checked again at the trace's own sample rate."""
        p = tmp_path / "fast.csv"
        save_trace(make_trace(np.zeros(10), sample_rate_hz=1e300), p)
        rc = run(["heartrate", str(p), "-o", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad heart config for {p}: window_s")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, what", [
        ("bandpass_order", 3, "bandpass_order must be 2, 4, 6 or 8, not 3"),
        ("bandpass_low_hz", 4.0, "need 0 < bandpass_low_hz <= f_min_hz"),
    ])
    def test_bandpass_outside_the_designer_exits_2(self, key, value, what, vitals_dir,
                                                   tmp_path, capsys):
        """An order the designer refuses failed mid-stream (exit 1); a low
        edge above f_min filtered out the heart-rate band and exited 0."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"heart": {key: value}}))
        rc = run(["heartrate", str(vitals_dir / "vitals.csv"), "--config", str(cfg),
                  "-o", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad heart config: {what}")
        assert not (tmp_path / "out").exists()

    def test_trace_rate_below_the_bandpass_exits_2(self, tmp_path, capsys):
        """At 8 Hz the 5 Hz upper band edge lies above the Nyquist frequency."""
        p = tmp_path / "slow.csv"
        save_trace(make_trace(np.random.default_rng(0).normal(-50.0, 1.0, 480),
                              sample_rate_hz=8.0), p)
        rc = run(["heartrate", str(p), "-o", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad heart config for {p}: bandpass_high_hz 5.0")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("window", ["inf", "nan", "0.5"])
    def test_bad_window_flag_exits_2(self, window, vitals_dir, tmp_path, capsys):
        rc = run(["heartrate", str(vitals_dir / "vitals.csv"), "--window", window,
                  "-o", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad heart") and "Traceback" not in err

    def test_section_that_is_not_an_object_exits_2(self, vitals_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"heart": [20.0]}))
        rc = run(["heartrate", str(vitals_dir / "vitals.csv"), "--config", str(cfg),
                  "-o", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad heart config: need a JSON object")

    def test_config_nested_too_deeply_exits_2(self, vitals_dir, tmp_path, capsys):
        cfg = tmp_path / "deep.json"
        cfg.write_text('{"a":' * 100_000 + "1" + "}" * 100_000)
        rc = run(["heartrate", str(vitals_dir / "vitals.csv"), "--config", str(cfg),
                  "-o", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg} is nested too deeply")
        assert "Traceback" not in err

    @pytest.mark.parametrize("section, fields", [
        ("heart", {"window_s": 20, "psd_threshold": None}),
        ("speed", {"crossing_threshold_hz": None, "nfft": 2048}),
    ])
    def test_ints_for_floats_and_null_where_allowed(
            self, section, fields, vitals_dir, calibrated, crossing_files, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: fields}))
        args = self.command(section, vitals_dir, calibrated, crossing_files,
                            tmp_path / "out")
        assert run(args + ["--config", str(cfg)]) == 0


class TestSimulate:
    def test_vitals_outputs(self, vitals_dir):
        trace = load_trace(vitals_dir / "vitals.csv")
        assert trace.metadata.sample_rate_hz == 449.0
        assert abs(trace.duration_s - 40.0) < 0.01
        assert trace.ground_truth.hr_bpm is not None
        manifest = json.loads((vitals_dir / "manifest.json").read_text())
        assert manifest["command"] == "simulate vitals"
        assert manifest["seed"] == 3
        assert manifest["outputs"] == ["vitals.csv"]
        assert manifest["version"] == cli.__version__

    def test_manifest_has_no_timestamps(self, vitals_dir):
        text = (vitals_dir / "manifest.json").read_text().lower()
        for word in ("time", "date", "stamp"):
            assert word not in text

    def test_crossing_embeds_ground_truth(self, crossing_files):
        trace = load_trace(crossing_files[1])
        assert trace.ground_truth.speed_mps == 1.0
        assert abs(trace.ground_truth.cross_t_s - 10.0) < 1e-9

    def test_crossing_angle_flag(self, tmp_path, link_config):
        rc = run(["simulate", "crossing", "--speed", "1.0", "--angle", "45",
                  "--config", str(link_config), "-o", str(tmp_path)])
        assert rc == 0
        trace = load_trace(tmp_path / "crossing.csv")
        assert trace.metadata.extras["angle_deg"] == repr(45.0)

    def test_unknown_gesture_label_rejected(self, tmp_path):
        rc = run(["simulate", "gesture", "--label", "wave", "-o", str(tmp_path / "out")])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("hr", [
        [], [[0, "70"]], [[0, 60, 1]], [70], [[True, 70]], [[0, 60], [1, float("inf")]],
        [[0, 60], [float("nan"), 70]], [[0, 10 ** 400]],
    ])
    def test_bad_heart_rate_profile_exits_2(self, hr, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"vitals": {"heart_rate_bpm": hr}}))
        rc = run(["simulate", "vitals", "--duration", "2", "--config", str(cfg),
                  "-o", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad vitals config: heart_rate_bpm must be")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_pulse_narrower_than_a_sample_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"vitals": {"pulse_width_s": 1e-200}}))
        rc = run(["simulate", "vitals", "--duration", "2", "--config", str(cfg),
                  "-o", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: pulse_width_s 1e-200 is below one sample period")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_bad_geometry_fails_nonzero(self, tmp_path):
        # crossing position outside the link
        rc = run(["simulate", "crossing", "--position", "5.0",
                  "-o", str(tmp_path)])
        assert rc != 0

    def test_corpora_layout(self, tmp_path, tiny_corpora):
        rc = run(["simulate", "corpora", "--seed", "5", "-o", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "vitals" / "vitals_0.csv").exists()
        assert (tmp_path / "gesture_train" / "manifest.csv").exists()
        lines = (tmp_path / "gesture_train" / "manifest.csv").read_text().splitlines()
        assert lines[0] == "file,label,start_s,end_s"
        assert lines[1].startswith("gesture_punch_00.csv,punch,")
        cfg = json.loads((tmp_path / "corpus_config.json").read_text())
        assert cfg["segmentation"]["long_window"] == 4490
        assert cfg["speed"]["window_s"] == 5.5
        assert cfg["speed"]["crossing_threshold_hz"] > 0


class TestHeartrate:
    def test_estimates_and_rmse(self, vitals_dir, tmp_path):
        rc = run(["heartrate", str(vitals_dir / "vitals.csv"),
                  "--window", "20", "-o", str(tmp_path)])
        assert rc == 0
        est_lines = (tmp_path / "estimates.csv").read_text().splitlines()
        assert est_lines[0] == "t_s,bpm,status,peak_power"
        assert len(est_lines) > 20
        summary = dict(line.split(",", 1) for line in
                       (tmp_path / "summary.csv").read_text().splitlines()[1:])
        assert float(summary["rmse_bpm"]) < 2.0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["heart"]["window_s"] == 20.0

    def test_no_ground_truth_no_rmse(self, crossing_files, tmp_path):
        rc = run(["heartrate", str(crossing_files[0]), "-o", str(tmp_path)])
        assert rc == 0
        assert "rmse_bpm" not in (tmp_path / "summary.csv").read_text()

    def test_missing_trace_fails(self, tmp_path):
        rc = run(["heartrate", str(tmp_path / "ghost.csv"), "-o", str(tmp_path)])
        assert rc == 1

    def test_trace_shorter_than_the_hampel_window_writes_no_estimates(self, tmp_path):
        # 0.3 s at 449 Hz is shorter than the 201-sample Hampel window and
        # than the first update period: no update, so no window to filter
        short = tmp_path / "short.csv"
        save_trace(make_trace(np.zeros(134)), short)
        assert run(["heartrate", str(short), "-o", str(tmp_path / "out")]) == 0
        estimates = (tmp_path / "out" / "estimates.csv").read_text()
        assert estimates == "t_s,bpm,status,peak_power\n"

    def test_uses_the_trace_sample_rate(self, tmp_path):
        trace = simulate_vitals(VitalSignsProfile(heart_rate_bpm=66.0),
                                NoiseModel(seed=3), 120.0, fs=300.0)
        save_trace(trace, tmp_path / "v300.csv")
        rc = run(["heartrate", str(tmp_path / "v300.csv"), "-o", str(tmp_path / "out")])
        assert rc == 0
        with open(tmp_path / "out" / "estimates.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 120
        bpm = [float(r["bpm"]) for r in rows if r["status"] == "estimate"]
        assert abs(np.median(bpm) - 66.0) <= 60.0 * 300.0 / 65536  # one FFT bin

    def test_non_finite_sample_exits_1(self, vitals_dir, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        lines = (vitals_dir / "vitals.csv").read_text().splitlines()
        fields = lines[1000].split(",")
        fields[1] = "nan"
        lines[1000] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        rc = run(["heartrate", str(path), "-o", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "index 998" in err
        assert "Traceback" not in err

    def rewritten(self, vitals_dir, path, edit):
        lines = (vitals_dir / "vitals.csv").read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_truncated_row_exits_1_naming_the_line(self, vitals_dir, tmp_path, capsys):
        def truncate(lines):
            lines[499] = lines[499].rsplit(",", 1)[0]   # file line 500
        path = self.rewritten(vitals_dir, tmp_path / "cut.csv", truncate)
        assert run(["heartrate", str(path), "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:500: ") and "Traceback" not in err

    def test_timestamp_jump_exits_1_naming_the_line(self, vitals_dir, tmp_path, capsys):
        def jump(lines):                                  # +3 s from data row 2000
            for i in range(2002, len(lines)):
                t, rest = lines[i].split(",", 1)
                lines[i] = f"{float(t) + 3.0!r},{rest}"
        path = self.rewritten(vitals_dir, tmp_path / "gap.csv", jump)
        assert run(["heartrate", str(path), "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2003: timestamp ") and "Traceback" not in err


class TestGesture:
    def test_train_eval_classify_chain(self, gesture_corpus, tmp_path):
        train, test, seg_cfg = gesture_corpus
        model_dir = tmp_path / "model"
        rc = run(["gesture", "train", str(train), "--kind", "knn",
                  "--config", str(seg_cfg), "-o", str(model_dir)])
        assert rc == 0
        model_path = model_dir / "model.json"
        assert model_path.exists()

        eval_dir = tmp_path / "eval"
        rc = run(["gesture", "eval", str(test), "--model", str(model_path),
                  "--config", str(seg_cfg), "-o", str(eval_dir)])
        assert rc == 0
        summary = dict(line.split(",", 1) for line in
                       (eval_dir / "summary.csv").read_text().splitlines()[1:])
        assert 0.0 <= float(summary["mean_accuracy"]) <= 1.0
        conf = (eval_dir / "confusion.csv").read_text().splitlines()
        assert len(conf) == 9    # header plus one row per label
        pred = (eval_dir / "predictions.csv").read_text().splitlines()
        assert pred[0] == "file,actual,predicted"
        assert len(pred) == 5

        cls_dir = tmp_path / "cls"
        rc = run(["gesture", "classify", "--trace", str(test / "punch_0.csv"),
                  "--model", str(model_path), "--config", str(seg_cfg),
                  "-o", str(cls_dir)])
        assert rc == 0
        assert (cls_dir / "prediction.csv").read_text().startswith("file,predicted")

    def test_unknown_manifest_label_rejected(self, gesture_corpus, tmp_path):
        train, _, seg_cfg = gesture_corpus
        bad = tmp_path / "bad_corpus"
        bad.mkdir()
        src = next(p for p in train.iterdir() if p.name != "manifest.csv")
        (bad / src.name).write_bytes(src.read_bytes())
        (bad / "manifest.csv").write_text(
            f"file,label,start_s,end_s\n{src.name},wave,,\n")
        rc = run(["gesture", "train", str(bad), "-o", str(tmp_path)])
        assert rc == 2

    def test_missing_corpus_arg_is_usage_error(self, tmp_path):
        assert run(["gesture", "train", "-o", str(tmp_path)]) == 2

    def test_eval_requires_model(self, gesture_corpus, tmp_path):
        _, test, _ = gesture_corpus
        assert run(["gesture", "eval", str(test), "-o", str(tmp_path)]) == 2

    def test_classify_with_model_missing_a_key_exits_1(self, gesture_corpus, tmp_path,
                                                        capsys):
        _, test, seg_cfg = gesture_corpus
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "format_version": gesture.MODEL_FORMAT_VERSION, "kind": "knn",
            "layout": [], "feature_mean": [], "feature_scale": [], "state": {}}))
        rc = run(["gesture", "classify", "--trace", str(test / "punch_0.csv"),
                  "--model", str(model), "--config", str(seg_cfg),
                  "-o", str(tmp_path / "cls")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: ") and "'hyperparameters'" in err
        assert "Traceback" not in err

    def test_classify_with_model_state_of_wrong_type_exits_1(self, gesture_corpus,
                                                              tmp_path, capsys):
        _, test, seg_cfg = gesture_corpus
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "format_version": gesture.MODEL_FORMAT_VERSION, "kind": "knn",
            "hyperparameters": {}, "layout": [], "feature_mean": [],
            "feature_scale": [], "state": []}))
        rc = run(["gesture", "classify", "--trace", str(test / "punch_0.csv"),
                  "--model", str(model), "--config", str(seg_cfg),
                  "-o", str(tmp_path / "cls")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: ") and "'state'" in err
        assert "Traceback" not in err


    def test_classify_with_string_k_exits_1(self, gesture_corpus, tmp_path, capsys):
        train, test, seg_cfg = gesture_corpus
        assert run(["gesture", "train", str(train), "--kind", "knn",
                    "--config", str(seg_cfg), "-o", str(tmp_path / "model")]) == 0
        model = tmp_path / "model" / "model.json"
        doc = json.loads(model.read_text())
        doc["state"]["k"] = "3"
        model.write_text(json.dumps(doc))
        rc = run(["gesture", "classify", "--trace", str(test / "punch_0.csv"),
                  "--model", str(model), "--config", str(seg_cfg),
                  "-o", str(tmp_path / "cls")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: model state 'k' is not an integer")
        assert "Traceback" not in err

    def test_classify_with_malformed_forest_tree_exits_1(self, gesture_corpus, tmp_path,
                                                         capsys):
        train, test, seg_cfg = gesture_corpus
        assert run(["gesture", "train", str(train), "--kind", "random_forest",
                    "--config", str(seg_cfg), "-o", str(tmp_path / "model")]) == 0
        model = tmp_path / "model" / "model.json"
        doc = json.loads(model.read_text())
        doc["state"]["trees"][0] = {"feature": 0}
        model.write_text(json.dumps(doc))
        rc = run(["gesture", "classify", "--trace", str(test / "punch_0.csv"),
                  "--model", str(model), "--config", str(seg_cfg),
                  "-o", str(tmp_path / "cls")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: model state 'trees' is not")
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit, what", [
        ("zero_scale", "model 'feature_scale' has an entry that is not finite"),
        ("deep", "model file is nested too deeply"),
    ])
    def test_classify_with_unreadable_model_exits_1(self, gesture_corpus, tmp_path,
                                                    capsys, edit, what):
        train, test, seg_cfg = gesture_corpus
        assert run(["gesture", "train", str(train), "--kind", "knn",
                    "--config", str(seg_cfg), "-o", str(tmp_path / "model")]) == 0
        model = tmp_path / "model" / "model.json"
        if edit == "zero_scale":
            doc = json.loads(model.read_text())
            doc["feature_scale"] = [0.0] * len(doc["feature_scale"])
            model.write_text(json.dumps(doc))
        else:
            model.write_text('{"a":' * 100_000 + "1" + "}" * 100_000)
        rc = run(["gesture", "classify", "--trace", str(test / "punch_0.csv"),
                  "--model", str(model), "--config", str(seg_cfg),
                  "-o", str(tmp_path / "cls")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: {what}")
        assert "Traceback" not in err

    @pytest.fixture(scope="class")
    def saved_models(self, gesture_corpus, tmp_path_factory):
        """model.json bytes of a knn and a linear_svm model on the corpus."""
        train, _, seg_cfg = gesture_corpus
        out = {}
        for kind in ("knn", "linear_svm"):
            model_dir = tmp_path_factory.mktemp(kind)
            assert run(["gesture", "train", str(train), "--kind", kind,
                        "--config", str(seg_cfg), "-o", str(model_dir)]) == 0
            out[kind] = (model_dir / "model.json").read_bytes()
        return out

    @pytest.mark.parametrize("kind, edit, what", [
        ("knn", "nan_point", "model state 'points' is not a matrix of finite numbers"),
        ("knn", "k_zero", "model state 'k' is not in [1, 8]"),
        ("knn", "k_huge", "model state 'k' is not in [1, 8]"),
        ("linear_svm", "huge_weight",
         "model state 'weights' is not a matrix of finite numbers"),
        ("linear_svm", "truncated", "model file is not JSON"),
        ("knn", "bad_utf8", "model file is not JSON"),
    ])
    def test_classify_with_edited_model_exits_1(self, gesture_corpus, saved_models,
                                                tmp_path, capsys, kind, edit, what):
        _, test, seg_cfg = gesture_corpus
        data = saved_models[kind]
        doc = json.loads(data)
        if edit == "nan_point":
            doc["state"]["points"][3][0] = float("nan")
        elif edit == "k_zero":
            doc["state"]["k"] = 0
        elif edit == "k_huge":
            doc["state"]["k"] = 10 ** 6
        elif edit == "huge_weight":
            doc["state"]["weights"][0][-1] = 10 ** 400
        model = tmp_path / "model.json"
        if edit == "truncated":
            model.write_bytes(data[: len(data) // 2])
        elif edit == "bad_utf8":
            model.write_bytes(data.replace(b'"knn"', b'"kn\xff"'))
        else:
            model.write_text(json.dumps(doc))
        rc = run(["gesture", "classify", "--trace", str(test / "punch_0.csv"),
                  "--model", str(model), "--config", str(seg_cfg),
                  "-o", str(tmp_path / "cls")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: {what}")
        assert "Traceback" not in err
        assert not (tmp_path / "cls").exists()

    def test_trace_shorter_than_the_history_window_exits_1_naming_it(
            self, gesture_corpus, trained_model, tmp_path, capsys):
        train, _, seg_cfg = gesture_corpus
        corpus = tmp_path / "corpus"
        shutil.copytree(train, corpus)
        save_trace(make_trace(np.zeros(300)), corpus / "short.csv")
        with open(corpus / "manifest.csv", "a") as fh:
            fh.write("short.csv,punch,,\n")
        short = corpus / "short.csv"
        for args in (["train", str(corpus)],
                     ["eval", str(corpus), "--model", str(trained_model)],
                     ["classify", "--trace", str(short), "--model", str(trained_model)]):
            rc = run(["gesture", *args, "--config", str(seg_cfg),
                      "-o", str(tmp_path / "out")])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {short}: trace of 300 samples"), args
            assert not (tmp_path / "out").exists()

    def test_mean_window_below_one_and_a_half_samples_exits_1_naming_the_trace(
            self, gesture_corpus, trained_model, tmp_path, capsys):
        """The config holds no sample rate, so the window is checked against
        the rate of the first trace read."""
        train, test, _ = gesture_corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"segmentation": {"long_window": 4490,
                                                    "mean_window_s": 1e-3}}))
        for args, first in ((["train", str(train)], train / "punch_0.csv"),
                            (["eval", str(test), "--model", str(trained_model)],
                             test / "punch_0.csv"),
                            (["classify", "--trace", str(test / "drag_1.csv"),
                              "--model", str(trained_model)], test / "drag_1.csv")):
            rc = run(["gesture", *args, "--config", str(cfg), "-o", str(tmp_path / "out")])
            assert rc == 1
            err = capsys.readouterr().err
            assert err == (f"error: {first}: mean_window_s * fs is 0.449, which rounds "
                           f"to 0 samples\n"), args
            assert not (tmp_path / "out").exists()

    def test_failed_train_and_eval_leave_no_output_dir(self, gesture_corpus, tmp_path):
        train, test, seg_cfg = gesture_corpus
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "manifest.csv").write_text("file,label\n")
        assert run(["gesture", "train", str(empty), "-o", str(tmp_path / "m")]) == 2
        model = tmp_path / "model.json"
        model.write_text("{}")
        assert run(["gesture", "eval", str(test), "--model", str(model),
                    "--config", str(seg_cfg), "-o", str(tmp_path / "e")]) == 1
        assert not (tmp_path / "m").exists() and not (tmp_path / "e").exists()

    @pytest.mark.parametrize("key, value, what", [
        ("lowpass_order", 3, "lowpass_order must be 2, 4, 6 or 8, not 3"),
        ("lowpass_cutoff_hz", -5, "lowpass_cutoff_hz must be finite and positive, not -5"),
        ("mean_window_s", 0, "mean_window_s must be finite and positive, not 0"),
        ("mean_window_s", -1.0, "mean_window_s must be finite and positive, not -1.0"),
        ("merge_gap_s", -0.1, "merge_gap_s must be finite and >= 0, not -0.1"),
    ])
    def test_segmentation_its_kernels_cannot_use_exits_2(
            self, key, value, what, gesture_corpus, trained_model, tmp_path, capsys):
        """An order the lowpass designer refuses and a negative cutoff failed
        after a trace was read (exit 1); a negative merge gap gave overlapping
        segments and a zero mean window a one-sample mean."""
        train, _, _ = gesture_corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"segmentation": {"long_window": 4490, key: value}}))
        for args in (["train", str(train)],
                     ["classify", "--trace", str(train / "punch_0.csv"),
                      "--model", str(trained_model)]):
            rc = run(["gesture", *args, "--config", str(cfg), "-o", str(tmp_path / "out")])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: bad segmentation config: {what}"), args
            assert not (tmp_path / "out").exists()

    def test_predictions_name_each_trace_relative_to_the_manifest(
            self, gesture_corpus, trained_model, tmp_path):
        """Two traces that share a file name in different directories get
        rows that tell them apart."""
        _, test, seg_cfg = gesture_corpus
        corpus = tmp_path / "nested"
        rows = ["file,label"]
        for label in ("punch", "drag"):
            (corpus / label / "1").mkdir(parents=True)
            shutil.copy(test / f"{label}_0.csv", corpus / label / "1" / "gesture.csv")
            rows.append(f"{label}/1/gesture.csv,{label}")
        (corpus / "manifest.csv").write_text("\n".join(rows) + "\n")
        assert run(["gesture", "eval", str(corpus), "--model", str(trained_model),
                    "--config", str(seg_cfg), "-o", str(tmp_path / "e")]) == 0
        with open(tmp_path / "e" / "predictions.csv", newline="") as fh:
            names = [row["file"] for row in csv.DictReader(fh)]
        assert names == ["punch/1/gesture.csv", "drag/1/gesture.csv"]


class TestSpeed:
    def test_calibrate_outputs(self, calibrated):
        alpha_lines = (calibrated / "alpha.txt").read_text().splitlines()
        assert alpha_lines[0] == "# rfsense-alpha-v1"
        assert alpha_lines[1].startswith("default,alpha=")
        cal = (calibrated / "calibration.csv").read_text().splitlines()
        assert cal[0] == "file,f_min_av_hz,speed_mps"
        assert len(cal) == 4
        summary = dict(line.split(",", 1) for line in
                       (calibrated / "summary.csv").read_text().splitlines()[1:])
        assert 1.0 < float(summary["alpha_m"]) < 5.0

    def test_estimate_with_ground_truth(self, calibrated, crossing_files,
                                        link_config, tmp_path):
        rc = run(["speed", "estimate", str(crossing_files[1]),
                  "--alpha-file", str(calibrated / "alpha.txt"),
                  "--config", str(link_config), "-o", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "events.csv").read_text().splitlines()
        assert rows[0] == "file,status,t_cross_s,f_min_av_hz,v_hat_mps,gt_speed_mps"
        fields = rows[1].split(",")
        assert fields[1] == "ok"
        assert abs(float(fields[4]) - 1.0) < 0.2
        summary = dict(line.split(",", 1) for line in
                       (tmp_path / "summary.csv").read_text().splitlines()[1:])
        assert float(summary["rmse_mps"]) < 0.2

    def test_estimate_accepts_directory(self, calibrated, crossing_files,
                                        link_config, tmp_path):
        rc = run(["speed", "estimate", str(crossing_files[0].parent),
                  "--alpha-file", str(calibrated / "alpha.txt"),
                  "--config", str(link_config), "-o", str(tmp_path)])
        assert rc == 0

    def test_quiet_trace_reports_no_crossing(self, calibrated, vitals_dir,
                                             tmp_path):
        rc = run(["speed", "estimate", str(vitals_dir / "vitals.csv"),
                  "--alpha-file", str(calibrated / "alpha.txt"),
                  "-o", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "events.csv").read_text().splitlines()
        assert rows[1].split(",")[1] == "no_crossing"

    def test_estimate_without_calibration_is_usage_error(self, crossing_files,
                                                         tmp_path):
        rc = run(["speed", "estimate", str(crossing_files[0]),
                  "-o", str(tmp_path)])
        assert rc == 2

    def test_unknown_link_id_is_usage_error(self, calibrated, crossing_files,
                                            tmp_path):
        rc = run(["speed", "estimate", str(crossing_files[0]),
                  "--alpha-file", str(calibrated / "alpha.txt"),
                  "--link-id", "hallway9", "-o", str(tmp_path)])
        assert rc == 2

    def test_calibrate_needs_two_points(self, crossing_files, link_config,
                                        tmp_path):
        rc = run(["speed", "calibrate", str(crossing_files[0]),
                  "--config", str(link_config), "-o", str(tmp_path / "out")])
        assert rc == 2
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("text", ["nan", "inf", "-1.5", "0", "abc"])
    def test_bad_alpha_exits_1_naming_the_line(self, crossing_files, text,
                                               tmp_path, capsys):
        alpha = tmp_path / "alpha.txt"
        alpha.write_text(f"# rfsense-alpha-v1\nother,alpha=1.5\ndefault,alpha={text}\n")
        rc = run(["speed", "estimate", str(crossing_files[1]),
                  "--alpha-file", str(alpha), "-o", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {alpha}:3: alpha must be a finite positive")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_varying_truth_speed_exits_1_naming_the_line(
            self, calibrated, crossing_files, tmp_path, capsys):
        lines = crossing_files[1].read_text().splitlines()
        col = lines[1].split(",").index("gt_speed_mps")
        fields = lines[499].split(",")                 # file line 500
        fields[col] = "1.7"
        lines[499] = ",".join(fields)
        path = tmp_path / "edited.csv"
        path.write_text("\n".join(lines) + "\n")
        rc = run(["speed", "estimate", str(path),
                  "--alpha-file", str(calibrated / "alpha.txt"),
                  "-o", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:500: gt_speed_mps is 1.7 here")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


    def test_alpha_file_inside_output_named_by_absolute_path(
            self, crossing_files, link_config, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = run(["speed", "calibrate", *map(str, crossing_files),
                  "--config", str(link_config), "-o", "out",
                  "--alpha-file", str(tmp_path / "out" / "alpha.txt")])
        assert rc == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["outputs"] == ["alpha.txt", "calibration.csv", "summary.csv"]

    def test_alpha_file_inside_output_through_dot_dot(
            self, crossing_files, link_config, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out3" / "sub").mkdir(parents=True)
        rc = run(["speed", "calibrate", *map(str, crossing_files),
                  "--config", str(link_config), "-o", "out3",
                  "--alpha-file", "out3/sub/../alpha.txt"])
        assert rc == 0
        manifest = json.loads((tmp_path / "out3" / "manifest.json").read_text())
        assert manifest["outputs"] == ["alpha.txt", "calibration.csv", "summary.csv"]

    def test_alpha_file_outside_output_is_written_not_listed(
            self, crossing_files, link_config, tmp_path):
        alpha = tmp_path / "links" / "alpha.txt"
        rc = run(["speed", "calibrate", *map(str, crossing_files),
                  "--config", str(link_config), "-o", str(tmp_path / "out"),
                  "--alpha-file", str(alpha)])
        assert rc == 0
        assert alpha.read_text().startswith("# rfsense-alpha-v1\ndefault,alpha=")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["outputs"] == ["calibration.csv", "summary.csv"]

    def test_malformed_existing_sidecar_leaves_no_output_dir(
            self, crossing_files, link_config, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("# rfsense-alpha-v1\nfoo\n")
        rc = run(["speed", "calibrate", *map(str, crossing_files),
                  "--config", str(link_config), "--alpha-file", str(bad),
                  "-o", str(tmp_path / "e6")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:2: malformed sidecar line 'foo'")
        assert not (tmp_path / "e6").exists()
        assert bad.read_text() == "# rfsense-alpha-v1\nfoo\n"

    def test_trace_shorter_than_a_window_exits_1_naming_it(
            self, calibrated, crossing_files, link_config, tmp_path, capsys):
        out = tmp_path / "short"
        assert run(["simulate", "crossing", "--duration", "1",
                    "--config", str(link_config), "-o", str(out)]) == 0
        short = out / "crossing.csv"
        for args in (["calibrate", *map(str, crossing_files), str(short)],
                     ["estimate", str(crossing_files[0]), str(short),
                      "--alpha-file", str(calibrated / "alpha.txt")]):
            rc = run(["speed", *args, "--config", str(link_config),
                      "-o", str(tmp_path / "out")])
            assert rc == 1
            err = capsys.readouterr().err
            assert err == f"error: {short}: series shorter than one window\n", args
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("action", ["estimate", "calibrate"])
    def test_non_utf8_sidecar_exits_1_naming_the_file(
            self, action, crossing_files, link_config, tmp_path, capsys):
        bad = tmp_path / "alpha.txt"
        bad.write_bytes(b"# rfsense-alpha-v1\ndefault,alpha=1.5\xff\n")
        rc = run(["speed", action, *map(str, crossing_files),
                  "--config", str(link_config), "--alpha-file", str(bad),
                  "-o", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not an alpha sidecar: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestOversizedDurations:
    """Each of these ended in an OverflowError traceback, or for 1e17 s in
    numpy's unnamed "Maximum allowed size exceeded"; now each is one named
    error line, exit 2 for a config refused before any trace is read and 1
    for a sample count at the trace's rate, and no -o directory."""

    @staticmethod
    def check(args, rc, line, tmp_path, capsys):
        assert run([*args, "-o", str(tmp_path / "out")]) == rc
        assert capsys.readouterr().err == f"error: {line}\n"
        assert not (tmp_path / "out").exists()

    def test_heart_update_period_exits_2(self, vitals_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"heart": {"update_period_s": 1e308}}))
        self.check(["heartrate", str(vitals_dir / "vitals.csv"), "--config", str(cfg)], 2,
                   "bad heart config: update_period_s * sample_rate_hz is inf, "
                   "not a sample count up to 2**62", tmp_path, capsys)

    def test_heart_update_period_under_half_a_sample_exits_2(self, vitals_dir, tmp_path,
                                                              capsys):
        """1e-9 s was accepted, and the schedule then grew until memory ran
        out, ending in an empty `error: ` line."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"heart": {"update_period_s": 1e-9}}))
        self.check(["heartrate", str(vitals_dir / "vitals.csv"), "--config", str(cfg)], 2,
                   "bad heart config: update_period_s * sample_rate_hz is 4.49e-07, "
                   "which rounds to 0 samples", tmp_path, capsys)

    @pytest.mark.parametrize("key", ["hop_s", "window_s"])
    def test_speed_window_and_hop_exit_1(self, key, calibrated, crossing_files,
                                         tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"speed": {key: 1e308}}))
        self.check(["speed", "estimate", str(crossing_files[0]), "--config", str(cfg),
                    "--alpha-file", str(calibrated / "alpha.txt")], 1,
                   f"{crossing_files[0]}: {key} * fs is inf, not a sample count "
                   "up to 2**62", tmp_path, capsys)

    def test_speed_hop_under_half_a_sample_exits_1(self, calibrated, crossing_files,
                                                   tmp_path, capsys):
        """It was taken as a 1-sample hop while manifest.json recorded 1e-09."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"speed": {"hop_s": 1e-9}}))
        self.check(["speed", "estimate", str(crossing_files[0]), "--config", str(cfg),
                    "--alpha-file", str(calibrated / "alpha.txt")], 1,
                   f"{crossing_files[0]}: hop_s * fs is {1e-9 * 449.0!r}, which rounds "
                   "to 0 samples", tmp_path, capsys)

    @pytest.mark.parametrize("command", ["simulate vitals", "simulate gesture",
                                         "simulate corpora", "gesture train"])
    def test_negative_seed_exits_2(self, command, gesture_corpus, tmp_path, capsys):
        """simulate printed numpy's "expected non-negative integer", naming
        no flag, and gesture train passed the seed on to the forest."""
        corpus = [str(gesture_corpus[0])] if command == "gesture train" else []
        self.check([*command.split(), *corpus, "--seed", "-1"], 2,
                   "--seed must be >= 0, not -1", tmp_path, capsys)

    def test_memory_error_without_a_message_exits_1(self, vitals_dir, monkeypatch,
                                                    tmp_path, capsys):
        """Python's own MemoryError carries no message and printed `error: `
        alone."""
        def no_memory(*args, **kwargs):
            raise MemoryError()
        monkeypatch.setattr(heart, "stream_heart_rate", no_memory)
        self.check(["heartrate", str(vitals_dir / "vitals.csv")], 1, "out of memory",
                   tmp_path, capsys)

    def test_speed_nfft_no_memory_holds_exits_1(self, calibrated, crossing_files,
                                                tmp_path, capsys):
        """It ended in numpy's "array is too big", naming no field."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"speed": {"nfft": 10 ** 18}}))
        self.check(["speed", "estimate", str(crossing_files[0]), "--config", str(cfg),
                    "--alpha-file", str(calibrated / "alpha.txt")], 1,
                   "nfft 1000000000000000000 is too large: a spectrogram of "
                   "500000000000000001 bins by 73 windows does not fit in memory",
                   tmp_path, capsys)

    def test_segmentation_guard_exits_1(self, gesture_corpus, tmp_path, capsys):
        train, _, _ = gesture_corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"segmentation": {"long_window": 4490,
                                                    "guard_s": 1e308}}))
        self.check(["gesture", "train", str(train), "--config", str(cfg)], 1,
                   f"{train / 'punch_0.csv'}: guard_s * fs is inf, not a sample count "
                   "up to 2**62", tmp_path, capsys)

    @pytest.mark.parametrize("kind, duration, count", [
        ("vitals", "1e308", "inf"), ("crossing", "1e308", "inf"),
        ("vitals", "1e17", "4.49e+19")])
    def test_simulate_duration_exits_1(self, kind, duration, count, tmp_path, capsys):
        self.check(["simulate", kind, "--duration", duration], 1,
                   f"duration_s * fs is {count}, not a sample count up to 2**62",
                   tmp_path, capsys)

    @pytest.mark.parametrize("kind", ["vitals", "crossing"])
    def test_duration_under_half_a_sample_exits_1(self, kind, tmp_path, capsys):
        """vitals ended in an IndexError traceback; crossing left an empty -o
        directory, since save_trace refused the empty trace."""
        self.check(["simulate", kind, "--duration", "0.001"], 1,
                   "duration_s * fs is 0.449, which rounds to 0 samples", tmp_path, capsys)

    def test_duration_no_memory_holds_exits_1(self, tmp_path, capsys):
        """4.49e17 samples is a sample count, but no memory holds it: numpy
        refuses the 3 EiB request at once, without touching memory, and the
        refusal is one error line, not a traceback."""
        assert run(["simulate", "vitals", "--duration", "1e15",
                    "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate 3.12 EiB ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestManifest:
    @pytest.mark.parametrize("command", [
        "simulate vitals", "simulate crossing", "simulate gesture",
        "simulate corpora", "heartrate", "gesture train", "gesture classify",
        "gesture eval", "speed calibrate", "speed estimate"])
    def test_outputs_are_the_files_written(
            self, command, request, vitals_dir, crossing_files, link_config,
            calibrated, gesture_corpus, trained_model, tmp_path):
        train, test, seg_cfg = gesture_corpus
        seg = ["--config", str(seg_cfg)]
        walks = [*map(str, crossing_files), "--config", str(link_config)]
        args = {
            "simulate vitals": ["--duration", "5"],
            "simulate crossing": [],
            "simulate gesture": ["--label", "drag"],
            "simulate corpora": [],
            "heartrate": [str(vitals_dir / "vitals.csv")],
            "gesture train": [str(train), *seg],
            "gesture classify": ["--trace", str(test / "punch_0.csv"),
                                 "--model", str(trained_model), *seg],
            "gesture eval": [str(test), "--model", str(trained_model), *seg],
            "speed calibrate": walks,
            "speed estimate": [*walks, "--alpha-file", str(calibrated / "alpha.txt")],
        }[command]
        if command == "simulate corpora":
            request.getfixturevalue("tiny_corpora")
        out = tmp_path / "out"
        assert run([*command.split(), *args, "-o", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*")
                         if p.is_file() and p.name != "manifest.json")
        assert manifest["command"] == command
        assert manifest["outputs"] == written


def _byte_edited(data: bytes, edits) -> bytes:
    """`data` after each (operation, relative position, byte) edit."""
    data = bytearray(data)
    for op, where, byte in edits:
        i = int(where * len(data))
        if op == "replace" and data:
            data[i] = byte
        elif op == "insert":
            data.insert(i, byte)
        elif data:
            del data[i]
    return bytes(data)


def _edits(alphabet: bytes):
    return st.lists(
        st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                  st.floats(0.0, 1.0, exclude_max=True),
                  st.one_of(st.sampled_from(alphabet), st.integers(0, 255))),
        min_size=1, max_size=6)


FUZZ_CONFIG = json.dumps({
    "vitals": {"heart_rate_bpm": [[0, 66], [1, 70.5]], "breathing_rate_bpm": 15,
               "pulse_width_s": 0.08},
    "noise": {"gaussian_sigma_db": 0.01, "impulse_prob": 0.001, "seed": 4},
    "link": {"tx": [0, 0], "rx": [0, 1.5], "wavelength_m": 0.69},
    "body": {"radius_m": 0.15, "scatter_amp": 0.1},
}, separators=(",", ":")).encode()
FUZZ_SIDECAR = b"# rfsense-alpha-v1\ndefault,alpha=1.25\nhall-2,alpha=0.75\n"


class TestInputFuzz:
    """A byte-edited config file or alpha sidecar either works, or the CLI
    exits 1 or 2 with an `error:` line, no traceback and no `-o` directory."""

    def _check(self, argv, out):
        shutil.rmtree(out, ignore_errors=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = run([*argv, "-o", str(out)])
        if rc == 0:
            assert (out / "manifest.json").exists()
            return
        assert rc in (1, 2)
        assert err.getvalue().startswith("error: ")
        assert "Traceback" not in err.getvalue()
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["vitals", "crossing"])
    @settings(max_examples=300, deadline=None)
    @given(edits=_edits(b'{}[]",:.-+eE0159 ntfalseruNaIiy'))
    def test_byte_edited_config(self, kind, tmp_path_session, edits):
        config = tmp_path_session / f"fuzz_{kind}.json"
        config.write_bytes(_byte_edited(FUZZ_CONFIG, edits))
        self._check(["simulate", kind, "--duration", "2", "--config", str(config)],
                    tmp_path_session / f"fuzz_{kind}_out")

    @pytest.mark.parametrize("action", ["estimate", "calibrate"])
    @settings(max_examples=40, deadline=None)
    @given(edits=_edits(b"#\n,=.-+eE0159 adefhilnprstv"))
    def test_byte_edited_alpha_sidecar(self, action, crossing_files, link_config,
                                       tmp_path_session, edits):
        sidecar = tmp_path_session / f"fuzz_alpha_{action}.txt"
        sidecar.write_bytes(_byte_edited(FUZZ_SIDECAR, edits))
        self._check(["speed", action, *map(str, crossing_files[:2]),
                     "--config", str(link_config), "--alpha-file", str(sidecar)],
                    tmp_path_session / f"fuzz_alpha_{action}_out")


class TestTables:
    def test_every_table_parses_to_its_header_width(
            self, vitals_dir, crossing_files, gesture_corpus, link_config, tmp_path):
        train, _, seg_cfg = gesture_corpus
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        manifest = ["file,label,start_s,end_s"]
        for src in sorted(train.glob("*_*.csv")):
            label, k = src.stem.split("_")
            name = f"{label},{k}.csv"
            shutil.copy(src, corpus / name)
            manifest.append(f'"{name}",{label},,')
        (corpus / "manifest.csv").write_text("\n".join(manifest) + "\n")
        walks = tmp_path / "walks"
        walks.mkdir()
        for i, src in enumerate(crossing_files):
            shutil.copy(src, walks / f"walk,{i + 1}.csv")

        out = tmp_path / "out"
        cfg = ["--config", str(link_config)]
        seg = ["--config", str(seg_cfg)]
        model = str(out / "model" / "model.json")
        for args in (
                ["heartrate", str(vitals_dir / "vitals.csv"), "-o", str(out / "hr")],
                ["gesture", "train", str(corpus), "--kind", "knn", *seg,
                 "-o", str(out / "model")],
                ["gesture", "eval", str(corpus), "--model", model, *seg,
                 "-o", str(out / "eval")],
                ["gesture", "classify", "--trace", str(corpus / "punch,0.csv"),
                 "--model", model, *seg, "-o", str(out / "classify")],
                ["speed", "calibrate", str(walks), *cfg, "-o", str(out / "cal")],
                ["speed", "estimate", str(walks / "walk,1.csv"),
                 str(vitals_dir / "vitals.csv"), *cfg,
                 "--alpha-file", str(out / "cal" / "alpha.txt"),
                 "-o", str(out / "est")]):
            assert run(args) == 0, args

        tables = sorted(out.rglob("*.csv"))
        assert len(tables) == 10
        for path in tables:
            assert b"\r" not in path.read_bytes(), path
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            assert len(rows) > 1, path
            assert all(len(r) == len(rows[0]) for r in rows), path
        with open(out / "est" / "events.csv", newline="") as fh:
            events = list(csv.reader(fh))
        assert events[1][:2] == ["walk,1.csv", "ok"]
        assert events[2][:2] == ["vitals.csv", "no_crossing"]
        with open(out / "eval" / "predictions.csv", newline="") as fh:
            assert "punch,0.csv" in [r[0] for r in csv.reader(fh)]


class TestReproducibility:
    def _dirs_identical(self, a, b):
        cmp = filecmp.dircmp(a, b)
        assert not cmp.left_only and not cmp.right_only
        _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files,
                                               shallow=False)
        assert not mismatch and not errors

    def test_simulate_rerun_is_byte_identical(self, tmp_path):
        args = ["simulate", "vitals", "--hr", "72", "--duration", "30",
                "--seed", "9"]
        for d in ("a", "b"):
            assert run(args + ["-o", str(tmp_path / d)]) == 0
        self._dirs_identical(tmp_path / "a", tmp_path / "b")

    def test_heartrate_rerun_is_byte_identical(self, vitals_dir, tmp_path):
        args = ["heartrate", str(vitals_dir / "vitals.csv"), "--window", "20"]
        for d in ("a", "b"):
            assert run(args + ["-o", str(tmp_path / d)]) == 0
        self._dirs_identical(tmp_path / "a", tmp_path / "b")

    def test_speed_rerun_is_byte_identical(self, calibrated, crossing_files,
                                           link_config, tmp_path):
        args = ["speed", "estimate", str(crossing_files[2]),
                "--alpha-file", str(calibrated / "alpha.txt"),
                "--config", str(link_config)]
        for d in ("a", "b"):
            assert run(args + ["-o", str(tmp_path / d)]) == 0
        self._dirs_identical(tmp_path / "a", tmp_path / "b")

    def test_different_seed_changes_trace(self, tmp_path):
        for seed in ("1", "2"):
            assert run(["simulate", "vitals", "--duration", "20",
                        "--seed", seed, "-o", str(tmp_path / seed)]) == 0
        a = np.loadtxt(tmp_path / "1" / "vitals.csv", delimiter=",", skiprows=2)
        b = np.loadtxt(tmp_path / "2" / "vitals.csv", delimiter=",", skiprows=2)
        assert not np.array_equal(a[:, 1], b[:, 1])
