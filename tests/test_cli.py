"""Command-line interface: subcommands, config plumbing, reproducibility."""

import csv
import filecmp
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from rfsense import cli, gesture
from rfsense.sim import NoiseModel, VitalSignsProfile, simulate_vitals
from rfsense.trace import load_trace, save_trace


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

    @pytest.mark.parametrize("section, fields", [
        ("heart", {"window_s": 20, "psd_threshold": None}),
        ("speed", {"hampel": None, "crossing_threshold_hz": None, "nfft": 2048}),
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
        rc = run(["simulate", "gesture", "--label", "wave", "-o", str(tmp_path)])
        assert rc == 2

    def test_bad_geometry_fails_nonzero(self, tmp_path):
        # crossing position outside the link
        rc = run(["simulate", "crossing", "--position", "5.0",
                  "-o", str(tmp_path)])
        assert rc != 0

    def test_corpora_layout(self, tmp_path, monkeypatch):
        from rfsense.sim import (DEFAULT_TEMPLATES, NoiseModel,
                                 VitalSignsProfile, simulate_gesture,
                                 simulate_vitals, _with_id)

        def tiny_corpora(seed, fs=449.0):
            quiet = VitalSignsProfile()
            noise = NoiseModel(seed=seed)
            vit = _with_id(simulate_vitals(quiet, noise, 10.0), "vitals_0")
            ges = _with_id(
                simulate_gesture(DEFAULT_TEMPLATES["punch"], noise, seed=seed),
                "gesture_punch_00")
            return {"vitals": [vit], "gesture_train": [ges],
                    "gesture_test": [ges], "crossing": []}

        monkeypatch.setattr(cli, "make_corpora", tiny_corpora)
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
                  "--config", str(link_config), "-o", str(tmp_path)])
        assert rc == 2


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
