"""The experiment scripts run end to end and write the tables they name."""

import csv
import runpy
import sys
from pathlib import Path

import pytest

import rfsense.sim
from rfsense.sim import make_corpora

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture(scope="module")
def corpora():
    return make_corpora(0)


def run_script(name, args, monkeypatch, corpora):
    monkeypatch.setattr(rfsense.sim, "make_corpora",
                        lambda seed: corpora if seed == 0 else make_corpora(seed))
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def read_table(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_window_sweep(tmp_path, monkeypatch, corpora, capsys):
    run_script("run_window_sweep.py", ["--windows", "20", "--output", str(tmp_path)],
               monkeypatch, corpora)
    rows = read_table(tmp_path / "window_sweep.csv")
    assert rows[0] == ["window_s", "rmse_bpm", "n_estimates"]
    assert len(rows) == 2 and rows[1][0] == "20.0"
    assert "window  20.0 s" in capsys.readouterr().out


def test_speed_calibration(tmp_path, monkeypatch, corpora, capsys):
    run_script("run_speed_calibration.py", ["--output", str(tmp_path)],
               monkeypatch, corpora)
    rows = read_table(tmp_path / "speed_holdout.csv")
    assert rows[0] == ["trace_id", "speed_mps", "v_hat_mps", "f_min_av_hz"]
    assert len(rows) == 1 + len(corpora["crossing"][1::2])
    assert "held-out rmse" in capsys.readouterr().out


def test_angle_sweep(tmp_path, monkeypatch, corpora, capsys):
    run_script("run_angle_sweep.py",
               ["--angles", "45", "90", "--output", str(tmp_path)],
               monkeypatch, corpora)
    rows = read_table(tmp_path / "angle_sweep.csv")
    assert rows[0] == ["angle_deg", "f_min_av_hz", "v_hat_mps", "error_mps"]
    assert [r[0] for r in rows[1:]] == ["45.0", "90.0"]
    assert "alpha = " in capsys.readouterr().out
