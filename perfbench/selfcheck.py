"""Show that every workload's output check can fail.

    python3 perfbench/selfcheck.py [--seed N] [--workload NAME ...]

Runs one round of each workload, requires its check to accept the real
outputs, then applies each corruption and requires the check to reject it:

  vitals-stream  the bpm of one sampled window moved by one FFT bin
  gesture-batch  one test trace's label swapped for another label
  speed-files    every held-out speed estimate scaled by 1.2 on disk;
                 one sample of one written trace changed on disk

Exits 1 if a check rejects real outputs or accepts a corrupted one.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from rfsense.gesture import GESTURE_LABELS  # noqa: E402


def one_fft_bin(inputs, out, seed):
    key, ti, j = checks.sampled_windows(seed, out["streams"])[0]
    cfg, per_trace = out["streams"][key]
    per_trace = [list(estimates) for estimates in per_trace]
    e = per_trace[ti][j]
    per_trace[ti][j] = replace(e, bpm=e.bpm + 60.0 * cfg.sample_rate_hz / cfg.nfft)
    return {"streams": {**out["streams"], key: (cfg, per_trace)}}


def swapped_label(inputs, out, seed):
    labels = list(out["test_labels"])
    i = next(i for i, label in enumerate(labels) if label is not None)
    labels[i] = next(label for label in GESTURE_LABELS if label != labels[i])
    return {**out, "test_labels": labels}


def scaled_speeds(inputs, out, seed):
    for path in (Path(out["dir"]) / "estimates").glob("*/events.csv"):
        header, row = path.read_text().splitlines()
        cells = row.split(",")
        cells[4] = repr(float(cells[4]) * 1.2)
        path.write_text(f"{header}\n{','.join(cells)}\n")
    return out


def changed_sample(inputs, out, seed):
    path = sorted((Path(out["dir"]) / "held_out").glob("*.csv"))[-1]
    lines = path.read_text().split("\n")
    row = lines[1000].split(",")
    row[1] = repr(float(row[1]) + 1e-9)
    lines[1000] = ",".join(row)
    path.write_text("\n".join(lines))
    return out


CORRUPTIONS = {"vitals-stream": [one_fft_bin], "gesture-batch": [swapped_label],
               "speed-files": [scaled_speeds, changed_sample]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workload", nargs="*", default=list(CORRUPTIONS))
    args = p.parse_args(argv)
    bad = 0
    for name in args.workload:
        wl = workloads.WORKLOADS[name](HERE / "out" / "selfcheck")
        try:
            inputs = wl.setup(args.seed)
            rec = workloads.Recorder()
            rec.start_round()
            out = wl.round(inputs, rec, args.seed)
            real, _ = wl.check(inputs, out, args.seed)
            bad += bool(real) or bool(rec.failed)
            print(f"{name}: real outputs {'pass' if not real else 'FAIL'}")
            for line in real:
                print(f"    {line}")
            # each corruption spoils the outputs for good, so it gets a
            # fresh round of its own
            for i, corrupt in enumerate(CORRUPTIONS[name]):
                if i:
                    rec.start_round()
                    out = wl.round(inputs, rec, args.seed)
                corrupted, _ = wl.check(inputs, corrupt(inputs, out, args.seed), args.seed)
                bad += not corrupted
                print(f"{name}: {corrupt.__name__.replace('_', ' ')} "
                      f"{'rejected' if corrupted else 'ACCEPTED'}")
                for line in corrupted:
                    print(f"    {line}")
        finally:
            wl.cleanup()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
