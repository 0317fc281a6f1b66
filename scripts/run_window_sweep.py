"""Sweep the heart-rate analysis window over the simulated vitals corpus.

Writes window_sweep.csv (window_s, rmse_bpm, n_estimates) and prints the
table. Short windows are noise-limited, long windows lag the drifting rate,
so the error curve is U-shaped with its minimum near 20 s.
"""

import argparse
from pathlib import Path

import numpy as np

from rfsense.evaluate import hr_errors, rmse, write_rows
from rfsense.heart import HeartRateConfig, stream_heart_rate
from rfsense.sim import make_corpora


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="corpus seed")
    parser.add_argument("--windows", type=float, nargs="+",
                        default=(5.0, 10.0, 15.0, 20.0, 30.0, 40.0))
    parser.add_argument("--output", default="results")
    args = parser.parse_args()

    traces = make_corpora(args.seed)["vitals"]
    rows = []
    for w in args.windows:
        cfg = HeartRateConfig(window_s=w)
        errors = np.concatenate([hr_errors(t, stream_heart_rate(t, cfg))
                                 for t in traces])
        score = rmse(errors)
        rows.append([w, score, len(errors)])
        print(f"window {w:5.1f} s: rmse {score:6.3f} bpm over {len(errors)} estimates")

    path = Path(args.output) / "window_sweep.csv"
    write_rows(path, ["window_s", "rmse_bpm", "n_estimates"], rows)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
