"""Calibrate the speed scale factor on half the crossing corpus and score
the held-out half.

Writes speed_holdout.csv (one row per held-out crossing) and prints alpha,
the held-out RMSE, and the mean estimate per true speed.
"""

import argparse
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np

from rfsense.evaluate import corpus_speed_config, crossing_points, rmse, write_rows
from rfsense.sim import make_corpora
from rfsense.speed import calibrate_alpha, estimate_speed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="corpus seed")
    parser.add_argument("--output", default="results")
    args = parser.parse_args()

    crossing = make_corpora(args.seed)["crossing"]
    cfg = corpus_speed_config(7)

    points = crossing_points(crossing[::2], cfg)
    alpha, fit_rmse = calibrate_alpha(points)
    print(f"alpha = {alpha:.4f} m (fit rmse {fit_rmse:.4f} m/s, "
          f"{len(points)} crossings)")

    cfg = replace(cfg, alpha_m=alpha)
    rows, by_speed = [], defaultdict(list)
    for trace in crossing[1::2]:
        event = estimate_speed(trace, cfg)
        truth = trace.ground_truth.speed_mps
        rows.append([trace.metadata.extras["trace_id"], truth,
                     event.v_hat_mps, event.f_min_av_hz])
        by_speed[truth].append(event.v_hat_mps)

    held_out = rmse([v_hat - truth for _, truth, v_hat, _ in rows])
    print(f"held-out rmse = {held_out:.4f} m/s over {len(rows)} crossings")
    for truth in sorted(by_speed):
        vals = by_speed[truth]
        print(f"  true {truth:.1f} m/s: mean {np.mean(vals):.3f}, "
              f"std {np.std(vals):.3f}")

    path = Path(args.output) / "speed_holdout.csv"
    write_rows(path, ["trace_id", "speed_mps", "v_hat_mps", "f_min_av_hz"], rows)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
