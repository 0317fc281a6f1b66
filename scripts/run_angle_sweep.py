"""Crossing-signature frequency and speed estimate versus path angle.

Calibrates on perpendicular crossings, then sweeps the angle between the
walking path and the link line at fixed speed. Writes angle_sweep.csv
(angle_deg, f_min_av_hz, v_hat_mps, error_mps). The minimum average
frequency stays flat down to about 30 degrees and rises sharply as the
path approaches the link line, where the estimate is no longer usable.
"""

import argparse
from dataclasses import replace
from pathlib import Path

from rfsense.evaluate import corpus_speed_config, crossing_points, write_rows
from rfsense.sim import (
    CROSSING_DURATION_S,
    CROSSING_LINK,
    NoiseModel,
    WalkPath,
    simulate_crossing,
)
from rfsense.speed import calibrate_alpha, estimate_speed


def crossing_at(speed, angle, seed):
    path = WalkPath.centred(1.0, angle, speed, CROSSING_DURATION_S)
    return simulate_crossing(CROSSING_LINK, path, NoiseModel(seed=seed))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--speed", type=float, default=0.813)
    parser.add_argument("--angles", type=float, nargs="+",
                        default=(10, 15, 20, 25, 30, 40, 50, 60, 70, 80, 90))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default="results")
    args = parser.parse_args()

    cfg = corpus_speed_config(7)
    walks = [crossing_at(v, 90.0, args.seed + 1000 + k)
             for k, v in enumerate((0.4, 0.7, 1.0, 1.3, 1.6))]
    alpha, _ = calibrate_alpha(crossing_points(walks, cfg))
    cfg = replace(cfg, alpha_m=alpha)
    print(f"alpha = {alpha:.4f} m from perpendicular crossings")

    rows = []
    for k, angle in enumerate(args.angles):
        event = estimate_speed(crossing_at(args.speed, angle, args.seed + k), cfg)
        err = event.v_hat_mps - args.speed
        rows.append([angle, event.f_min_av_hz, event.v_hat_mps, err])
        print(f"angle {angle:5.1f} deg: f_min_av {event.f_min_av_hz:.3f} Hz, "
              f"v_hat {event.v_hat_mps:.3f} m/s (error {err:+.3f})")

    path = Path(args.output) / "angle_sweep.csv"
    write_rows(path, ["angle_deg", "f_min_av_hz", "v_hat_mps", "error_mps"], rows)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
