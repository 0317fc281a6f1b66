"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload vitals-stream --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. With `--trace 0` the last line holds the end-to-end
metrics of BENCHMARK.json, with `--trace 1` its per-layer metrics, measured
by spans around the package's public functions. Set-up (imports plus input
generation) is timed before the first round; rounds repeat whole while the
next one is expected to end within `--seconds` (at least one round runs). A record of the run, with the machine, the library
versions and, for a traced run, the tracing overhead, goes to
perfbench/out/records/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import Tracer

# one thread per process: the benchmark's machine has two cores, and a
# second BLAS or OpenMP thread would time the scheduler, not the program
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_package():
    """Import the package and the workloads from this checkout; returns the
    workloads module and the import time in seconds."""
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import workloads  # imports numpy, scipy and every rfsense module
    import_s = time.perf_counter() - t0
    import rfsense
    if not Path(rfsense.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"rfsense imported from {rfsense.__file__}, not from {ROOT / 'src'}")
    return workloads, import_s


def _environment() -> dict:
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def timings(rec, import_s: float, setup_s: list[float], peak_kib: int) -> dict:
    """The run's end-to-end figures. `op_ms_p75` is the one timing metric
    of BENCHMARK.json besides set-up: the machine the benchmark was built on
    alternates between two speeds for seconds at a time, and the share of
    fast time moves the phase totals, the mean and the median from run to
    run, while the 75th percentile of the run-phase latencies stays in the
    prevailing mode. The others go to the run record."""
    rounds = rec.rounds
    ops = [dt for r in rounds for dt in r["ops_s"]]
    prep_ops = [dt for r in rounds for dt in r["prepare_ops_s"]]
    return {
        "setup_s": import_s + statistics.median(setup_s),
        "peak_rss_mib": peak_kib / 1024.0,
        "op_ms_p75": 1e3 * _percentile(ops, 75),
        "op_ms_p50": 1e3 * statistics.median(ops),
        "op_ms_p90": 1e3 * _percentile(ops, 90),
        "op_ms_mean": 1e3 * statistics.fmean(ops),
        "prep_op_ms_p75": 1e3 * _percentile(prep_ops, 75),
        "round_s": statistics.fmean(r["prepare_s"] + r["run_s"] for r in rounds),
        "prepare_s": statistics.fmean(r["prepare_s"] for r in rounds),
        "rtf": sum(r["trace_s"] for r in rounds) / sum(r["run_s"] for r in rounds),
    }


def _percentile(values: list[float], q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q))


def main(argv=None) -> int:
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        workloads, import_s = _import_package()
    except ImportError as e:
        print(f"error: cannot import the package from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = OUT / f"work-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](work_dir)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    setup_s = []
    for i in range(SETUP_REPEATS):
        if tracer:
            tracer.scope("setup" if i == SETUP_REPEATS - 1 else None)
        inputs = None  # let the previous inputs go before building new ones
        t0 = time.perf_counter()
        inputs = wl.setup(args.seed)
        setup_s.append(time.perf_counter() - t0)

    if tracer:
        tracer.scope(None)
    wl.warm(inputs)
    rec = workloads.Recorder()
    try:
        if tracer:
            tracer.scope("round")
        start = time.perf_counter()
        longest = 0.0
        while True:
            rec.start_round()
            t0 = time.perf_counter()
            out = wl.round(inputs, rec, args.seed)
            now = time.perf_counter()
            longest = max(longest, now - t0)
            if now - start + longest > args.seconds:
                break
        elapsed = time.perf_counter() - start
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer:
            tracer.scope(None)
            tracer.uninstall()
        t0 = time.perf_counter()
        problems, figures = wl.check(inputs, out, args.seed)
        check_s = time.perf_counter() - t0
    finally:
        wl.cleanup()

    for line in rec.errors + problems:
        print(f"{args.workload}: {line}", file=sys.stderr)
    names = [m["name"] for m in spec["per_layer" if tracer else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    figures["timings"] = timings(rec, import_s, setup_s, peak_kib)
    if tracer:
        values = tracer.per_layer(names, len(rec.rounds))
    else:
        values = figures["timings"]
    result = {"correct": not problems,
              "attempted": rec.attempted, "failed": rec.failed,
              "metrics": {n: {"value": values[n], "unit": units[n]} for n in names}}
    _write_record(args, result, rec, import_s, setup_s, elapsed, check_s, figures)
    print(json.dumps(result))
    return 0


def _write_record(args, result: dict, rec, import_s, setup_s, elapsed, check_s,
                  figures) -> None:
    """Keep the run's context next to its numbers; a traced run also gets
    its overhead against the untraced run of the same workload and seed."""
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    rounds_s = [r["prepare_s"] + r["run_s"] for r in rec.rounds]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "finished_at": time.time(),
              "trace": args.trace, "environment": _environment(),
              "import_s": import_s, "setup_s": setup_s, "rounds": len(rec.rounds),
              "round_s": rounds_s, "ops_s": [r["ops_s"] for r in rec.rounds],
              "prepare_ops_s": [r["prepare_ops_s"] for r in rec.rounds],
              "elapsed_s": elapsed, "check_s": check_s, "figures": figures, **result,
              "errors": rec.errors}
    if args.trace:
        untraced = records / f"{args.workload}-seed{args.seed}-trace0.json"
        if untraced.exists():
            base = json.loads(untraced.read_text())
            base_s = statistics.median(base["round_s"])
            traced = statistics.median(rounds_s)
            record["trace_overhead"] = {
                "round_s_untraced": base_s, "round_s_traced": traced,
                "overhead_s": traced - base_s, "overhead_share": (traced - base_s) / base_s,
                "untraced_age_s": record["finished_at"] - base["finished_at"]}
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
