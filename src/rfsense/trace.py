"""RSS trace container and CSV round-trip IO.

A trace is a 1-D received-signal-strength time series in dB sampled at a
nominal rate (449 Hz for the hardware this mirrors), together with link
metadata and optional ground truth attached by the simulator.

File format (one trace per file):

    # sample_rate_hz=449.0,center_freq_hz=434000000.0[,key=value...]
    t_s,rss_db[,gt_*...]
    0.0,-50.1,...

Numeric ground truth is stored as ``gt_``-prefixed columns (per-sample series
such as ``gt_hr_bpm``; per-trace scalars are broadcast to constant columns).
The gesture label, being a string, lives in the header line as
``gt_label=<name>``. All floats are written with shortest round-trip repr, so
``load_trace(save_trace(t)) == t`` exactly and repeated writes are
byte-identical.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

DEFAULT_SAMPLE_RATE_HZ = 449.0
DEFAULT_CENTER_FREQ_HZ = 434e6

# Scalar ground-truth fields and their column names, in file order.
_GT_SCALAR_COLUMNS = (
    ("speed_mps", "gt_speed_mps"),
    ("cross_t_s", "gt_cross_t_s"),
    ("start_s", "gt_start_s"),
    ("end_s", "gt_end_s"),
)


@dataclass
class GroundTruth:
    """Optional per-trace truth written by the simulator.

    hr_bpm is a per-sample series; the rest are scalars. Any subset may be
    present.
    """

    hr_bpm: np.ndarray | None = None
    speed_mps: float | None = None
    cross_t_s: float | None = None
    label: str | None = None
    start_s: float | None = None
    end_s: float | None = None

    def __eq__(self, other):
        if not isinstance(other, GroundTruth):
            return NotImplemented
        if (self.hr_bpm is None) != (other.hr_bpm is None):
            return False
        if self.hr_bpm is not None and not np.array_equal(self.hr_bpm, other.hr_bpm):
            return False
        return (
            self.speed_mps == other.speed_mps
            and self.cross_t_s == other.cross_t_s
            and self.label == other.label
            and self.start_s == other.start_s
            and self.end_s == other.end_s
        )


@dataclass
class TraceMetadata:
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ
    center_freq_hz: float = DEFAULT_CENTER_FREQ_HZ
    extras: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.sample_rate_hz > 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        if not self.center_freq_hz > 0:
            raise ValueError(f"center_freq_hz must be positive, got {self.center_freq_hz}")


@dataclass
class RssTrace:
    """Uniformly sampled RSS series with metadata and optional ground truth.

    Every RSS sample must be finite: a NaN or an infinite sample raises
    ValueError here rather than reaching an estimator as a plausible number.
    """

    metadata: TraceMetadata
    timestamps: np.ndarray
    rss_db: np.ndarray
    ground_truth: GroundTruth = field(default_factory=GroundTruth)

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        self.rss_db = np.asarray(self.rss_db, dtype=np.float64)
        if self.timestamps.ndim != 1 or self.rss_db.ndim != 1:
            raise ValueError("timestamps and rss_db must be 1-D")
        if len(self.timestamps) != len(self.rss_db):
            raise ValueError(
                f"length mismatch: {len(self.timestamps)} timestamps vs {len(self.rss_db)} samples"
            )
        if len(self.timestamps) > 1 and not np.all(np.diff(self.timestamps) > 0):
            raise ValueError("timestamps must be strictly increasing")
        finite = np.isfinite(self.rss_db)
        if not finite.all():
            bad = np.flatnonzero(~finite)
            raise ValueError(f"rss_db holds {len(bad)} non-finite (NaN/+-inf) "
                             f"sample(s); the first is at index {bad[0]}")
        gt = self.ground_truth
        if gt.hr_bpm is not None:
            gt.hr_bpm = np.asarray(gt.hr_bpm, dtype=np.float64)
            if len(gt.hr_bpm) != len(self.rss_db):
                raise ValueError("gt hr_bpm series must match trace length")

    def __len__(self) -> int:
        return len(self.rss_db)

    @property
    def duration_s(self) -> float:
        """Trace duration at the nominal rate (n / sample_rate)."""
        return len(self.rss_db) / self.metadata.sample_rate_hz


def make_trace(rss_db, sample_rate_hz=DEFAULT_SAMPLE_RATE_HZ,
               center_freq_hz=DEFAULT_CENTER_FREQ_HZ,
               ground_truth: GroundTruth | None = None,
               extras: dict[str, str] | None = None) -> RssTrace:
    """Build a trace with a uniform time axis t[i] = i / sample_rate."""
    rss_db = np.asarray(rss_db, dtype=np.float64)
    t = np.arange(len(rss_db), dtype=np.float64) / sample_rate_hz
    return RssTrace(
        metadata=TraceMetadata(sample_rate_hz, center_freq_hz, extras or {}),
        timestamps=t,
        rss_db=rss_db,
        ground_truth=ground_truth or GroundTruth(),
    )


def _format_float(x: float) -> str:
    return repr(float(x))


def _header_escape(v: str) -> str:
    if "," in v or "=" in v or "\n" in v:
        raise ValueError(f"metadata value {v!r} may not contain ',', '=' or newlines")
    return v


def save_trace(trace: RssTrace, path: str | os.PathLike) -> None:
    """Write a trace to CSV with exact float round-trip."""
    meta = trace.metadata
    gt = trace.ground_truth
    pairs = [
        ("sample_rate_hz", _format_float(meta.sample_rate_hz)),
        ("center_freq_hz", _format_float(meta.center_freq_hz)),
    ]
    if gt.label is not None:
        pairs.append(("gt_label", _header_escape(gt.label)))
    for key in sorted(meta.extras):
        pairs.append((key, _header_escape(str(meta.extras[key]))))

    columns: list[tuple[str, np.ndarray]] = [
        ("t_s", trace.timestamps),
        ("rss_db", trace.rss_db),
    ]
    n = len(trace)
    if gt.hr_bpm is not None:
        columns.append(("gt_hr_bpm", gt.hr_bpm))
    for attr, col in _GT_SCALAR_COLUMNS:
        val = getattr(gt, attr)
        if val is not None:
            columns.append((col, np.full(n, float(val))))

    lines = ["# " + ",".join(f"{k}={v}" for k, v in pairs)]
    lines.append(",".join(name for name, _ in columns))
    cols = [c for _, c in columns]
    for i in range(n):
        lines.append(",".join(_format_float(c[i]) for c in cols))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_trace(path: str | os.PathLike) -> RssTrace:
    """Read a trace written by save_trace."""
    with open(path) as f:
        header = f.readline().rstrip("\n")
        colnames = f.readline().rstrip("\n").split(",")
        body = f.read()
    if not header.startswith("# "):
        raise ValueError(f"{path}: missing '# key=value' metadata line")
    meta_pairs = {}
    for item in header[2:].split(","):
        if "=" not in item:
            raise ValueError(f"{path}: malformed metadata item {item!r}")
        k, v = item.split("=", 1)
        meta_pairs[k] = v
    try:
        sample_rate = float(meta_pairs.pop("sample_rate_hz"))
        center_freq = float(meta_pairs.pop("center_freq_hz"))
    except KeyError as e:
        raise ValueError(f"{path}: metadata line lacks {e}") from None
    label = meta_pairs.pop("gt_label", None)

    if colnames[:2] != ["t_s", "rss_db"]:
        raise ValueError(f"{path}: expected columns t_s,rss_db..., got {colnames}")
    if body.strip():
        data = np.array(
            [[float(tok) for tok in line.split(",")] for line in body.splitlines() if line],
            dtype=np.float64,
        )
    else:
        data = np.empty((0, len(colnames)))
    if data.shape[1] != len(colnames):
        raise ValueError(f"{path}: row width {data.shape[1]} != header width {len(colnames)}")

    by_name = {name: data[:, i] for i, name in enumerate(colnames)}
    gt = GroundTruth(label=label)
    if "gt_hr_bpm" in by_name:
        gt.hr_bpm = by_name["gt_hr_bpm"]
    for attr, col in _GT_SCALAR_COLUMNS:
        if col in by_name:
            series = by_name[col]
            setattr(gt, attr, float(series[0]) if len(series) else None)

    try:
        return RssTrace(
            metadata=TraceMetadata(sample_rate, center_freq, meta_pairs),
            timestamps=by_name["t_s"],
            rss_db=by_name["rss_db"],
            ground_truth=gt,
        )
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
