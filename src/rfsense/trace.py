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

The nominal time axis t[i] = i / sample_rate_hz is held once, for the most
recent sample rate, as one read-only array and the repr of its elements.
make_trace returns a read-only prefix view of that array rather than an
array of its own, and save_trace reuses its text; the memory bound is in
save_trace's docstring.

load_trace raises ValueError, prefixed with the path, for a file it cannot
trust. Errors tied to one body row name it as ``path:line`` (the first data
row is line 3):

- a row whose field count differs from the header's, or a token that
  np.loadtxt, the one body parser, refuses (``1_0``, which float() reads);
- a timestamp step that differs from the nominal period 1 / sample_rate_hz
  by more than half a period (MAX_STEP_ERROR_PERIODS): every estimator
  assumes uniform sampling, t[i] = t[0] + i / fs.
- a per-trace scalar truth column (gt_speed_mps, gt_cross_t_s, gt_start_s,
  gt_end_s) whose value differs, bit for bit, from its first row's: the
  value read is the first row's, so an edited later row would otherwise be
  ignored without a word.

Non-UTF-8 bytes, a missing or malformed metadata line or value, unexpected
columns and a NaN or infinite RSS sample are named by path alone.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

import numpy as np

from .dsp import _positive, _require_finite

DEFAULT_SAMPLE_RATE_HZ = 449.0
DEFAULT_CENTER_FREQ_HZ = 434e6

# A timestamp step may differ from the nominal period 1 / sample_rate_hz by
# at most this many periods; every estimator assumes t[i] = t[0] + i / fs.
MAX_STEP_ERROR_PERIODS = 0.5

# File line of the first data row, after the metadata and column-name lines.
_FIRST_DATA_LINE = 3

# np.loadtxt's arguments for the body, its one parser
_LOADTXT = dict(delimiter=",", comments=None, ndmin=2, dtype=np.float64)

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
        _positive(sample_rate_hz=self.sample_rate_hz, center_freq_hz=self.center_freq_hz)


@dataclass
class RssTrace:
    """Uniformly sampled RSS series with metadata and optional ground truth.

    Every RSS sample must be finite: a NaN or an infinite sample raises
    ValueError here rather than reaching an estimator as a plausible number.

    timestamps may be a read-only view of the shared nominal axis (see
    make_trace): writing to it raises ValueError, and a caller that needs
    other times builds a new array.
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
        _require_finite(self.rss_db, "rss_db")
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


# (rate, np.arange(N) / rate, repr of its first elements) for the last rate
# asked for; see _nominal_axis_at. The array is read-only and the tuple is
# replaced in one assignment, never mutated, so a thread that read it keeps
# a consistent triple and every view handed out stays valid.
_nominal_axis: tuple[float, np.ndarray, list[str]] = (0.0, np.empty(0), [])


def _nominal_axis_at(rate: float, n: int) -> tuple[float, np.ndarray, list[str]]:
    """The cached nominal axis at `rate`, at least `n` samples long.

    Element i of np.arange(N) / rate does not depend on N, so a longer axis
    at the same rate keeps the bits (and the text) of a shorter one, and
    views of the shorter one stay valid; another rate replaces it.
    """
    global _nominal_axis
    axis = cached_rate, values, text = _nominal_axis
    if cached_rate != rate or len(values) < n:
        values = np.arange(n, dtype=np.float64) / rate
        values.flags.writeable = False
        axis = _nominal_axis = (rate, values, text if cached_rate == rate else [])
    return axis


def make_trace(rss_db, sample_rate_hz=DEFAULT_SAMPLE_RATE_HZ,
               center_freq_hz=DEFAULT_CENTER_FREQ_HZ,
               ground_truth: GroundTruth | None = None,
               extras: dict[str, str] | None = None) -> RssTrace:
    """Build a trace with a uniform time axis t[i] = i / sample_rate.

    The timestamps are a read-only view of the axis cached for this rate,
    shared with every other trace at that rate.
    """
    rss_db = np.asarray(rss_db, dtype=np.float64)
    meta = TraceMetadata(sample_rate_hz, center_freq_hz, extras or {})
    _, values, _ = _nominal_axis_at(sample_rate_hz, len(rss_db))
    return RssTrace(
        metadata=meta,
        timestamps=values[:len(rss_db)],
        rss_db=rss_db,
        ground_truth=ground_truth or GroundTruth(),
    )


def _format_float(x: float) -> str:
    return repr(float(x))


def _header_escape(v: str) -> str:
    # load_trace reads text in universal-newline mode, so "\r" ends a line too
    if any(c in v for c in ",=\n\r"):
        raise ValueError(f"metadata text {v!r} may not contain ',', '=' or line breaks")
    return v


def _time_text(t: np.ndarray, rate: float):
    """repr of each timestamp; the cached text when `t` is a prefix of the
    nominal axis bit for bit (-0.0 == 0.0, but their reprs differ)."""
    global _nominal_axis
    n = len(t)
    _, values, text = _nominal_axis_at(rate, n)
    if not np.array_equal(values[:n].view(np.int64), t.view(np.int64)):
        return map(repr, t.tolist())
    if len(text) < n:
        text = text + list(map(repr, values[len(text):n].tolist()))
        _nominal_axis = (rate, values, text)
    return text[:n]


def save_trace(trace: RssTrace, path: str | os.PathLike) -> None:
    """Write a trace to CSV with exact float round-trip.

    The t_s text of a trace on the nominal axis np.arange(n) / rate (every
    make_trace and simulator trace, and every trace loaded from a file
    written here) comes from the one cached axis make_trace views: its
    text is formatted once, up to the longest trace written at the most
    recent rate, and a trace at another rate (on the axis or not) replaces
    the axis and its text. The text is used only when the timestamps equal
    the axis prefix bit for bit, so any other axis (offset, jittered, a
    -0.0 start) is formatted as before and the bytes never change. Memory:
    one axis for the most recent rate, as long as the longest trace made or
    written at it (8 bytes per sample), plus about 85 bytes per sample of
    text up to the longest trace written (0.75 MB for a 20 s trace at
    449 Hz, 11 MB for 300 s).

    Scalar ground truth is stored on every row, so an empty trace that has
    any raises ValueError: its file would have no row to hold the value.
    So does header text with ',', '=' or a line break, or an extras key named
    like a header field: the file would read back as another trace.
    """
    meta = trace.metadata
    gt = trace.ground_truth
    pairs = [
        ("sample_rate_hz", _format_float(meta.sample_rate_hz)),
        ("center_freq_hz", _format_float(meta.center_freq_hz)),
    ]
    if gt.label is not None:
        pairs.append(("gt_label", _header_escape(gt.label)))
    for key in sorted(meta.extras):
        if key in ("sample_rate_hz", "center_freq_hz", "gt_label"):
            raise ValueError(f"extras key {key!r} would be read back as a header field")
        pairs.append((_header_escape(str(key)), _header_escape(str(meta.extras[key]))))

    names = ["t_s", "rss_db"]
    series = [trace.timestamps, trace.rss_db]
    if gt.hr_bpm is not None:
        names.append("gt_hr_bpm")
        series.append(gt.hr_bpm)
    # Scalar truth is the same on every row: format it once as the row tail.
    row_end = ""
    for attr, col in _GT_SCALAR_COLUMNS:
        val = getattr(gt, attr)
        if val is not None:
            if not len(trace):
                raise ValueError(f"an empty trace cannot store scalar ground "
                                 f"truth {col}: the file has no row to hold it")
            names.append(col)
            row_end += "," + _format_float(val)
    row_end += "\n"

    # repr of a tolist() float is repr(float(c[i])): the same shortest
    # round-trip text, formatted a whole column at a time.
    series = [np.asarray(c, dtype=np.float64) for c in series]
    cols = [_time_text(series[0], meta.sample_rate_hz)]
    cols += [map(repr, c.tolist()) for c in series[1:]]
    body = row_end.join(map(",".join, zip(*cols))) + row_end if len(trace) else ""
    with open(path, "w", encoding="utf-8") as f:
        f.write("# " + ",".join(f"{k}={v}" for k, v in pairs) + "\n"
                + ",".join(names) + "\n" + body)


def _data_lines(lines: list[str]):
    """(file line number, text) of each non-empty body line."""
    for line_no, line in enumerate(lines, start=_FIRST_DATA_LINE):
        if line:
            yield line_no, line


def _reads(lines: list[str], **kwargs) -> bool:
    try:
        np.loadtxt(lines, **_LOADTXT, **kwargs)
    except ValueError:
        return False
    return True


def _refused_line(lines: list[str], width: int, path) -> None:
    """Raise naming the first body line np.loadtxt refuses: one whose field
    count differs from the header's, or one with a token loadtxt cannot
    read, which is named too. Runs only once loadtxt has refused the body."""
    for line_no, line in _data_lines(lines):
        fields = line.split(",")
        if len(fields) != width:
            raise ValueError(f"{path}:{line_no}: {len(fields)} fields, "
                             f"the header names {width}")
        if not _reads([line]):
            bad = next((tok for i, tok in enumerate(fields)
                        if not _reads([line], usecols=(i,))), line)
            raise ValueError(f"{path}:{line_no}: {bad!r} is not a number")


def _line_of(lines: list[str], row: int) -> int:
    """File line number of body row `row` (blank lines are not rows)."""
    line_no, _ = next(itertools.islice(_data_lines(lines), row, None))
    return line_no


def _scalar(series: np.ndarray, col: str, lines: list[str], path) -> float | None:
    """The value of a per-trace scalar column; raise naming the line of the
    first row whose value differs from the first row's, bit for bit."""
    if not len(series):
        return None
    bits = series.view(np.int64)
    off = bits != bits[0]
    if off.any():
        row = int(np.argmax(off))
        raise ValueError(
            f"{path}:{_line_of(lines, row)}: {col} is {float(series[row])!r} here "
            f"but {float(series[0])!r} on the first row; a per-trace value must "
            "not vary")
    return float(series[0])


def _check_uniform(t: np.ndarray, sample_rate: float, lines: list[str], path) -> None:
    """Raise naming the line of the first step off the nominal period."""
    period = 1.0 / sample_rate
    off = ~(np.abs(np.diff(t) - period) <= MAX_STEP_ERROR_PERIODS * period)
    if off.any():
        row = int(np.argmax(off)) + 1
        raise ValueError(
            f"{path}:{_line_of(lines, row)}: timestamp {float(t[row])!r} s "
            f"follows {float(t[row - 1])!r} s; "
            f"sample_rate_hz={sample_rate!r} needs steps of {period!r} s "
            f"(within {MAX_STEP_ERROR_PERIODS} of a period)")


def load_trace(path: str | os.PathLike) -> RssTrace:
    """Read a trace written by save_trace."""
    try:
        with open(path, encoding="utf-8") as f:
            header = f.readline().rstrip("\n")
            colnames = f.readline().rstrip("\n").split(",")
            lines = f.read().split("\n")
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8 text: {e}") from None
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
    except ValueError as e:
        raise ValueError(f"{path}: bad metadata number: {e}") from None
    label = meta_pairs.pop("gt_label", None)

    if colnames[:2] != ["t_s", "rss_db"]:
        raise ValueError(f"{path}: expected columns t_s,rss_db..., got {colnames}")
    if any(line.strip() for line in lines):
        try:
            data = np.loadtxt(lines, **_LOADTXT)
        except ValueError as e:
            _refused_line(lines, len(colnames), path)
            raise ValueError(f"{path}: {e}") from None  # no one line refused
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
            setattr(gt, attr, _scalar(by_name[col], col, lines, path))

    try:
        meta = TraceMetadata(sample_rate, center_freq, meta_pairs)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    _check_uniform(by_name["t_s"], sample_rate, lines, path)
    try:
        return RssTrace(
            metadata=meta,
            timestamps=by_name["t_s"],
            rss_db=by_name["rss_db"],
            ground_truth=gt,
        )
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
