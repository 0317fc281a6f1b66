import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfsense.sim import (
    DEFAULT_TEMPLATES,
    LinkGeometry,
    NoiseModel,
    VitalSignsProfile,
    WalkPath,
    simulate_crossing,
    simulate_gesture,
    simulate_vitals,
)
from rfsense import trace as rftrace
from rfsense.trace import (
    GroundTruth,
    RssTrace,
    TraceMetadata,
    load_trace,
    make_trace,
    save_trace,
)

SCALAR_COLUMNS = (("speed_mps", "gt_speed_mps"), ("cross_t_s", "gt_cross_t_s"),
                  ("start_s", "gt_start_s"), ("end_s", "gt_end_s"))


def reference_save(trace, path):
    """The row-at-a-time writer: one repr(float(c[i])) per field."""
    meta, gt = trace.metadata, trace.ground_truth
    pairs = [("sample_rate_hz", repr(float(meta.sample_rate_hz))),
             ("center_freq_hz", repr(float(meta.center_freq_hz)))]
    if gt.label is not None:
        pairs.append(("gt_label", gt.label))
    pairs += [(k, str(meta.extras[k])) for k in sorted(meta.extras)]
    columns = [("t_s", trace.timestamps), ("rss_db", trace.rss_db)]
    n = len(trace)
    if gt.hr_bpm is not None:
        columns.append(("gt_hr_bpm", gt.hr_bpm))
    for attr, col in SCALAR_COLUMNS:
        if getattr(gt, attr) is not None:
            columns.append((col, np.full(n, float(getattr(gt, attr)))))
    lines = ["# " + ",".join(f"{k}={v}" for k, v in pairs),
             ",".join(name for name, _ in columns)]
    cols = [c for _, c in columns]
    for i in range(n):
        lines.append(",".join(repr(float(c[i])) for c in cols))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def reference_body(path):
    """The body parsed one token at a time with float()."""
    lines = path.read_text().splitlines()[2:]
    return np.array([[float(tok) for tok in line.split(",")] for line in lines if line],
                    dtype=np.float64)


def loaded_columns(trace, names):
    """The loaded trace as the file's columns, scalars broadcast."""
    gt = trace.ground_truth
    by_name = {"t_s": trace.timestamps, "rss_db": trace.rss_db, "gt_hr_bpm": gt.hr_bpm}
    by_name.update({col: np.full(len(trace), getattr(gt, attr))
                    for attr, col in SCALAR_COLUMNS})
    return np.column_stack([by_name[name] for name in names])


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def assert_exact_io(trace, path, ref_path):
    """save_trace writes the reference bytes and load_trace reads the
    reference arrays, which are the trace's own, bit for bit."""
    save_trace(trace, path)
    reference_save(trace, ref_path)
    assert path.read_bytes() == ref_path.read_bytes()
    back = load_trace(path)
    names = path.read_text().split("\n", 2)[1].split(",")
    assert bits(loaded_columns(back, names)) == bits(reference_body(path))
    assert bits(back.timestamps) == bits(trace.timestamps)
    assert bits(back.rss_db) == bits(trace.rss_db)
    gt, gt_back = trace.ground_truth, back.ground_truth
    assert (gt_back.hr_bpm is None) == (gt.hr_bpm is None)
    if gt.hr_bpm is not None:
        assert bits(gt_back.hr_bpm) == bits(gt.hr_bpm)
    for attr, _ in SCALAR_COLUMNS:
        want, got = getattr(gt, attr), getattr(gt_back, attr)
        assert (got is None) == (want is None)
        if want is not None:
            assert bits(got) == bits(want)
    assert back.ground_truth.label == gt.label
    assert back.metadata == trace.metadata


# Signed zeros, subnormals, the smallest subnormal and values either side of
# repr's switch to exponent notation (1e-4 / 1e16), up to the largest finite.
SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                  1e-5, 1e-4, 1e16, 9999999999999998.0, 1e308, -1e308,
                  1.7976931348623157e308, 0.1, 1 / 3)
FLOAT64 = st.one_of(st.sampled_from(SPECIAL_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=False, width=64))


def test_lengths_must_match():
    with pytest.raises(ValueError):
        RssTrace(TraceMetadata(), np.arange(3.0), np.zeros(4))


def test_timestamps_must_increase():
    with pytest.raises(ValueError):
        RssTrace(TraceMetadata(), np.array([0.0, 0.0, 1.0]), np.zeros(3))


def test_bad_sample_rate():
    with pytest.raises(ValueError):
        TraceMetadata(sample_rate_hz=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_samples_rejected(bad):
    rss = np.zeros(10)
    rss[[3, 7]] = bad
    with pytest.raises(ValueError, match=r"2 non-finite .* index 3"):
        make_trace(rss)


def test_load_names_file_of_non_finite_sample(tmp_path):
    p = tmp_path / "t.csv"
    save_trace(make_trace(np.zeros(5)), p)
    lines = p.read_text().splitlines()
    lines[4] = lines[4].split(",")[0] + ",nan"   # sample index 2
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        load_trace(p)
    assert str(exc.value).startswith(f"{p}: ")
    assert "1 non-finite" in str(exc.value) and "index 2" in str(exc.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("attr, col", SCALAR_COLUMNS)
def test_non_finite_scalar_truth_rejected_by_column(bad, attr, col):
    with pytest.raises(ValueError, match=f"^{col} must be finite, not {bad!r}$"):
        make_trace(np.zeros(5), ground_truth=GroundTruth(**{attr: bad}))


def test_non_finite_hr_truth_rejected_by_column():
    hr = np.full(10, 66.0)
    hr[[4, 8]] = np.nan
    with pytest.raises(ValueError, match=r"^gt_hr_bpm holds 2 non-finite .* index 4$"):
        make_trace(np.zeros(10), ground_truth=GroundTruth(hr_bpm=hr))


@pytest.mark.parametrize("col", ["gt_hr_bpm", "gt_speed_mps", "gt_end_s"])
def test_load_names_file_and_column_of_non_finite_truth(tmp_path, col):
    p = tmp_path / "t.csv"
    truth = GroundTruth(hr_bpm=np.full(4, 66.0), speed_mps=1.0, end_s=2.0)
    save_trace(make_trace(np.zeros(4), ground_truth=truth), p)
    lines = p.read_text().splitlines()
    i = lines[1].split(",").index(col)
    for row in range(2, 6):
        fields = lines[row].split(",")
        fields[i] = "nan"
        lines[row] = ",".join(fields)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{p}: {col} ')}"):
        load_trace(p)


def test_duration_uses_nominal_rate():
    tr = make_trace(np.zeros(449), sample_rate_hz=449.0)
    assert tr.duration_s == pytest.approx(1.0)


def _truth_eq_oracle(a: GroundTruth, b: GroundTruth) -> bool:
    """GroundTruth.__eq__ as it was written field by field."""
    if (a.hr_bpm is None) != (b.hr_bpm is None):
        return False
    if a.hr_bpm is not None and not np.array_equal(a.hr_bpm, b.hr_bpm):
        return False
    return bool(a.speed_mps == b.speed_mps and a.cross_t_s == b.cross_t_s
                and a.label == b.label and a.start_s == b.start_s
                and a.end_s == b.end_s)


class TestGroundTruthEquality:
    BASE = dict(hr_bpm=np.array([60.0, 61.5, 62.0]), speed_mps=0.813, cross_t_s=1.25,
                label="punch", start_s=0.1, end_s=0.2)
    # values each field takes in turn: its base value, None, another value
    # and, for numbers, -0.0 and NaN (0.0 == -0.0 but NaN != NaN)
    VARIANTS = {
        "hr_bpm": [None, np.array([60.0, 61.5, 62.0]), np.array([60.0, 61.5, 62.5]),
                   np.array([60.0, 61.5]), np.array([60.0, 61.5, 62.0, 63.0]),
                   np.array([60.0, np.nan, 62.0]), [60.0, 61.5, 62.0],
                   np.array([], dtype=np.float64)],
        "speed_mps": [None, 0.813, 0.0, -0.0, 1.0, np.nan, np.float64(0.813)],
        "cross_t_s": [None, 1.25, 0.0, -0.0, np.nan],
        "label": [None, "punch", "kick", ""],
        "start_s": [None, 0.1, 0.0, -0.0, np.nan],
        "end_s": [None, 0.2, 0.0, -0.0, np.nan],
    }

    @pytest.mark.parametrize("name", list(VARIANTS))
    def test_each_field_against_the_field_by_field_oracle(self, name):
        for x in self.VARIANTS[name]:
            for y in self.VARIANTS[name]:
                for base in (self.BASE, {}):
                    a = GroundTruth(**{**base, name: x})
                    b = GroundTruth(**{**base, name: y})
                    want = _truth_eq_oracle(a, b)
                    assert bool(a == b) is want and bool(a != b) is not want, (name, x, y)

    def test_two_fields_differing_at_once(self):
        a = GroundTruth(**self.BASE)
        for one in self.VARIANTS:
            for two in self.VARIANTS:
                b = GroundTruth(**{**self.BASE, one: None, two: None})
                assert not _truth_eq_oracle(a, b) and a != b, (one, two)

    def test_other_types_are_not_equal(self):
        assert GroundTruth() != None  # noqa: E711
        assert GroundTruth() != (None,) * 6
        assert GroundTruth().__eq__(object()) is NotImplemented


class TestRoundTrip:
    def test_simple_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        gt = GroundTruth(
            hr_bpm=rng.uniform(55, 90, 32),
            speed_mps=0.813,
            cross_t_s=1.25,
            label="punch",
            start_s=0.1,
            end_s=0.2,
        )
        tr = make_trace(rng.normal(-50, 1, 32), extras={"note": "bench"}, ground_truth=gt)
        p = tmp_path / "t.csv"
        save_trace(tr, p)
        back = load_trace(p)
        assert back.metadata == tr.metadata
        assert np.array_equal(back.timestamps, tr.timestamps)
        assert np.array_equal(back.rss_db, tr.rss_db)
        assert back.ground_truth == tr.ground_truth

    def test_round_trip_without_ground_truth(self, tmp_path):
        tr = make_trace([1.0, 2.0, 3.0])
        p = tmp_path / "t.csv"
        save_trace(tr, p)
        back = load_trace(p)
        assert back.ground_truth == GroundTruth()
        assert np.array_equal(back.rss_db, tr.rss_db)

    def test_empty_trace_round_trip(self, tmp_path):
        tr = make_trace([])
        p = tmp_path / "t.csv"
        save_trace(tr, p)
        back = load_trace(p)
        assert len(back) == 0
        assert back.metadata.sample_rate_hz == 449.0

    @pytest.mark.parametrize("attr, col", SCALAR_COLUMNS)
    def test_empty_trace_with_scalar_truth_rejected(self, tmp_path, attr, col):
        """No row would hold the scalar, so load_trace could not return it."""
        p = tmp_path / "t.csv"
        tr = make_trace([], ground_truth=GroundTruth(label="punch", **{attr: 0.8}))
        with pytest.raises(ValueError, match=f"empty trace .*{col}"):
            save_trace(tr, p)
        assert not p.exists()

    def test_rewrite_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        tr = make_trace(rng.normal(size=64), ground_truth=GroundTruth(speed_mps=1.5))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_trace(tr, p1)
        save_trace(load_trace(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=25, deadline=None)
    @given(
        samples=st.lists(
            st.floats(min_value=-200, max_value=200, allow_nan=False, width=64),
            min_size=1,
            max_size=40,
        ),
        rate=st.floats(min_value=1e-3, max_value=1e4, allow_nan=False),
    )
    def test_round_trip_exact_floats(self, tmp_path_session, samples, rate):
        tr = make_trace(np.array(samples), sample_rate_hz=rate)
        p = tmp_path_session / "t.csv"
        save_trace(tr, p)
        back = load_trace(p)
        assert np.array_equal(back.rss_db, tr.rss_db)
        assert np.array_equal(back.timestamps, tr.timestamps)
        assert back.metadata.sample_rate_hz == tr.metadata.sample_rate_hz

    def test_label_with_comma_rejected(self, tmp_path):
        tr = make_trace([0.0], ground_truth=GroundTruth(label="a,b"))
        with pytest.raises(ValueError):
            save_trace(tr, tmp_path / "t.csv")

    @pytest.mark.parametrize("extras", [{"a=b": "c"}, {"a,b": "c"}, {"a\nb": "c"},
                                        {"a\rb": "c"}, {"a": "b\rc"}])
    def test_extras_text_that_the_header_cannot_hold_rejected(self, tmp_path, extras):
        """{"a=b": "c"} would read back as {"a": "b=c"}; a carriage return
        ends the header line when it is read."""
        p = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="may not contain ',', '=' or line breaks"):
            save_trace(make_trace([0.0], extras=extras), p)
        assert not p.exists()

    @pytest.mark.parametrize("key", ["sample_rate_hz", "center_freq_hz", "gt_label"])
    def test_extras_key_named_like_a_header_field_rejected(self, tmp_path, key):
        """It would be read back as the rate, the carrier or the label."""
        p = tmp_path / "t.csv"
        with pytest.raises(ValueError, match=f"^extras key '{key}' would be read back "
                                             "as a header field$"):
            save_trace(make_trace([0.0], extras={key: "punch"}), p)
        assert not p.exists()

    def test_missing_metadata_line_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t_s,rss_db\n0.0,1.0\n")
        with pytest.raises(ValueError):
            load_trace(p)


class TestExactColumnIO:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(st.tuples(FLOAT64, FLOAT64), min_size=1, max_size=40),
        scalars=st.lists(st.one_of(st.none(), FLOAT64), min_size=4, max_size=4),
        rate=st.floats(min_value=1e-3, max_value=1e4),
    )
    def test_matches_reference_writer_and_reader(self, tmp_path_session, rows,
                                                 scalars, rate):
        rss, hr = (np.array(c) for c in zip(*rows))
        gt = GroundTruth(hr_bpm=hr, **{attr: v for (attr, _), v in
                                       zip(SCALAR_COLUMNS, scalars)})
        tr = make_trace(rss, sample_rate_hz=rate, ground_truth=gt)
        assert_exact_io(tr, tmp_path_session / "t.csv", tmp_path_session / "ref.csv")

    def test_one_trace_of_each_corpus_kind(self, tmp_path):
        noise = NoiseModel(seed=4)
        walk = WalkPath(crossing_m=1.0, angle_deg=60.0, speed_mps=1.2,
                        start_offset_m=-3.0, duration_s=6.0)
        traces = {
            "vitals": simulate_vitals(VitalSignsProfile(), noise, 8.0),
            "gesture": simulate_gesture(DEFAULT_TEMPLATES["punch"], noise, seed=2),
            "crossing": simulate_crossing(LinkGeometry(rx=(0.0, 2.0)), walk, noise),
        }
        assert traces["vitals"].ground_truth.hr_bpm is not None
        assert traces["gesture"].ground_truth.end_s is not None
        assert traces["crossing"].ground_truth.cross_t_s is not None
        for kind, tr in traces.items():
            assert_exact_io(tr, tmp_path / f"{kind}.csv", tmp_path / f"{kind}_ref.csv")


class TestNominalAxisCache:
    """save_trace reuses the text of the nominal axis np.arange(n) / rate;
    every file must still match the reference writer byte for byte."""

    @staticmethod
    def on_grid(n, rate=449.0, seed=0):
        rng = np.random.default_rng(seed)
        return make_trace(rng.normal(-50.0, 1.0, n), sample_rate_hz=rate,
                          ground_truth=GroundTruth(speed_mps=0.8))

    @staticmethod
    def off_grid(t, seed=0):
        rng = np.random.default_rng(seed)
        return RssTrace(TraceMetadata(), t, rng.normal(-50.0, 1.0, len(t)))

    def test_lengths_rise_then_fall(self, tmp_path, monkeypatch):
        monkeypatch.setattr(rftrace, "_nominal_axis", (0.0, np.empty(0), []))
        for i, n in enumerate((40, 300, 7, 300, 1200, 1, 64)):
            assert_exact_io(self.on_grid(n, seed=i), tmp_path / "t.csv",
                            tmp_path / "ref.csv")
        rate, grid, text = rftrace._nominal_axis
        assert rate == 449.0 and len(grid) == len(text) == 1200

    def test_two_sample_rates(self, tmp_path, monkeypatch):
        monkeypatch.setattr(rftrace, "_nominal_axis", (0.0, np.empty(0), []))
        for i, (n, rate) in enumerate(((500, 449.0), (200, 300.0), (800, 449.0),
                                       (800, 300.0), (100, 449.0))):
            assert_exact_io(self.on_grid(n, rate, seed=i), tmp_path / "t.csv",
                            tmp_path / "ref.csv")
        # One axis only: the last rate's.
        assert rftrace._nominal_axis[0] == 449.0
        assert len(rftrace._nominal_axis[1]) == len(rftrace._nominal_axis[2]) == 100

    @pytest.mark.parametrize("edit", ["negative_zero_start", "one_ulp_off", "offset"])
    def test_axis_off_the_grid_keeps_its_own_text(self, edit, tmp_path):
        n = 200
        assert_exact_io(self.on_grid(2 * n), tmp_path / "t.csv", tmp_path / "ref.csv")
        t = np.arange(n, dtype=np.float64) / 449.0
        if edit == "negative_zero_start":    # == the grid, but repr differs
            t[0] = -0.0
        elif edit == "one_ulp_off":
            t[137] = np.nextafter(t[137], np.inf)
        else:
            t += 12.5
        assert_exact_io(self.off_grid(t), tmp_path / "t.csv", tmp_path / "ref.csv")
        # The cached axis still serves the nominal grid afterwards.
        assert_exact_io(self.on_grid(n), tmp_path / "t.csv", tmp_path / "ref.csv")

    def test_negative_zero_start_before_any_grid_trace(self, tmp_path, monkeypatch):
        monkeypatch.setattr(rftrace, "_nominal_axis", (0.0, np.empty(0), []))
        t = np.arange(50, dtype=np.float64) / 449.0
        t[0] = -0.0
        assert_exact_io(self.off_grid(t), tmp_path / "t.csv", tmp_path / "ref.csv")
        assert (tmp_path / "t.csv").read_text().splitlines()[2].startswith("-0.0,")

    def test_load_save_round_trip(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        save_trace(self.on_grid(900), first)
        back = load_trace(first)
        assert bits(back.timestamps) == bits(np.arange(900) / 449.0)
        assert_exact_io(back, second, tmp_path / "ref.csv")
        assert second.read_bytes() == first.read_bytes()


class TestSharedAxis:
    """make_trace hands out read-only views of one nominal axis for the
    most recent sample rate, with the bits np.arange(n) / rate would have."""

    @settings(max_examples=40, deadline=None)
    @given(shapes=st.lists(st.tuples(st.integers(0, 3000),
                                     st.sampled_from([449.0, 300.0, 1e-3, 7919.5, 1 / 3])),
                           min_size=1, max_size=8))
    def test_views_equal_arange_in_any_order_of_lengths(self, shapes):
        made = [(make_trace(np.zeros(n), sample_rate_hz=rate), n, rate)
                for n, rate in shapes]
        # Earlier views keep their values after the axis grew or moved on.
        for tr, n, rate in made:
            assert bits(tr.timestamps) == bits(np.arange(n, dtype=np.float64) / rate)
            assert not tr.timestamps.flags.writeable

    def test_write_raises_and_leaves_other_traces_alone(self):
        b = make_trace(np.zeros(80))
        a = make_trace(np.zeros(50))     # a prefix of b's axis
        assert np.shares_memory(a.timestamps, b.timestamps)
        before = b.timestamps.copy()
        with pytest.raises(ValueError, match="read-only"):
            a.timestamps[3] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            a.timestamps += 1.0
        with pytest.raises(ValueError):
            a.timestamps.flags.writeable = True
        assert bits(b.timestamps) == bits(before)
        assert bits(a.timestamps) == bits(np.arange(50) / 449.0)

    @pytest.mark.parametrize("edit", ["offset", "jitter", "negative_zero_start"])
    def test_other_axes_keep_their_own_arrays(self, edit, tmp_path):
        t = np.arange(300, dtype=np.float64) / 449.0
        if edit == "offset":
            t += 12.5
        elif edit == "jitter":
            t[1::2] += 0.2 / 449.0
        else:
            t[0] = -0.0
        tr = RssTrace(TraceMetadata(), t, np.zeros(300))
        assert tr.timestamps is t
        p = tmp_path / "t.csv"
        save_trace(tr, p)
        back = load_trace(p)
        axis = make_trace(np.zeros(300)).timestamps
        assert bits(back.timestamps) == bits(t)
        assert not np.shares_memory(back.timestamps, axis)
        if edit == "negative_zero_start":    # == the axis, but not bit for bit
            assert np.array_equal(back.timestamps, axis)


class TestLoadErrors:
    @staticmethod
    def written(tmp_path, n=30):
        p = tmp_path / "t.csv"
        save_trace(make_trace(np.linspace(-50.0, -40.0, n)), p)
        return p, p.read_text().splitlines()

    @staticmethod
    def raises_at(p, line_no, what):
        return pytest.raises(ValueError, match=f"^{re.escape(f'{p}:{line_no}: ')}.*{what}")

    def test_timestamp_jump_names_its_line(self, tmp_path):
        t = np.arange(30) / 449.0
        t[10:] += 3.0
        p = tmp_path / "gap.csv"
        save_trace(RssTrace(TraceMetadata(), t, np.zeros(30)), p)
        with self.raises_at(p, 13, "timestamp"):   # data row 10 is line 13
            load_trace(p)

    def test_step_within_half_a_period_accepted(self, tmp_path):
        t = np.arange(30) / 449.0
        t[10:] += 0.49 / 449.0
        p = tmp_path / "jitter.csv"
        save_trace(RssTrace(TraceMetadata(), t, np.zeros(30)), p)
        assert np.array_equal(load_trace(p).timestamps, t)

    def test_timestamp_line_counts_blank_lines(self, tmp_path):
        p, lines = self.written(tmp_path)
        fields = lines[7].split(",")
        fields[0] = repr(float(fields[0]) + 1.0)
        lines[7] = ",".join(fields)
        lines.insert(4, "")
        p.write_text("\n".join(lines) + "\n")
        with self.raises_at(p, 9, "timestamp"):
            load_trace(p)

    def test_truncated_row_names_its_line(self, tmp_path):
        p, lines = self.written(tmp_path)
        lines[20] = lines[20].rsplit(",", 1)[0]
        p.write_text("\n".join(lines) + "\n")
        with self.raises_at(p, 21, "1 fields"):
            load_trace(p)

    def test_non_numeric_token_names_its_line(self, tmp_path):
        p, lines = self.written(tmp_path)
        lines[5] = lines[5].split(",")[0] + ",-4o.5"
        p.write_text("\n".join(lines) + "\n")
        with self.raises_at(p, 6, "'-4o.5' is not a number"):
            load_trace(p)

    @pytest.mark.parametrize("token", ["-4_0.5", "-50_1", "\u0661"])
    def test_token_that_only_float_reads_is_refused(self, tmp_path, token):
        # np.loadtxt is the one parser: a digit separator or an Arabic-Indic
        # digit, which float() reads as -40.5, -501.0 or 1.0, is refused by
        # line, not read as a plausible number. No writer produces them.
        p, lines = self.written(tmp_path, n=3)
        lines[3] = lines[3].split(",")[0] + "," + token
        p.write_text("\n".join(lines) + "\n")
        with self.raises_at(p, 4, re.escape(f"{token!r} is not a number")):
            load_trace(p)

    @pytest.mark.parametrize("old, new, what", [
        (b"-45", b"-4\xff5", "not UTF-8 text"),
        (b"sample_rate_hz=449.0", b"sample_rate_hz=44x", "bad metadata number"),
        (b"center_freq_hz=434000000.0", b"center_freq_hz=", "bad metadata number"),
    ])
    def test_undecodable_byte_and_bad_metadata_number_name_the_path(
            self, tmp_path, old, new, what):
        p, _ = self.written(tmp_path)
        p.write_bytes(p.read_bytes().replace(old, new, 1))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{p}: ')}{what}"):
            load_trace(p)

    @pytest.mark.parametrize("header, bad, what", [
        ("t_s,rss_db,gt_hr_bmp", "gt_hr_bmp", "is not one of those allowed"),
        ("t_s,rss_db,gt_label", "gt_label", "is not one of those allowed"),
        ("t_s,rss_db,rss_db", "rss_db", "is not one of those allowed"),
        ("t_s,rss_db,", "", "is not one of those allowed"),
        ("t_s,rss_db,gt_hr_bpm,gt_speed_mps,gt_hr_bpm", "gt_hr_bpm", "is repeated"),
    ])
    def test_unknown_or_repeated_column_named(self, tmp_path, header, bad, what):
        p = tmp_path / "t.csv"
        width = header.count(",") + 1
        p.write_text("# sample_rate_hz=449.0,center_freq_hz=434000000.0\n"
                     + header + "\n" + ",".join(["0.0"] + ["66.0"] * (width - 1)) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{p}: column {bad!r} {what}')}"):
            load_trace(p)

    def test_every_truth_column_loads_in_the_order_written(self, tmp_path):
        p = tmp_path / "t.csv"
        truth = GroundTruth(hr_bpm=np.full(3, 66.0), speed_mps=1.0, cross_t_s=0.5,
                            label="punch", start_s=0.0, end_s=0.004)
        trace = make_trace(np.zeros(3), ground_truth=truth)
        save_trace(trace, p)
        columns = p.read_text().splitlines()[1]
        assert columns == "t_s,rss_db,gt_hr_bpm," + ",".join(c for _, c in SCALAR_COLUMNS)
        assert load_trace(p).ground_truth == truth

    @pytest.mark.parametrize("col, first, edited", [
        ("gt_speed_mps", 0.3, 1.7),
        ("gt_cross_t_s", 2.5, 2.5000000000000004),
        ("gt_start_s", 0.0, -0.0),           # equal, but not bit for bit
        ("gt_end_s", 4.0, 40.0),
    ])
    def test_varying_scalar_truth_names_its_line(self, tmp_path, col, first, edited):
        scalars = {"speed_mps": 0.3, "cross_t_s": 2.5, "start_s": 0.0, "end_s": 4.0}
        p = tmp_path / "t.csv"
        save_trace(make_trace(np.zeros(600), ground_truth=GroundTruth(**scalars)), p)
        lines = p.read_text().splitlines()
        i = lines[1].split(",").index(col)
        fields = lines[499].split(",")                 # file line 500
        assert float(fields[i]) == first
        fields[i] = repr(edited)
        lines[499] = ",".join(fields)
        p.write_text("\n".join(lines) + "\n")
        with self.raises_at(p, 500, f"{col} is {edited!r} here but {first!r}"):
            load_trace(p)


# Bytes that shape a trace file, so edits often reach the parser's checks.
STRUCTURE_BYTES = st.sampled_from(b",\n\r#=.-+e0159naif_ \t")


class TestLoadFuzz:
    @settings(max_examples=300, deadline=None)
    @given(edits=st.lists(
        st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                  st.floats(0.0, 1.0, exclude_max=True),
                  st.one_of(STRUCTURE_BYTES, st.integers(0, 255))),
        min_size=1, max_size=8))
    def test_byte_edits_raise_only_value_error(self, tmp_path_session, edits):
        """A damaged file either loads or raises ValueError whose message
        starts with the path (bytes that are not UTF-8 and metadata numbers
        float() rejects included): never another exception."""
        p = tmp_path_session / "fuzz.csv"
        gt = GroundTruth(hr_bpm=np.linspace(60.0, 61.0, 6), speed_mps=0.9,
                         cross_t_s=0.004, label="punch")
        save_trace(make_trace(np.linspace(-50.0, -49.0, 6), ground_truth=gt,
                              extras={"trace_id": "x"}), p)
        data = bytearray(p.read_bytes())
        for op, where, byte in edits:
            i = int(where * len(data))
            if op == "replace" and data:
                data[i] = byte
            elif op == "insert":
                data.insert(i, byte)
            elif data:
                del data[i]
        p.write_bytes(bytes(data))
        try:
            load_trace(p)
        except ValueError as e:
            assert str(e).startswith(f"{p}:"), e
