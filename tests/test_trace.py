import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfsense.trace import (
    GroundTruth,
    RssTrace,
    TraceMetadata,
    load_trace,
    make_trace,
    save_trace,
)


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


def test_duration_uses_nominal_rate():
    tr = make_trace(np.zeros(449), sample_rate_hz=449.0)
    assert tr.duration_s == pytest.approx(1.0)


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

    def test_missing_metadata_line_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t_s,rss_db\n0.0,1.0\n")
        with pytest.raises(ValueError):
            load_trace(p)
