"""Gesture pipeline tests on constructed traces and synthetic feature data.

Corpus-level checks (detection rate, classifier accuracy on simulated
gestures) live in the acceptance suite; here every expected value comes from
a hand-built signal or a hand-built cluster layout.
"""

import json
import re

import numpy as np
import pytest

from rfsense import classifiers as clf
from rfsense.gesture import (
    GESTURE_LABELS,
    EvaluationResult,
    FeatureVector,
    GestureSegment,
    SegmentationConfig,
    TrainedModel,
    classify,
    evaluate,
    extract_features,
    feature_layout,
    load_model,
    save_model,
    segment,
    train,
)
from rfsense.trace import make_trace

FS = 449.0


def quiet_trace(duration_s, seed=0, sigma=0.01):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, sigma, int(round(duration_s * FS)))


def add_burst(x, t0_s, duration_s=0.5, amp_db=2.0, freq_hz=15.0):
    i0 = int(round(t0_s * FS))
    n = int(round(duration_s * FS))
    t = np.arange(n) / FS
    x[i0: i0 + n] += amp_db * np.hanning(n) * np.sin(2 * np.pi * freq_hz * t)
    return (t0_s, t0_s + duration_s)


def overlap_fraction(seg, true_start, true_end):
    inter = min(seg.end_s, true_end) - max(seg.start_s, true_start)
    return max(0.0, inter) / (true_end - true_start)


# 10 s history keeps the constructed traces short
TEST_CFG = SegmentationConfig(long_window=4490)


class TestSegmentation:
    def test_quiet_trace_yields_nothing(self):
        trace = make_trace(quiet_trace(60.0, seed=1), FS)
        assert segment(trace, TEST_CFG) == []

    def test_single_burst_found_once(self):
        x = quiet_trace(45.0, seed=2)
        lo, hi = add_burst(x, 30.0)
        segs = segment(make_trace(x, FS), TEST_CFG)
        assert len(segs) == 1
        assert overlap_fraction(segs[0], lo, hi) >= 0.8

    def test_two_bursts_one_second_apart(self):
        x = quiet_trace(45.0, seed=3)
        a = add_burst(x, 30.0)
        b = add_burst(x, 31.5)
        segs = segment(make_trace(x, FS), TEST_CFG)
        assert len(segs) == 2
        assert overlap_fraction(segs[0], *a) >= 0.8
        assert overlap_fraction(segs[1], *b) >= 0.8

    def test_close_bursts_merge(self):
        x = quiet_trace(45.0, seed=4)
        add_burst(x, 30.0, duration_s=0.3)
        add_burst(x, 30.34, duration_s=0.3)  # 0.04 s gap < merge_gap_s
        segs = segment(make_trace(x, FS), TEST_CFG)
        assert len(segs) == 1

    def test_sub_minimum_burst_dropped(self):
        x = quiet_trace(45.0, seed=5)
        add_burst(x, 30.0, duration_s=0.05)
        assert segment(make_trace(x, FS), TEST_CFG) == []

    def test_translation_covariance(self):
        shift_s = 1.5
        base = quiet_trace(48.0, seed=6)
        xa, xb = base.copy(), base.copy()
        add_burst(xa, 30.0)
        add_burst(xb, 30.0 + shift_s)
        sa = segment(make_trace(xa, FS), TEST_CFG)
        sb = segment(make_trace(xb, FS), TEST_CFG)
        assert len(sa) == len(sb) == 1
        tol = TEST_CFG.short_window / FS
        assert abs((sb[0].start_s - sa[0].start_s) - shift_s) <= tol
        assert abs((sb[0].end_s - sa[0].end_s) - shift_s) <= tol

    def test_short_trace_rejected(self):
        with pytest.raises(ValueError):
            segment(make_trace(quiet_trace(5.0), FS), TEST_CFG)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SegmentationConfig(threshold=0.0)
        with pytest.raises(ValueError):
            SegmentationConfig(threshold=1.5)
        with pytest.raises(ValueError):
            SegmentationConfig(short_window=100, long_window=50)
        with pytest.raises(ValueError):
            SegmentationConfig(trim_fraction=1.0)
        with pytest.raises(ValueError):
            SegmentationConfig(min_prominence=0.5)


class TestFeatures:
    def seg_from(self, samples):
        return GestureSegment(start_s=0.0, end_s=len(samples) / FS,
                              samples=np.asarray(samples, dtype=np.float64))

    def test_layout_length(self):
        layout = feature_layout()
        # 4 bands x 7 stats + two level-3 coefficient blocks of 132
        assert len(layout) == 28 + 2 * 132
        assert layout[0] == "cd1_mean"
        assert layout[27] == "ca3_half_point_freq"

    def test_constant_segment(self):
        fv = extract_features(self.seg_from(np.full(500, 2.0)), FS)
        names = dict(zip(fv.layout, fv.values))
        # constant passes through three lowpass stages of gain sqrt(2) each
        assert names["ca3_mean"] == pytest.approx(2.0 * 2 ** 1.5, rel=1e-9)
        for band in ("cd1", "cd2", "cd3"):
            assert abs(names[f"{band}_mean"]) < 1e-9
            assert names[f"{band}_variance"] < 1e-18
            assert names[f"{band}_avg_freq"] == 0.0
            assert names[f"{band}_half_point_freq"] == 0.0
        ca3_block = fv.values[28: 28 + 132]
        np.testing.assert_allclose(ca3_block, 2.0 * 2 ** 1.5, rtol=1e-9)

    def test_tone_average_frequency_recovered(self):
        t = np.arange(449) / FS
        fv = extract_features(self.seg_from(np.sin(2 * np.pi * 5.0 * t)), FS)
        names = dict(zip(fv.layout, fv.values))
        # 5 Hz sits below every band's Nyquist after decimation, so the
        # leaked component keeps its frequency in each band's own PSD
        assert names["ca3_avg_freq"] == pytest.approx(5.0, abs=1.5)
        assert names["cd3_avg_freq"] == pytest.approx(5.0, abs=1.5)

    def test_offset_moves_only_approximation_features(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0.0, 1.0, 700)
        fa = extract_features(self.seg_from(x), FS)
        fb = extract_features(self.seg_from(x + 10.0), FS)
        detail_idx = [i for i, name in enumerate(fa.layout)
                      if name.startswith("cd")]
        np.testing.assert_allclose(fb.values[detail_idx], fa.values[detail_idx],
                                   rtol=1e-7, atol=1e-9)
        names_a = dict(zip(fa.layout, fa.values))
        names_b = dict(zip(fb.layout, fb.values))
        assert names_b["ca3_mean"] - names_a["ca3_mean"] == pytest.approx(
            10.0 * 2 ** 1.5, rel=1e-6)

    def test_determinism_bit_exact(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=600)
        a = extract_features(self.seg_from(x), FS)
        b = extract_features(self.seg_from(x), FS)
        assert np.array_equal(a.values, b.values)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            FeatureVector(values=np.array([1.0, np.nan]), layout=("a", "b"))

    def test_too_short_segment_rejected(self):
        with pytest.raises(ValueError):
            extract_features(self.seg_from([1.0]), FS)


# ---------------------------------------------------------------------------


def blob_dataset(seed, per_class=20, spread=0.5):
    """8 well-separated 2-D clusters, one per label."""
    rng = np.random.default_rng(seed)
    layout = ("f0", "f1")
    data = []
    for i, label in enumerate(GESTURE_LABELS):
        angle = 2 * np.pi * i / 8
        center = 10.0 * np.array([np.cos(angle), np.sin(angle)])
        for _ in range(per_class):
            v = center + rng.normal(0.0, spread, 2)
            data.append((FeatureVector(values=v, layout=layout), label))
    return data


class TestClassifiers:
    @pytest.mark.parametrize("kind", ["knn", "linear_svm", "random_forest"])
    def test_separable_blobs_holdout(self, kind):
        train_data = blob_dataset(seed=0)
        test_data = blob_dataset(seed=1)
        model = train(train_data, kind, seed=42)
        correct = sum(classify(model, fv) == label for fv, label in test_data)
        assert correct / len(test_data) >= 0.95

    def test_knn_tie_breaks_to_first_label(self):
        layout = ("f0",)
        pts = [(0.5, "punch"), (-1.0, "punch"),
               (0.6, "punchx2"), (-1.1, "punchx2"),
               (0.7, "kick"), (9.0, "kick"), (-9.0, "punch")]
        data = [(FeatureVector(values=np.array([v]), layout=layout), lab)
                for v, lab in pts]
        model = train(data, "knn", seed=0)
        # 5 nearest to 0: punch, punchx2, kick, punch, punchx2 -> 2/2/1 tie
        probe = FeatureVector(values=np.array([0.0]), layout=layout)
        assert classify(model, probe) == "punch"

    def test_forest_prediction_is_vote_plurality(self):
        data = blob_dataset(seed=2, per_class=10)
        model = train(data, "random_forest", seed=3)
        for fv, _ in blob_dataset(seed=4, per_class=2):
            xz = (fv.values[None, :] - model.feature_mean) / model.feature_scale
            votes = clf.forest_votes(model.state, xz)[0]
            assert len(votes) == 15
            counts = np.bincount(votes, minlength=8)
            assert classify(model, fv) == GESTURE_LABELS[int(np.argmax(counts))]

    @pytest.mark.parametrize("kind", ["linear_svm", "random_forest"])
    def test_seeded_training_is_deterministic(self, kind):
        data = blob_dataset(seed=5, per_class=8)
        probes = blob_dataset(seed=6, per_class=3)
        m1 = train(data, kind, seed=11)
        m2 = train(data, kind, seed=11)
        assert [classify(m1, fv) for fv, _ in probes] == \
               [classify(m2, fv) for fv, _ in probes]

    def test_single_class_rejected(self):
        layout = ("f0",)
        data = [(FeatureVector(values=np.array([float(i)]), layout=layout), "punch")
                for i in range(6)]
        with pytest.raises(ValueError):
            train(data, "knn")

    def test_layout_mismatch_rejected(self):
        data = blob_dataset(seed=7, per_class=3)
        model = train(data, "knn")
        bad = FeatureVector(values=np.zeros(3), layout=("a", "b", "c"))
        with pytest.raises(ValueError):
            classify(model, bad)
        with pytest.raises(ValueError):
            evaluate(model, [(bad, "punch")])

    def test_unknown_kind_and_label_rejected(self):
        data = blob_dataset(seed=8, per_class=3)
        with pytest.raises(ValueError):
            train(data, "perceptron")
        layout = data[0][0].layout
        data_bad = data + [(FeatureVector(values=np.zeros(2), layout=layout), "wave")]
        with pytest.raises(ValueError):
            train(data_bad, "knn")


class TestEvaluate:
    def test_perfect_classifier_identity_confusion(self):
        data = blob_dataset(seed=9, per_class=6)
        model = train(data, "knn", k=1)
        result = evaluate(model, data)
        np.testing.assert_allclose(result.confusion, np.eye(8), atol=1e-12)
        assert result.mean_accuracy == pytest.approx(1.0)

    def test_constant_classifier_chance_level(self):
        # 1-NN on a single-class-dominated space: force every prediction to
        # one label by building the state directly
        layout = ("f0", "f1")
        state = clf.knn_fit(np.zeros((1, 2)), np.array([0]), n_classes=8, k=1)
        model = TrainedModel(kind="knn", hyperparameters={"k": 1}, layout=layout,
                             feature_mean=np.zeros(2), feature_scale=np.ones(2),
                             state=state)
        data = blob_dataset(seed=10, per_class=4)
        result = evaluate(model, data)
        assert result.mean_accuracy == pytest.approx(1.0 / 8.0)
        np.testing.assert_allclose(result.confusion.sum(axis=0), 1.0, atol=1e-9)

    def test_columns_sum_to_one(self):
        data = blob_dataset(seed=11, per_class=5)
        model = train(data, "random_forest", seed=1)
        result = evaluate(model, blob_dataset(seed=12, per_class=5))
        np.testing.assert_allclose(result.confusion.sum(axis=0), 1.0, atol=1e-9)

    def test_empty_rejected(self):
        model = train(blob_dataset(seed=13, per_class=3), "knn")
        with pytest.raises(ValueError):
            evaluate(model, [])


class TestPersistence:
    @pytest.mark.parametrize("kind", ["knn", "linear_svm", "random_forest"])
    def test_round_trip_preserves_predictions(self, kind, tmp_path):
        data = blob_dataset(seed=14, per_class=8)
        probes = blob_dataset(seed=15, per_class=4)
        model = train(data, kind, seed=2)
        path = tmp_path / f"{kind}.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kind == kind
        assert loaded.layout == model.layout
        assert [classify(loaded, fv) for fv, _ in probes] == \
               [classify(model, fv) for fv, _ in probes]

    @pytest.mark.parametrize("key", ["kind", "hyperparameters", "layout", "state"])
    def test_missing_key_names_file_and_key(self, key, tmp_path):
        path = tmp_path / "m.json"
        save_model(train(blob_dataset(seed=14, per_class=4), "knn"), path)
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .*'{key}'"):
            load_model(path)

    @pytest.mark.parametrize("key, value, kind", [
        ("state", [], "an object"),
        ("state", 5, "an object"),
        ("hyperparameters", [1], "an object"),
        ("layout", 5, "a list of strings"),
        ("layout", ["ok", 1], "a list of strings"),
        ("feature_mean", "0.5", "a list of numbers"),
        ("feature_mean", [0.5, "x"], "a list of numbers"),
        ("feature_scale", [1.0, True], "a list of numbers"),
        ("feature_scale", {"a": 1.0}, "a list of numbers"),
    ])
    def test_wrong_type_names_file_and_key(self, key, value, kind, tmp_path):
        path = tmp_path / "m.json"
        save_model(train(blob_dataset(seed=14, per_class=4), "knn"), path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError,
                           match=f"{re.escape(str(path))}: model '{key}' is not {kind}"):
            load_model(path)

    @pytest.mark.parametrize("kind, key, value, what", [
        ("knn", "k", "3", "an integer"),
        ("knn", "k", True, "an integer"),
        ("knn", "n_classes", 8.0, "an integer"),
        ("knn", "points", [], "a matrix of numbers with 2 columns"),
        ("knn", "points", [[0.0]], "a matrix of numbers with 2 columns"),
        ("knn", "points", [[0.0, "x"]], "a matrix of numbers with 2 columns"),
        ("knn", "points", [0.0, 1.0], "a matrix of numbers with 2 columns"),
        ("knn", "labels", ["0"], "a list of integers, one per point"),
        ("knn", "labels", [0], "a list of integers, one per point"),
        ("linear_svm", "weights", [[1.0, 2.0]], "a matrix of numbers with 3 columns"),
        ("linear_svm", "n_classes", "8", "an integer"),
        ("random_forest", "n_features", 2.5, "an integer"),
        ("random_forest", "n_classes", False, "an integer"),
    ])
    def test_wrong_state_names_file_and_key(self, kind, key, value, what, tmp_path):
        path = tmp_path / "m.json"
        save_model(train(blob_dataset(seed=14, per_class=4), kind), path)
        doc = json.loads(path.read_text())
        doc["state"][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: model state "
                                             f"'{key}' is not {what}"):
            load_model(path)

    @pytest.mark.parametrize("kind, key, value, what", [
        ("knn", "n_classes", 7, "8, one class per gesture label"),
        ("knn", "labels", None, r"a list of class ids in \[0, 8\)"),
        ("linear_svm", "weights", [[1.0, 2.0, 3.0]], "a matrix with 8 rows, one per class"),
    ])
    def test_state_out_of_range_names_file_and_key(self, kind, key, value, what, tmp_path):
        path = tmp_path / "m.json"
        save_model(train(blob_dataset(seed=14, per_class=4), kind), path)
        doc = json.loads(path.read_text())
        if value is None:  # one label past the last class
            doc["state"]["labels"][-1] = 8
        else:
            doc["state"][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: model state "
                                             f"'{key}' is not {what}"):
            load_model(path)

    @pytest.mark.parametrize("trees", [
        [],
        {"leaf": 0},
        [{"feature": 0}],
        [{"leaf": 8}],
        [{"leaf": -1}],
        [{"leaf": True}],
        [{"leaf": 1.0}],
        [{"leaf": 0, "extra": 1}],
        [{"feature": 2, "threshold": 0.5, "left": {"leaf": 0}, "right": {"leaf": 1}}],
        [{"feature": 0, "threshold": "0.5", "left": {"leaf": 0}, "right": {"leaf": 1}}],
        [{"feature": 0, "threshold": float("nan"), "left": {"leaf": 0},
          "right": {"leaf": 1}}],
        [{"feature": 0, "threshold": 0.5, "left": {"leaf": 0}, "right": [1]}],
        [{"feature": 0, "threshold": 0.5, "left": {"leaf": 0},
          "right": {"feature": 1, "threshold": 0.0, "left": {"leaf": 1},
                    "right": {"leaf": 9}}}],
    ])
    def test_malformed_forest_trees_name_file(self, trees, tmp_path):
        path = tmp_path / "m.json"
        save_model(train(blob_dataset(seed=14, per_class=4), "random_forest"), path)
        doc = json.loads(path.read_text())
        doc["state"]["trees"] = trees
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: model state "
                                             "'trees' is not a non-empty list of trees"):
            load_model(path)

    @pytest.mark.parametrize("key", ["feature_mean", "feature_scale"])
    def test_standardization_length_must_match_layout(self, key, tmp_path):
        path = tmp_path / "m.json"
        save_model(train(blob_dataset(seed=14, per_class=4), "knn"), path)
        doc = json.loads(path.read_text())
        doc[key] = doc[key] + [1.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: model '{key}' "
                                             "has 3 entries for 2 layout entries"):
            load_model(path)

    @pytest.mark.parametrize("kind", ["knn", "random_forest", "linear_svm"])
    @pytest.mark.parametrize("key, value, what", [
        ("feature_scale", 0, "not finite and positive"),
        ("feature_scale", -1, "not finite and positive"),
        ("feature_scale", float("nan"), "not finite and positive"),
        ("feature_scale", float("inf"), "not finite and positive"),
        ("feature_scale", 10 ** 400, "not finite and positive"),
        ("feature_mean", float("nan"), "a non-finite entry"),
        ("feature_mean", float("-inf"), "a non-finite entry"),
        ("feature_mean", -10 ** 400, "a non-finite entry"),
    ])
    def test_standardization_values_checked(self, kind, key, value, what, tmp_path):
        path = tmp_path / "m.json"
        save_model(train(blob_dataset(seed=14, per_class=4), kind), path)
        doc = json.loads(path.read_text())
        doc[key] = [value] * len(doc[key])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: model "
                                             f"'{key}' has .*{what}"):
            load_model(path)

    def test_deep_document_is_a_named_error(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"a":' * 100_000 + "1" + "}" * 100_000)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*too deeply"):
            load_model(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format_version": 99, "kind": "knn"}')
        with pytest.raises(ValueError):
            load_model(path)
