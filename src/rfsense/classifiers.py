"""Small deterministic learners backing the gesture pipeline.

Operates on dense float matrices with integer class ids 0..C-1; the gesture
module handles label names and feature standardization. All randomness comes
from an explicit seed, and every tie (nearest-neighbor votes, forest votes,
equal-gain splits) breaks toward the lowest class or first candidate so that
repeated runs agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dsp


@dataclass(frozen=True)
class KnnModel:
    k: int
    points: np.ndarray   # (n, F)
    labels: np.ndarray   # (n,) int
    n_classes: int


def knn_fit(X, y, n_classes: int, k: int = 5) -> KnnModel:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if k < 1 or k > len(X):
        raise ValueError(f"k={k} outside 1..{len(X)}")
    return KnnModel(k=k, points=X.copy(), labels=y.copy(), n_classes=n_classes)


def _squared_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(len(A), len(B)) squared distances, each summed over the feature axis.
    The one difference array is squared in place and freed on return."""
    diff = A[:, None, :] - B[None, :, :]
    np.square(diff, out=diff)
    return diff.sum(axis=2)


def knn_predict(model: KnnModel, X) -> np.ndarray:
    """Majority label of the k nearest training points by squared distance.

    The (rows, points, features) difference array is built in slabs of at
    most dsp._BLOCK // 8 elements (1 MiB): as many test rows as fit, and
    when one row's slab against all points does not fit, one row against as
    many points as fit. Each distance is still reduced over the same
    contiguous feature axis, so the labels do not depend on the slab size.
    A slab of a whole block was slower as well as larger.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    points = model.points
    n, F = points.shape
    slab = dsp._BLOCK // 8
    rows = max(1, slab // max(1, n * F))
    cols = n if n * F <= slab else max(1, slab // F)
    out = np.empty(len(X), dtype=np.int64)
    for lo in range(0, len(X), rows):
        blk = X[lo:lo + rows]
        d2 = np.empty((len(blk), n))
        for j in range(0, n, cols):
            d2[:, j:j + cols] = _squared_distances(blk, points[j:j + cols])
        # stable sort keeps earlier training points ahead on exact distance ties
        nearest = np.argsort(d2, axis=1, kind="stable")[:, : model.k]
        for i, row in enumerate(nearest, start=lo):
            votes = np.bincount(model.labels[row], minlength=model.n_classes)
            out[i] = int(np.argmax(votes))  # argmax takes the lowest id on ties
    return out


@dataclass(frozen=True)
class LinearSvmModel:
    weights: np.ndarray  # (C, F+1), last column is the bias term
    n_classes: int


def svm_fit(X, y, n_classes: int, lam: float = 1e-3, epochs: int = 40,
            seed: int = 0) -> LinearSvmModel:
    """One-vs-rest linear SVM via stochastic subgradient descent on the
    regularized hinge loss, all classes updated in lockstep per sample."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, F = X.shape
    Xa = np.hstack([X, np.ones((n, 1))])
    Y = np.where(y[:, None] == np.arange(n_classes)[None, :], 1.0, -1.0)
    W = np.zeros((n_classes, F + 1))
    rng = np.random.default_rng(seed)
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam * t)
            x = Xa[i]
            margins = (W @ x) * Y[i]
            W *= 1.0 - eta * lam
            hinge = margins < 1.0
            if np.any(hinge):
                W[hinge] += eta * Y[i, hinge, None] * x[None, :]
    return LinearSvmModel(weights=W, n_classes=n_classes)


def svm_predict(model: LinearSvmModel, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Xa = np.hstack([X, np.ones((len(X), 1))])
    return np.argmax(model.weights @ Xa.T, axis=0).astype(np.int64)


# ---------------------------------------------------------------------------
# Random forest: bagged CART trees, Gini impurity, per-tree feature subset
# ---------------------------------------------------------------------------

_MIN_GINI_GAIN = 1e-12


@dataclass(frozen=True)
class RandomForestModel:
    trees: tuple      # nested dicts; leaves are {"leaf": class_id}
    n_classes: int
    n_features: int


def _gini_scan(values, labels, n_classes):
    """Best (impurity, threshold) for one feature, or None when unsplittable."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    onehot = np.zeros((len(v), n_classes))
    onehot[np.arange(len(v)), labels[order]] = 1.0
    left = np.cumsum(onehot, axis=0)          # counts with first i+1 samples left
    total = left[-1]
    n = len(v)
    cut = np.nonzero(v[1:] > v[:-1])[0]       # split between i and i+1
    if len(cut) == 0:
        return None
    n_l = (cut + 1).astype(np.float64)
    n_r = n - n_l
    gl = 1.0 - ((left[cut] / n_l[:, None]) ** 2).sum(axis=1)
    right = total[None, :] - left[cut]
    gr = 1.0 - ((right / n_r[:, None]) ** 2).sum(axis=1)
    score = (n_l * gl + n_r * gr) / n
    j = int(np.argmin(score))                 # first minimum: deterministic
    thr = float(0.5 * (v[cut[j]] + v[cut[j] + 1]))
    return float(score[j]), thr


def _grow_tree(X, y, feats, n_classes):
    """A tree over the columns of X, which are the features `feats`."""
    counts = np.bincount(y, minlength=n_classes)
    node_gini = 1.0 - ((counts / len(y)) ** 2).sum()
    if node_gini == 0.0:
        return {"leaf": int(np.argmax(counts))}
    best = None
    for j in range(X.shape[1]):
        scan = _gini_scan(X[:, j], y, n_classes)
        if scan is None:
            continue
        score, thr = scan
        if best is None or score < best[0] - _MIN_GINI_GAIN:
            best = (score, j, thr)
    if best is None or best[0] >= node_gini - _MIN_GINI_GAIN:
        return {"leaf": int(np.argmax(counts))}
    _, j, thr = best
    mask = X[:, j] <= thr
    return {
        "feature": int(feats[j]),
        "threshold": thr,
        "left": _grow_tree(X[mask], y[mask], feats, n_classes),
        "right": _grow_tree(X[~mask], y[~mask], feats, n_classes),
    }


def forest_fit(X, y, n_classes: int, n_trees: int = 15, seed: int = 0) -> RandomForestModel:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, F = X.shape
    n_sub = max(1, math.ceil(math.sqrt(F)))
    rng = np.random.default_rng(seed)
    trees = []
    for _ in range(n_trees):
        feats = np.sort(rng.choice(F, size=min(n_sub, F), replace=False))
        boot = rng.integers(0, n, size=n)
        trees.append(_grow_tree(X[np.ix_(boot, feats)], y[boot], feats, n_classes))
    return RandomForestModel(trees=tuple(trees), n_classes=n_classes, n_features=F)


def _tree_predict(tree, x) -> int:
    while "leaf" not in tree:
        tree = tree["left"] if x[tree["feature"]] <= tree["threshold"] else tree["right"]
    return tree["leaf"]


def forest_votes(model: RandomForestModel, X) -> np.ndarray:
    """Per-tree class votes, shape (n_samples, n_trees)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return np.array([[_tree_predict(t, x) for t in model.trees] for x in X],
                    dtype=np.int64)


def forest_predict(model: RandomForestModel, X) -> np.ndarray:
    votes = forest_votes(model, X)
    out = np.empty(len(votes), dtype=np.int64)
    for i, row in enumerate(votes):
        out[i] = int(np.argmax(np.bincount(row, minlength=model.n_classes)))
    return out
