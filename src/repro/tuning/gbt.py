"""Gradient-boosted regression trees, implemented from scratch on numpy.

This substitutes for XGBoost (unavailable offline) in the paper's
ML-based cost model. Squared-error boosting over CART trees with exact
greedy splits; supports sample weights, which the model-assisted tuner uses
to blend analytically generated pseudo-samples with real measurements.

The split search is XGBoost's exact greedy algorithm over presorted
columns (Chen & Guestrin 2016): every feature is argsorted once per
ensemble fit, each node filters those orders down to its own rows (a
stable order filtered to a subset is that subset's stable order), and one
cumulative sum over the node's ``(features, rows)`` block scores every
candidate split of every feature at once. Trees are flat node arrays, so
prediction walks all rows through all trees together, one level per step.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

__all__ = ["RegressionTree", "GradientBoostedTrees"]

_LEAF = -1  # the feature of a leaf node; a leaf's children are itself

#: (feature, threshold, left, right, value) per node.
_Nodes = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _validated(X, y, w) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be (n, d) and match y")
    w = np.ones(len(y)) if w is None else np.asarray(w, dtype=np.float64)
    if w.shape != y.shape or np.any(w < 0) or w.sum() == 0:
        raise ValueError("weights must match y, be non-negative and have positive sum")
    return X, y, w


def _presort(X: np.ndarray) -> np.ndarray:
    """Each feature's stable row order, shape ``(d, n)``."""
    return np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)


def _route(X: np.ndarray, nodes: _Nodes, roots: np.ndarray, depth: int) -> np.ndarray:
    """Value of the leaf each row of ``X`` reaches in each tree rooted at
    ``roots``: shape ``(len(roots), len(X))``. Leaves loop to themselves,
    so ``depth`` steps (the deepest tree's) settle every walk."""
    feature, threshold, left, right, value = nodes
    at = np.repeat(roots[:, None], len(X), axis=1)
    rows = np.arange(len(X))
    for _ in range(depth):
        go_left = X[rows, feature[at]] <= threshold[at]
        at = np.where(go_left, left[at], right[at])
    return value[at]


class RegressionTree:
    """A CART regression tree (weighted squared error, exact splits)."""

    def __init__(self, max_depth: int = 4, min_samples_leaf: int = 2) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self._nodes: Optional[_Nodes] = None
        self._depth = 0

    def fit(self, X: np.ndarray, y: np.ndarray, w: Optional[np.ndarray] = None) -> "RegressionTree":
        X, y, w = _validated(X, y, w)
        self._grow(X, y, w, _presort(X))
        return self

    def _grow(self, X: np.ndarray, y: np.ndarray, w: np.ndarray, order: np.ndarray) -> np.ndarray:
        """Build the tree from the presorted ``order``; returns the value of
        the leaf each training row lands in (what ``predict(X)`` gives)."""
        feature: List[int] = []
        threshold: List[float] = []
        left: List[int] = []
        right: List[int] = []
        value: List[float] = []
        leaf_value = np.empty(len(y))
        self._depth = 0

        def build(rows: np.ndarray, order: np.ndarray, depth: int) -> int:
            # ``rows`` ascend, so every sum runs in the same order as an
            # unsorted fit on this node's rows alone.
            node = len(value)
            wr, yr = w[rows], y[rows]
            wy = wr * yr
            total_w, total_wy = wr.sum(), wy.sum()
            feature.append(_LEAF)
            threshold.append(0.0)
            left.append(node)
            right.append(node)
            value.append(float(total_wy / total_w))  # np.average(yr, weights=wr)
            split = None
            if depth < self.max_depth and len(rows) >= 2 * self.min_samples_leaf:
                base_sse = (wy * yr).sum() - total_wy**2 / total_w
                split = self._best_split(X, y, w, order, total_w, total_wy, base_sse)
            if split is None:
                leaf_value[rows] = value[node]
                return node
            feat, thr = split
            goes_left = X[:, feat] <= thr
            here = goes_left[rows]
            self._depth = max(self._depth, depth + 1)
            feature[node], threshold[node] = feat, thr
            d, sorted_left = len(order), goes_left[order]
            left[node] = build(rows[here], order[sorted_left].reshape(d, -1), depth + 1)
            right[node] = build(rows[~here], order[~sorted_left].reshape(d, -1), depth + 1)
            return node

        build(np.arange(len(y)), order, 0)
        self._nodes = (
            np.array(feature, dtype=np.intp),
            np.array(threshold),
            np.array(left, dtype=np.intp),
            np.array(right, dtype=np.intp),
            np.array(value),
        )
        return leaf_value

    def _best_split(self, X, y, w, order, total_w, total_wy, base_sse):
        """(feature, threshold) of the best split of the node whose rows
        ``order`` holds sorted per feature, or None. Ties go to the first
        feature, then the first split point, reaching the largest gain."""
        d, n = order.shape
        lo = max(self.min_samples_leaf - 1, 0)  # split after sorted position k:
        hi = min(n - self.min_samples_leaf, n - 1)  # left = [0..k], lo <= k < hi
        if d == 0 or hi <= lo:
            return None
        xs = X[order, np.arange(d)[:, None]]
        # candidate split points: between distinct consecutive values
        distinct = xs[:, lo:hi] < xs[:, lo + 1:hi + 1]
        live = np.flatnonzero(distinct.any(axis=1))  # features not constant here
        if not live.size:
            return None
        order, distinct = order[live], distinct[live]
        ws = w[order]
        ys = y[order]
        wys = ws * ys
        cw = np.cumsum(ws, axis=1)
        cwy = np.cumsum(wys, axis=1)
        cwyy = np.cumsum(wys * ys, axis=1)
        # Score the candidates only, feature-major: the first maximum is the
        # first feature reaching the best gain, at its first split point.
        cand = np.flatnonzero(distinct)
        f, k = np.divmod(cand, hi - lo)
        k += lo
        lw = cw[f, k]
        rw = total_w - lw
        lwy = cwy[f, k]
        rwy = total_wy - lwy
        lsse = cwyy[f, k] - lwy**2 / np.where(lw > 0, lw, 1)
        rsse = (cwyy[f, -1] - cwyy[f, k]) - rwy**2 / np.where(rw > 0, rw, 1)
        gain = np.where((lw > 0) & (rw > 0), base_sse - (lsse + rsse), -np.inf)
        # A feature with a NaN gain never wins: its own argmax would pick
        # the NaN, which fails the `> 1e-12` test.
        nan = np.isnan(gain)
        if nan.any():
            gain[np.isin(f, f[nan])] = -np.inf
        i = int(np.argmax(gain))
        if not gain[i] > 1e-12:
            return None
        feat, k = int(live[f[i]]), int(k[i])
        return feat, float(0.5 * (xs[feat, k] + xs[feat, k + 1]))

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._nodes is None:
            raise RuntimeError("tree is not fitted")
        X = np.asarray(X, dtype=np.float64)
        return _route(X, self._nodes, np.zeros(1, dtype=np.intp), self._depth)[0]


class GradientBoostedTrees:
    """Squared-loss gradient boosting (the XGBoost stand-in)."""

    def __init__(
        self,
        n_estimators: int = 80,
        learning_rate: float = 0.15,
        max_depth: int = 4,
        min_samples_leaf: int = 2,
    ) -> None:
        if n_estimators < 1 or not (0 < learning_rate <= 1):
            raise ValueError("need n_estimators >= 1 and 0 < learning_rate <= 1")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self._init = 0.0
        self._trees: List[RegressionTree] = []
        self._fitted = False
        #: every tree's nodes in one set of arrays, each tree's root, and
        #: the deepest tree's depth
        self._nodes: Optional[_Nodes] = None
        self._roots = np.zeros(0, dtype=np.intp)
        self._depth = 0

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        w: Optional[np.ndarray] = None,
    ) -> "GradientBoostedTrees":
        X, y, w = _validated(X, y, w)
        order = _presort(X)  # X is the same for every tree
        self._trees = []
        self._init = float(np.average(y, weights=w))
        pred = np.full(len(y), self._init)
        for _ in range(self.n_estimators):
            tree = RegressionTree(self.max_depth, self.min_samples_leaf)
            step = tree._grow(X, y - pred, w, order)
            if np.abs(step).max() <= 1e-8:  # np.allclose(step, 0), NaN included
                break
            pred += self.learning_rate * step
            self._trees.append(tree)
        self._flatten()
        self._fitted = True
        return self

    def _flatten(self) -> None:
        """Concatenate the trees' node arrays, offsetting child indices."""
        if not self._trees:
            self._nodes, self._roots, self._depth = None, np.zeros(0, dtype=np.intp), 0
            return
        sizes = [len(t._nodes[0]) for t in self._trees]
        self._roots = np.cumsum([0] + sizes[:-1]).astype(np.intp)
        columns = list(zip(*(t._nodes for t in self._trees)))
        feature, threshold, left, right, value = (np.concatenate(c) for c in columns)
        offsets = np.repeat(self._roots, sizes)
        self._nodes = (feature, threshold, left + offsets, right + offsets, value)
        self._depth = max(t._depth for t in self._trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if self._nodes is None:
            return np.full(len(X), self._init)
        terms = np.empty((len(self._trees) + 1, len(X)))
        terms[0] = self._init
        terms[1:] = self.learning_rate * _route(X, self._nodes, self._roots, self._depth)
        # Sequential over trees: the same additions, in the same order, as
        # adding one tree's prediction at a time.
        return np.cumsum(terms, axis=0)[-1]

    @property
    def is_fitted(self) -> bool:
        return self._fitted
