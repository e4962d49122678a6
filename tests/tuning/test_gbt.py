"""Tests for the from-scratch gradient-boosted trees."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tuning.gbt import GradientBoostedTrees, RegressionTree


class TestRegressionTree:
    def test_constant_target(self):
        X = np.arange(10).reshape(-1, 1).astype(float)
        y = np.full(10, 3.0)
        t = RegressionTree().fit(X, y)
        np.testing.assert_allclose(t.predict(X), 3.0)

    def test_perfect_step_split(self):
        X = np.arange(20).reshape(-1, 1).astype(float)
        y = (X[:, 0] >= 10).astype(float)
        t = RegressionTree(max_depth=1).fit(X, y)
        np.testing.assert_allclose(t.predict(X), y)

    def test_depth_limits_complexity(self):
        rng = np.random.default_rng(0)
        X = rng.random((64, 1))
        y = np.sin(10 * X[:, 0])
        shallow = RegressionTree(max_depth=1).fit(X, y).predict(X)
        deep = RegressionTree(max_depth=6).fit(X, y).predict(X)
        assert ((deep - y) ** 2).mean() < ((shallow - y) ** 2).mean()

    def test_min_samples_leaf(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 0.0, 10.0])
        t = RegressionTree(max_depth=3, min_samples_leaf=2).fit(X, y)
        # No leaf may isolate the single outlier.
        preds = t.predict(X)
        assert preds.max() < 10.0

    def test_sample_weights_shift_mean(self):
        X = np.array([[0.0], [0.0]])
        y = np.array([0.0, 10.0])
        t = RegressionTree().fit(X, y, w=np.array([1.0, 3.0]))
        np.testing.assert_allclose(t.predict(X), 7.5)

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            RegressionTree().predict(np.zeros((1, 1)))

    def test_bad_weights_rejected(self):
        X = np.zeros((2, 1))
        with pytest.raises(ValueError):
            RegressionTree().fit(X, np.zeros(2), w=np.array([-1.0, 1.0]))

    def test_multifeature_picks_informative(self):
        rng = np.random.default_rng(1)
        X = rng.random((100, 3))
        y = (X[:, 1] > 0.5).astype(float)
        t = RegressionTree(max_depth=1).fit(X, y)
        assert t._nodes[0][0] == 1  # the root splits on feature 1


class TestGradientBoosting:
    def test_fits_linear_function(self):
        rng = np.random.default_rng(0)
        X = rng.random((200, 2))
        y = 3 * X[:, 0] - 2 * X[:, 1]
        m = GradientBoostedTrees(n_estimators=100, learning_rate=0.2).fit(X, y)
        rmse = np.sqrt(((m.predict(X) - y) ** 2).mean())
        assert rmse < 0.1

    def test_improves_over_single_tree(self):
        rng = np.random.default_rng(0)
        X = rng.random((150, 2))
        y = np.sin(6 * X[:, 0]) + X[:, 1] ** 2
        tree = RegressionTree(max_depth=4).fit(X, y)
        gbt = GradientBoostedTrees(n_estimators=60, max_depth=4).fit(X, y)
        assert ((gbt.predict(X) - y) ** 2).mean() < ((tree.predict(X) - y) ** 2).mean()

    def test_generalization_sane(self):
        rng = np.random.default_rng(0)
        X = rng.random((300, 2))
        y = X[:, 0] * X[:, 1]
        m = GradientBoostedTrees().fit(X[:200], y[:200])
        test_rmse = np.sqrt(((m.predict(X[200:]) - y[200:]) ** 2).mean())
        assert test_rmse < 0.15

    def test_is_fitted_flag(self):
        m = GradientBoostedTrees()
        assert not m.is_fitted
        m.fit(np.random.default_rng(0).random((10, 1)), np.arange(10.0))
        assert m.is_fitted
        # A zero target keeps no tree and a zero mean, yet fit was called.
        zero = GradientBoostedTrees().fit(np.random.default_rng(0).random((10, 2)), np.zeros(10))
        assert zero.is_fitted and not zero._trees
        np.testing.assert_array_equal(zero.predict(np.ones((3, 2))), 0.0)

    def test_stops_at_first_step_within_tolerance(self):
        """Boosting stops at the first tree whose every training-row step is
        within 1e-8 of zero (``np.allclose(step, 0)``), not only at an exact
        zero; heavy weights keep such tiny residuals splittable. A NaN step
        is not close to zero, so a NaN target boosts on."""
        X = np.repeat([[0.0], [1.0]], 4, axis=0)
        y = np.where(X[:, 0] > 0, 0.1, -0.1)
        w = np.full(8, 1e6)
        m = GradientBoostedTrees(learning_rate=0.5, max_depth=1).fit(X, y, w)
        assert len(m._trees) == 24
        assert np.abs(m._trees[-1].predict(X)).max() > 1e-8
        step = RegressionTree(max_depth=1).fit(X, y - m.predict(X), w).predict(X)
        assert 0 < np.abs(step).max() <= 1e-8
        nan = GradientBoostedTrees(n_estimators=3).fit(X, np.full(8, np.nan))
        assert len(nan._trees) == 3

    def test_bad_inputs_rejected(self):
        X, y = np.zeros((3, 2)), np.zeros(3)
        for w in ([-1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0]):
            with pytest.raises(ValueError):
                GradientBoostedTrees().fit(X, y, w=np.array(w))
        with pytest.raises(ValueError):
            GradientBoostedTrees().fit(np.zeros(3), y)

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            GradientBoostedTrees(n_estimators=0)
        with pytest.raises(ValueError):
            GradientBoostedTrees(learning_rate=0)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_ranking_quality_on_random_monotone_data(self, seed):
        """Boosting must at least get the ordering of a monotone target
        mostly right — the property the tuner relies on."""
        rng = np.random.default_rng(seed)
        X = rng.random((120, 3))
        y = 2 * X[:, 0] + X[:, 1]
        m = GradientBoostedTrees(n_estimators=50).fit(X, y)
        pred = m.predict(X)
        corr = np.corrcoef(pred, y)[0, 1]
        assert corr > 0.9


def _loop_tree(X, y, w, depth, max_depth, min_samples_leaf):
    """Reference CART: at every node, one stable argsort and one scan per
    feature in a Python loop, and boolean masks to split the rows. A leaf
    is its value; a split is ``(feature, threshold, left, right)``."""
    value = float(np.average(y, weights=w))
    if depth >= max_depth or len(y) < 2 * min_samples_leaf:
        return value
    n, d = X.shape
    best_gain, best = 1e-12, None
    total_w, total_wy = w.sum(), (w * y).sum()
    base_sse = (w * y * y).sum() - total_wy**2 / total_w
    for feat in range(d):
        order = np.argsort(X[:, feat], kind="stable")
        xs, ws = X[order, feat], w[order]
        wys = ws * y[order]
        cw, cwy, cwyy = np.cumsum(ws), np.cumsum(wys), np.cumsum(wys * y[order])
        k = np.nonzero(xs[:-1] < xs[1:])[0]
        if not k.size:
            continue
        lw, lwy = cw[k], cwy[k]
        rw, rwy = total_w - lw, total_wy - lwy
        ok = (k + 1 >= min_samples_leaf) & (n - k - 1 >= min_samples_leaf)
        ok &= (lw > 0) & (rw > 0)
        lsse = cwyy[k] - lwy**2 / np.where(lw > 0, lw, 1)
        rsse = (cwyy[-1] - cwyy[k]) - rwy**2 / np.where(rw > 0, rw, 1)
        gain = np.where(ok, base_sse - (lsse + rsse), -np.inf)
        i = int(np.argmax(gain))
        if gain[i] > best_gain:
            best_gain = float(gain[i])
            best = (feat, float(0.5 * (xs[k[i]] + xs[k[i] + 1])))
    if best is None:
        return value
    feat, thr = best
    m = X[:, feat] <= thr
    return (feat, thr,
            _loop_tree(X[m], y[m], w[m], depth + 1, max_depth, min_samples_leaf),
            _loop_tree(X[~m], y[~m], w[~m], depth + 1, max_depth, min_samples_leaf))


def _loop_predict(tree, X):
    out = np.empty(len(X))
    for i, row in enumerate(X):
        node = tree
        while isinstance(node, tuple):
            feat, thr, left, right = node
            node = left if row[feat] <= thr else right
        out[i] = node
    return out


class TestMatchesLoopReference:
    """The presorted, all-features-at-once split search and the vectorized
    routing give bit for bit what a per-feature loop and a per-row walk
    give, ties and zero weights included."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 60)), int(rng.integers(1, 6))
        X = rng.integers(0, int(rng.integers(1, 5)), (n, d)).astype(float)
        y = rng.integers(0, 4, n) + rng.random(n).round(1)
        w = rng.choice([0.0, 0.25, 1.0], n)
        w[0] = 1.0
        n_estimators, lr = int(rng.integers(1, 12)), float(rng.choice([0.15, 1.0]))
        max_depth, leaf = int(rng.integers(1, 5)), int(rng.integers(0, 4))
        X_new = np.vstack([X, rng.integers(-1, 5, (5, d)).astype(float)])

        tree = RegressionTree(max_depth, leaf).fit(X, y, w)
        ref_tree = _loop_tree(X, y, w, 0, max_depth, leaf)
        assert tree.predict(X_new).tobytes() == _loop_predict(ref_tree, X_new).tobytes()

        model = GradientBoostedTrees(n_estimators, lr, max_depth, leaf).fit(X, y, w)
        init = float(np.average(y, weights=w))
        pred, ref, n_trees = np.full(n, init), np.full(len(X_new), init), 0
        for _ in range(n_estimators):
            ref_tree = _loop_tree(X, y - pred, w, 0, max_depth, leaf)
            step = _loop_predict(ref_tree, X)
            if np.allclose(step, 0):
                break
            pred += lr * step
            ref += lr * _loop_predict(ref_tree, X_new)
            n_trees += 1
        assert len(model._trees) == n_trees
        assert model.predict(X_new).tobytes() == ref.tobytes()
