"""Pinned identity of the learned tuners and the boosted trees.

The tuners' trial histories and the GBT's predictions are promised
bitwise-stable across refactors of the split search and tree routing. No
second implementation exists to compare against, so these sha256 digests
are the reference: re-pin only for a declared, intended behaviour change.
"""

import hashlib

import numpy as np

from repro.tensor import GemmSpec
from repro.tuning import (
    Measurer,
    ModelAssistedXGBTuner,
    SpaceOptions,
    XGBTuner,
    enumerate_space,
)
from repro.tuning.gbt import GradientBoostedTrees

#: ``(batch, m, n, k)`` of the pinned tuning problems.
_SHAPES = ((1, 1024, 1024, 1024), (1, 512, 3072, 768), (1, 256, 256, 512))
_SEEDS = (0, 1)
_SPACE_CAP = 96
_TRIALS = 32

#: sha256 of :func:`_tuner_digest` (XGB, model-assisted and warm-started
#: model-assisted histories over every shape and seed).
_PINNED_TUNERS = "eed1ae4cdb43eedb54c00aba615477e88a502f84419e78974d50ddebcad8d2f0"
#: sha256 of :func:`_gbt_digest` (seeded tie-heavy weighted fits).
_PINNED_GBT = "4bac3ffef5b09aa1c5af74350682cdb679ca994850eaf5f3a13e40c62272cdca"


def _history_record(history):
    return repr([(r.config.key(), r.latency_us) for r in history.records]).encode()


def _tuner_digest() -> str:
    h = hashlib.sha256()
    measurer = Measurer(via_ir=False)
    for shape in _SHAPES:
        spec = GemmSpec("pin", *shape)
        space = enumerate_space(spec, options=SpaceOptions(max_size=_SPACE_CAP))
        for seed in _SEEDS:
            xgb = XGBTuner(spec, space, measurer=measurer, seed=seed).tune(_TRIALS)
            assisted = ModelAssistedXGBTuner(
                spec, space, measurer=measurer, seed=seed).tune(_TRIALS)
            warm = ModelAssistedXGBTuner(
                spec, space, measurer=measurer, seed=seed + 7, warm_start=xgb,
            ).tune(_TRIALS // 2)
            for history in (xgb, assisted, warm):
                h.update(_history_record(history))
    return h.hexdigest()


def _gbt_digest() -> str:
    """Twenty fits on integer-valued features (many tied values and tied
    split gains), weights drawn from {0.25, 1.0}; predictions on the
    training rows, on held-out rows and on zero rows."""
    h = hashlib.sha256()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 401))
        d = int(rng.integers(1, 25))
        levels = int(rng.integers(2, 9))
        X = rng.integers(0, levels, (n, d)).astype(np.float64)
        y = X[:, 0] - 0.5 * X[:, -1] + rng.integers(0, 3, n)
        w = rng.choice([0.25, 1.0], n)
        model = GradientBoostedTrees(
            max_depth=int(rng.integers(1, 6)),
            min_samples_leaf=int(rng.integers(1, 4)),
        ).fit(X, y, w)
        held_out = rng.integers(0, levels + 1, (17, d)).astype(np.float64)
        h.update(str(len(model._trees)).encode())
        for rows in (X, held_out, np.empty((0, d))):
            h.update(model.predict(rows).tobytes())
    return h.hexdigest()


def test_tuner_histories_match_pinned_digest():
    assert _tuner_digest() == _PINNED_TUNERS


def test_gbt_predictions_match_pinned_digest():
    assert _gbt_digest() == _PINNED_GBT
