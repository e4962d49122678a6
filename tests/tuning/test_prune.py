"""Model-guided space pruning: opt-in, fail-safe, and never cuts the winner.

Pruning trades exhaustiveness for sweep time, so two properties are load
bearing: at the default ratio the *measured* best config must survive the
cut (the model's job is to discard the hopeless tail, not pick winners),
and with pruning off — the default everywhere — tuners must behave exactly
as they did before the feature existed.
"""

import math

import pytest

from repro.gpusim import A100
from repro.schedule import TileConfig
from repro.tensor import GemmSpec
from repro.tuning import (
    DEFAULT_PRUNE_RATIO,
    Measurer,
    SpaceOptions,
    enumerate_space,
    prune_space,
)
from repro.tuning.tuners import GridSearchTuner, ModelAssistedXGBTuner, RandomSearchTuner

SPECS = [
    GemmSpec("prune_a", 1, 256, 256, 256),
    GemmSpec("prune_b", 1, 128, 256, 512),
]


def small_space(spec):
    return enumerate_space(spec, A100, options=SpaceOptions(max_size=60))


class TestPruneSpace:
    def test_stats_account_for_every_config(self):
        spec = SPECS[0]
        space = enumerate_space(spec, A100)
        kept, stats = prune_space(spec, space, A100, ratio=1.5)
        assert stats.n_total == len(space)
        assert stats.n_kept == len(kept)
        assert stats.n_kept + stats.n_pruned + stats.n_model_rejected == stats.n_total
        assert 0 < stats.n_kept < stats.n_total
        assert math.isfinite(stats.best_predicted_us)

    def test_order_preserved_and_subset(self):
        spec = SPECS[0]
        space = enumerate_space(spec, A100)
        kept, _ = prune_space(spec, space, A100)
        keys = [c.key() for c in space]
        assert [c.key() for c in kept] == [k for k in keys if k in {c.key() for c in kept}]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_default_ratio_keeps_exhaustive_best(self, spec):
        space = small_space(spec)
        measurer = Measurer(A100)
        latencies = measurer.sweep(spec, space)
        best_cfg = min(zip(latencies, space), key=lambda t: t[0])[1]
        kept, stats = prune_space(spec, space, A100, ratio=DEFAULT_PRUNE_RATIO)
        assert best_cfg.key() in {c.key() for c in kept}, stats.summary()

    def test_ratio_one_keeps_model_best(self):
        spec = SPECS[0]
        space = enumerate_space(spec, A100)
        kept, _ = prune_space(spec, space, A100, ratio=1.0)
        assert kept  # the argmin itself always satisfies lat <= 1.0 * best

    def test_fail_safe_when_model_prices_nothing(self):
        # 64 % 48 != 0 on every config: the model rejects the whole space,
        # so pruning must pass it through untouched rather than empty it.
        spec = GemmSpec("hopeless", 1, 64, 64, 64)
        space = [
            TileConfig(48, 48, 16, warp_m=16, warp_n=16, chunk_k=8),
            TileConfig(48, 48, 16, warp_m=48, warp_n=16, chunk_k=8),
        ]
        kept, stats = prune_space(spec, space, A100)
        assert kept == space
        assert stats.n_kept == stats.n_total == 2
        assert stats.n_pruned == 0
        assert math.isinf(stats.best_predicted_us)

    def test_non_positive_ratio_rejected(self):
        spec = SPECS[0]
        with pytest.raises(ValueError):
            prune_space(spec, small_space(spec), A100, ratio=0.0)
        with pytest.raises(ValueError):
            prune_space(spec, small_space(spec), A100, ratio=-2.0)

    def test_summary_mentions_counts(self):
        spec = SPECS[0]
        _, stats = prune_space(spec, enumerate_space(spec, A100), A100)
        s = stats.summary()
        assert f"kept {stats.n_kept}/{stats.n_total}" in s


class TestTunerIntegration:
    def test_pruning_is_off_by_default(self):
        spec = SPECS[0]
        space = small_space(spec)
        tuner = GridSearchTuner(spec, space, measurer=Measurer(A100))
        assert tuner.prune_stats is None
        assert [c.key() for c in tuner.space] == [c.key() for c in space]

    def test_off_reproduces_unpruned_trial_sequence(self):
        """prune_ratio omitted, None and 0 — pre-PR behavior, identical
        trial sequences trial for trial."""
        spec = SPECS[0]
        space = small_space(spec)
        histories = []
        for kwargs in ({}, {"prune_ratio": None}, {"prune_ratio": 0.0}):
            tuner = RandomSearchTuner(spec, space, measurer=Measurer(A100), seed=3, **kwargs)
            assert tuner.prune_stats is None
            histories.append(tuner.tune(12))
        ref = [(r.config.key(), r.latency_us) for r in histories[0].records]
        for h in histories[1:]:
            assert [(r.config.key(), r.latency_us) for r in h.records] == ref

    def test_model_assisted_off_matches_default(self):
        spec = SPECS[0]
        space = small_space(spec)
        runs = []
        for kwargs in ({}, {"prune_ratio": None}):
            tuner = ModelAssistedXGBTuner(
                spec, space, measurer=Measurer(A100), seed=7, **kwargs
            )
            runs.append(tuner.tune(10))
        assert [r.config.key() for r in runs[0].records] == [
            r.config.key() for r in runs[1].records
        ]

    def test_tuner_prune_shrinks_space_and_records_stats(self):
        spec = SPECS[0]
        space = small_space(spec)
        tuner = GridSearchTuner(spec, space, measurer=Measurer(A100), prune_ratio=1.5)
        assert tuner.prune_stats is not None
        assert len(tuner.space) == tuner.prune_stats.n_kept < len(space)
        history = tuner.tune(len(tuner.space))
        # every measured config survived the cut
        kept = {c.key() for c in tuner.space}
        assert all(r.config.key() in kept for r in history.records)

