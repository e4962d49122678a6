"""Tests for the four tuning methods and the SA sampler."""

import numpy as np
import pytest

from repro.tensor import GemmSpec
from repro.tuning import (
    AnalyticalOnlyTuner,
    GridSearchTuner,
    Measurer,
    ModelAssistedXGBTuner,
    RandomSearchTuner,
    SimulatedAnnealingSampler,
    SpaceOptions,
    Tuner,
    XGBTuner,
    analytical_rank,
    enumerate_space,
)
from repro.tuning.gbt import GradientBoostedTrees

SPEC = GemmSpec("mm", 1, 512, 768, 1024)
SPACE = enumerate_space(SPEC, options=SpaceOptions(max_size=400))
MEAS = Measurer(via_ir=False)
BEST = MEAS.best(SPEC, SPACE)[1]


class TestSampler:
    def test_proposals_distinct_and_in_space(self):
        sampler = SimulatedAnnealingSampler(SPACE, seed=0)
        keys = {c.key() for c in SPACE}
        out = sampler.propose(lambda cs: np.zeros(len(cs)), 16)
        assert len({c.key() for c in out}) == 16
        assert all(c.key() in keys for c in out)

    def test_exclusion_respected(self):
        sampler = SimulatedAnnealingSampler(SPACE, seed=0)
        exclude = {c.key() for c in SPACE[:200]}
        out = sampler.propose(lambda cs: np.zeros(len(cs)), 8, exclude=exclude)
        assert all(c.key() not in exclude for c in out)

    def test_score_guides_proposals(self):
        """With a sharp score function, proposals concentrate near argmax."""
        target = SPACE[137]

        def score(cs):
            return np.array(
                [-sum(abs(np.log2(a) - np.log2(b))
                      for a, b in zip(c.key()[:6], target.key()[:6])) for c in cs]
            )

        sampler = SimulatedAnnealingSampler(SPACE, seed=1, n_iters=120)
        out = sampler.propose(score, 8, seeds=[SPACE[0]])
        assert max(score(out)) >= score([target])[0] - 2.0

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            SimulatedAnnealingSampler([])


class TestTunerBasics:
    def test_grid_measures_in_order(self):
        t = GridSearchTuner(SPEC, SPACE, measurer=MEAS)
        h = t.tune(5)
        assert [r.config.key() for r in h.records] == [c.key() for c in SPACE[:5]]

    def test_random_is_permutation(self):
        t = RandomSearchTuner(SPEC, SPACE, measurer=MEAS, seed=3)
        h = t.tune(20)
        keys = [r.config.key() for r in h.records]
        assert len(set(keys)) == 20

    def test_budget_respected(self):
        for cls in (GridSearchTuner, AnalyticalOnlyTuner):
            assert len(cls(SPEC, SPACE, measurer=MEAS).tune(17)) == 17

    def test_xgb_no_duplicate_measurements(self):
        t = XGBTuner(SPEC, SPACE, measurer=MEAS, seed=0)
        h = t.tune(30)
        keys = [r.config.key() for r in h.records]
        assert len(set(keys)) == len(keys)

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            GridSearchTuner(SPEC, [], measurer=MEAS)

    def test_analytical_rank_puts_rejects_last(self):
        order = analytical_rank(SPEC, SPACE)
        assert len(order) == len(SPACE)
        # ranks are a permutation
        assert sorted(order) == list(range(len(SPACE)))


class TestNoDuplicateTrials:
    """A tuner must never burn trial budget re-recording a measured config."""

    def test_stubborn_proposer_is_deduped_and_terminates(self):
        class StubbornTuner(Tuner):
            """Always re-proposes the same two configs."""

            def _next_batch(self, n):
                return [SPACE[0], SPACE[0], SPACE[1]]

        h = StubbornTuner(SPEC, SPACE, measurer=MEAS).tune(10)
        keys = [r.config.key() for r in h.records]
        assert keys == [SPACE[0].key(), SPACE[1].key()]

    def test_every_tuner_records_distinct_configs(self):
        for cls in (
            GridSearchTuner,
            RandomSearchTuner,
            XGBTuner,
            AnalyticalOnlyTuner,
            ModelAssistedXGBTuner,
        ):
            h = cls(SPEC, SPACE, measurer=MEAS, seed=2).tune(24)
            keys = [r.config.key() for r in h.records]
            assert len(set(keys)) == len(keys) == 24, cls.name


class TestTunerQuality:
    def test_all_tuners_beat_nothing(self):
        for cls in (XGBTuner, AnalyticalOnlyTuner, ModelAssistedXGBTuner):
            h = cls(SPEC, SPACE, measurer=MEAS, seed=0).tune(40)
            assert h.normalized_curve([40], BEST)[0] > 0.7, cls.name

    def test_model_assisted_first_batch_is_analytical_order(self):
        t = ModelAssistedXGBTuner(SPEC, SPACE, measurer=MEAS, seed=0)
        h = t.tune(8)
        expected = analytical_rank(SPEC, SPACE)[:8]
        assert [r.config.key() for r in h.records] == [SPACE[i].key() for i in expected]

    def test_model_assisted_at_least_matches_analytical_at_10(self):
        a = AnalyticalOnlyTuner(SPEC, SPACE, measurer=MEAS, seed=0).tune(10)
        m = ModelAssistedXGBTuner(SPEC, SPACE, measurer=MEAS, seed=0).tune(10)
        assert m.best_latency_at(10) <= a.best_latency_at(10) * 1.001

    def test_xgb_improves_with_budget(self):
        t = XGBTuner(SPEC, SPACE, measurer=MEAS, seed=1)
        h = t.tune(48)
        assert h.best_latency_at(48) <= h.best_latency_at(8)

    def test_seeded_determinism(self):
        h1 = XGBTuner(SPEC, SPACE, measurer=MEAS, seed=7).tune(24)
        h2 = XGBTuner(SPEC, SPACE, measurer=MEAS, seed=7).tune(24)
        assert [r.config.key() for r in h1.records] == [r.config.key() for r in h2.records]


class TestFitCount:
    """The cost model is fit once per model-guided batch, right before
    simulated annealing reads it, and never in the constructor."""

    PRIOR = GridSearchTuner(SPEC, SPACE, measurer=MEAS).tune(16)

    @pytest.fixture
    def fits(self, monkeypatch):
        rows = []
        fit = GradientBoostedTrees.fit

        def counting_fit(model, X, y, w=None):
            rows.append(len(X))
            return fit(model, X, y, w)

        monkeypatch.setattr(GradientBoostedTrees, "fit", counting_fit)
        return rows

    @pytest.mark.parametrize("cls, warm, trials, n_fits", [
        (ModelAssistedXGBTuner, False, 64, 3),  # batch 1: the analytical ranking
        (XGBTuner, True, 16, 1),  # batch 1: SA over the warm-start fit
        (ModelAssistedXGBTuner, True, 16, 0),
        (XGBTuner, False, 32, 1),  # batch 1: random
    ])
    def test_one_fit_per_model_guided_batch(self, fits, cls, warm, trials, n_fits):
        t = cls(SPEC, SPACE, measurer=MEAS, seed=0, warm_start=self.PRIOR if warm else None)
        t.tune(trials)
        assert len(fits) == n_fits
        # each fit trains on the pseudo pool plus every trial measured so far
        pool = 0 if t._pseudo_X is None else len(t._pseudo_X)
        unfit = trials - 16 * n_fits  # trials measured before the first fit
        assert fits == [pool + unfit + 16 * i for i in range(n_fits)]
