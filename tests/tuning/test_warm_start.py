"""Tests for tuner warm starting from saved logs (transfer tuning)."""

import numpy as np

from repro.tensor import GemmSpec
from repro.tuning import (
    Measurer,
    SpaceOptions,
    TuneHistory,
    XGBTuner,
    enumerate_space,
)
from repro.tuning.record import load_history, save_history

SPEC = GemmSpec("warm", 1, 512, 768, 1024)
SPACE = enumerate_space(SPEC, options=SpaceOptions(max_size=250))
MEAS = Measurer(via_ir=False)


def _prior_history(n=40, seed=3):
    """A finished tuning session to transfer from."""
    rng = np.random.default_rng(seed)
    h = TuneHistory()
    for i in rng.permutation(len(SPACE))[:n]:
        cfg = SPACE[int(i)]
        h.append(cfg, MEAS.measure(SPEC, cfg))
    return h


class TestWarmStart:
    def test_model_fitted_before_first_measurement(self):
        t = XGBTuner(SPEC, SPACE, measurer=MEAS, seed=0, warm_start=_prior_history())
        t._next_batch(8)
        assert t.model.is_fitted

    def test_first_batch_is_model_guided_not_random(self):
        warm = XGBTuner(SPEC, SPACE, measurer=MEAS, seed=0, warm_start=_prior_history())
        cold = XGBTuner(SPEC, SPACE, measurer=MEAS, seed=0)
        wb = [c.key() for c in warm._next_batch(8)]
        cb = [c.key() for c in cold._next_batch(8)]
        assert wb != cb

    def test_warm_start_not_worse_early(self):
        prior = _prior_history()
        _, best = MEAS.best(SPEC, SPACE)
        warm = XGBTuner(SPEC, SPACE, measurer=MEAS, seed=1, warm_start=prior).tune(16)
        cold = XGBTuner(SPEC, SPACE, measurer=MEAS, seed=1).tune(16)
        assert warm.best_latency_at(16) <= cold.best_latency_at(16) * 1.15

    def test_round_trip_through_log_file(self, tmp_path):
        prior = _prior_history(n=10)
        path = tmp_path / "log.json"
        save_history(prior, path)
        t = XGBTuner(SPEC, SPACE, measurer=MEAS, seed=0, warm_start=load_history(path))
        t._next_batch(8)
        assert t.model.is_fitted

    def test_empty_history_is_noop(self):
        t = XGBTuner(SPEC, SPACE, measurer=MEAS, seed=0, warm_start=TuneHistory())
        t._next_batch(8)
        assert not t.model.is_fitted

    def test_best_prior_config_becomes_seed(self):
        prior = _prior_history()
        t = XGBTuner(SPEC, SPACE, measurer=MEAS, seed=0, warm_start=prior)
        best = prior.best_config_at(len(prior))
        assert any(s.key() == best.key() for s in t._prior_seeds)

    def test_warm_start_with_failed_trials(self):
        """Transferred logs carry inf latencies for compile failures; they
        must absorb as floor-score samples, not poison the fit."""
        import math

        from repro.tuning import FAILED

        prior = _prior_history(n=20)
        for cfg in SPACE[:5]:
            prior.append(cfg, FAILED)
        t = XGBTuner(SPEC, SPACE, measurer=MEAS, seed=0, warm_start=prior)
        assert np.isfinite(t._pseudo_y).all()
        h = t.tune(8)
        assert t.model.is_fitted
        assert len(h) == 8
        assert math.isfinite(h.best_latency_at(8))

    def test_warm_start_from_all_failed_history(self):
        from repro.tuning import FAILED, TuneHistory

        prior = TuneHistory()
        for cfg in SPACE[:6]:
            prior.append(cfg, FAILED)
        t = XGBTuner(SPEC, SPACE, measurer=MEAS, seed=0, warm_start=prior)
        assert len(t.tune(8)) == 8
        assert t.model.is_fitted

    def test_warm_start_round_trip_preserves_failures(self, tmp_path):
        import math

        from repro.tuning import FAILED

        prior = _prior_history(n=6)
        prior.append(SPACE[0], FAILED)
        path = tmp_path / "log.json"
        save_history(prior, path)
        loaded = load_history(path)
        assert math.isinf(loaded.records[-1].latency_us)
        t = XGBTuner(SPEC, SPACE, measurer=MEAS, seed=0, warm_start=loaded)
        t._next_batch(8)
        assert t.model.is_fitted
