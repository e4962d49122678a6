"""The four schedule-tuning methods compared in the paper (Table II).

* :class:`GridSearchTuner` — enumerate the space in grid order; no learning.
* :class:`XGBTuner` — boosted-tree cost model fit on measured trials, with
  simulated-annealing proposal (TVM's default method; our GBT replaces the
  XGBoost dependency).
* :class:`AnalyticalOnlyTuner` — rank the whole space by the pipeline-aware
  analytical model's predictions; measure in rank order.
* :class:`ModelAssistedXGBTuner` — ALCOP's method: pretrain the boosted
  trees on (schedule, analytical prediction) pseudo-pairs, then run the
  XGB workflow, so the first proposals already carry hardware knowledge
  while measured data keeps refining the model.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from ..gpusim.config import A100, GpuSpec
from ..gpusim.occupancy import CompileError
from ..perfmodel.batch import predict_latency_batch
from ..perfmodel.kernel_model import predict_latency
from ..perfmodel.static_spec import timing_spec_from_config
from ..schedule.config import TileConfig
from ..tensor.operation import GemmSpec
from .features import featurize_batch
from .gbt import GradientBoostedTrees
from .measure import Measurer
from .prune import prune_space
from .record import TuneHistory
from .sa import SimulatedAnnealingSampler

__all__ = [
    "Tuner",
    "GridSearchTuner",
    "RandomSearchTuner",
    "AnalyticalOnlyTuner",
    "XGBTuner",
    "ModelAssistedXGBTuner",
    "analytical_rank",
]


def _analytical_rank_scalar(
    spec: GemmSpec, space: Sequence[TileConfig], gpu: GpuSpec = A100, model=predict_latency
) -> List[int]:
    """One scalar model call per config: the path for custom ``model``
    callables, which speak the scalar ``(KernelTimingSpec, GpuSpec)``
    interface (fig12 ranks with ``bottleneck_latency``). The
    compile-throughput benchmark also times it with the default model as
    the per-config baseline of the batch speedup.
    """
    scored = []
    rejected = []
    for i, cfg in enumerate(space):
        try:
            ts = timing_spec_from_config(spec, cfg)
            scored.append((model(ts, gpu), i))
        except (CompileError, ValueError):
            rejected.append(i)
    scored.sort(key=lambda t: t[0])
    return [i for _, i in scored] + rejected


def analytical_rank(
    spec: GemmSpec, space: Sequence[TileConfig], gpu: GpuSpec = A100, model=predict_latency
) -> List[int]:
    """Indices of ``space`` sorted by a static model's predicted latency.

    Configurations the model rejects (occupancy/compile checks) rank last,
    in original order.

    For the default analytical model this evaluates the whole space in one
    vectorized :func:`predict_latency_batch` call; since the batch model is
    bitwise-equal to the scalar one, a stable argsort (rejections map to
    ``inf``, which sorts last in original order) reproduces the scalar
    ranking index-for-index. Custom models take the scalar loop.
    """
    if model is not predict_latency:
        return _analytical_rank_scalar(spec, space, gpu, model=model)
    latency = predict_latency_batch(spec, space, gpu)
    return [int(i) for i in np.argsort(latency, kind="stable")]


class Tuner:
    """Base tuner: measures proposals until the trial budget is exhausted."""

    name = "base"

    def __init__(
        self,
        spec: GemmSpec,
        space: Sequence[TileConfig],
        measurer: Optional[Measurer] = None,
        gpu: GpuSpec = A100,
        seed: int = 0,
        prune_ratio: Optional[float] = None,
    ) -> None:
        if not space:
            raise ValueError("cannot tune over an empty space")
        self.spec = spec
        self.space = list(space)
        self.gpu = gpu
        self.prune_stats = None
        if prune_ratio:
            # Opt-in model-guided pruning (off by default): drop candidates
            # the analytical model prices far above its own best before any
            # compile+simulate is spent on them.
            self.space, self.prune_stats = prune_space(spec, self.space, gpu, prune_ratio)
        self.measurer = measurer or Measurer(gpu)
        self.rng = np.random.default_rng(seed)
        self.history = TuneHistory()

    # -- subclass hook ---------------------------------------------------------
    def _next_batch(self, n: int) -> List[TileConfig]:
        raise NotImplementedError

    def tune(self, n_trials: int, on_trial=None) -> TuneHistory:
        """Run until ``n_trials`` measurements have been recorded.

        Proposals that re-visit an already-measured config (an SA chain or
        cold-start batch can re-propose one) are dropped before they reach
        the history, so the trial budget is only ever spent on distinct
        schedules and best-in-k curves never flatten on duplicates.

        ``on_trial(config, latency_us)`` is invoked after each recorded
        trial — the hook crash-safe tuning sessions use to journal every
        measurement to disk (:class:`repro.tuning.session.TuneSession`).
        """
        while len(self.history) < n_trials:
            want = n_trials - len(self.history)
            batch = self._next_batch(want)
            if not batch:
                break  # space exhausted
            measured = self._measured_keys()
            fresh = []
            for cfg in batch:
                key = cfg.key()
                if key in measured:
                    continue
                measured.add(key)
                fresh.append(cfg)
                if len(fresh) == want:
                    break
            if not fresh:
                break  # proposer can only re-offer measured points
            latencies = self.measurer.measure_many(self.spec, fresh)
            for cfg, latency in zip(fresh, latencies):
                self.history.append(cfg, latency)
                if on_trial is not None:
                    on_trial(cfg, latency)
        return self.history

    def _measured_keys(self) -> set:
        return {r.config.key() for r in self.history.records}


class GridSearchTuner(Tuner):
    """Exhaustive enumeration in deterministic grid order (Table II col 1)."""

    name = "grid"

    def _next_batch(self, n: int) -> List[TileConfig]:
        done = len(self.history)
        return self.space[done : done + n]


class RandomSearchTuner(Tuner):
    """Uniform random sampling without replacement (extra baseline)."""

    name = "random"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._order = list(self.rng.permutation(len(self.space)))

    def _next_batch(self, n: int) -> List[TileConfig]:
        done = len(self.history)
        return [self.space[i] for i in self._order[done : done + n]]


class AnalyticalOnlyTuner(Tuner):
    """Pure analytical-model ranking (Table II col 3): no learning, no
    feedback from measurements."""

    name = "analytical"

    def __init__(self, *args, model=predict_latency, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._order = analytical_rank(self.spec, self.space, self.gpu, model=model)

    def _next_batch(self, n: int) -> List[TileConfig]:
        done = len(self.history)
        return [self.space[i] for i in self._order[done : done + n]]


class XGBTuner(Tuner):
    """ML cost model + simulated annealing (TVM's default, Table II col 2)."""

    name = "xgb"
    #: measurements per round between model refits (TVM's default workflow
    #: measures in sizable batches; the cost model only learns after the
    #: first full batch returns).
    batch_size = 16

    def __init__(
        self,
        *args,
        n_pseudo: int = 0,
        pseudo_weight: float = 0.25,
        warm_start: Optional["TuneHistory"] = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.sampler = SimulatedAnnealingSampler(
            self.space, n_iters=60, seed=int(self.rng.integers(2**31))
        )
        # Lazily computed once and shared between pseudo-label pretraining
        # and ModelAssistedXGBTuner's cold-start batch (previously each
        # ranked the full space independently).
        self._analytical_order_cache: Optional[List[int]] = None
        self._feature_cache: dict = {}
        self._prior_seeds: List[TileConfig] = []
        self.model = GradientBoostedTrees()
        self._pseudo_X: Optional[np.ndarray] = None
        self._pseudo_y: Optional[np.ndarray] = None
        self.pseudo_weight = pseudo_weight
        if n_pseudo > 0:
            self._build_pseudo(n_pseudo)
        if warm_start is not None and warm_start.records:
            # Transfer tuning: prior measured trials (e.g. of a related
            # shape, loaded via tuning.record.load_history) join the pseudo
            # pool at the same reduced weight — they inform, measurements
            # of *this* task dominate.
            self._absorb_warm_start(warm_start)
        if self._pseudo_X is not None:
            self._refit()

    def _analytical_order(self) -> List[int]:
        """Full-space analytical ranking, computed once per tuner."""
        if self._analytical_order_cache is None:
            self._analytical_order_cache = analytical_rank(self.spec, self.space, self.gpu)
        return self._analytical_order_cache

    # -- pretraining on analytical predictions ---------------------------------
    def _build_pseudo(self, n_pseudo: int) -> None:
        idx = self.rng.permutation(len(self.space))[:n_pseudo]
        configs = [self.space[i] for i in idx]
        # Always include the analytical model's own favourites so the tree
        # model represents the top of the ranking accurately, not just the
        # bulk of the space.
        top = self._analytical_order()[: max(32, n_pseudo // 8)]
        seen = {c.key() for c in configs}
        for i in top:
            cfg = self.space[i]
            if cfg.key() not in seen:
                configs.append(cfg)
                seen.add(cfg.key())
        self._prior_seeds = [self.space[i] for i in top[:8]]
        # One vectorized model evaluation labels the whole pseudo pool;
        # rejected configs come back as inf == FAILED and get the same
        # floor score the scalar path assigned them.
        latencies = predict_latency_batch(self.spec, configs, self.gpu)
        ys = [self._score_from_latency(float(lat)) for lat in latencies]
        self._pseudo_X = self._features(configs)
        self._pseudo_y = np.array(ys)

    def _absorb_warm_start(self, history: "TuneHistory") -> None:
        configs = [r.config for r in history.records]
        X = self._features(configs)
        y = np.array([self._score_from_latency(r.latency_us) for r in history.records])
        if self._pseudo_X is None or not len(self._pseudo_X):
            self._pseudo_X, self._pseudo_y = X, y
        else:
            self._pseudo_X = np.vstack([self._pseudo_X, X])
            self._pseudo_y = np.concatenate([self._pseudo_y, y])
        best = history.best_config_at(len(history))
        if best is not None and best.key() in {c.key() for c in self.space}:
            self._prior_seeds.append(best)

    @staticmethod
    def _score_from_latency(latency_us: float) -> float:
        """Higher-is-better learning target; failures get a floor score."""
        if math.isinf(latency_us) or latency_us <= 0:
            return -20.0
        return -math.log(latency_us)

    def _refit(self) -> None:
        X_parts, y_parts, w_parts = [], [], []
        if self._pseudo_X is not None and len(self._pseudo_X):
            X_parts.append(self._pseudo_X)
            y_parts.append(self._pseudo_y)
            w_parts.append(np.full(len(self._pseudo_X), self.pseudo_weight))
        if self.history.records:
            configs = [r.config for r in self.history.records]
            X_parts.append(self._features(configs))
            y_parts.append(
                np.array([self._score_from_latency(r.latency_us) for r in self.history.records])
            )
            w_parts.append(np.ones(len(configs)))
        if not X_parts:
            return
        self.model.fit(np.vstack(X_parts), np.concatenate(y_parts), np.concatenate(w_parts))

    def _features(self, configs: Sequence[TileConfig]) -> np.ndarray:
        rows = []
        for cfg in configs:
            key = cfg.key()
            row = self._feature_cache.get(key)
            if row is None:
                row = featurize_batch(self.spec, [cfg], self.gpu)[0]
                self._feature_cache[key] = row
            rows.append(row)
        return np.stack(rows) if rows else np.empty((0, 0))

    def _score_batch(self, configs: Sequence[TileConfig]) -> np.ndarray:
        if not self.model.is_fitted:
            return self.rng.random(len(configs))
        return self.model.predict(self._features(configs))

    def _next_batch(self, n: int) -> List[TileConfig]:
        # Measurements proceed in rounds of ``batch_size`` with a model
        # refit between rounds (the AutoTVM workflow).
        n = min(n, self.batch_size)
        if not self.model.is_fitted and not self.history.records:
            # Cold start: random batch (the un-pretrained XGB workflow).
            order = self.rng.permutation(len(self.space))
            return [self.space[i] for i in order[:n]]
        self._refit()
        seeds = [r.config for r in sorted(self.history.records, key=lambda r: r.latency_us)[:4]]
        seeds.extend(self._prior_seeds)
        return self.sampler.propose(
            self._score_batch, max(n, 1), exclude=self._measured_keys(), seeds=seeds
        )


class ModelAssistedXGBTuner(XGBTuner):
    """ALCOP's tuner (Table II col 4): XGB workflow pretrained on the
    analytical model's predictions.

    The prior knowledge enters in two places: (1) the boosted trees are
    pretrained on (schedule, analytical prediction) pseudo-pairs, so later
    refits keep the hardware prior while fitting measured data; (2) the
    first batch of proposals is the pretrained model's argmax, which for a
    faithfully pretrained model coincides with the analytical ranking — we
    take it from the ranking directly rather than through the tree
    approximation (trees cannot resolve the top-of-ranking fine structure
    from pseudo-samples alone)."""

    name = "model-assisted-xgb"

    def __init__(self, *args, n_pseudo: int = 256, **kwargs) -> None:
        super().__init__(*args, n_pseudo=n_pseudo, **kwargs)

    def _next_batch(self, n: int) -> List[TileConfig]:
        if not self.history.records:
            n = min(n, self.batch_size)
            measured = self._measured_keys()
            first = []
            for i in self._analytical_order():
                cfg = self.space[i]
                if cfg.key() not in measured:
                    first.append(cfg)
                if len(first) >= n:
                    break
            return first
        return super()._next_batch(n)
