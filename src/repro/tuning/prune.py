"""Model-guided search-space pruning.

The analytical model prices a config in nanoseconds (batched) while a real
trial costs a compile plus a simulation — so a cheap pre-pass that drops
candidates the model is *confident* are far from optimal shrinks sweeps by
an order of magnitude. The model's job here is not to pick the winner
(that is the tuner's job) but to discard the hopeless tail, so the keep
criterion is deliberately loose: a config survives when its predicted
latency is within ``ratio``× of the best prediction over the space.

Pruning is **opt-in** (``repro tune --prune-ratio``,
``Tuner(prune_ratio=...)``): the fig12/fig13 fidelity benchmarks and all
default workflows run unpruned.

Configs the model outright rejects (non-divisible tiling, threadblock that
cannot launch) are pruned too — the measurement path applies the very same
occupancy check during compilation, so those trials could only ever come
back FAILED. Fail-safe: if the model prices *nothing* finite, the space is
returned untouched rather than emptied.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple

import numpy as np

from ..gpusim.config import A100, GpuSpec
from ..perfmodel.batch import predict_latency_batch
from ..schedule.config import TileConfig
from ..tensor.operation import GemmSpec

__all__ = ["DEFAULT_PRUNE_RATIO", "PruneStats", "prune_space"]

#: Keep configs predicted within this factor of the analytical best. Chosen
#: loose on purpose: across the small test GEMMs the *measured*-best config
#: is priced at up to ~2.8x the model's own best prediction, so 4x keeps
#: the true optimum with margin while still discarding the hopeless tail.
DEFAULT_PRUNE_RATIO = 4.0


@dataclasses.dataclass(frozen=True)
class PruneStats:
    """What a pruning pass did to a space."""

    n_total: int
    n_kept: int
    n_model_rejected: int  # model could not price (would FAIL compilation)
    n_pruned: int  # priced, but beyond ratio * best
    ratio: float
    best_predicted_us: float

    def summary(self) -> str:
        return (
            f"prune(ratio={self.ratio:g}): kept {self.n_kept}/{self.n_total} "
            f"configs ({self.n_pruned} above threshold, "
            f"{self.n_model_rejected} unlaunchable), "
            f"best predicted {self.best_predicted_us:.2f}us"
        )


def prune_space(
    spec: GemmSpec,
    space: Sequence[TileConfig],
    gpu: GpuSpec = A100,
    ratio: float = DEFAULT_PRUNE_RATIO,
) -> Tuple[List[TileConfig], PruneStats]:
    """Drop configs whose predicted latency exceeds ``ratio`` times the best
    prediction. Returns the surviving configs (original order preserved)
    and a :class:`PruneStats` record.
    """
    if ratio <= 0:
        raise ValueError(f"prune ratio must be positive, got {ratio}")
    latency = predict_latency_batch(spec, space, gpu)
    finite = np.isfinite(latency)
    n_total = len(space)
    if not finite.any():
        # The model prices nothing — either an empty space or one where
        # every config fails its launchability check. Pruning on no signal
        # would empty the space, so pass it through untouched.
        return list(space), PruneStats(
            n_total=n_total,
            n_kept=n_total,
            n_model_rejected=int(n_total - finite.sum()),
            n_pruned=0,
            ratio=ratio,
            best_predicted_us=float("inf"),
        )
    best = float(latency[finite].min())
    keep = latency <= ratio * best
    kept = [cfg for cfg, k in zip(space, keep) if k]
    return kept, PruneStats(
        n_total=n_total,
        n_kept=len(kept),
        n_model_rejected=int((~finite).sum()),
        n_pruned=int(n_total - len(kept) - (~finite).sum()),
        ratio=ratio,
        best_predicted_us=best,
    )
