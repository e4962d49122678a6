"""Simulated-annealing proposal over the schedule space.

AutoTVM-style sampler: random walks over the knob lattice, scored by the
current cost model, keeping the best distinct points visited. Neighborhood
moves change one knob to an adjacent legal value; the walk restarts from
promising known points, so it exploits the model while still exploring.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..schedule.config import TileConfig

__all__ = ["SimulatedAnnealingSampler"]

_FIELDS = ("block_m", "block_n", "block_k", "warp_m", "warp_n", "chunk_k",
           "smem_stages", "reg_stages")


class SimulatedAnnealingSampler:
    """Propose promising configurations from a finite space."""

    def __init__(
        self,
        space: Sequence[TileConfig],
        n_iters: int = 150,
        n_chains: int = 16,
        temperature: float = 0.6,
        seed: int = 0,
    ) -> None:
        if not space:
            raise ValueError("space must be non-empty")
        self.space = list(space)
        self.n_iters = n_iters
        self.n_chains = n_chains
        self.temperature = temperature
        self.rng = np.random.default_rng(seed)
        self._index: Dict[Tuple, int] = {c.key(): i for i, c in enumerate(self.space)}
        self._neighbors: Dict[int, List[int]] = {}
        self._values = {
            f: sorted({getattr(c, f) for c in self.space}) for f in _FIELDS
        }

    def _neighbor_ids(self, idx: int) -> List[int]:
        """Configs differing from ``idx`` by one knob step (lazily built)."""
        cached = self._neighbors.get(idx)
        if cached is not None:
            return cached
        cfg = self.space[idx]
        out: List[int] = []
        for f in _FIELDS:
            vals = self._values[f]
            cur = vals.index(getattr(cfg, f))
            for j in (cur - 1, cur + 1):
                if 0 <= j < len(vals):
                    try:
                        candidate = dataclasses.replace(cfg, **{f: vals[j]})
                    except ValueError:
                        continue  # knob combination violates tile divisibility
                    hit = self._index.get(candidate.key())
                    if hit is not None:
                        out.append(hit)
        self._neighbors[idx] = out
        return out

    def propose(
        self,
        score_fn: Callable[[Sequence[TileConfig]], np.ndarray],
        n_propose: int,
        exclude: Optional[set] = None,
        seeds: Optional[Sequence[TileConfig]] = None,
    ) -> List[TileConfig]:
        """Return up to ``n_propose`` distinct high-scoring configs.

        ``score_fn`` maps configs to scores (higher is better).
        ``exclude`` holds ``cfg.key()`` tuples already measured.
        ``seeds`` are known-good starting points (best measured so far).
        """
        exclude = exclude or set()
        n = len(self.space)
        starts: List[int] = []
        for s in seeds or []:
            hit = self._index.get(s.key())
            if hit is not None:
                starts.append(hit)
        while len(starts) < self.n_chains:
            starts.append(int(self.rng.integers(n)))

        current = np.array(starts[: self.n_chains])
        cur_scores = score_fn([self.space[i] for i in current])
        visited: Dict[int, float] = {int(i): float(s) for i, s in zip(current, cur_scores)}

        for it in range(self.n_iters):
            temp = self.temperature * (1.0 - it / self.n_iters) + 1e-3
            proposals = []
            for ci, idx in enumerate(current):
                nbrs = self._neighbor_ids(int(idx))
                # the draw of rng.choice(nbrs), same stream, at a fifth of its cost
                proposals.append(
                    nbrs[int(self.rng.integers(len(nbrs)))] if nbrs else int(self.rng.integers(n))
                )
            new_scores = score_fn([self.space[i] for i in proposals])
            for ci in range(len(current)):
                delta = new_scores[ci] - cur_scores[ci]
                scale = max(1e-9, abs(cur_scores[ci]) * temp)
                if delta >= 0 or self.rng.random() < np.exp(delta / scale):
                    current[ci] = proposals[ci]
                    cur_scores[ci] = new_scores[ci]
                visited[int(proposals[ci])] = float(new_scores[ci])

        ranked = sorted(visited.items(), key=lambda kv: -kv[1])
        out: List[TileConfig] = []
        for idx, _ in ranked:
            cfg = self.space[idx]
            if cfg.key() in exclude:
                continue
            out.append(cfg)
            if len(out) == n_propose:
                break
        if len(out) < n_propose:
            # Top up with unmeasured random points to keep batch sizes fixed.
            out_keys = {c.key() for c in out}
            perm = self.rng.permutation(n)
            for idx in perm:
                cfg = self.space[int(idx)]
                key = cfg.key()
                if key in exclude or key in out_keys:
                    continue
                out.append(cfg)
                out_keys.add(key)
                if len(out) == n_propose:
                    break
        return out
