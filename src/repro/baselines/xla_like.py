"""An XLA-like whole-graph compiler baseline (paper Sec. V-B, Table III).

XLA (TF 2.9.1) profiles differently from TVM/ALCOP:

* strong elementwise **fusion** — layernorm/softmax/activation chains
  compile into few kernels, cutting their memory traffic and launches;
* its tiling heuristics (derived from broad offline measurement) pick
  good tiles, but the emitted kernels are **never pipelined** — no Ampere
  ``cp.async`` multi-stage code path exists, which is the deficit the
  paper's Table III measures;
* batched attention GEMMs pay layout adaptation, and every convolution
  pays a fixed layout-transform / algorithm-selection cost — which hits
  many-small-conv networks (ResNet-18) hardest.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..gpusim.config import A100, GpuSpec
from ..gpusim.engine import simulate_kernel
from ..gpusim.occupancy import CompileError
from ..perfmodel.static_spec import timing_spec_from_config
from ..schedule.config import TileConfig
from ..tensor.operation import GemmSpec

__all__ = ["XlaLikeCompiler"]

#: Fixed tile preference menu for XLA's own (non-delegated) code paths.
_XLA_TILES: Tuple[Tuple[int, int, int, int, int], ...] = (
    (128, 128, 32, 64, 64),
    (128, 64, 32, 64, 32),
    (64, 128, 32, 32, 64),
    (64, 64, 32, 32, 32),
    (32, 64, 32, 32, 32),
    (64, 32, 32, 32, 32),
    (32, 32, 32, 32, 32),
    (16, 64, 16, 16, 64),
    (16, 32, 16, 16, 32),
)

#: Quality gap of XLA's batched-GEMM handling (layout adaptation around
#: attention GEMMs) on top of the missing pipelining.
_BMM_PENALTY = 1.05
#: Fixed per-convolution layout-transform / algorithm-selection cost (us).
#: Amortizes on large convolutions, dominates small ones — the ResNet-18
#: vs VGG contrast in Table III.
_CONV_FIXED_OVERHEAD_US = 8.0


class XlaLikeCompiler:
    """Fusion-strong, pipelining-blind whole-graph compiler."""

    name = "XLA-like"
    #: fused elementwise chains move far fewer bytes and launch fewer kernels
    elementwise_factor = 0.55
    launch_overhead = 2.0
    fallback_factor = 1.2

    def __init__(self, gpu: GpuSpec = A100) -> None:
        self.gpu = gpu
        self._cache = {}

    def pick_tile(self, spec: GemmSpec) -> TileConfig:
        """Best tile from the fixed menu — XLA's tiling heuristics were
        derived from broad offline measurement, so they pick *good tiles*;
        what the menu fundamentally lacks is any pipelined variant."""
        best: Optional[TileConfig] = None
        best_lat = float("inf")
        for bm, bn, bk, wm, wn in _XLA_TILES:
            if spec.m % bm or spec.n % bn or spec.k % bk:
                continue
            cfg = TileConfig(bm, bn, bk, warp_m=wm, warp_n=wn, chunk_k=16 if bk >= 16 else bk)
            try:
                lat = simulate_kernel(timing_spec_from_config(spec, cfg), self.gpu).latency_us
            except (CompileError, ValueError):
                continue
            if lat < best_lat:
                best, best_lat = cfg, lat
        if best is None:
            raise CompileError(f"XLA heuristics found no tile for {spec.name}")
        return best

    def _own_path_latency(self, spec: GemmSpec) -> float:
        cfg = self.pick_tile(spec)
        return simulate_kernel(timing_spec_from_config(spec, cfg), self.gpu).latency_us

    def gemm_latency(self, spec: GemmSpec) -> float:
        hit = self._cache.get(spec)
        if hit is not None:
            return hit
        base = self._own_path_latency(spec)
        if spec.a_footprint_ratio < 1.0:
            # Convolution: per-call layout transform + algorithm selection.
            latency = base + _CONV_FIXED_OVERHEAD_US
        elif spec.batch > 1:
            # Batched attention GEMM: layout adaptation around the batch.
            latency = base * _BMM_PENALTY
        else:
            latency = base
        self._cache[spec] = latency
        return latency
