"""A cuBLAS/cuDNN-like hand-tuned kernel library (paper Sec. V-C, Fig. 11).

Vendor libraries ship a small *catalog* of expert-written, fully pipelined
kernel templates and a heuristic dispatcher that picks one per problem
shape — they do not search per shape the way a compiler does. We model:

* a catalog of the classic CUTLASS/cuBLAS tile shapes, all multi-stage
  multi-level pipelined;
* an analytical-model-based dispatcher (the library's shape heuristics);
* a small hand-tuning uplift (``_HAND_TUNED_SPEEDUP``) for the assembly-
  level scheduling a compiler's generated code does not reach.

This reproduces the paper's finding: ALCOP lands at ~93% of library
performance on average, and *beats* the library on shapes the catalog and
heuristic serve poorly (e.g. BMM_BERT_QK), because the compiler searches
the whole schedule space per shape.
"""

from __future__ import annotations

from typing import List, Tuple

from ..gpusim.config import A100, GpuSpec
from ..gpusim.engine import simulate_kernel
from ..gpusim.occupancy import CompileError
from ..perfmodel.static_spec import timing_spec_from_config
from ..schedule.config import TileConfig
from ..tensor.operation import GemmSpec

__all__ = ["LIBRARY_CATALOG", "LibraryKernels"]

#: Hand-written kernels are ~10% faster than compiler output at the same
#: schedule (SASS-level register allocation, instruction scheduling and
#: software-pipelined epilogues that compiler codegen does not reach).
_HAND_TUNED_SPEEDUP = 0.90

#: Expert kernel templates: the tile shapes cuBLAS/CUTLASS actually ship,
#: all with multi-stage shared-memory and double-buffered register
#: pipelines.
LIBRARY_CATALOG: Tuple[TileConfig, ...] = tuple(
    TileConfig(bm, bn, bk, warp_m=wm, warp_n=wn, chunk_k=16, smem_stages=ss, reg_stages=2)
    for (bm, bn, bk, wm, wn, ss) in [
        (256, 128, 32, 64, 64, 3),
        (128, 256, 32, 64, 64, 3),
        (128, 128, 32, 64, 64, 4),
        (128, 64, 32, 64, 32, 4),
        (64, 128, 32, 32, 64, 4),
        (64, 64, 64, 32, 32, 4),
        (64, 32, 64, 32, 32, 5),
        (32, 64, 64, 32, 32, 5),
        (16, 64, 64, 16, 64, 5),
        (16, 128, 32, 16, 64, 4),
    ]
)


class LibraryKernels:
    """The vendor library: dispatch + fixed expert kernels."""

    name = "cuBLAS/cuDNN-like"

    def __init__(self, gpu: GpuSpec = A100) -> None:
        self.gpu = gpu
        self._cache = {}

    def dispatch(self, spec: GemmSpec) -> TileConfig:
        """Pick the catalog kernel for a shape.

        Vendor heuristics were derived from extensive offline benchmarking
        of the catalog on common shapes, so the dispatcher behaves like
        best-of-catalog: every exactly tiling candidate is timed and the
        winner shipped. Per-shape *schedule search beyond the catalog* is
        what the library cannot do — that is where ALCOP wins (Fig. 11).
        """
        candidates: List[Tuple[float, int, TileConfig]] = []
        for rank, cfg in enumerate(LIBRARY_CATALOG):
            if spec.m % cfg.block_m or spec.n % cfg.block_n or spec.k % cfg.block_k:
                continue
            try:
                lat = simulate_kernel(timing_spec_from_config(spec, cfg), self.gpu).latency_us
            except (CompileError, ValueError):
                continue
            candidates.append((lat, rank, cfg))
        if not candidates:
            raise CompileError(
                f"no library kernel tiles {spec.name} "
                f"({spec.m}x{spec.n}x{spec.k}); the library would fall back "
                "to a slow generic path"
            )
        candidates.sort(key=lambda t: (t[0], t[1]))
        return candidates[0][2]

    def gemm_latency(self, spec: GemmSpec) -> float:
        """Latency of the library kernel chosen for ``spec`` (us)."""
        hit = self._cache.get(spec)
        if hit is not None:
            return hit
        cfg = self.dispatch(spec)
        sim = simulate_kernel(timing_spec_from_config(spec, cfg), self.gpu)
        latency = sim.latency_us * _HAND_TUNED_SPEEDUP
        self._cache[spec] = latency
        return latency
