"""Split-K GEMM: an extension beyond the paper's evaluated feature set.

Small-output, long-reduction problems (the paper's MM_RN50_FC class) are
the shapes where pipelining helps most — but they also launch too few
threadblocks to fill the machine. Split-K partitions the reduction axis
across ``split_k`` threadblock groups that each compute a partial product
into a float16 workspace, followed by a bandwidth-bound reduction kernel.
CUTLASS ships this as ``GemmSplitKParallel``; here it composes with
automatic pipelining: the partial-product kernel is an ordinary batched
GEMM for the existing compiler (batch = split_k), so it gets the full
schedule search and the pipelining transformation for free.

Trade-off captured by the timing model: more splits add parallelism but
shrink the per-threadblock reduction (fewer iterations to amortize the
pipeline fill) and add workspace traffic — so the optimum is interior,
and split-K only wins on under-parallelized shapes.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..gpusim.config import A100, GpuSpec
from ..ir import Buffer, IRBuilder, Kernel, Scope
from ..ops.elementwise import MemoryBoundOp, memory_bound_latency
from ..tensor.operation import GemmSpec
from ..tuning.measure import Measurer
from ..tuning.space import SpaceOptions
from .compiler import AlcopCompiler, CompiledKernel
from .errors import CompileError

__all__ = ["SplitKCompiled", "SplitKCompiler", "build_reduce_kernel", "reduce_latency_us"]

#: Output tile of the reduction kernel.
_REDUCE_TILE = 64


def build_reduce_kernel(m: int, n: int, split_k: int, name: str = "splitk_reduce") -> Kernel:
    """The second kernel: ``C[m, n] = sum_s W[s, m, n]`` with fp32
    accumulation and an fp16 store."""
    if m % _REDUCE_TILE and m < _REDUCE_TILE:
        tile_m = m
    else:
        tile_m = _REDUCE_TILE if m % _REDUCE_TILE == 0 else 1
    tile_n = _REDUCE_TILE if n % _REDUCE_TILE == 0 else (n if n < _REDUCE_TILE else 1)

    W = Buffer("W", (split_k, m, n), dtype="float16")
    C = Buffer("C", (m, n), dtype="float16")
    acc = Buffer("acc", (tile_m, tile_n), dtype="float32", scope=Scope.ACCUMULATOR)

    def fill_zero(out: np.ndarray) -> None:
        out[...] = 0

    def accumulate(out: np.ndarray, part: np.ndarray) -> None:
        out += part.astype(np.float32)

    b = IRBuilder()
    with b.block_for("rm", m // tile_m) as rm:
        with b.block_for("rn", n // tile_n) as rn:
            with b.allocate(acc):
                b.compute("fill", acc.full_region(), [], fn=fill_zero, accumulate=False)
                with b.serial_for("s", split_k) as s:
                    b.compute(
                        "reduce_add",
                        acc.full_region(),
                        [W.region((s, 1), (rm * tile_m, tile_m), (rn * tile_n, tile_n))],
                        fn=accumulate,
                        flops=tile_m * tile_n,
                    )
                b.copy(
                    C.region((rm * tile_m, tile_m), (rn * tile_n, tile_n)),
                    acc.full_region(),
                    epilogue=True,
                )
    return Kernel(name, [W, C], b.finish())


def reduce_latency_us(m: int, n: int, split_k: int, gpu: GpuSpec = A100) -> float:
    """Roofline latency of the reduction kernel: read ``split_k`` partials,
    write one output — purely bandwidth bound."""
    op = MemoryBoundOp("splitk_reduce", bytes_read=split_k * m * n * 2, bytes_written=m * n * 2)
    return memory_bound_latency(op, gpu, launch_overhead=3.0)


@dataclasses.dataclass
class SplitKCompiled:
    """A compiled split-K GEMM: partial-product kernel + reduction."""

    spec: GemmSpec
    split_k: int
    partial: CompiledKernel
    reduce_kernel: Kernel
    reduce_us: float

    @property
    def latency_us(self) -> float:
        return self.partial.latency_us + self.reduce_us

    def run(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Execute both kernels through the interpreters.

        Inputs are the *unsplit* operands ``A (m, k)`` and ``B (n, k)``;
        the split view is materialized the way the partial kernel's batched
        layout expects.
        """
        from ..interp import run_kernel

        s = self.split_k
        if s == 1:
            return self.partial.run(a, b)
        m, n, k = self.spec.m, self.spec.n, self.spec.k
        a_split = np.ascontiguousarray(a.reshape(m, s, k // s).swapaxes(0, 1))
        b_split = np.ascontiguousarray(b.reshape(n, s, k // s).swapaxes(0, 1))
        mode = "pipeline" if self.partial.kernel.attrs.get("pipeline_groups") else "eager"
        w = run_kernel(self.partial.kernel, {"A": a_split, "B": b_split}, mode=mode)["C"]
        out = run_kernel(self.reduce_kernel, {"W": w}, mode="eager")
        return out["C"]


class SplitKCompiler:
    """Search over ``split_k`` factors on top of the pipelining compiler.

    Usable wherever an end-to-end :class:`~repro.models.runtime.Backend`
    is expected (same elementwise/fusion profile as the plain compiler).
    """

    elementwise_factor: float = 1.0
    launch_overhead: float = 3.0
    fallback_factor: float = 1.0

    def __init__(
        self,
        gpu: GpuSpec = A100,
        measurer: Optional[Measurer] = None,
        space_options: Optional[SpaceOptions] = None,
        split_candidates: Sequence[int] = (1, 2, 4, 8),
        min_k_per_split: int = 64,
    ) -> None:
        self.gpu = gpu
        self.measurer = measurer or Measurer(gpu, via_ir=False)
        self.space_options = space_options
        self.split_candidates = tuple(split_candidates)
        self.min_k_per_split = min_k_per_split
        self._inner = AlcopCompiler(
            gpu=gpu, measurer=self.measurer, space_options=space_options
        )
        self._cache: Dict[GemmSpec, SplitKCompiled] = {}

    def _partial_spec(self, spec: GemmSpec, split_k: int) -> GemmSpec:
        return GemmSpec(
            f"{spec.name}_sk{split_k}",
            batch=split_k,
            m=spec.m,
            n=spec.n,
            k=spec.k // split_k,
            dtype=spec.dtype,
            a_footprint_ratio=spec.a_footprint_ratio,
            b_footprint_ratio=spec.b_footprint_ratio,
        )

    def candidate_splits(self, spec: GemmSpec) -> List[int]:
        """Feasible split factors for a problem (1 is always included): a
        split must divide the reduction, leave at least
        ``min_k_per_split`` of it per group, and leave a partial problem
        whose design space is not empty."""
        if spec.batch != 1:
            return [1]  # batched problems already have grid parallelism
        out = []
        for s in self.split_candidates:
            if spec.k % s:
                continue
            if s > 1 and (spec.k // s < self.min_k_per_split
                          or not self._has_space(self._partial_spec(spec, s))):
                continue
            out.append(s)
        return out or [1]

    def _has_space(self, spec: GemmSpec) -> bool:
        try:
            self._inner.space(spec, self._inner.variant, self.space_options)
        except (CompileError, ValueError):
            return False
        return True

    def compile(self, spec: GemmSpec) -> SplitKCompiled:
        """Pick the best split factor by measured total latency."""
        hit = self._cache.get(spec)
        if hit is not None:
            return hit
        best: Optional[SplitKCompiled] = None
        for s in self.candidate_splits(spec):
            partial = self._inner.compile(self._partial_spec(spec, s) if s > 1 else spec)
            reduce_us = reduce_latency_us(spec.m, spec.n, s, self.gpu) if s > 1 else 0.0
            candidate = SplitKCompiled(
                spec=spec,
                split_k=s,
                partial=partial,
                reduce_kernel=build_reduce_kernel(spec.m, spec.n, max(s, 1)),
                reduce_us=reduce_us,
            )
            if best is None or candidate.latency_us < best.latency_us:
                best = candidate
        assert best is not None
        self._cache[spec] = best
        return best

    def gemm_latency(self, spec: GemmSpec) -> float:
        return self.compile(spec).latency_us
