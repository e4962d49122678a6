"""Schedule (tiling + pipelining) configuration and its resource math.

:class:`TileConfig` is the knob vector the auto-tuner searches over
(paper Sec. IV): threadblock tile, warp tile, register chunk, and the
pipeline stage counts for the shared-memory and register levels.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

from ..ir.buffer import DTYPE_BYTES
from ..tensor.operation import GemmSpec

__all__ = ["TileConfig", "ResourceUsage", "WARP_SIZE", "tile_resources"]

WARP_SIZE = 32

#: Registers reserved per thread for addressing, predicates and loop state.
_BASE_REGS_PER_THREAD = 40
#: Bytes per register.
_REG_BYTES = 4


def tile_resources(c, smem_stages, reg_stages, elem_bytes: int):
    """Shared-memory bytes and registers per thread of one threadblock of
    tile ``c`` at the given pipeline stage counts.

    Matches the occupancy-limiting quantities the paper's scheduling
    policy considers (Sec. IV-A). ``c`` is a :class:`TileConfig` or a
    space's tile fields as int64 columns; the same arithmetic then yields
    ints or columns.
    """
    smem = (c.block_m + c.block_n) * c.block_k * elem_bytes * smem_stages
    # Accumulator fragments: fp32 accumulation, one warp owns warp_m*warp_n.
    accum_regs = (c.warp_m * c.warp_n * 4) // (_REG_BYTES * WARP_SIZE)
    # Operand fragments at the register level, double-buffered if staged.
    frag_bytes = (c.warp_m + c.warp_n) * c.chunk_k * elem_bytes * reg_stages
    frag_regs = -(-frag_bytes // (_REG_BYTES * WARP_SIZE))
    return smem, _BASE_REGS_PER_THREAD + accum_regs + frag_regs


@dataclasses.dataclass(frozen=True)
class ResourceUsage:
    """Per-threadblock resource consumption of a schedule."""

    smem_bytes: int
    regs_per_thread: int
    threads: int

    @property
    def regs_per_block(self) -> int:
        return self.regs_per_thread * self.threads


@dataclasses.dataclass(frozen=True)
class TileConfig:
    """A complete schedule parameterization for a GEMM-family kernel.

    Attributes
    ----------
    block_m, block_n, block_k:
        Threadblock output tile (``TB_tile`` in the paper's Fig. 7).
    warp_m, warp_n:
        Warp output tile; ``(block_m // warp_m) * (block_n // warp_n)`` warps
        cooperate in one threadblock.
    chunk_k:
        Register-level reduction chunk (``Warp_tile_k``); the inner
        load-and-use loop runs ``block_k // chunk_k`` iterations.
    smem_stages:
        Pipeline stages of the shared-memory load-and-use loop. ``1`` means
        no pipelining, ``2`` is double-buffering, ``>= 3`` is multi-stage.
    reg_stages:
        Pipeline stages of the register-level loop (``1`` or ``2``).
    swizzle:
        Whether shared-memory swizzling is applied to kill bank conflicts
        (both ALCOP and the baselines enable it in the paper's evaluation).
    """

    block_m: int
    block_n: int
    block_k: int
    warp_m: int
    warp_n: int
    chunk_k: int
    smem_stages: int = 1
    reg_stages: int = 1
    swizzle: bool = True

    def __post_init__(self) -> None:
        for field in ("block_m", "block_n", "block_k", "warp_m", "warp_n", "chunk_k"):
            v = getattr(self, field)
            if not isinstance(v, int) or v <= 0:
                raise ValueError(f"TileConfig.{field} must be a positive int, got {v!r}")
        if self.block_m % self.warp_m != 0:
            raise ValueError(f"block_m={self.block_m} not divisible by warp_m={self.warp_m}")
        if self.block_n % self.warp_n != 0:
            raise ValueError(f"block_n={self.block_n} not divisible by warp_n={self.warp_n}")
        if self.block_k % self.chunk_k != 0:
            raise ValueError(f"block_k={self.block_k} not divisible by chunk_k={self.chunk_k}")
        if self.smem_stages < 1 or self.smem_stages > 8:
            raise ValueError(f"smem_stages must be in [1, 8], got {self.smem_stages}")
        if self.reg_stages not in (1, 2):
            raise ValueError(f"reg_stages must be 1 or 2, got {self.reg_stages}")

    # -- derived geometry ----------------------------------------------------
    @property
    def warps_per_block(self) -> int:
        return (self.block_m // self.warp_m) * (self.block_n // self.warp_n)

    @property
    def threads_per_block(self) -> int:
        return self.warps_per_block * WARP_SIZE

    @property
    def reg_loop_extent(self) -> int:
        """Iterations of the inner (register-level) load-and-use loop."""
        return self.block_k // self.chunk_k

    def grid_size(self, spec: GemmSpec) -> int:
        """Number of threadblocks launched for ``spec`` (ceil division)."""
        tiles_m = -(-spec.m // self.block_m)
        tiles_n = -(-spec.n // self.block_n)
        return spec.batch * tiles_m * tiles_n

    def smem_loop_extent(self, spec: GemmSpec) -> int:
        """Iterations of the outer (shared-memory-level) load-and-use loop."""
        return -(-spec.k // self.block_k)

    # -- resource usage --------------------------------------------------------
    def resource_usage(self, dtype: str = "float16") -> ResourceUsage:
        """Shared memory and register consumption of one threadblock
        (:func:`tile_resources` at this config's stage counts)."""
        smem, regs = tile_resources(self, self.smem_stages, self.reg_stages, DTYPE_BYTES[dtype])
        return ResourceUsage(smem_bytes=smem, regs_per_thread=regs, threads=self.threads_per_block)

    # -- helpers ----------------------------------------------------------------
    def with_stages(self, smem_stages: int, reg_stages: int) -> "TileConfig":
        """The same tiling with different pipeline stage counts."""
        return dataclasses.replace(self, smem_stages=smem_stages, reg_stages=reg_stages)

    def key(self) -> Tuple:
        """Hashable identity used for caching compiled/simulated results.

        Memoized on the (frozen, hot) instance: every cache layer on the
        measurement path keys by it, and ``dataclasses.astuple`` is far too
        slow to re-run per lookup.
        """
        k = getattr(self, "_key", None)
        if k is None:
            k = (
                self.block_m,
                self.block_n,
                self.block_k,
                self.warp_m,
                self.warp_n,
                self.chunk_k,
                self.smem_stages,
                self.reg_stages,
                self.swizzle,
            )
            object.__setattr__(self, "_key", k)
        return k

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    def __str__(self) -> str:
        return (
            f"TB({self.block_m}x{self.block_n}x{self.block_k})"
            f"/W({self.warp_m}x{self.warp_n}x{self.chunk_k})"
            f"/S({self.smem_stages},{self.reg_stages})"
        )
