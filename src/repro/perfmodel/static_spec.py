"""Static construction of a timing spec from schedule parameters.

The analytical model's whole value is ranking schedules *without compiling
them* (paper Sec. IV), so it derives the kernel geometry directly from the
:class:`GemmSpec` and :class:`TileConfig`. Tests assert that this static
derivation agrees exactly with what :func:`repro.gpusim.extract_timing_spec`
measures on the compiled IR.

The derivation is written once, in plain arithmetic: on a
:class:`TileConfig` it yields Python ints, and on a space's tile fields as
int64 columns (:mod:`repro.perfmodel.batch`) it yields columns.
"""

from __future__ import annotations

from ..gpusim.spec import KernelTimingSpec
from ..ir.buffer import DTYPE_BYTES
from ..schedule.config import WARP_SIZE, TileConfig, tile_resources
from ..tensor.operation import GemmSpec

__all__ = ["timing_spec_from_config", "derive_timing_spec", "tiles_divide"]


def tiles_divide(spec: GemmSpec, c):
    """Whether tile ``c`` divides the problem in m, n and k (a bool, or a
    bool column for columns)."""
    return (spec.m % c.block_m == 0) & (spec.n % c.block_n == 0) & (spec.k % c.block_k == 0)


def derive_timing_spec(spec: GemmSpec, c) -> KernelTimingSpec:
    """The timing spec of the canonical kernel for ``(spec, c)``, where
    ``c`` is a :class:`TileConfig` or a space's tile columns. Unchecked:
    meaningless unless :func:`tiles_divide` holds."""
    eb = DTYPE_BYTES[spec.dtype]
    a_chunk = c.block_m * c.block_k * eb
    b_chunk = c.block_n * c.block_k * eb
    warps = c.warps_per_block
    outer_extent = c.smem_loop_extent(spec)
    inner_extent = c.reg_loop_extent
    # Apply detection rule 2 exactly as the automatic scheduler does: a
    # load-and-use loop of extent 1 cannot be pipelined, so the requested
    # stage count silently degrades to 1 (and the buffer uses synchronous
    # copies). Without this, the static path would credit schedules with
    # pipelining the compiler never builds. Branch-free, so columns work.
    smem_stages = 1 + (c.smem_stages - 1) * (outer_extent > 1)
    reg_stages = 1 + (c.reg_stages - 1) * (inner_extent > 1)
    # Resource usage follows the *effective* stage counts: an un-pipelined
    # buffer is not multi-buffered.
    smem_bytes, regs = tile_resources(c, smem_stages, reg_stages, eb)
    return KernelTimingSpec(
        name=f"static_{spec.name}",
        grid=c.grid_size(spec),
        threads_per_tb=warps * WARP_SIZE,
        warps_per_tb=warps,
        smem_bytes_per_tb=smem_bytes,
        regs_per_thread=regs,
        outer_extent=outer_extent,
        smem_chunk_bytes=a_chunk + b_chunk,
        smem_stages=smem_stages,
        inner_extent=inner_extent,
        frag_bytes_tb=(c.warp_m + c.warp_n) * c.chunk_k * eb * warps,
        flops_chunk_tb=2 * c.warp_m * c.warp_n * c.chunk_k * warps,
        reg_stages=reg_stages,
        epilogue_bytes=c.block_m * c.block_n * eb,
        swizzle=c.swizzle,
        batch=spec.batch,
        m_tiles=spec.m // c.block_m,
        n_tiles=spec.n // c.block_n,
        a_chunk_bytes=a_chunk,
        b_chunk_bytes=b_chunk,
        a_footprint_ratio=spec.a_footprint_ratio,
        b_footprint_ratio=spec.b_footprint_ratio,
        async_smem_copy=smem_stages >= 2,
    )


def timing_spec_from_config(spec: GemmSpec, cfg: TileConfig) -> KernelTimingSpec:
    """Derive the timing spec of the canonical kernel for ``(spec, cfg)``."""
    if not tiles_divide(spec, cfg):
        raise ValueError(
            f"problem {spec.name} ({spec.m}x{spec.n}x{spec.k}) not divisible "
            f"by tile {cfg}"
        )
    ts = derive_timing_spec(spec, cfg)
    ts.validate()
    return ts
