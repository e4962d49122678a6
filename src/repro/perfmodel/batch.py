"""Vectorized (batched) evaluation of the Table-I analytical model.

The scalar path — :func:`~repro.perfmodel.static_spec.timing_spec_from_config`
followed by :func:`~repro.perfmodel.kernel_model.predict_latency` — builds a
:class:`KernelTimingSpec` object and walks the model formulas once per
config. Ranking a multi-thousand-config design space that way costs tens of
milliseconds of pure Python object churn per thousand configs; the paper's
whole point (Sec. IV) is that the static model prices candidates *cheaply*.

This module derives the timing-spec quantities for an entire
``enumerate_space`` result as numpy struct-of-arrays and evaluates the
kernel/pipeline model over all of them at once. Every arithmetic step
mirrors the scalar implementation operation for operation (same order, same
float64 ops), so :func:`predict_latency_batch` is *bitwise identical* to
the scalar model on every config — the batch-vs-scalar property tests and
the byte-stable fig12/fig13 benchmark outputs depend on this. Keep the two
implementations in lockstep when editing either.

Configurations the scalar path rejects (problem not divisible by the tile,
or the threadblock cannot launch — occupancy/register/shared-memory limits)
come back as ``inf`` instead of raising, which matches the ``FAILED``
latency convention of the measurement harness.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence, Union

import numpy as np

from ..gpusim.config import A100, GpuSpec
from ..ir.buffer import DTYPE_BYTES
from ..schedule.config import _BASE_REGS_PER_THREAD, _REG_BYTES, WARP_SIZE, TileConfig
from ..tensor.operation import GemmSpec

__all__ = [
    "BatchTimingArrays",
    "derive_timing_arrays",
    "pipeline_latency_batch",
    "predict_latency_batch",
]

_Array = np.ndarray


def _ceil_div(a: _Array, b: _Array) -> _Array:
    """Integer ceil-division mirroring the ``-(-a // b)`` idiom."""
    return -(-a // b)


def _float_ceil(a: Union[_Array, np.floating]) -> _Array:
    """``math.ceil(float)`` as an int64 array (exact below 2**53)."""
    return np.ceil(a).astype(np.int64)


@dataclasses.dataclass(frozen=True)
class BatchTimingArrays:
    """Struct-of-arrays form of ``timing_spec_from_config`` over N configs.

    ``ok`` marks configs whose static derivation succeeds (problem divisible
    by the tile). All other arrays hold the same quantities the scalar
    :class:`KernelTimingSpec` carries, one entry per config; entries where
    ``ok`` is False contain well-defined but meaningless values.
    """

    ok: _Array  # bool
    grid: _Array
    threads_per_tb: _Array
    warps_per_tb: _Array
    smem_bytes_per_tb: _Array
    regs_per_thread: _Array
    outer_extent: _Array
    smem_chunk_bytes: _Array
    smem_stages: _Array
    inner_extent: _Array
    frag_bytes_tb: _Array
    flops_chunk_tb: _Array
    reg_stages: _Array
    epilogue_bytes: _Array
    m_tiles: _Array
    n_tiles: _Array
    a_chunk_bytes: _Array
    b_chunk_bytes: _Array
    #: scalars shared by every config (problem properties)
    batch: int
    a_footprint_ratio: float
    b_footprint_ratio: float

    def __len__(self) -> int:
        return len(self.ok)


def derive_timing_arrays(spec: GemmSpec, configs: Sequence[TileConfig]) -> BatchTimingArrays:
    """Vectorized :func:`timing_spec_from_config` over a whole space."""
    n = len(configs)
    # One flat list + a single np.array call is ~3x faster than n*8 indexed
    # stores — this extraction loop is the batch path's dominant cost.
    flat: list = []
    extend = flat.extend
    for c in configs:
        extend(
            (c.block_m, c.block_n, c.block_k, c.warp_m, c.warp_n,
             c.chunk_k, c.smem_stages, c.reg_stages)
        )
    raw = np.array(flat, dtype=np.int64).reshape(n, 8)
    bm, bn, bk = raw[:, 0], raw[:, 1], raw[:, 2]
    wm, wn, ck = raw[:, 3], raw[:, 4], raw[:, 5]
    ss, rs = raw[:, 6], raw[:, 7]

    ok = ((spec.m % bm) == 0) & ((spec.n % bn) == 0) & ((spec.k % bk) == 0)

    eb = DTYPE_BYTES[spec.dtype]
    a_chunk = bm * bk * eb
    b_chunk = bn * bk * eb
    warps = (bm // wm) * (bn // wn)
    frag_bytes = (wm + wn) * ck * eb * warps
    flops_chunk = 2 * wm * wn * ck * warps

    # Detection rule 2, exactly as the scalar path applies it: a loop of
    # extent 1 cannot be pipelined, so the stage count degrades to 1.
    outer_extent = _ceil_div(np.int64(spec.k), bk)
    inner_extent = bk // ck
    smem_stages = np.where(outer_extent > 1, ss, 1)
    reg_stages = np.where(inner_extent > 1, rs, 1)

    # Resource usage at the *effective* stage counts (TileConfig.resource_usage).
    smem = (bm + bn) * bk * eb * smem_stages
    accum_regs = (wm * wn * 4) // (_REG_BYTES * WARP_SIZE)
    frag_bytes_staged = (wm + wn) * ck * eb * reg_stages
    frag_regs = _ceil_div(frag_bytes_staged, np.int64(_REG_BYTES * WARP_SIZE))
    regs = _BASE_REGS_PER_THREAD + accum_regs + frag_regs
    threads = warps * WARP_SIZE

    grid = spec.batch * _ceil_div(np.int64(spec.m), bm) * _ceil_div(np.int64(spec.n), bn)

    return BatchTimingArrays(
        ok=ok,
        grid=grid,
        threads_per_tb=threads,
        warps_per_tb=warps,
        smem_bytes_per_tb=smem,
        regs_per_thread=regs,
        outer_extent=outer_extent,
        smem_chunk_bytes=a_chunk + b_chunk,
        smem_stages=smem_stages,
        inner_extent=inner_extent,
        frag_bytes_tb=frag_bytes,
        flops_chunk_tb=flops_chunk,
        reg_stages=reg_stages,
        epilogue_bytes=bm * bn * eb,
        m_tiles=spec.m // bm,
        n_tiles=spec.n // bn,
        a_chunk_bytes=a_chunk,
        b_chunk_bytes=b_chunk,
        batch=spec.batch,
        a_footprint_ratio=spec.a_footprint_ratio,
        b_footprint_ratio=spec.b_footprint_ratio,
    )


def pipeline_latency_batch(
    t_load: _Array, t_use: _Array, n_loop: _Array, n_pipe: _Array, n_mplx: _Array
) -> _Array:
    """Vectorized Pipeline Latency Model (mirror of ``pipeline_latency``)."""
    load_bound = t_load > (n_pipe * n_mplx - 1) * t_use
    return np.where(load_bound, (t_load + t_use) * n_loop / n_pipe, t_use * n_loop)


def _tb_per_sm_batch(gpu: GpuSpec, ta: BatchTimingArrays) -> "tuple[_Array, _Array]":
    """Vectorized occupancy: ``(occ, launchable)`` (mirror of ``tb_per_sm``)."""
    smem, regs, threads = ta.smem_bytes_per_tb, ta.regs_per_thread, ta.threads_per_tb
    launchable = (
        (smem <= gpu.max_smem_per_tb)
        & (regs <= gpu.max_regs_per_thread)
        & (threads <= gpu.max_threads_per_sm)
        & (regs * threads <= gpu.regs_per_sm)
    )
    # All divisors are >= 1 for real TileConfigs, so the minimum can be
    # taken unconditionally (the scalar path guards smem > 0 / regs > 0).
    occ = np.minimum(np.int64(gpu.max_tb_per_sm), gpu.max_threads_per_sm // threads)
    occ = np.minimum(occ, gpu.smem_per_sm // smem)
    occ = np.minimum(occ, gpu.regs_per_sm // (regs * threads))
    launchable &= occ >= 1
    return np.where(launchable, occ, 1), launchable


def _batch_workset_bytes(ta: BatchTimingArrays, tbs_per_batch: _Array) -> _Array:
    """Vectorized mirror of ``KernelTimingSpec.workset_bytes``."""
    covered = tbs_per_batch
    tiles_per_batch_dim = ta.m_tiles * ta.n_tiles
    batches_covered = np.maximum(1, _float_ceil(covered / tiles_per_batch_dim))
    unique_a = np.minimum(covered, _float_ceil(covered / np.maximum(1, ta.n_tiles)))
    unique_b = np.minimum(covered, ta.n_tiles * batches_covered)
    return (
        unique_a * ta.a_chunk_bytes * ta.a_footprint_ratio
        + unique_b * ta.b_chunk_bytes * ta.b_footprint_ratio
    )


def predict_latency_batch(
    spec: GemmSpec, configs: Sequence[TileConfig], gpu: GpuSpec = A100
) -> _Array:
    """Predicted kernel latency (us) for every config; ``inf`` where the
    scalar model would reject the config (non-divisible tile or a
    threadblock that cannot launch).

    Guaranteed bitwise-equal to ``predict_latency(timing_spec_from_config(
    spec, cfg), gpu)`` on every accepted config (property-tested).
    """
    if not len(configs):
        return np.empty(0, dtype=np.float64)
    ta = derive_timing_arrays(spec, configs)
    occ, launchable = _tb_per_sm_batch(gpu, ta)
    ok = ta.ok & launchable

    n_batch = _float_ceil(ta.grid / (occ * gpu.num_sms))
    tbs_per_batch = np.minimum(ta.grid, occ * gpu.num_sms)

    # ---- Computation Latency Model (mirror of predict_breakdown) ------------
    util = np.minimum(1.0, (ta.warps_per_tb * occ) / 4.0)
    resident_warps = ta.warps_per_tb * occ
    flops_chunk_warp = ta.flops_chunk_tb / ta.warps_per_tb
    t_compute = flops_chunk_warp * resident_warps / (gpu.tc_flops_per_sm * util)

    # ---- Memory Latency Model ------------------------------------------------
    frag_bytes_warp = ta.frag_bytes_tb / ta.warps_per_tb
    t_reg_load = frag_bytes_warp * resident_warps / gpu.smem_bw_per_sm
    t_llc_load = gpu.l2_latency + ta.smem_chunk_bytes * tbs_per_batch / gpu.l2_bw
    workset = _batch_workset_bytes(ta, tbs_per_batch)
    t_dram_load = gpu.dram_latency + workset / gpu.dram_bw
    t_smem_load = np.maximum(t_llc_load, t_dram_load)

    # ---- Threadblock Latency Model -------------------------------------------
    t_smem_use = pipeline_latency_batch(
        t_reg_load, t_compute, ta.inner_extent, ta.reg_stages, ta.warps_per_tb
    )
    t_main_loop = pipeline_latency_batch(
        t_smem_load, t_smem_use, ta.outer_extent, ta.smem_stages, occ
    )
    t_init = t_smem_load + t_reg_load

    # ---- Epilogue Model ------------------------------------------------------
    t_epilogue = gpu.dram_write_latency + ta.epilogue_bytes * tbs_per_batch / gpu.dram_bw

    t_threadblk = t_init + t_main_loop + t_epilogue
    latency = t_threadblk * n_batch
    return np.where(ok, latency, np.inf)
