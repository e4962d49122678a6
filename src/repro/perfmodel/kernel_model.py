"""The full analytical kernel latency model (paper Table I, Fig. 8).

``T_kernel = T_threadblk * N_threadblk_batch`` where the threadblock
latency sums an initialization phase (first chunk round trip), the main
pipelined loop, and the epilogue write-back. The main loop composes two
Pipeline Latency Model applications: the outer (shared-memory) pipeline
whose *use* latency is itself the stable-state latency of the inner
(register) pipeline.

The model deliberately omits effects the simulator has — FIFO queueing,
bank conflicts, wave tails, staggered starts, per-instruction overheads —
because the paper's point (Sec. V-D) is that a *pipeline-aware but
approximate* model ranks schedules well enough to guide tuning.
"""

from __future__ import annotations

import dataclasses
import math

from ..gpusim.config import A100, GpuSpec
from ..gpusim.occupancy import CompileError, tb_per_sm
from ..gpusim.spec import KernelTimingSpec
from .pipeline_model import pipeline_latency

__all__ = ["ModelBreakdown", "predict_latency", "predict_breakdown"]


@dataclasses.dataclass(frozen=True)
class ModelBreakdown:
    """All intermediate quantities of Table I, for inspection and tests."""

    t_kernel: float
    t_threadblk: float
    n_threadblk_batch: int
    t_init: float
    t_main_loop: float
    t_epilogue: float
    t_smem_load: float
    t_smem_use: float
    t_reg_load: float
    t_compute: float
    n_threadblk_per_sm: int
    util: float


def _util(n_warps: int, n_tb_per_sm: int) -> float:
    """SM throughput utilization given available warp parallelism.

    An A100 SM has four tensor-core-equipped sub-partitions; fewer than
    four resident warps cannot saturate them.
    """
    return min(1.0, (n_warps * n_tb_per_sm) / 4.0)


def predict_breakdown(ts: KernelTimingSpec, gpu: GpuSpec = A100) -> ModelBreakdown:
    """Evaluate Table I for one kernel. Raises CompileError when the
    threadblock cannot launch (the model is occupancy-aware)."""
    ts.validate()
    occ = tb_per_sm(gpu, ts.smem_bytes_per_tb, ts.regs_per_thread, ts.threads_per_tb)
    n_batch = math.ceil(ts.grid / (occ * gpu.num_sms))
    tbs_per_batch = min(ts.grid, occ * gpu.num_sms)

    # ---- Computation Latency Model ------------------------------------------
    # An SM time-slices its tensor-core throughput across every resident
    # warp, so one warp's chunk takes ``resident_warps`` fair shares. The
    # Util term models under-filled SM sub-partitions (< 4 resident warps).
    util = _util(ts.warps_per_tb, occ)
    resident_warps = ts.warps_per_tb * occ
    flops_chunk_warp = ts.flops_chunk_tb / ts.warps_per_tb
    t_compute = flops_chunk_warp * resident_warps / (gpu.tc_flops_per_sm * util)

    # ---- Memory Latency Model -------------------------------------------------
    frag_bytes_warp = ts.frag_bytes_tb / ts.warps_per_tb
    t_reg_load = frag_bytes_warp * resident_warps / gpu.smem_bw_per_sm
    t_llc_load = gpu.l2_latency + ts.smem_chunk_bytes * tbs_per_batch / gpu.l2_bw
    # LLC is shared by all SMs, so DRAM sees the batch's working set, not
    # the sum of all threadblocks' requests (Table I, memory model note).
    workset = ts.workset_bytes(tbs_per_batch)
    t_dram_load = gpu.dram_latency + workset / gpu.dram_bw
    t_smem_load = max(t_llc_load, t_dram_load)

    # ---- Threadblock Latency Model --------------------------------------------
    t_smem_use = pipeline_latency(
        t_reg_load,
        t_compute,
        n_loop=ts.inner_extent,
        n_pipe=ts.reg_stages,
        n_mplx=ts.warps_per_tb,
    )
    t_main_loop = pipeline_latency(
        t_smem_load,
        t_smem_use,
        n_loop=ts.outer_extent,
        n_pipe=ts.smem_stages,
        n_mplx=occ,
    )
    t_init = t_smem_load + t_reg_load

    # ---- Epilogue Model ---------------------------------------------------------
    t_epilogue = gpu.dram_write_latency + ts.epilogue_bytes * tbs_per_batch / gpu.dram_bw

    t_threadblk = t_init + t_main_loop + t_epilogue
    return ModelBreakdown(
        t_kernel=t_threadblk * n_batch,
        t_threadblk=t_threadblk,
        n_threadblk_batch=n_batch,
        t_init=t_init,
        t_main_loop=t_main_loop,
        t_epilogue=t_epilogue,
        t_smem_load=t_smem_load,
        t_smem_use=t_smem_use,
        t_reg_load=t_reg_load,
        t_compute=t_compute,
        n_threadblk_per_sm=occ,
        util=util,
    )


def predict_latency(ts: KernelTimingSpec, gpu: GpuSpec = A100) -> float:
    """Predicted kernel latency in microseconds (Table I top row)."""
    return predict_breakdown(ts, gpu).t_kernel
