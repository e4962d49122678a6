"""Threadblock occupancy: how many threadblocks co-reside on one SM.

This is the simulated GPU scheduling policy the paper's Sec. IV-A refers
to: occupancy is the minimum over the shared-memory, register-file, thread
and hard threadblock limits. Occupancy matters twice — it multiplies the
available latency-hiding parallelism (``N_mplx`` in the pipeline latency
model) and it divides the per-threadblock bandwidth share.
"""

from __future__ import annotations

from ..core.errors import CompileError
from .config import GpuSpec
from .elementwise import maximum, minimum, where

#: Back-compat re-export: the canonical class now lives in the unified
#: error taxonomy (:mod:`repro.core.errors`); existing imports of
#: ``repro.gpusim.occupancy.CompileError`` keep working unchanged.
__all__ = ["CompileError", "tb_per_sm", "occupancy", "check_launchable"]


def check_launchable(gpu: GpuSpec, smem_bytes: int, regs_per_thread: int, threads: int) -> None:
    """Raise :class:`CompileError` if a threadblock cannot be launched."""
    if smem_bytes > gpu.max_smem_per_tb:
        raise CompileError(
            f"shared memory {smem_bytes} B exceeds the {gpu.max_smem_per_tb} B "
            "per-threadblock limit"
        )
    if regs_per_thread > gpu.max_regs_per_thread:
        raise CompileError(
            f"{regs_per_thread} registers per thread exceed the "
            f"{gpu.max_regs_per_thread} architectural limit (register overflow)"
        )
    if threads > gpu.max_threads_per_sm:
        raise CompileError(f"{threads} threads exceed the per-SM thread limit")
    if regs_per_thread * threads > gpu.regs_per_sm:
        raise CompileError(
            f"one threadblock needs {regs_per_thread * threads} registers, "
            f"more than the {gpu.regs_per_sm}-register file"
        )


def occupancy(gpu: GpuSpec, smem_bytes, regs_per_thread, threads):
    """The occupancy rule, unchecked: ``(occ, launchable)``, an int and a
    bool for one kernel's Python ints, or columns for a space's int64
    columns. ``occ`` is the number of co-resident threadblocks per SM, or
    1 where a threadblock cannot launch (:func:`tb_per_sm` raises there)."""
    regs_per_tb = regs_per_thread * threads
    launchable = (
        (smem_bytes <= gpu.max_smem_per_tb)
        & (regs_per_thread <= gpu.max_regs_per_thread)
        & (threads <= gpu.max_threads_per_sm)
        & (regs_per_tb <= gpu.regs_per_sm)
    )
    occ = minimum(gpu.max_tb_per_sm, gpu.max_threads_per_sm // threads)
    # A threadblock without shared memory or registers meets no limit on them.
    occ = where(smem_bytes > 0, minimum(occ, gpu.smem_per_sm // maximum(smem_bytes, 1)), occ)
    occ = where(regs_per_thread > 0, minimum(occ, gpu.regs_per_sm // maximum(regs_per_tb, 1)), occ)
    launchable &= occ >= 1
    return where(launchable, occ, 1), launchable


def tb_per_sm(gpu: GpuSpec, smem_bytes: int, regs_per_thread: int, threads: int) -> int:
    """Number of co-resident threadblocks per SM (>= 1, else CompileError)."""
    check_launchable(gpu, smem_bytes, regs_per_thread, threads)
    occ, launchable = occupancy(gpu, smem_bytes, regs_per_thread, threads)
    if not launchable:
        raise CompileError("threadblock resources exceed one SM; kernel cannot launch")
    return occ
