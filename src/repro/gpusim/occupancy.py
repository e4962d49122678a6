"""Threadblock occupancy: how many threadblocks co-reside on one SM.

This is the simulated GPU scheduling policy the paper's Sec. IV-A refers
to: occupancy is the minimum over the shared-memory, register-file, thread
and hard threadblock limits. Occupancy matters twice — it multiplies the
available latency-hiding parallelism (``N_mplx`` in the pipeline latency
model) and it divides the per-threadblock bandwidth share.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core.errors import CompileError
from .config import GpuSpec

#: Back-compat re-export: the canonical class now lives in the unified
#: error taxonomy (:mod:`repro.core.errors`); existing imports of
#: ``repro.gpusim.occupancy.CompileError`` keep working unchanged.
__all__ = ["CompileError", "tb_per_sm", "tb_per_sm_batch", "check_launchable"]


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


def tb_per_sm(gpu: GpuSpec, smem_bytes: int, regs_per_thread: int, threads: int) -> int:
    """Number of co-resident threadblocks per SM (>= 1, else CompileError)."""
    check_launchable(gpu, smem_bytes, regs_per_thread, threads)
    limits = [gpu.max_tb_per_sm, gpu.max_threads_per_sm // threads]
    if smem_bytes > 0:
        limits.append(gpu.smem_per_sm // smem_bytes)
    if regs_per_thread > 0:
        limits.append(gpu.regs_per_sm // (regs_per_thread * threads))
    occ = min(limits)
    if occ < 1:
        raise CompileError("threadblock resources exceed one SM; kernel cannot launch")
    return occ


def tb_per_sm_batch(gpu: GpuSpec, smem_bytes: np.ndarray, regs_per_thread: np.ndarray,
                    threads: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`tb_per_sm` over columns: ``(occ, launchable)``, with ``occ``
    1 where a threadblock cannot launch. :func:`tb_per_sm` stays scalar for
    the simulator's one call per kernel."""
    launchable = (
        (smem_bytes <= gpu.max_smem_per_tb)
        & (regs_per_thread <= gpu.max_regs_per_thread)
        & (threads <= gpu.max_threads_per_sm)
        & (regs_per_thread * threads <= gpu.regs_per_sm)
    )
    # All divisors are >= 1 for real TileConfigs, so the minimum can be
    # taken unconditionally (the scalar path guards smem > 0 / regs > 0).
    occ = np.minimum(np.int64(gpu.max_tb_per_sm), gpu.max_threads_per_sm // threads)
    occ = np.minimum(occ, gpu.smem_per_sm // smem_bytes)
    occ = np.minimum(occ, gpu.regs_per_sm // (regs_per_thread * threads))
    launchable &= occ >= 1
    return np.where(launchable, occ, 1), launchable
