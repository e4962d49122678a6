"""Vectorized (batched) evaluation of the Table-I analytical model.

Pricing a multi-thousand-config design space one config at a time costs
tens of milliseconds of Python object churn per thousand configs; the
paper's whole point (Sec. IV) is that the static model prices candidates
*cheaply*.

There is one model. :func:`~repro.perfmodel.static_spec.derive_timing_spec`
and :func:`~repro.perfmodel.kernel_model.table1` are plain arithmetic plus
numpy ufuncs, so the expressions that price one :class:`TileConfig` also
price a whole ``enumerate_space`` result laid out as int64 columns. This
module lays a space out that way, applies the occupancy rule to columns
and evaluates Table I once, so :func:`predict_latency_batch` is *bitwise
identical* to the scalar model on every config.

Configurations the scalar path rejects (problem not divisible by the tile,
or the threadblock cannot launch — occupancy/register/shared-memory limits)
come back as ``inf`` instead of raising, which matches the ``FAILED``
latency convention of the measurement harness.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..gpusim.config import A100, GpuSpec
from ..gpusim.spec import KernelTimingSpec
from ..schedule.config import TileConfig
from ..tensor.operation import GemmSpec
from .kernel_model import table1
from .static_spec import derive_timing_spec, tiles_divide

__all__ = ["derive_timing_arrays", "predict_latency_batch"]


class _TileColumns:
    """A space's :class:`TileConfig` fields as int64 columns. It borrows
    ``TileConfig``'s derived geometry, so the derivation reads it like a
    single config. ``swizzle`` stays unknown: Table I does not read it, and
    a ninth column would slow the extraction loop by a ninth."""

    warps_per_block = TileConfig.warps_per_block
    reg_loop_extent = TileConfig.reg_loop_extent
    grid_size = TileConfig.grid_size
    smem_loop_extent = TileConfig.smem_loop_extent
    swizzle = None

    def __init__(self, raw: np.ndarray) -> None:
        (self.block_m, self.block_n, self.block_k, self.warp_m, self.warp_n,
         self.chunk_k, self.smem_stages, self.reg_stages) = raw.T


def derive_timing_arrays(
    spec: GemmSpec, configs: Sequence[TileConfig]
) -> Tuple[np.ndarray, KernelTimingSpec]:
    """:func:`timing_spec_from_config` over a whole space: ``(ok, ts)``.

    ``ok`` marks the configs whose tile divides the problem. Each field of
    ``ts`` is a column over those configs only, so no derived tile count
    is zero.
    """
    # One flat list + a single np.fromiter call is ~3x faster than n*8
    # indexed stores (and np.fromiter beats np.array on a list of ints);
    # this loop is the batch path's dominant cost.
    flat: list = []
    extend = flat.extend
    for c in configs:
        extend(
            (c.block_m, c.block_n, c.block_k, c.warp_m, c.warp_n,
             c.chunk_k, c.smem_stages, c.reg_stages)
        )
    raw = np.fromiter(flat, np.int64, len(flat)).reshape(len(configs), 8)
    ok = tiles_divide(spec, _TileColumns(raw))
    if not ok.all():
        raw = raw[ok]
    return ok, derive_timing_spec(spec, _TileColumns(raw))


def _tb_per_sm_batch(gpu: GpuSpec, ts: KernelTimingSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized occupancy: ``(occ, launchable)`` (mirror of ``tb_per_sm``,
    which stays scalar for the simulator's one call per kernel)."""
    smem, regs, threads = ts.smem_bytes_per_tb, ts.regs_per_thread, ts.threads_per_tb
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


def predict_latency_batch(
    spec: GemmSpec, configs: Sequence[TileConfig], gpu: GpuSpec = A100
) -> np.ndarray:
    """Predicted kernel latency (us) for every config; ``inf`` where the
    scalar model would reject the config (non-divisible tile or a
    threadblock that cannot launch).

    Guaranteed bitwise-equal to ``predict_latency(timing_spec_from_config(
    spec, cfg), gpu)`` on every accepted config.
    """
    ok, ts = derive_timing_arrays(spec, configs)
    occ, launchable = _tb_per_sm_batch(gpu, ts)
    latency = np.full(len(configs), np.inf)
    latency[ok] = np.where(launchable, table1(ts, gpu, occ).t_kernel, np.inf)
    return latency
