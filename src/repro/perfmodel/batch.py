"""Vectorized (batched) evaluation of the Table-I analytical model.

Pricing a multi-thousand-config design space one config at a time costs
tens of milliseconds of Python object churn per thousand configs; the
paper's whole point (Sec. IV) is that the static model prices candidates
*cheaply*.

There is one model. :func:`~repro.perfmodel.static_spec.derive_timing_spec`
and :func:`~repro.perfmodel.kernel_model.table1` are plain arithmetic plus
numpy ufuncs, so the expressions that price one :class:`TileConfig` also
price a whole ``enumerate_space`` result laid out as int64 columns. This
module lays a space out that way, applies the occupancy rule
(:func:`~repro.gpusim.occupancy.occupancy`, also written once) to the
columns and evaluates Table I once, so :func:`predict_latency_batch` is
*bitwise identical* to the scalar model on every config.

Configurations the scalar path rejects (problem not divisible by the tile,
or the threadblock cannot launch — occupancy/register/shared-memory limits)
come back as ``inf`` instead of raising, which matches the ``FAILED``
latency convention of the measurement harness.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..gpusim.config import A100, GpuSpec
from ..gpusim.occupancy import occupancy
from ..gpusim.spec import KernelTimingSpec
from ..schedule.config import TileConfig
from ..tensor.operation import GemmSpec
from .kernel_model import table1
from .static_spec import derive_timing_spec, tiles_divide

__all__ = ["derive_timing_arrays", "predict_latency_batch"]


class _TileColumns:
    """A space's :class:`TileConfig` fields as columns, in
    :meth:`TileConfig.key` order. It borrows ``TileConfig``'s derived
    geometry, so the derivation reads it like a single config."""

    warps_per_block = TileConfig.warps_per_block
    reg_loop_extent = TileConfig.reg_loop_extent
    grid_size = TileConfig.grid_size
    smem_loop_extent = TileConfig.smem_loop_extent

    def __init__(self, raw: np.ndarray) -> None:
        (self.block_m, self.block_n, self.block_k, self.warp_m, self.warp_n,
         self.chunk_k, self.smem_stages, self.reg_stages, swizzle) = raw.T
        self.swizzle = swizzle.astype(bool)


def derive_timing_arrays(
    spec: GemmSpec, configs: Sequence[TileConfig]
) -> Tuple[np.ndarray, KernelTimingSpec]:
    """:func:`timing_spec_from_config` over a whole space: ``(ok, ts)``.

    ``ok`` marks the configs whose tile divides the problem. Each field of
    ``ts`` is a column over those configs only, so no derived tile count
    is zero.
    """
    # One flat list + a single np.fromiter call is ~3x faster than n*9
    # indexed stores (and np.fromiter beats np.array on a list of ints);
    # the memoized key is the config's fields as one tuple.
    flat: list = []
    extend = flat.extend
    for c in configs:
        extend(c.key())
    raw = np.fromiter(flat, np.int64, len(flat)).reshape(len(configs), 9)
    ok = tiles_divide(spec, _TileColumns(raw))
    if not ok.all():
        raw = raw[ok]
    return ok, derive_timing_spec(spec, _TileColumns(raw))


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
    occ, launchable = occupancy(gpu, ts.smem_bytes_per_tb, ts.regs_per_thread,
                                ts.threads_per_tb)
    latency = np.full(len(configs), np.inf)
    latency[ok] = np.where(launchable, table1(ts, gpu, occ).t_kernel, np.inf)
    return latency
