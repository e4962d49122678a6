"""Schedule featurization for the learned cost model.

Features combine raw knobs with derived quantities (occupancy, loop
extents, arithmetic intensity) so the boosted-tree model can learn
hardware-relevant structure from few samples — mirroring AutoTVM's knob +
curve features.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..gpusim.config import A100, GpuSpec
from ..gpusim.occupancy import occupancy
from ..schedule.config import TileConfig
from ..tensor.operation import GemmSpec

__all__ = ["FEATURE_NAMES", "featurize", "featurize_batch"]

FEATURE_NAMES = [
    "log_block_m",
    "log_block_n",
    "log_block_k",
    "log_warp_m",
    "log_warp_n",
    "log_chunk_k",
    "smem_stages",
    "reg_stages",
    "warps",
    "threads",
    "occupancy",
    "grid",
    "waves",
    "outer_extent",
    "inner_extent",
    "smem_kb",
    "regs_per_thread",
    "tile_intensity",
    "load_use_ratio",
    "launchable",
]


def featurize(spec: GemmSpec, cfg: TileConfig, gpu: GpuSpec = A100) -> np.ndarray:
    """One schedule -> float feature vector (len == len(FEATURE_NAMES))."""
    res = cfg.resource_usage(spec.dtype)
    occ, launchable = occupancy(gpu, res.smem_bytes, res.regs_per_thread, res.threads)
    if not launchable:
        occ = 0
    grid = cfg.grid_size(spec)
    waves = grid / max(1, occ * gpu.num_sms)
    eb = spec.elem_bytes
    chunk_bytes = (cfg.block_m + cfg.block_n) * cfg.block_k * eb
    flops_chunk = 2 * cfg.block_m * cfg.block_n * cfg.block_k
    return np.array(
        [
            math.log2(cfg.block_m),
            math.log2(cfg.block_n),
            math.log2(cfg.block_k),
            math.log2(cfg.warp_m),
            math.log2(cfg.warp_n),
            math.log2(cfg.chunk_k),
            float(cfg.smem_stages),
            float(cfg.reg_stages),
            float(cfg.warps_per_block),
            float(cfg.threads_per_block),
            float(occ),
            float(grid),
            waves,
            float(cfg.smem_loop_extent(spec)),
            float(cfg.reg_loop_extent),
            res.smem_bytes / 1024.0,
            float(res.regs_per_thread),
            flops_chunk / chunk_bytes,
            chunk_bytes / max(1.0, flops_chunk / (gpu.tc_flops_per_sm / 1e3)),
            float(launchable),
        ],
        dtype=np.float64,
    )


def featurize_batch(
    spec: GemmSpec, configs: Sequence[TileConfig], gpu: GpuSpec = A100
) -> np.ndarray:
    """Feature matrix of shape ``(len(configs), n_features)``."""
    if not configs:
        return np.empty((0, len(FEATURE_NAMES)))
    return np.stack([featurize(spec, c, gpu) for c in configs])
