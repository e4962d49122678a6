"""Schedule design space enumeration.

The space spans the knobs of :class:`TileConfig`: threadblock tile, warp
tile, register chunk and both pipeline stage counts. Baseline compilers use
restricted sub-spaces of the same enumeration (paper Sec. V-A):

* ``vanilla TVM``            — ``smem_stages == reg_stages == 1``;
* ``TVM-DB``                 — manual double-buffering, ``(2, 1)``;
* ``ALCOP w/o ML & MS``      — two-stage single-level, ``smem <= 2``;
* ``ALCOP w/o ML``           — multi-stage single-level, ``reg == 1``;
* ``ALCOP``                  — the full space.

Configurations that cannot launch (register overflow, over-sized shared
memory) are *kept* in the enumeration: real compilers only discover these
failures when building the kernel, which is exactly the 'compile fail'
phenomenon of Fig. 12. Use ``launchable_only=True`` to pre-filter.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

from ..gpusim.config import A100, GpuSpec
from ..gpusim.occupancy import CompileError, check_launchable
from ..obs import metrics as _metrics
from ..schedule.config import TileConfig
from ..tensor.operation import GemmSpec

__all__ = [
    "SpaceOptions",
    "enumerate_space",
    "SUBSPACES",
    "restrict_space",
    "clear_space_caches",
]

_BLOCK_MN = (16, 32, 64, 128, 256)
_BLOCK_K = (16, 32, 64)
_WARP_MN = (16, 32, 64)
_CHUNK_K = (8, 16, 32)


@dataclasses.dataclass(frozen=True)
class SpaceOptions:
    """Bounds of the enumeration."""

    max_smem_stages: int = 4
    max_reg_stages: int = 2
    max_warps: int = 8
    max_threads: int = 512
    launchable_only: bool = False
    #: deterministic strided subsampling cap (None = full space); used by
    #: end-to-end studies where per-op exhaustive sweeps are unnecessary.
    max_size: "int | None" = None


# Enumeration is a pure function of hashable, frozen inputs, and the
# compiler's variant ladder plus the benchmarks call it with the same
# arguments over and over — so it is memoized in a small LRU cache. Tuples
# are stored internally; callers get a fresh list each time, so mutating a
# returned space can never corrupt the cache. The cache is lock-guarded:
# the serve daemon enumerates from concurrent request threads, and
# OrderedDict reordering is not atomic.
_cache_lock = threading.Lock()
_ENUM_CACHE_SIZE = 64
_enum_cache: "OrderedDict[Tuple[GemmSpec, GpuSpec, SpaceOptions], Tuple[TileConfig, ...]]" = (
    OrderedDict()
)

_SPACE_EVICTIONS = _metrics.counter(
    "repro_space_cache_evictions_total",
    "Entries evicted from the enumeration memo cache",
)
_ENUM_SIZE_GAUGE = _metrics.gauge(
    "repro_space_enum_cache_entries",
    "Design-space enumerations currently memoized",
)
_ENUM_SIZE_GAUGE.set_function(lambda: len(_enum_cache))


def clear_space_caches() -> None:
    """Drop the enumeration memo cache (tests and long-lived sessions)."""
    with _cache_lock:
        _enum_cache.clear()


def enumerate_space(
    spec: GemmSpec,
    gpu: GpuSpec = A100,
    options: Optional[SpaceOptions] = None,
) -> List[TileConfig]:
    """All candidate schedules for ``spec``, in deterministic grid order."""
    opt = options or SpaceOptions()
    key = (spec, gpu, opt)
    with _cache_lock:
        cached = _enum_cache.get(key)
        if cached is not None:
            _enum_cache.move_to_end(key)
            return list(cached)
    out = _enumerate_space_uncached(spec, gpu, opt)
    # Only successful enumerations are cached; the empty-space ValueError
    # path stays uncached so its message is always raised fresh.
    with _cache_lock:
        _enum_cache[key] = tuple(out)
        while len(_enum_cache) > _ENUM_CACHE_SIZE:
            _enum_cache.popitem(last=False)
            _SPACE_EVICTIONS.inc()
    return out


def _enumerate_space_uncached(
    spec: GemmSpec, gpu: GpuSpec, opt: SpaceOptions
) -> List[TileConfig]:
    # The knob grid as int tuples in TileConfig field order, so a capped
    # space builds only the configs it keeps.
    tiles = []
    for bm in _BLOCK_MN:
        if spec.m % bm:
            continue
        for bn in _BLOCK_MN:
            if spec.n % bn:
                continue
            for bk in _BLOCK_K:
                if spec.k % bk:
                    continue
                for wm in _WARP_MN:
                    if bm % wm:
                        continue
                    for wn in _WARP_MN:
                        if bn % wn:
                            continue
                        warps = (bm // wm) * (bn // wn)
                        if warps > opt.max_warps or warps * 32 > opt.max_threads:
                            continue
                        for ck in _CHUNK_K:
                            if bk % ck:
                                continue
                            tiles.append((bm, bn, bk, wm, wn, ck))
    stages = [(ss, rs) for ss in range(1, opt.max_smem_stages + 1)
              for rs in range(1, opt.max_reg_stages + 1)]
    grid = [tile + pair for tile in tiles for pair in stages]
    if opt.launchable_only:
        grid = [knobs for knobs in grid if _launchable(TileConfig(*knobs), spec, gpu)]
    if not grid:
        raise ValueError(
            f"design space for {spec.name} ({spec.m}x{spec.n}x{spec.k}) is "
            "empty; the problem dimensions admit no candidate tiles"
        )
    if opt.max_size is not None and len(grid) > opt.max_size:
        stride = -(-len(grid) // opt.max_size)
        grid = grid[::stride]
    return [TileConfig(*knobs) for knobs in grid]


def _launchable(cfg: TileConfig, spec: GemmSpec, gpu: GpuSpec) -> bool:
    res = cfg.resource_usage(spec.dtype)
    try:
        check_launchable(gpu, res.smem_bytes, res.regs_per_thread, res.threads)
    except CompileError:
        return False
    return True


#: Named sub-spaces implementing the paper's compiler variants.
SUBSPACES = {
    "tvm": lambda c: c.smem_stages == 1 and c.reg_stages == 1,
    "tvm-db": lambda c: c.smem_stages <= 2 and c.reg_stages == 1,
    "alcop-no-ml-no-ms": lambda c: c.smem_stages <= 2 and c.reg_stages == 1,
    "alcop-no-ml": lambda c: c.reg_stages == 1,
    "alcop": lambda c: True,
}


def restrict_space(space: Sequence[TileConfig], variant: str) -> List[TileConfig]:
    """Filter an enumerated space down to a named compiler variant."""
    try:
        pred = SUBSPACES[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}; choose from {sorted(SUBSPACES)}")
    return [c for c in space if pred(c)]
