"""``enumerate_space`` strides the knob grid as int tuples and builds only
the configs it keeps. It must return exactly what building every config
and then striding the list returns, kept here as the reference."""

import random

import pytest

from repro.gpusim import A100, V100
from repro.schedule import TileConfig
from repro.tensor import GemmSpec
from repro.tuning import SpaceOptions, clear_space_caches, enumerate_space
from repro.tuning.space import (
    _BLOCK_K,
    _BLOCK_MN,
    _CHUNK_K,
    _MAX_REG_STAGES,
    _MAX_SMEM_STAGES,
    _MAX_WARPS,
    _WARP_MN,
    _launchable,
)

CAPS = (None, 1, 7, 300, 600, 1200)


def setup_function(_):
    clear_space_caches()


def materialize(spec, gpu, opt):
    """Every config of the grid, built, in grid order (the launchable ones
    only with ``launchable_only``)."""
    out = []
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
                        if (bm // wm) * (bn // wn) > _MAX_WARPS:
                            continue
                        for ck in _CHUNK_K:
                            if bk % ck:
                                continue
                            for ss in range(1, _MAX_SMEM_STAGES + 1):
                                for rs in range(1, _MAX_REG_STAGES + 1):
                                    cfg = TileConfig(
                                        bm, bn, bk, warp_m=wm, warp_n=wn, chunk_k=ck,
                                        smem_stages=ss, reg_stages=rs,
                                    )
                                    if opt.launchable_only and not _launchable(cfg, spec, gpu):
                                        continue
                                    out.append(cfg)
    return out


def stride(full, cap):
    """Every ``ceil(len / cap)``-th config, as the capped space keeps."""
    if cap is None or len(full) <= cap:
        return full
    return full[:: -(-len(full) // cap)]


def _shapes():
    rng = random.Random(24)
    # Dimensions are multiples of 16 (few tiles divide them) or of 128
    # (spaces of thousands of configs).
    shapes = [GemmSpec(f"rand{i}", rng.choice((1, 2, 8)), *(
        rng.choice((16, 128)) * rng.randint(1, 24) for _ in range(3))) for i in range(8)]
    # A space smaller than every cap above 7: one tile shape, 2 chunks x 8 stage pairs.
    return shapes + [GemmSpec("tiny", 1, 16, 16, 16)]


@pytest.mark.parametrize("gpu", [A100, V100], ids=lambda g: g.name)
@pytest.mark.parametrize("launchable_only", [False, True], ids=["all", "launchable"])
def test_enumeration_equals_materialize_then_stride(gpu, launchable_only):
    sizes = []
    for spec in _shapes():
        full = materialize(spec, gpu, SpaceOptions(launchable_only=launchable_only))
        sizes.append(len(full))
        for cap in CAPS:
            opt = SpaceOptions(launchable_only=launchable_only, max_size=cap)
            got = enumerate_space(spec, gpu, opt)
            want = stride(full, cap)
            assert got == want, (spec, cap)
            assert [c.key() for c in got] == [c.key() for c in want]
    # Spaces above, at and below the largest cap.
    assert max(sizes) > 1200 and 1200 in sizes and sizes[-1] == 16, sizes


@pytest.mark.parametrize("launchable_only", [False, True])
def test_empty_space_raises(launchable_only):
    spec = GemmSpec("odd", 1, 8, 8, 8)  # no tile divides it
    assert materialize(spec, A100, SpaceOptions(launchable_only=launchable_only)) == []
    with pytest.raises(ValueError, match="empty"):
        enumerate_space(spec, A100, SpaceOptions(launchable_only=launchable_only, max_size=7))
