"""Lowering: schedule -> loop-nest IR (the *Input IR* of paper Fig. 7).

The lowered kernel has the canonical pipelinable structure::

    parallel[blockIdx] bb, bm, bn:              # grid
      alloc A_shared, B_shared                  # one stage each (pre-pipeline)
      alloc A_reg, B_reg, C_acc
      parallel[threadIdx] wm, wn: fill C_acc    # accumulator init
      for ko in 0..K/BK:                        # sequential smem load-and-use
        memcpy(A_shared, A[block tile, chunk ko])       (async if pipelined)
        memcpy(B_shared, B[block tile, chunk ko])
        parallel[threadIdx] wm, wn:
          for ki in 0..BK/CK:                   # sequential reg load-and-use
            memcpy(A_reg[warp rows], A_shared[warp rows, chunk ki])
            memcpy(B_reg[warp cols], B_shared[warp cols, chunk ki])
            mma(C_acc[warp tile], A_reg, B_reg)
      parallel[threadIdx] wm, wn:               # epilogue
        memcpy(C[block+warp tile], C_acc[warp tile])

Pipeline hints are attached as ``pipeline_stages`` attrs on the
:class:`~repro.ir.stmt.Allocate` nodes; the program transformation pass
(:mod:`repro.transform`) later rewrites the loops into their pipelined form.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from ..ir import Buffer, IRBuilder, Kernel, Scope
from ..schedule.schedule import Schedule
from ..tensor.operation import ELEMENTWISE_FNS, CacheReadOp, PlaceholderOp

__all__ = ["LoweringError", "lower"]


class LoweringError(Exception):
    """Raised when a schedule cannot be lowered to the canonical structure."""


def _make_fill_zero() -> Callable:
    def fill_zero(out: np.ndarray) -> None:
        out[...] = 0

    return fill_zero


def _make_mma_fn(a_fn_name: Optional[str], b_fn_name: Optional[str]) -> Callable:
    """``out += f_a(a) @ f_b(b).T`` with fp32 accumulation.

    The fused elementwise reads implement the paper's Fig. 5 case 2, where
    an inlined function is applied at the operand read of the contraction.
    """
    a_fn = ELEMENTWISE_FNS[a_fn_name] if a_fn_name else None
    b_fn = ELEMENTWISE_FNS[b_fn_name] if b_fn_name else None

    def mma(out: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
        av = a_fn(a) if a_fn else a
        bv = b_fn(b) if b_fn else b
        out += av.astype(np.float32) @ bv.astype(np.float32).T

    return mma


def lower(sch: Schedule, name: Optional[str] = None) -> Kernel:
    """Lower a scheduled contraction to the canonical loop-nest IR."""
    if sch.contraction is None or sch.spec is None:
        raise LoweringError("lower() requires a schedule over a contraction output")
    if sch.tile_config is None:
        raise LoweringError("tile() must be applied before lowering")
    spec, cfg = sch.spec, sch.tile_config

    if spec.m % cfg.block_m or spec.n % cfg.block_n or spec.k % cfg.block_k:
        raise LoweringError(
            f"problem ({spec.m}x{spec.n}x{spec.k}) not divisible by tile "
            f"({cfg.block_m}x{cfg.block_n}x{cfg.block_k})"
        )

    chains = {side: sch.chain(side) for side in ("a", "b")}
    for side, chain in chains.items():
        if not isinstance(chain[0].op, PlaceholderOp):
            raise LoweringError(
                f"operand {side} chain starts with {type(chain[0].op).__name__}; "
                "inline elementwise producers before lowering"
            )
        if sch.buffer_at(side, Scope.SHARED) is None or sch.buffer_at(side, Scope.REGISTER) is None:
            raise LoweringError(
                f"operand {side} lacks the shared+register cache-read chain; "
                "apply cache_read for both levels before lowering"
            )

    batched = spec.batch > 1
    a_glb = Buffer("A", (spec.batch, spec.m, spec.k) if batched else (spec.m, spec.k), spec.dtype)
    b_glb = Buffer("B", (spec.batch, spec.n, spec.k) if batched else (spec.n, spec.k), spec.dtype)
    c_glb = Buffer("C", (spec.batch, spec.m, spec.n) if batched else (spec.m, spec.n), spec.dtype)

    a_sh_t = sch.buffer_at("a", Scope.SHARED)
    b_sh_t = sch.buffer_at("b", Scope.SHARED)
    a_rf_t = sch.buffer_at("a", Scope.REGISTER)
    b_rf_t = sch.buffer_at("b", Scope.REGISTER)

    a_sh = Buffer(a_sh_t.name, (cfg.block_m, cfg.block_k), spec.dtype, Scope.SHARED)
    b_sh = Buffer(b_sh_t.name, (cfg.block_n, cfg.block_k), spec.dtype, Scope.SHARED)
    a_rf = Buffer(a_rf_t.name, (cfg.block_m, cfg.chunk_k), spec.dtype, Scope.REGISTER)
    b_rf = Buffer(b_rf_t.name, (cfg.block_n, cfg.chunk_k), spec.dtype, Scope.REGISTER)
    c_acc = Buffer("C_acc", (cfg.block_m, cfg.block_n), "float32", Scope.ACCUMULATOR)

    def alloc_attrs(tensor) -> Dict[str, object]:
        attrs: Dict[str, object] = {"level": sch.level_of(tensor)}
        stages = sch.stages_for(tensor)
        if stages >= 2:
            attrs["pipeline_stages"] = stages
        return attrs

    def copy_annotations(tensor) -> Dict[str, object]:
        ann: Dict[str, object] = {"swizzle": cfg.swizzle}
        op = tensor.op
        if isinstance(op, CacheReadOp) and op.fused_fn_name is not None:
            ann["fused_fn"] = op.fused_fn_name
        return ann

    wm_extent = cfg.block_m // cfg.warp_m
    wn_extent = cfg.block_n // cfg.warp_n
    ko_extent = spec.k // cfg.block_k
    ki_extent = cfg.block_k // cfg.chunk_k
    mma_flops = 2 * cfg.warp_m * cfg.warp_n * cfg.chunk_k
    mma_fn = _make_mma_fn(sch.operand_fused_fn["a"], sch.operand_fused_fn["b"])
    fill_zero = _make_fill_zero()

    def a_region(bb, bm, ko):
        dims = [((bm * cfg.block_m), cfg.block_m), ((ko * cfg.block_k), cfg.block_k)]
        return a_glb.region(*([(bb, 1)] + dims if batched else dims))

    def b_region(bb, bn, ko):
        dims = [((bn * cfg.block_n), cfg.block_n), ((ko * cfg.block_k), cfg.block_k)]
        return b_glb.region(*([(bb, 1)] + dims if batched else dims))

    def c_region(bb, bm, bn, wm, wn):
        dims = [
            ((bm * cfg.block_m + wm * cfg.warp_m), cfg.warp_m),
            ((bn * cfg.block_n + wn * cfg.warp_n), cfg.warp_n),
        ]
        return c_glb.region(*([(bb, 1)] + dims if batched else dims))

    b_ = IRBuilder()

    def emit_block_body(bb, bm, bn):
        with b_.allocate(a_sh, attrs=alloc_attrs(a_sh_t)), b_.allocate(
            b_sh, attrs=alloc_attrs(b_sh_t)
        ), b_.allocate(a_rf, attrs=alloc_attrs(a_rf_t)), b_.allocate(
            b_rf, attrs=alloc_attrs(b_rf_t)
        ), b_.allocate(c_acc):
            # Accumulator initialization, one fragment per warp.
            with b_.thread_for("wm_i", wm_extent) as wmi:
                with b_.thread_for("wn_i", wn_extent) as wni:
                    b_.compute(
                        "fill",
                        c_acc.region(
                            (wmi * cfg.warp_m, cfg.warp_m), (wni * cfg.warp_n, cfg.warp_n)
                        ),
                        [],
                        fn=fill_zero,
                        accumulate=False,
                    )
            # Sequential shared-memory load-and-use loop.
            with b_.serial_for("ko", ko_extent) as ko:
                b_.copy(
                    a_sh.full_region(),
                    a_region(bb, bm, ko),
                    is_async=sch.stages_for(a_sh_t) >= 2,
                    **copy_annotations(a_sh_t),
                )
                b_.copy(
                    b_sh.full_region(),
                    b_region(bb, bn, ko),
                    is_async=sch.stages_for(b_sh_t) >= 2,
                    **copy_annotations(b_sh_t),
                )
                with b_.thread_for("wm", wm_extent) as wm:
                    with b_.thread_for("wn", wn_extent) as wn:
                        # Sequential register load-and-use loop.
                        with b_.serial_for("ki", ki_extent) as ki:
                            b_.copy(
                                a_rf.region((wm * cfg.warp_m, cfg.warp_m), (0, cfg.chunk_k)),
                                a_sh.region(
                                    (wm * cfg.warp_m, cfg.warp_m), (ki * cfg.chunk_k, cfg.chunk_k)
                                ),
                                is_async=sch.stages_for(a_rf_t) >= 2,
                                **copy_annotations(a_rf_t),
                            )
                            b_.copy(
                                b_rf.region((wn * cfg.warp_n, cfg.warp_n), (0, cfg.chunk_k)),
                                b_sh.region(
                                    (wn * cfg.warp_n, cfg.warp_n), (ki * cfg.chunk_k, cfg.chunk_k)
                                ),
                                is_async=sch.stages_for(b_rf_t) >= 2,
                                **copy_annotations(b_rf_t),
                            )
                            b_.compute(
                                "mma",
                                c_acc.region(
                                    (wm * cfg.warp_m, cfg.warp_m), (wn * cfg.warp_n, cfg.warp_n)
                                ),
                                [
                                    a_rf.region((wm * cfg.warp_m, cfg.warp_m), (0, cfg.chunk_k)),
                                    b_rf.region((wn * cfg.warp_n, cfg.warp_n), (0, cfg.chunk_k)),
                                ],
                                fn=mma_fn,
                                flops=mma_flops,
                            )
            # Epilogue: write accumulator fragments back to global memory,
            # applying any fused epilogue elementwise chain on the way out.
            epilogue_ann: Dict[str, object] = {"epilogue": True}
            if sch.epilogue_fns:
                epilogue_ann["fused_fn"] = tuple(sch.epilogue_fns)
            with b_.thread_for("wm_e", wm_extent) as wme:
                with b_.thread_for("wn_e", wn_extent) as wne:
                    b_.copy(
                        c_region(bb, bm, bn, wme, wne),
                        c_acc.region(
                            (wme * cfg.warp_m, cfg.warp_m), (wne * cfg.warp_n, cfg.warp_n)
                        ),
                        **epilogue_ann,
                    )

    if batched:
        with b_.block_for("bb", spec.batch) as bb:
            with b_.block_for("bm", spec.m // cfg.block_m) as bm:
                with b_.block_for("bn", spec.n // cfg.block_n) as bn:
                    emit_block_body(bb, bm, bn)
    else:
        with b_.block_for("bm", spec.m // cfg.block_m) as bm:
            with b_.block_for("bn", spec.n // cfg.block_n) as bn:
                emit_block_body(None, bm, bn)

    kernel = Kernel(
        name or f"gemm_{spec.name}",
        [a_glb, b_glb, c_glb],
        b_.finish(),
        attrs={
            "spec": spec,
            "config": cfg,
            "operand_fused_fn": dict(sch.operand_fused_fn),
        },
    )
    return kernel
