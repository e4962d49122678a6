"""Extraction of a timing specification from compiled kernel IR.

The simulator does not re-read the schedule knobs — it measures the
*compiled artifact*. :func:`extract_timing_spec` walks the (possibly
pipelined) kernel IR and recovers launch geometry, per-iteration data
movement and compute volumes, loop extents, and pipeline stage counts.
A mis-transformed kernel therefore yields mis-timed simulation, keeping the
simulator honest as the ground truth for tuning experiments.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from ..ir.analysis import loop_extent_int
from ..ir.buffer import DTYPE_BYTES, Scope
from ..ir.stmt import (
    Allocate,
    ComputeStmt,
    For,
    ForKind,
    IfThenElse,
    Kernel,
    MemCopy,
    SeqStmt,
)
from ..schedule.config import TileConfig, tile_resources
from ..tensor.operation import GemmSpec

__all__ = ["KernelTimingSpec", "extract_timing_spec"]


@dataclasses.dataclass
class KernelTimingSpec:
    """Everything the timing engine needs to simulate one kernel.

    The analytical model's batch path (:mod:`repro.perfmodel.batch`) fills
    the numeric fields with columns, one entry per config of a space.
    """

    name: str
    grid: int
    threads_per_tb: int
    warps_per_tb: int
    smem_bytes_per_tb: int
    regs_per_thread: int
    #: outer (shared-memory level) load-and-use loop
    outer_extent: int
    smem_chunk_bytes: int  # bytes copied into shared memory per outer iteration
    smem_stages: int
    #: inner (register level) load-and-use loop
    inner_extent: int
    frag_bytes_tb: int  # bytes loaded into registers per inner iteration (whole TB)
    flops_chunk_tb: int  # FLOPs per inner iteration (whole TB)
    reg_stages: int
    #: epilogue write-back volume per threadblock
    epilogue_bytes: int
    swizzle: bool = True
    #: problem geometry for the L2 working-set model
    batch: int = 1
    m_tiles: int = 1
    n_tiles: int = 1
    a_chunk_bytes: int = 0
    b_chunk_bytes: int = 0
    a_footprint_ratio: float = 1.0
    b_footprint_ratio: float = 1.0
    #: whether the smem copies are hardware asynchronous
    async_smem_copy: bool = True

    @property
    def total_flops(self) -> int:
        return self.flops_chunk_tb * self.inner_extent * self.outer_extent * self.grid

    def workset_bytes(self, tbs):
        """Unique A/B bytes the first ``tbs`` threadblocks load per outer
        iteration. Raster order varies the n (column) tile fastest, so
        tiles sharing a row re-use the A chunk and tiles sharing a column
        re-use the B chunk.

        Elementwise when ``tbs`` and the fields are columns; a numpy
        scalar otherwise. Assumes ``tbs >= 0`` and tile counts ``>= 1``.
        """
        batches = -(-tbs // (self.m_tiles * self.n_tiles))
        unique_a = -(-tbs // self.n_tiles)
        unique_b = np.minimum(tbs, self.n_tiles * batches)
        return (
            unique_a * self.a_chunk_bytes * self.a_footprint_ratio
            + unique_b * self.b_chunk_bytes * self.b_footprint_ratio
        )

    def validate(self) -> None:
        if self.grid < 1 or self.outer_extent < 1 or self.inner_extent < 1:
            raise ValueError("timing spec extents must be positive")
        if self.smem_stages < 1 or self.reg_stages < 1:
            raise ValueError("stage counts must be >= 1")
        if self.flops_chunk_tb <= 0:
            raise ValueError("kernel performs no compute; nothing to simulate")


class _IRScan:
    """One specialized pre-order traversal replacing the generic
    ``walk_with_path`` loop: serial-loop depth, innermost serial loop and
    the thread-loop extent product are carried down the recursion instead
    of being recomputed from ancestor paths at every node. Visit order —
    hence every accumulation order and error behavior — matches the
    generic walk exactly; this is the measurement path's hottest read-only
    pass, run once per sweep trial."""

    __slots__ = (
        "grid", "smem_bytes", "epilogue_bytes", "flops_chunk",
        "smem_copies", "reg_copies",
    )

    def __init__(self) -> None:
        self.grid = 1
        self.smem_bytes = 0
        self.epilogue_bytes = 0
        self.flops_chunk = 0
        # (depth, loop, bytes, swizzle, is_async) per shared copy;
        # (depth, loop, bytes) per register copy. Prologue copies sit at a
        # shallower serial depth than the main-loop copies (or outside any
        # serial loop entirely) and are dropped in favour of the deepest
        # level.
        self.smem_copies = []
        self.reg_copies = []

    def scan(self, node, serial_depth: int, serial_loop, thread_mult: int) -> None:
        if isinstance(node, SeqStmt):
            for s in node.stmts:
                self.scan(s, serial_depth, serial_loop, thread_mult)
        elif isinstance(node, For):
            kind = node.kind
            if kind is ForKind.SERIAL:
                self.scan(node.body, serial_depth + 1, node, thread_mult)
                return
            if kind is ForKind.BLOCK:
                self.grid *= loop_extent_int(node)
            elif kind is ForKind.THREAD:
                thread_mult *= loop_extent_int(node)
            self.scan(node.body, serial_depth, serial_loop, thread_mult)
        elif isinstance(node, MemCopy):
            scope = node.dst.buffer.scope
            if scope is Scope.SHARED:
                if serial_depth:  # depth 0 = hoisted prologue: pipeline fill
                    self.smem_copies.append(
                        (
                            serial_depth,
                            serial_loop,
                            node.bytes,
                            bool(node.annotations.get("swizzle", True)),
                            node.is_async,
                        )
                    )
            elif scope is Scope.REGISTER:
                if serial_depth:
                    self.reg_copies.append(
                        (serial_depth, serial_loop, node.bytes * thread_mult)
                    )
            elif scope is Scope.GLOBAL:
                # DRAM sees the *output* bytes (the accumulator is wider).
                self.epilogue_bytes += node.dst.size_bytes * thread_mult
        elif isinstance(node, ComputeStmt):
            if node.flops > 0:
                if not serial_depth:
                    raise ValueError("compute statement outside any serial loop")
                self.flops_chunk += node.flops * thread_mult
        elif isinstance(node, Allocate):
            if node.buffer.scope is Scope.SHARED:
                self.smem_bytes += node.buffer.size_bytes
            self.scan(node.body, serial_depth, serial_loop, thread_mult)
        elif isinstance(node, IfThenElse):
            self.scan(node.then_body, serial_depth, serial_loop, thread_mult)
            if node.else_body is not None:
                self.scan(node.else_body, serial_depth, serial_loop, thread_mult)
        # PipelineSync and anything else without children: nothing to read.


def extract_timing_spec(kernel: Kernel) -> KernelTimingSpec:
    """Recover a :class:`KernelTimingSpec` from a lowered kernel."""
    spec: Optional[GemmSpec] = kernel.attrs.get("spec")
    config: Optional[TileConfig] = kernel.attrs.get("config")

    warps = 1
    outer_loop: Optional[For] = None
    inner_loop: Optional[For] = None
    smem_chunk = 0
    a_chunk = 0
    b_chunk = 0
    frag_bytes = 0
    swizzle = True
    async_smem = False

    scan = _IRScan()
    scan.scan(kernel.body, 0, None, 1)
    grid = scan.grid
    smem_bytes = scan.smem_bytes
    epilogue_bytes = scan.epilogue_bytes
    flops_chunk = scan.flops_chunk
    smem_copies = scan.smem_copies
    reg_copies = scan.reg_copies

    if not smem_copies:
        raise ValueError("kernel has no shared-memory load-and-use loop")
    if not reg_copies:
        raise ValueError("kernel has no register-level load-and-use loop")
    if flops_chunk == 0:
        raise ValueError("kernel performs no tensor-core compute")

    smem_depth = max(c[0] for c in smem_copies)
    for depth, loop, nbytes, sw, is_async in smem_copies:
        if depth != smem_depth:
            continue
        if outer_loop is None:
            outer_loop = loop
        elif outer_loop is not loop:
            raise ValueError("shared-memory copies span multiple serial loops")
        smem_chunk += nbytes
        swizzle = sw
        async_smem = async_smem or is_async
        # Heuristic operand split for the working-set model: the first copy
        # loads operand A, the second operand B.
        if a_chunk == 0:
            a_chunk = nbytes
        else:
            b_chunk += nbytes

    reg_depth = max(c[0] for c in reg_copies)
    for depth, loop, nbytes in reg_copies:
        if depth != reg_depth:
            continue
        if inner_loop is None:
            inner_loop = loop
        elif inner_loop is not loop:
            raise ValueError("register copies span multiple serial loops")
        frag_bytes += nbytes

    # Stage counts from the published pipeline groups (1 = not pipelined).
    smem_stages = 1
    reg_stages = 1
    for info in kernel.attrs.get("pipeline_groups", []) or []:
        if info.scope is Scope.SHARED:
            smem_stages = info.stages
        elif info.scope is Scope.REGISTER:
            reg_stages = info.stages

    if config is not None:
        threads = config.threads_per_block
        warps = config.warps_per_block
        # Register budget follows the *realized* stage counts in the IR.
        eb = DTYPE_BYTES[spec.dtype if spec else "float16"]
        regs = tile_resources(config, smem_stages, reg_stages, eb)[1]
        m_tiles = (spec.m // config.block_m) if spec else 1
        n_tiles = (spec.n // config.block_n) if spec else 1
    else:
        threads = 128
        warps = 4
        regs = 64
        m_tiles = n_tiles = 1

    ts = KernelTimingSpec(
        name=kernel.name,
        grid=grid,
        threads_per_tb=threads,
        warps_per_tb=warps,
        smem_bytes_per_tb=smem_bytes,
        regs_per_thread=regs,
        outer_extent=loop_extent_int(outer_loop),
        smem_chunk_bytes=smem_chunk,
        smem_stages=smem_stages,
        inner_extent=loop_extent_int(inner_loop),
        frag_bytes_tb=frag_bytes,
        flops_chunk_tb=flops_chunk,
        reg_stages=reg_stages,
        epilogue_bytes=epilogue_bytes,
        swizzle=swizzle,
        batch=spec.batch if spec else 1,
        m_tiles=m_tiles,
        n_tiles=n_tiles,
        a_chunk_bytes=a_chunk,
        b_chunk_bytes=b_chunk,
        a_footprint_ratio=spec.a_footprint_ratio if spec else 1.0,
        b_footprint_ratio=spec.b_footprint_ratio if spec else 1.0,
        async_smem_copy=async_smem,
    )
    ts.validate()
    return ts
