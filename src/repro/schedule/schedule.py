"""The schedule object and its transformation primitives (paper Sec. II).

A :class:`Schedule` wraps a contraction output tensor and records schedule
transformations: ``cache_read``, ``tile``, ``pipeline`` and ``inline``. It
owns a *scheduled read chain* per contraction operand — the sequence of
tensors data flows through on its way to the tensor cores, e.g.::

    A(global) -> A_shared(shared) -> A_reg(register) -> mma

``pipeline`` runs the applicability rules of :mod:`.detection` and the
ordering constraints of :mod:`.ordering`; accepted buffers are recorded in
``pipeline_marks`` and later materialized by the lowering + the pipelining
program transformation (Sec. III).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir.buffer import Scope
from ..tensor.operation import (
    CacheReadOp,
    ContractionOp,
    ElementwiseOp,
    GemmSpec,
    Tensor,
)
from .config import TileConfig
from .detection import PipelineCheck, check_pipelinable
from .errors import OrderingError, PipelineRejected, ScheduleError

__all__ = ["Schedule"]

_SIDES = ("a", "b")


class Schedule:
    """Schedule state for one GEMM-family kernel (or a plain copy graph)."""

    def __init__(self, output: Tensor) -> None:
        self.output = output
        self.tile_config: Optional[TileConfig] = None
        #: tensor -> requested pipeline stages (>= 2)
        self.pipeline_marks: Dict[Tensor, int] = {}
        #: applied-primitive log, for tests and debugging
        self.log: List[Tuple] = []
        #: elementwise fn fused into the contraction's operand read, per side
        self.operand_fused_fn: Dict[str, Optional[str]] = {"a": None, "b": None}
        #: elementwise fns fused into the epilogue write-back (application
        #: order). Populated by :meth:`fuse_epilogue`.
        self.epilogue_fns: List[str] = []

        # An elementwise chain on top of a contraction forms the epilogue
        # (e.g. bias activation); it is fusable via fuse_epilogue.
        self._epilogue_chain: List[Tensor] = []
        base = output
        while isinstance(base.op, ElementwiseOp):
            self._epilogue_chain.append(base)
            base = base.op.inputs[0]

        if isinstance(base.op, ContractionOp):
            self.contraction: Optional[ContractionOp] = base.op
            self.spec: Optional[GemmSpec] = base.op.spec
            self._chains: Dict[str, List[Tensor]] = {
                "a": [base.op.inputs[0]],
                "b": [base.op.inputs[1]],
            }
        else:
            # Non-contraction graphs (e.g. a stencil-like copy pipeline) are
            # schedulable but never satisfy detection rule 2.
            self.contraction = None
            self.spec = None
            self._epilogue_chain = []
            self._chains = {"a": [output], "b": []}

    # ------------------------------------------------------------------ graph
    def chain(self, side: str) -> List[Tensor]:
        """The scheduled read chain of one operand, source first."""
        if side not in _SIDES:
            raise ValueError(f"side must be 'a' or 'b', got {side!r}")
        return list(self._chains[side])

    def side_of(self, tensor: Tensor) -> Optional[str]:
        """Which operand chain a tensor belongs to, or ``None``."""
        for side in _SIDES:
            if tensor in self._chains[side]:
                return side
        return None

    def producer_of(self, tensor: Tensor) -> Optional[Tensor]:
        """The tensor ``tensor`` reads from in the *scheduled* graph."""
        side = self.side_of(tensor)
        if side is None:
            return None
        chain = self._chains[side]
        idx = chain.index(tensor)
        return chain[idx - 1] if idx > 0 else None

    def consumer_of(self, tensor: Tensor) -> Optional[Tensor]:
        """The next tensor in the scheduled chain (``None`` for the tail,
        whose consumer is the contraction itself)."""
        side = self.side_of(tensor)
        if side is None:
            return None
        chain = self._chains[side]
        idx = chain.index(tensor)
        return chain[idx + 1] if idx + 1 < len(chain) else None

    def buffer_at(self, side: str, scope: Scope) -> Optional[Tensor]:
        """The cache-read buffer of ``side`` at ``scope``, if present."""
        for t in self._chains[side]:
            if t.scope is scope and isinstance(t.op, CacheReadOp):
                return t
        return None

    def feeds_contraction_operand(self, tensor: Tensor) -> bool:
        """True when the buffer caches a reduction operand (rule 2 needs a
        sequential load-and-use loop, which only the reduction provides)."""
        return self.contraction is not None and self.side_of(tensor) is not None

    def level_of(self, tensor: Tensor) -> str:
        """Pipeline level name of a buffer: ``smem`` or ``reg``."""
        if tensor.scope is Scope.SHARED:
            return "smem"
        if tensor.scope is Scope.REGISTER:
            return "reg"
        raise ScheduleError(f"{tensor.name} in scope {tensor.scope.value} has no pipeline level")

    def pipeline_level(self, tensor: Tensor) -> str:
        return self.level_of(tensor)

    def load_loop_extent(self, tensor: Tensor) -> int:
        """Extent of the sequential loop the buffer is re-filled in."""
        if self.tile_config is None or self.spec is None:
            raise ScheduleError("tile() must be applied before inspecting loop extents")
        level = self.level_of(tensor)
        if level == "smem":
            return self.tile_config.smem_loop_extent(self.spec)
        return self.tile_config.reg_loop_extent

    def stages_for(self, tensor: Tensor) -> int:
        """Pipeline stages of a buffer (1 when not pipelined)."""
        return self.pipeline_marks.get(tensor, 1)

    # ------------------------------------------------------------- primitives
    def cache_read(self, tensor: Tensor, scope: Scope, name: Optional[str] = None) -> Tensor:
        """Insert a read buffer for ``tensor`` in ``scope`` (Sec. II-B).

        The new buffer becomes the tensor the downstream consumer reads.
        Must precede :meth:`pipeline` for the same data (ordering rule:
        *cache-reading before pipelining*).
        """
        if self.pipeline_marks:
            raise OrderingError(
                "cache_read after pipeline would invalidate the recorded "
                "pipeline structure; apply cache_read first (Sec. II-B)"
            )
        if self.contraction is not None:
            side = self.side_of(tensor)
            if side is None:
                raise ScheduleError(f"{tensor.name} is not in any operand chain")
            chain = self._chains[side]
            if tensor is not chain[-1]:
                raise ScheduleError(
                    f"cache_read must extend the innermost end of the chain; "
                    f"{tensor.name} already has a consumer buffer"
                )
        else:
            side = "a"
            chain = self._chains[side]
        if scope is Scope.GLOBAL:
            raise ScheduleError("cache_read target scope must be on-chip")
        base = tensor.name
        for suffix in ("_shared", "_reg"):
            base = base.removesuffix(suffix)
        buf = Tensor(
            name or f"{base}_{'shared' if scope is Scope.SHARED else 'reg'}",
            tensor.shape,
            CacheReadOp(tensor),
            dtype=tensor.dtype,
            scope=scope,
        )
        chain.append(buf)
        self.log.append(("cache_read", tensor.name, scope.value, buf.name))
        return buf

    def tile(self, config: TileConfig) -> None:
        """Record the tiling configuration. Must precede :meth:`pipeline`."""
        if self.contraction is None:
            raise ScheduleError("tile() requires a contraction output")
        if self.pipeline_marks:
            raise OrderingError("tile() must be applied before pipeline() (Sec. II-B)")
        self.tile_config = config
        self.log.append(("tile", str(config)))

    def pipeline(self, tensor: Tensor, stages: int, strict: bool = True) -> PipelineCheck:
        """Mark ``tensor`` for pipelining with ``stages`` stages.

        Runs the three applicability rules (Sec. II-A). With ``strict=True``
        a failed rule raises :class:`PipelineRejected`; with ``strict=False``
        the check result is returned and the buffer is left unmarked — the
        behaviour of the automatic scheduler, which silently skips
        non-pipelinable buffers.
        """
        if tensor in self.pipeline_marks:
            raise OrderingError(f"{tensor.name} is already pipelined")
        check = check_pipelinable(self, tensor, stages)
        if not check.ok:
            if strict:
                raise PipelineRejected(check.rule or "unknown", check.message)
            return check
        self.pipeline_marks[tensor] = stages
        self.log.append(("pipeline", tensor.name, stages))
        return check

    def inline(self, tensor: Tensor) -> str:
        """Inline an elementwise tensor into its consumer (Sec. II-B, Fig. 5).

        Returns which fusion route was taken:

        * ``"into-copy"`` (Fig. 5 case 1) — the elementwise function is fused
          into the downstream cache-read copy. The copy is no longer a pure
          asynchronous copy, so a *later* ``pipeline`` of that buffer will be
          rejected by rule 1.
        * ``"into-consumer"`` (Fig. 5 case 2) — the downstream buffer is
          already pipelined, so the copy must stay asynchronous; instead the
          function is fused into the contraction's operand read and the copy
          re-sourced from the elementwise input.
        """
        if not isinstance(tensor.op, ElementwiseOp):
            raise ScheduleError(f"inline() requires an elementwise tensor, got {tensor.name}")
        side = self.side_of(tensor)
        if side is None:
            raise ScheduleError(f"{tensor.name} is not in any operand chain")
        chain = self._chains[side]
        idx = chain.index(tensor)
        source = tensor.op.inputs[0]
        fn_name = tensor.op.fn_name
        downstream = chain[idx + 1] if idx + 1 < len(chain) else None

        if downstream is not None and isinstance(downstream.op, CacheReadOp):
            downstream_pipelined = downstream in self.pipeline_marks
            # Re-source the copy directly from the elementwise input; the raw
            # source replaces the elementwise tensor in the chain.
            replacement = Tensor(
                downstream.name,
                downstream.shape,
                CacheReadOp(source, fused_fn_name=None if downstream_pipelined else fn_name),
                dtype=downstream.dtype,
                scope=downstream.scope,
            )
            chain[idx] = source
            chain[idx + 1] = replacement
            # Keep pipeline marks attached to the replacement buffer object.
            if downstream_pipelined:
                self.pipeline_marks[replacement] = self.pipeline_marks.pop(downstream)
            if downstream_pipelined:
                self.operand_fused_fn[side] = fn_name
                self.log.append(("inline", tensor.name, "into-consumer"))
                return "into-consumer"
            self.log.append(("inline", tensor.name, "into-copy"))
            return "into-copy"

        # No downstream buffer: fuse directly into the contraction read.
        chain[idx] = source
        self.operand_fused_fn[side] = fn_name
        self.log.append(("inline", tensor.name, "into-consumer"))
        return "into-consumer"

    def fuse_epilogue(self) -> List[str]:
        """Fuse the output-side elementwise chain into the epilogue
        write-back (an extension of the paper's fusion support: lightweight
        epilogues — bias activation, casting — are computed while storing
        the accumulator, avoiding standalone memory-bound kernels).

        Returns the fused function names in application order. Safe in any
        order relative to pipelining: the epilogue is outside every
        load-and-use loop, so no pipelining rule is affected.
        """
        if not self._epilogue_chain:
            return []
        # The chain was collected from the output inward; application order
        # is producer-first.
        fns = [t.op.fn_name for t in reversed(self._epilogue_chain)]
        self.epilogue_fns.extend(fns)
        self._epilogue_chain = []
        self.log.append(("fuse_epilogue", tuple(fns)))
        return fns

    # ------------------------------------------------------------- inspection
    def pipelined_buffers(self) -> List[Tensor]:
        """All pipelined buffers, shared-memory level first."""
        order = {Scope.SHARED: 0, Scope.REGISTER: 1}
        return sorted(self.pipeline_marks, key=lambda t: (order[t.scope], t.name))

    def describe(self) -> str:
        """Human-readable schedule summary."""
        lines = [f"schedule of {self.output.name}:"]
        for side in _SIDES:
            if not self._chains[side]:
                continue
            chain = " -> ".join(f"{t.name}@{t.scope.value}" for t in self._chains[side])
            fused = self.operand_fused_fn[side]
            suffix = f"  (fused read: {fused})" if fused else ""
            lines.append(f"  {side}: {chain}{suffix}")
        if self.tile_config is not None:
            lines.append(f"  tiling: {self.tile_config}")
        for t, s in self.pipeline_marks.items():
            lines.append(f"  pipeline: {t.name} stages={s}")
        return "\n".join(lines)
