"""Statement IR.

The statement language is a chunk-granularity tensor IR: loops, allocations
and whole-region data movement / compute statements. It is the level at which
ALCOP's program transformation (paper Sec. III, Figs. 6-7) operates:

* :class:`MemCopy` — ``memcpy`` / ``async_memcpy`` of a box region,
* :class:`ComputeStmt` — a tensor-core fragment computation (``wmma``),
* :class:`PipelineSync` — the four pipeline guard primitives
  (``producer_acquire``, ``producer_commit``, ``consumer_wait``,
  ``consumer_release``),
* :class:`For` / :class:`SeqStmt` / :class:`IfThenElse` / :class:`Allocate`
  for structure.

All statements are immutable; passes rebuild trees via
:class:`~repro.ir.visitor.StmtMutator`.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .buffer import Buffer, BufferRegion
from .expr import Expr, ExprLike, Var, as_expr

__all__ = [
    "Stmt",
    "ForKind",
    "For",
    "SeqStmt",
    "IfThenElse",
    "Allocate",
    "MemCopy",
    "ComputeStmt",
    "PipelineSync",
    "SyncKind",
    "Kernel",
    "seq",
]


class Stmt:
    """Base class for statements."""

    __slots__ = ()


class ForKind(enum.Enum):
    """How a loop's iterations map onto the GPU execution hierarchy."""

    SERIAL = "serial"  # sequential loop inside one thread of control
    BLOCK = "blockIdx"  # parallel across threadblocks (grid dimension)
    THREAD = "threadIdx"  # parallel across warps within a threadblock
    UNROLLED = "unroll"  # fully unrolled at codegen
    VECTORIZED = "vectorize"


class For(Stmt):
    """``for var in range(extent)`` with an execution-mapping kind.

    ``annotations`` is a free-form dict used to carry scheduling hints (the
    pipelining pass does not rely on it; hints live on :class:`Allocate`).
    """

    __slots__ = ("var", "extent", "kind", "body", "annotations")

    def __init__(
        self,
        var: Var,
        extent: ExprLike,
        body: Stmt,
        kind: ForKind = ForKind.SERIAL,
        annotations: Optional[Dict[str, object]] = None,
    ) -> None:
        if not isinstance(var, Var):
            raise TypeError("For.var must be a Var")
        extent = as_expr(extent)
        from .expr import IntImm

        if isinstance(extent, IntImm) and extent.value <= 0:
            raise ValueError(f"loop {var.name} has non-positive extent {extent.value}")
        self.var = var
        self.extent: Expr = extent
        self.kind = kind
        self.body = body
        self.annotations = dict(annotations or {})

    def with_body(self, body: Stmt) -> "For":
        return For(self.var, self.extent, body, self.kind, self.annotations)


class SeqStmt(Stmt):
    """A sequence of statements, flattened on construction."""

    __slots__ = ("stmts",)

    def __init__(self, stmts: Sequence[Stmt]) -> None:
        flat: List[Stmt] = []
        for s in stmts:
            if s is None:
                continue
            if isinstance(s, SeqStmt):
                flat.extend(s.stmts)
            elif isinstance(s, Stmt):
                flat.append(s)
            else:
                raise TypeError(f"not a Stmt: {s!r}")
        if not flat:
            raise ValueError("SeqStmt requires at least one statement")
        self.stmts: Tuple[Stmt, ...] = tuple(flat)


def seq(*stmts: Optional[Stmt]) -> Stmt:
    """Sequence builder that collapses a single statement to itself."""
    flat = [s for s in stmts if s is not None]
    if len(flat) == 1 and not isinstance(flat[0], SeqStmt):
        return flat[0]
    return SeqStmt(flat)


class IfThenElse(Stmt):
    """Conditional statement; ``else_body`` may be ``None``."""

    __slots__ = ("cond", "then_body", "else_body")

    def __init__(self, cond: ExprLike, then_body: Stmt, else_body: Optional[Stmt] = None) -> None:
        self.cond: Expr = as_expr(cond)
        self.then_body = then_body
        self.else_body = else_body


class Allocate(Stmt):
    """Allocate ``buffer`` for the duration of ``body``.

    ``attrs`` carries schedule hints consumed by the pipelining pass:

    * ``"pipeline_stages"``: int — requested number of pipeline stages
      (attached by ``Schedule.pipeline``; absent means not pipelined).
    """

    __slots__ = ("buffer", "body", "attrs")

    def __init__(
        self, buffer: Buffer, body: Stmt, attrs: Optional[Dict[str, object]] = None
    ) -> None:
        if not isinstance(buffer, Buffer):
            raise TypeError("Allocate.buffer must be a Buffer")
        self.buffer = buffer
        self.body = body
        self.attrs = dict(attrs or {})

    def with_body(self, body: Stmt) -> "Allocate":
        return Allocate(self.buffer, body, self.attrs)


class MemCopy(Stmt):
    """Copy ``src`` region into ``dst`` region (extents must match).

    ``is_async`` marks the copy as a hardware asynchronous copy
    (``cp.async`` on Ampere): it does not block, and its effects become
    visible to consumers only after a matching ``consumer_wait``.
    """

    __slots__ = ("dst", "src", "is_async", "annotations")

    def __init__(
        self,
        dst: BufferRegion,
        src: BufferRegion,
        is_async: bool = False,
        annotations: Optional[Dict[str, object]] = None,
    ) -> None:
        if dst.size_elems != src.size_elems:
            raise ValueError(
                f"MemCopy size mismatch: dst {dst.extents} vs src {src.extents}"
            )
        self.dst = dst
        self.src = src
        self.is_async = bool(is_async)
        self.annotations = dict(annotations or {})

    @property
    def bytes(self) -> int:
        return self.src.size_bytes


class ComputeStmt(Stmt):
    """A chunk-level compute statement (e.g. a ``wmma`` fragment op).

    Parameters
    ----------
    kind:
        A short tag such as ``"mma"`` or ``"elementwise"``, used by printers
        and the simulator.
    out:
        Output region (an accumulator fragment for ``mma``).
    inputs:
        Input regions, read in full.
    fn:
        Python semantics: ``fn(out_view, *input_views)`` mutates ``out_view``
        in place. Used by the interpreters; ignored by timing models.
    flops:
        Floating-point operations performed, used by timing models.
    """

    __slots__ = ("kind", "out", "inputs", "fn", "flops", "annotations")

    def __init__(
        self,
        kind: str,
        out: BufferRegion,
        inputs: Sequence[BufferRegion],
        fn: Optional[Callable] = None,
        flops: int = 0,
        annotations: Optional[Dict[str, object]] = None,
    ) -> None:
        self.kind = kind
        self.out = out
        self.inputs: Tuple[BufferRegion, ...] = tuple(inputs)
        self.fn = fn
        self.flops = int(flops)
        self.annotations = dict(annotations or {})


class SyncKind(enum.Enum):
    """The four pipeline guard primitives (paper Sec. III-B, step five)."""

    PRODUCER_ACQUIRE = "producer_acquire"
    PRODUCER_COMMIT = "producer_commit"
    CONSUMER_WAIT = "consumer_wait"
    CONSUMER_RELEASE = "consumer_release"


class PipelineSync(Stmt):
    """A pipeline synchronization primitive bound to one pipelined buffer."""

    __slots__ = ("buffer", "kind")

    def __init__(self, buffer: Buffer, kind: SyncKind) -> None:
        if not isinstance(kind, SyncKind):
            raise TypeError("PipelineSync.kind must be a SyncKind")
        self.buffer = buffer
        self.kind = kind


class Kernel:
    """A complete GPU kernel: parameter buffers plus a statement body.

    ``params`` are the global-scope input/output buffers in call order.
    ``attrs`` carries kernel-level metadata (e.g. launch geometry hints,
    the originating schedule config).
    """

    __slots__ = ("name", "params", "body", "attrs")

    def __init__(
        self,
        name: str,
        params: Sequence[Buffer],
        body: Stmt,
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.params: Tuple[Buffer, ...] = tuple(params)
        self.body = body
        self.attrs = dict(attrs or {})

    def with_body(self, body: Stmt) -> "Kernel":
        return Kernel(self.name, self.params, body, self.attrs)

    def __repr__(self) -> str:
        return f"Kernel({self.name}, params=[{', '.join(p.name for p in self.params)}])"
