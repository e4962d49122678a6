"""Chunk-granularity tensor IR: expressions, buffers, statements, tooling.

This package is the substrate the ALCOP pipelining transformation operates
on — the reproduction's stand-in for TVM's TensorIR. See ``DESIGN.md``.
"""

from .buffer import DTYPE_BYTES, Buffer, BufferRegion, Scope
from .builder import IRBuilder
from .expr import (
    BinOp,
    Expr,
    FloatImm,
    IntImm,
    Var,
    as_expr,
    const,
    evaluate,
    floordiv,
    floormod,
    free_vars,
    imax,
    imin,
    simplify,
    struct_equal,
    substitute,
)
from .printer import format_kernel, format_stmt
from .stmt import (
    Allocate,
    ComputeStmt,
    For,
    ForKind,
    IfThenElse,
    Kernel,
    MemCopy,
    PipelineSync,
    SeqStmt,
    Stmt,
    SyncKind,
    seq,
)
from .syncheck import (
    SyncCheckError,
    SyncDiagnostic,
    check_kernel,
    format_diagnostics,
)
from .validate import ValidationError, validate_kernel, validate_stmt

__all__ = [
    # buffer
    "Buffer",
    "BufferRegion",
    "Scope",
    "DTYPE_BYTES",
    # expr
    "BinOp",
    "Expr",
    "FloatImm",
    "IntImm",
    "Var",
    "as_expr",
    "const",
    "evaluate",
    "floordiv",
    "floormod",
    "free_vars",
    "imax",
    "imin",
    "simplify",
    "struct_equal",
    "substitute",
    # stmt
    "Allocate",
    "ComputeStmt",
    "For",
    "ForKind",
    "IfThenElse",
    "Kernel",
    "MemCopy",
    "PipelineSync",
    "SeqStmt",
    "Stmt",
    "SyncKind",
    "seq",
    # tooling
    "format_kernel",
    "format_stmt",
    "ValidationError",
    "validate_kernel",
    "validate_stmt",
    "SyncCheckError",
    "SyncDiagnostic",
    "check_kernel",
    "format_diagnostics",
    "IRBuilder",
]
