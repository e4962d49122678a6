"""Tensor-level dataflow graph (the compiler's "te" layer).

A :class:`Tensor` is a node in a dataflow graph whose producing
:class:`Operation` is one of:

* :class:`PlaceholderOp` — a kernel input,
* :class:`ElementwiseOp` — a lightweight map over one tensor (datatype cast,
  scaling, activation) — the kind of op the paper's Fig. 5 inlines,
* :class:`CacheReadOp` — an identical copy of its source into a buffer scope
  (the result of ``Schedule.cache_read``),
* :class:`ContractionOp` — a GEMM-family reduction (MatMul / batched MatMul /
  implicit-GEMM convolution) described by a :class:`GemmSpec`.

The schedule transformation (Sec. II) reasons about this graph: pipelining
applicability depends on what *produces* each buffer and where the buffer
sits relative to the sequential reduction loop.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..ir.buffer import DTYPE_BYTES, Scope

__all__ = [
    "GemmSpec",
    "Tensor",
    "Operation",
    "PlaceholderOp",
    "ElementwiseOp",
    "CacheReadOp",
    "ContractionOp",
    "ELEMENTWISE_FNS",
    "gemm_graph",
]

#: Registry of elementwise semantics by name. Each maps an ndarray to an
#: ndarray of the same shape.
ELEMENTWISE_FNS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "identity": lambda x: x,
    "cast_f32": lambda x: x.astype(np.float32),
    "cast_f16": lambda x: x.astype(np.float16),
    "relu": lambda x: np.maximum(x, 0),
    "scale2": lambda x: x * 2,
    "gelu": lambda x: 0.5 * x * (1.0 + np.tanh(0.7978845608 * (x + 0.044715 * x**3))),
}


@dataclasses.dataclass(frozen=True)
class GemmSpec:
    """A GEMM-family problem: ``C[b, m, n] = sum_k A[b, m, k] * B[b, n, k]``.

    Convolutions lower to this via implicit GEMM (im2col); their
    ``a_footprint_ratio`` records how much *unique* DRAM data backs the
    virtual im2col matrix (overlapping patches are re-reads served by cache).
    """

    name: str
    batch: int
    m: int
    n: int
    k: int
    dtype: str = "float16"
    #: unique-bytes / im2col-bytes for operand A (1.0 for plain GEMM).
    a_footprint_ratio: float = 1.0
    #: same for operand B (weights are always unique).
    b_footprint_ratio: float = 1.0

    def __post_init__(self) -> None:
        if min(self.batch, self.m, self.n, self.k) <= 0:
            raise ValueError(f"GemmSpec {self.name} requires positive dims")
        if self.dtype not in DTYPE_BYTES:
            raise ValueError(f"unsupported dtype {self.dtype}")
        if not (0.0 < self.a_footprint_ratio <= 1.0 and 0.0 < self.b_footprint_ratio <= 1.0):
            raise ValueError("footprint ratios must be in (0, 1]")

    @property
    def flops(self) -> int:
        """Total floating point operations (multiply + add)."""
        return 2 * self.batch * self.m * self.n * self.k

    @property
    def elem_bytes(self) -> int:
        return DTYPE_BYTES[self.dtype]

    @property
    def a_bytes(self) -> int:
        return self.batch * self.m * self.k * self.elem_bytes

    @property
    def b_bytes(self) -> int:
        return self.batch * self.n * self.k * self.elem_bytes

    @property
    def c_bytes(self) -> int:
        return self.batch * self.m * self.n * self.elem_bytes

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte of unique DRAM traffic."""
        unique = (
            self.a_bytes * self.a_footprint_ratio
            + self.b_bytes * self.b_footprint_ratio
            + self.c_bytes
        )
        return self.flops / unique


class Operation:
    """Base class of tensor-producing operations."""

    __slots__ = ("inputs",)

    def __init__(self, inputs: Sequence["Tensor"]) -> None:
        self.inputs: Tuple["Tensor", ...] = tuple(inputs)

    @property
    def is_pure_copy(self) -> bool:
        """True when this op is a verbatim memory copy (can be made async)."""
        return False


class PlaceholderOp(Operation):
    """A kernel input tensor."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(())


class ElementwiseOp(Operation):
    """``out[i] = fn(in[i])``. ``fn_name`` indexes :data:`ELEMENTWISE_FNS`."""

    __slots__ = ("fn_name",)

    def __init__(self, source: "Tensor", fn_name: str) -> None:
        if fn_name not in ELEMENTWISE_FNS:
            raise ValueError(f"unknown elementwise fn {fn_name!r}")
        super().__init__((source,))
        self.fn_name = fn_name

    @property
    def fn(self) -> Callable[[np.ndarray], np.ndarray]:
        return ELEMENTWISE_FNS[self.fn_name]


class CacheReadOp(Operation):
    """An identical copy of ``source`` into a buffer scope.

    ``fused_fn_name`` is set when an elementwise producer has been inlined
    *into* the copy (paper Fig. 5, case 1) — the copy then computes while
    copying and stops being a pure (async-capable) copy.
    """

    __slots__ = ("fused_fn_name",)

    def __init__(self, source: "Tensor", fused_fn_name: Optional[str] = None) -> None:
        super().__init__((source,))
        self.fused_fn_name = fused_fn_name

    @property
    def is_pure_copy(self) -> bool:
        return self.fused_fn_name is None


class ContractionOp(Operation):
    """The GEMM-family reduction over operand tensors A and B.

    ``a_fused_fn_name`` / ``b_fused_fn_name`` record elementwise functions
    fused into the operand *read* of the contraction (paper Fig. 5, case 2:
    pipeline first, then inline ``f`` into the consumer).
    """

    __slots__ = ("spec", "a_fused_fn_name", "b_fused_fn_name")

    def __init__(
        self,
        a: "Tensor",
        b: "Tensor",
        spec: GemmSpec,
        a_fused_fn_name: Optional[str] = None,
        b_fused_fn_name: Optional[str] = None,
    ) -> None:
        super().__init__((a, b))
        self.spec = spec
        self.a_fused_fn_name = a_fused_fn_name
        self.b_fused_fn_name = b_fused_fn_name


class Tensor:
    """A node in the dataflow graph.

    Tensors compare by identity. ``scope`` is GLOBAL for inputs/outputs and
    an on-chip scope for cache-read buffers.
    """

    __slots__ = ("name", "shape", "dtype", "op", "scope")

    _counter = 0

    def __init__(
        self,
        name: str,
        shape: Sequence[int],
        op: Operation,
        dtype: str = "float16",
        scope: Scope = Scope.GLOBAL,
    ) -> None:
        self.name = name
        self.shape: Tuple[int, ...] = tuple(int(s) for s in shape)
        self.dtype = dtype
        self.op = op
        self.scope = scope

    @property
    def producer(self) -> Optional["Tensor"]:
        """The single source tensor for copy/elementwise ops, else ``None``."""
        if isinstance(self.op, (CacheReadOp, ElementwiseOp)):
            return self.op.inputs[0]
        return None

    def __repr__(self) -> str:
        return f"Tensor({self.name}, {self.shape}, {self.scope.value})"


def placeholder(name: str, shape: Sequence[int], dtype: str = "float16") -> Tensor:
    """Create an input tensor."""
    return Tensor(name, shape, PlaceholderOp(), dtype=dtype)


def elementwise(source: Tensor, fn_name: str, name: Optional[str] = None) -> Tensor:
    """Apply an elementwise function, producing a new global tensor."""
    return Tensor(
        name or f"{source.name}_{fn_name}",
        source.shape,
        ElementwiseOp(source, fn_name),
        dtype=source.dtype,
        scope=Scope.GLOBAL,
    )


def contraction(a: Tensor, b: Tensor, spec: GemmSpec, name: str = "C") -> Tensor:
    """Create the contraction output tensor ``C`` of shape (batch, m, n)."""
    shape = (spec.batch, spec.m, spec.n) if spec.batch > 1 else (spec.m, spec.n)
    return Tensor(name, shape, ContractionOp(a, b, spec), dtype=spec.dtype)


def gemm_graph(spec: GemmSpec) -> Tensor:
    """The canonical graph of ``spec``: placeholders ``A`` (m x k) and
    ``B`` (n x k), with a leading batch axis when ``spec.batch > 1``, feeding
    the contraction ``C``. Returns ``C``."""
    lead = (spec.batch,) if spec.batch > 1 else ()
    a = placeholder("A", lead + (spec.m, spec.k), dtype=spec.dtype)
    b = placeholder("B", lead + (spec.n, spec.k), dtype=spec.dtype)
    return contraction(a, b, spec)
