"""Tensor expression layer: dataflow graph of placeholder / elementwise /
cache-read / contraction operations."""

from .operation import (
    ELEMENTWISE_FNS,
    CacheReadOp,
    ContractionOp,
    ElementwiseOp,
    GemmSpec,
    Operation,
    PlaceholderOp,
    Tensor,
    contraction,
    elementwise,
    gemm_graph,
    placeholder,
)

__all__ = [
    "ELEMENTWISE_FNS",
    "CacheReadOp",
    "ContractionOp",
    "ElementwiseOp",
    "GemmSpec",
    "Operation",
    "PlaceholderOp",
    "Tensor",
    "contraction",
    "elementwise",
    "gemm_graph",
    "placeholder",
]
