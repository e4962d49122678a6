"""Baseline systems: vanilla-TVM variants, an XLA-like compiler, and a
cuBLAS/cuDNN-like kernel library."""

from .library import LIBRARY_CATALOG, LibraryKernels
from .tvm_like import ablation_compilers, tvm_compiler
from .xla_like import XlaLikeCompiler

__all__ = [
    "LIBRARY_CATALOG",
    "LibraryKernels",
    "ablation_compilers",
    "tvm_compiler",
    "XlaLikeCompiler",
]
