"""Buffers and buffer regions.

A :class:`Buffer` is a named, scoped, dense multi-dimensional array — the IR
analogue of ``A_shared`` / ``A_reg`` in Fig. 7 of the ALCOP paper. A
:class:`BufferRegion` is a box-shaped window ``[offset, offset + extent)`` per
dimension; the chunk-level statements (:class:`~repro.ir.stmt.MemCopy`,
:class:`~repro.ir.stmt.ComputeStmt`) move and consume whole regions.
"""

from __future__ import annotations

import enum
from typing import Sequence, Tuple

from .expr import Expr, ExprLike, as_expr, evaluate, free_vars, substitute

__all__ = ["Scope", "Buffer", "BufferRegion", "DTYPE_BYTES"]

#: Bytes per element for the dtypes the compiler understands.
DTYPE_BYTES = {
    "float16": 2,
    "float32": 4,
    "float64": 8,
    "int8": 1,
    "int32": 4,
}


class Scope(enum.Enum):
    """Memory scope of a buffer in the GPU hierarchy (Fig. 3a)."""

    GLOBAL = "global"
    SHARED = "shared"
    REGISTER = "register"
    ACCUMULATOR = "accumulator"

    #: The scope an asynchronous copy into this scope reads from. On Ampere,
    #: ``cp.async`` moves global -> shared; register loads read shared memory.
    @property
    def async_source(self) -> "Scope | None":
        if self is Scope.SHARED:
            return Scope.GLOBAL
        if self is Scope.REGISTER:
            return Scope.SHARED
        return None


class Buffer:
    """A dense, scoped array.

    Parameters
    ----------
    name:
        Display name, e.g. ``"A_shared"``.
    shape:
        Static integer shape.
    dtype:
        Element type; must be a key of :data:`DTYPE_BYTES`.
    scope:
        Memory scope.

    Identity-based equality: two buffers with the same name are distinct.
    """

    __slots__ = ("name", "shape", "dtype", "scope")

    def __init__(
        self,
        name: str,
        shape: Sequence[int],
        dtype: str = "float16",
        scope: Scope = Scope.GLOBAL,
    ) -> None:
        if dtype not in DTYPE_BYTES:
            raise ValueError(f"unsupported dtype {dtype!r}")
        shape = tuple(int(s) for s in shape)
        if not shape or any(s <= 0 for s in shape):
            raise ValueError(f"buffer {name!r} requires a positive shape, got {shape}")
        self.name = name
        self.shape: Tuple[int, ...] = shape
        self.dtype = dtype
        self.scope = scope

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def elem_bytes(self) -> int:
        return DTYPE_BYTES[self.dtype]

    @property
    def size_elems(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def size_bytes(self) -> int:
        return self.size_elems * self.elem_bytes

    def with_shape(self, shape: Sequence[int]) -> "Buffer":
        """A new buffer object with the same name/dtype/scope but new shape.

        Used by the pipelining pass when prepending the stage dimension.
        """
        return Buffer(self.name, shape, self.dtype, self.scope)

    def region(self, *dims: "tuple[ExprLike, int] | ExprLike") -> "BufferRegion":
        """Build a region. Each dim is ``(offset, extent)`` or a bare offset
        (meaning extent 1)."""
        offsets = []
        extents = []
        for d in dims:
            if isinstance(d, tuple):
                off, ext = d
            else:
                off, ext = d, 1
            offsets.append(as_expr(off))
            extents.append(int(ext))
        return BufferRegion(self, offsets, extents)

    def full_region(self) -> "BufferRegion":
        """The region covering the whole buffer."""
        return BufferRegion(self, [as_expr(0)] * self.ndim, list(self.shape))

    def __repr__(self) -> str:
        dims = ", ".join(str(s) for s in self.shape)
        return f"{self.name}<{self.dtype}[{dims}], {self.scope.value}>"


class BufferRegion:
    """A box region of a buffer: per-dim ``[offset, offset + extent)``.

    Offsets are expressions over loop variables; extents are static ints
    (tile sizes are compile-time constants throughout this compiler).
    """

    __slots__ = ("buffer", "offsets", "extents")

    def __init__(
        self,
        buffer: Buffer,
        offsets: Sequence[ExprLike],
        extents: Sequence[int],
    ) -> None:
        offsets = [as_expr(o) for o in offsets]
        extents = [int(e) for e in extents]
        if len(offsets) != buffer.ndim or len(extents) != buffer.ndim:
            raise ValueError(
                f"region rank mismatch for {buffer.name}: buffer has "
                f"{buffer.ndim} dims, region has {len(offsets)}/{len(extents)}"
            )
        if any(e <= 0 for e in extents):
            raise ValueError(f"region extents must be positive, got {extents}")
        if any(e > s for e, s in zip(extents, buffer.shape)):
            raise ValueError(
                f"region extents {extents} exceed buffer shape {buffer.shape} "
                f"for {buffer.name}"
            )
        self.buffer = buffer
        self.offsets: Tuple[Expr, ...] = tuple(offsets)
        self.extents: Tuple[int, ...] = tuple(extents)

    @classmethod
    def _trusted(
        cls,
        buffer: Buffer,
        offsets: Tuple[Expr, ...],
        extents: Tuple[int, ...],
    ) -> "BufferRegion":
        """Construct without coercion or validation — for internal callers
        (region substitution, the pipelining rewrite) that derive the
        arguments from an already-validated region and pass proper tuples.
        The measurement sweep builds millions of regions; the public
        constructor's checks are pure overhead there."""
        self = object.__new__(cls)
        self.buffer = buffer
        self.offsets = offsets
        self.extents = extents
        return self

    @property
    def size_elems(self) -> int:
        n = 1
        for e in self.extents:
            n *= e
        return n

    @property
    def size_bytes(self) -> int:
        return self.size_elems * self.buffer.elem_bytes

    def free_vars(self) -> set:
        out: set = set()
        for off in self.offsets:
            out |= free_vars(off)
        return out

    def substitute(self, mapping) -> "BufferRegion":
        """Region with variables substituted in its offsets."""
        return BufferRegion._trusted(
            self.buffer,
            tuple(substitute(o, mapping) for o in self.offsets),
            self.extents,
        )

    def concrete_slices(self, env) -> Tuple[slice, ...]:
        """Evaluate offsets under ``env`` and return numpy slices.

        Raises ``IndexError`` if the box falls outside the buffer.
        """
        slices = []
        for off_expr, ext, dim in zip(self.offsets, self.extents, self.buffer.shape):
            off = evaluate(off_expr, env)
            if off < 0 or off + ext > dim:
                raise IndexError(
                    f"region [{off}, {off + ext}) out of bounds for dim {dim} "
                    f"of {self.buffer.name}"
                )
            slices.append(slice(off, off + ext))
        return tuple(slices)

    def __repr__(self) -> str:
        dims = ", ".join(
            f"{o!r}:+{e}" if e != 1 else f"{o!r}" for o, e in zip(self.offsets, self.extents)
        )
        return f"{self.buffer.name}[{dims}]"
