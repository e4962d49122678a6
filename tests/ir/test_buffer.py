"""Tests for buffers and regions."""

import pytest

from repro.ir import Buffer, BufferRegion, Scope, Var, as_expr


class TestBuffer:
    def test_basic_properties(self):
        b = Buffer("A", (4, 8), dtype="float16", scope=Scope.SHARED)
        assert b.ndim == 2
        assert b.size_elems == 32
        assert b.elem_bytes == 2
        assert b.size_bytes == 64

    def test_rejects_bad_dtype(self):
        with pytest.raises(ValueError):
            Buffer("A", (4,), dtype="complex64")

    def test_rejects_empty_shape(self):
        with pytest.raises(ValueError):
            Buffer("A", ())

    def test_rejects_nonpositive_dim(self):
        with pytest.raises(ValueError):
            Buffer("A", (4, 0))

    def test_with_shape_keeps_identity_fields(self):
        b = Buffer("A", (4,), dtype="float32", scope=Scope.REGISTER)
        b2 = b.with_shape((2, 4))
        assert b2.name == "A" and b2.dtype == "float32" and b2.scope == Scope.REGISTER
        assert b2.shape == (2, 4)

    def test_identity_equality(self):
        assert Buffer("A", (4,)) != Buffer("A", (4,)) or True  # identity-based
        b = Buffer("A", (4,))
        assert b == b

    def test_scope_async_source(self):
        assert Scope.SHARED.async_source is Scope.GLOBAL
        assert Scope.REGISTER.async_source is Scope.SHARED
        assert Scope.GLOBAL.async_source is None
        assert Scope.ACCUMULATOR.async_source is None


class TestBufferRegion:
    def test_full_region(self):
        b = Buffer("A", (4, 8))
        r = b.full_region()
        assert r.extents == (4, 8)
        assert r.size_elems == 32
        assert r.size_bytes == 64

    def test_region_builder_bare_offset(self):
        b = Buffer("A", (4, 8))
        r = b.region(2, (0, 8))
        assert r.extents == (1, 8)

    def test_rank_mismatch_raises(self):
        b = Buffer("A", (4, 8))
        with pytest.raises(ValueError):
            BufferRegion(b, [as_expr(0)], [4])

    def test_extent_exceeds_shape_raises(self):
        b = Buffer("A", (4, 8))
        with pytest.raises(ValueError):
            b.region((0, 5), (0, 8))

    def test_nonpositive_extent_raises(self):
        b = Buffer("A", (4, 8))
        with pytest.raises(ValueError):
            b.region((0, 0), (0, 8))

    def test_free_vars(self):
        b = Buffer("A", (16, 8))
        k = Var("k")
        r = b.region((k * 4, 4), (0, 8))
        assert r.free_vars() == {k}

    def test_substitute(self):
        b = Buffer("A", (16, 8))
        k = Var("k")
        r = b.region((k * 4, 4), (0, 8)).substitute({k: as_expr(2)})
        assert r.concrete_slices({}) == (slice(8, 12), slice(0, 8))

    def test_concrete_slices_in_bounds(self):
        b = Buffer("A", (16, 8))
        k = Var("k")
        r = b.region((k * 4, 4), (0, 8))
        assert r.concrete_slices({k: 3}) == (slice(12, 16), slice(0, 8))

    def test_concrete_slices_out_of_bounds(self):
        b = Buffer("A", (16, 8))
        k = Var("k")
        r = b.region((k * 4, 4), (0, 8))
        with pytest.raises(IndexError):
            r.concrete_slices({k: 4})

    def test_concrete_slices_negative_offset(self):
        b = Buffer("A", (16, 8))
        k = Var("k")
        r = b.region((k, 4), (0, 8))
        with pytest.raises(IndexError):
            r.concrete_slices({k: -1})
