"""Tests for the bounds verifier, and that pipelined sync sites stay distinct."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen import lower
from repro.ir import Buffer, IRBuilder, Kernel, MemCopy, Scope, Var
from repro.ir.analysis import collect_syncs
from repro.ir.stmt import For
from repro.schedule import TileConfig, auto_schedule
from repro.tensor import GemmSpec, contraction, placeholder
from repro.transform import (
    BoundsError,
    Interval,
    TransformError,
    apply_pipelining,
    interval_of,
    verify_in_bounds,
)


def pipelined_kernel(m=32, n=32, k=64, ss=3, rs=2):
    spec = GemmSpec("b", 1, m, n, k)
    a = placeholder("A", (m, k))
    b = placeholder("B", (n, k))
    c = contraction(a, b, spec)
    cfg = TileConfig(16, 16, 16, warp_m=8, warp_n=8, chunk_k=8, smem_stages=ss, reg_stages=rs)
    return apply_pipelining(lower(auto_schedule(c, cfg)))


class TestInterval:
    def test_arithmetic(self):
        a, b = Interval(1, 3), Interval(-2, 2)
        assert (a + b) == Interval(-1, 5)
        assert (a - b) == Interval(-1, 5)
        assert (a * b) == Interval(-6, 6)

    def test_floordiv(self):
        assert Interval(0, 7).floordiv(Interval(2, 2)) == Interval(0, 3)

    def test_floordiv_by_zero_interval(self):
        with pytest.raises(BoundsError):
            Interval(0, 7).floordiv(Interval(-1, 1))

    def test_floormod_constant(self):
        assert Interval(0, 10).floormod(Interval(3, 3)) == Interval(0, 2)

    def test_floormod_exact_when_one_period(self):
        assert Interval(4, 5).floormod(Interval(8, 8)) == Interval(4, 5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Interval(2, 1)

    def test_interval_of_expression(self):
        x = Var("x")
        env = {x: Interval(0, 3)}
        assert interval_of((x + 2) * 3, env) == Interval(6, 15)
        assert interval_of((x + 1) % 4, env) == Interval(0, 3)

    @given(
        lo=st.integers(-20, 20),
        width=st.integers(0, 20),
        n=st.integers(1, 9),
        shift=st.integers(-5, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_interval_soundness(self, lo, width, n, shift):
        """The interval must contain every concrete value."""
        x = Var("x")
        expr = ((x + shift) % n) * 2 + shift
        iv = interval_of(expr, {x: Interval(lo, lo + width)})
        from repro.ir.expr import evaluate

        for v in range(lo, lo + width + 1):
            val = evaluate(expr, {x: v})
            assert iv.lo <= val <= iv.hi


class TestVerifyInBounds:
    @pytest.mark.parametrize("ss,rs", [(1, 1), (2, 1), (3, 2), (4, 2)])
    def test_pipelined_kernels_prove_safe(self, ss, rs):
        """The pass's shifted + wrapped indices are statically in bounds."""
        assert verify_in_bounds(pipelined_kernel(ss=ss, rs=rs)) > 0

    def test_detects_overflow(self):
        A = Buffer("A", (32,))
        out_b = Buffer("O", (32,))
        b = IRBuilder()
        with b.serial_for("t", 4) as t:
            b.copy(out_b.region((t * 10, 8)), A.region((t * 8, 8)))  # t=3 -> [30, 38)
        with pytest.raises(BoundsError, match="outside"):
            verify_in_bounds(Kernel("bad", [A, out_b], b.finish()))

    def test_detects_unwrapped_shift(self):
        """An index shift *without* the modulo wrap must be caught — the
        exact bug class step three of the transformation prevents."""
        A = Buffer("A", (32,))
        sh = Buffer("sh", (8,), scope=Scope.SHARED)
        b = IRBuilder()
        with b.allocate(sh):
            with b.serial_for("t", 4) as t:
                b.copy(sh.full_region(), A.region(((t + 1) * 8, 8)))  # shift, no wrap
                b.copy(A.region((t * 8, 8)), sh.full_region())
        with pytest.raises(BoundsError):
            verify_in_bounds(Kernel("bad", [A], b.finish()))

    def test_wrapped_shift_passes(self):
        A = Buffer("A", (32,))
        sh = Buffer("sh", (8,), scope=Scope.SHARED)
        b = IRBuilder()
        with b.allocate(sh):
            with b.serial_for("t", 4) as t:
                b.copy(sh.full_region(), A.region((((t + 1) % 4) * 8, 8)))
                b.copy(A.region((t * 8, 8)), sh.full_region())
        # two copy statements x two regions each (static count)
        assert verify_in_bounds(Kernel("ok", [A], b.finish())) == 4

    def test_non_constant_extent_rejected(self):
        A = Buffer("A", (8,))
        n = Var("n")
        outer = For(Var("o"), 4, For(n, 2, MemCopy(A.full_region(), A.full_region())))
        inner_bad = For(Var("i"), n + 1, MemCopy(A.full_region(), A.full_region()))
        with pytest.raises(TransformError):
            verify_in_bounds(Kernel("k", [A], For(n, 2, inner_bad)))


class TestUnrollPass:
    """Unrolling is left to the ``#pragma unroll`` of the generated CUDA; the
    IR's part is that each sync site of a pipelined kernel is its own node."""

    def test_unrolled_syncs_are_distinct_objects(self):
        # The interpreter fires a barrier once per execution of its node,
        # keyed by identity, so no two sync sites may share one node.
        A = Buffer("A", (32,))
        sh = Buffer("sh", (8,), scope=Scope.SHARED)
        b = IRBuilder()
        with b.allocate(sh, attrs={"pipeline_stages": 2}):
            with b.serial_for("t", 4) as t:
                b.copy(sh.full_region(), A.region(((t % 4) * 8, 8)), is_async=True)
                b.copy(A.region((t * 8, 8)), sh.full_region())
        kernel = apply_pipelining(Kernel("k", [A], b.finish()))
        syncs = collect_syncs(kernel.body)
        assert len({id(s) for s in syncs}) == len(syncs)
