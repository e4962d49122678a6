"""Tests for statement nodes, analysis helpers, builder, printer, validation."""

import pytest

from repro.ir import (
    Allocate,
    Buffer,
    For,
    ForKind,
    IRBuilder,
    IfThenElse,
    IntImm,
    Kernel,
    MemCopy,
    PipelineSync,
    Scope,
    SeqStmt,
    SyncKind,
    ValidationError,
    Var,
    format_kernel,
    format_stmt,
    seq,
    validate_kernel,
)
from repro.ir.analysis import (
    buffers_read,
    buffers_written,
    collect,
    collect_allocates,
    collect_copies,
    collect_computes,
    collect_syncs,
    count_nodes,
    enclosing_loops,
    kernel_flops,
    loop_extent_int,
    walk_with_path,
)


def _sample_kernel():
    """A small load-and-use kernel: copy tile of A into shared, then mma."""
    A = Buffer("A", (64, 16))
    C = Buffer("C", (64, 16))
    A_sh = Buffer("A_shared", (16, 16), scope=Scope.SHARED)
    b = IRBuilder()
    with b.allocate(A_sh, attrs={"pipeline_stages": 3}):
        with b.serial_for("ko", 4) as ko:
            b.copy(A_sh.full_region(), A.region((ko * 16, 16), (0, 16)), is_async=True)
            b.compute("mma", C.region((0, 64), (0, 16)), [A_sh.full_region()], flops=512)
    return Kernel("k", [A, C], b.finish()), A, C, A_sh


class TestStmtConstruction:
    def test_for_rejects_non_var(self):
        with pytest.raises(TypeError):
            For("x", 4, PipelineSync(Buffer("b", (1,)), SyncKind.PRODUCER_COMMIT))

    def test_for_rejects_zero_extent(self):
        buf = Buffer("b", (1,))
        with pytest.raises(ValueError):
            For(Var("i"), 0, PipelineSync(buf, SyncKind.PRODUCER_COMMIT))

    def test_seqstmt_flattens(self):
        buf = Buffer("b", (1,))
        s1 = PipelineSync(buf, SyncKind.PRODUCER_COMMIT)
        s2 = PipelineSync(buf, SyncKind.CONSUMER_WAIT)
        nested = SeqStmt([SeqStmt([s1]), s2])
        assert nested.stmts == (s1, s2)

    def test_seqstmt_rejects_empty(self):
        with pytest.raises(ValueError):
            SeqStmt([])

    def test_seq_single_collapses(self):
        buf = Buffer("b", (1,))
        s = PipelineSync(buf, SyncKind.PRODUCER_COMMIT)
        assert seq(s) is s

    def test_memcopy_size_mismatch(self):
        a = Buffer("a", (8, 8))
        b = Buffer("b", (8, 8))
        with pytest.raises(ValueError):
            MemCopy(a.region((0, 4), (0, 4)), b.region((0, 8), (0, 8)))

    def test_memcopy_bytes(self):
        a = Buffer("a", (8, 8), dtype="float16")
        c = MemCopy(a.region((0, 4), (0, 4)), a.region((4, 4), (4, 4)))
        assert c.bytes == 4 * 4 * 2

    def test_sync_kind_type_checked(self):
        with pytest.raises(TypeError):
            PipelineSync(Buffer("b", (1,)), "producer_commit")

    def test_allocate_requires_buffer(self):
        with pytest.raises(TypeError):
            Allocate("A", PipelineSync(Buffer("b", (1,)), SyncKind.PRODUCER_COMMIT))


class TestAnalysis:
    def test_collects(self):
        k, A, C, A_sh = _sample_kernel()
        assert len(collect_allocates(k.body)) == 1
        assert len(collect_copies(k.body)) == 1
        assert len(collect_computes(k.body)) == 1
        assert collect_syncs(k.body) == []

    def test_buffers_read_written(self):
        k, A, C, A_sh = _sample_kernel()
        assert buffers_read(k.body) == {A, A_sh, C}  # C read for accumulate
        assert buffers_written(k.body) == {A_sh, C}

    def test_walk_with_path_depths(self):
        k, *_ = _sample_kernel()
        paths = {type(n).__name__: len(p) for n, p in walk_with_path(k.body)}
        assert paths["MemCopy"] == 3  # under Allocate -> For -> SeqStmt

    def test_enclosing_loops(self):
        k, *_ = _sample_kernel()
        for node, path in walk_with_path(k.body):
            if isinstance(node, MemCopy):
                loops = enclosing_loops(path)
                assert [lp.var.name for lp in loops] == ["ko"]

    def test_loop_extent_int(self):
        k, *_ = _sample_kernel()
        loop = collect(k.body, lambda s: isinstance(s, For))[0]
        assert loop_extent_int(loop) == 4

    def test_loop_extent_nonconst_raises(self):
        n = Var("n")
        loop = For(Var("i"), n + 1, PipelineSync(Buffer("b", (1,)), SyncKind.PRODUCER_COMMIT))
        with pytest.raises(ValueError):
            loop_extent_int(loop)

    def test_kernel_flops(self):
        k, *_ = _sample_kernel()
        assert kernel_flops(k) == 512 * 4

    def test_count_nodes(self):
        k, *_ = _sample_kernel()
        # Allocate, For, SeqStmt, MemCopy, ComputeStmt
        assert count_nodes(k.body) == 5


class TestBuilder:
    def test_unclosed_scope_raises(self):
        b = IRBuilder()
        cm = b.serial_for("i", 4)
        cm.__enter__()
        with pytest.raises(RuntimeError):
            b.finish()
        # Close the scope cleanly so the suspended generator does not warn.
        b.sync(Buffer("b", (1,)), SyncKind.PRODUCER_COMMIT)
        cm.__exit__(None, None, None)

    def test_empty_scope_raises(self):
        b = IRBuilder()
        with pytest.raises(ValueError):
            with b.serial_for("i", 4):
                pass

    def test_empty_builder_raises(self):
        with pytest.raises(ValueError):
            IRBuilder().finish()

    def test_if_then(self):
        b = IRBuilder()
        buf = Buffer("b", (1,))
        with b.serial_for("i", 4) as i:
            with b.if_then(i.equal(0)):
                b.sync(buf, SyncKind.CONSUMER_WAIT)
        stmt = b.finish()
        assert collect(stmt, lambda s: isinstance(s, IfThenElse))

    def test_kinds(self):
        b = IRBuilder()
        buf = Buffer("b", (1,))
        with b.block_for("bi", 2):
            with b.thread_for("ti", 2):
                with b.unrolled_for("u", 2):
                    b.sync(buf, SyncKind.PRODUCER_COMMIT)
        stmt = b.finish()
        kinds = [s.kind for s, _ in walk_with_path(stmt) if isinstance(s, For)]
        assert kinds == [ForKind.BLOCK, ForKind.THREAD, ForKind.UNROLLED]


class TestPrinter:
    def test_format_contains_structure(self):
        k, *_ = _sample_kernel()
        text = format_kernel(k)
        assert "async_memcpy" in text
        assert "alloc A_shared" in text
        assert "pipeline_stages" in text
        assert "for ko in 0..4:" in text

    def test_sync_printed(self):
        buf = Buffer("s", (1,), scope=Scope.SHARED)
        s = PipelineSync(buf, SyncKind.CONSUMER_WAIT)
        assert "s.consumer_wait()" in format_stmt(s)

    def test_if_else_printed(self):
        buf = Buffer("s", (1,), scope=Scope.SHARED)
        st = IfThenElse(
            IntImm(1),
            PipelineSync(buf, SyncKind.CONSUMER_WAIT),
            PipelineSync(buf, SyncKind.CONSUMER_RELEASE),
        )
        text = format_stmt(st)
        assert "if 1:" in text and "else:" in text


class TestValidation:
    def test_valid_kernel_passes(self):
        k, *_ = _sample_kernel()
        validate_kernel(k)

    def test_unallocated_buffer_caught(self):
        A = Buffer("A", (8, 8))
        ghost = Buffer("ghost", (8, 8), scope=Scope.SHARED)
        body = MemCopy(ghost.full_region(), A.full_region())
        with pytest.raises(ValidationError):
            validate_kernel(Kernel("k", [A], body))

    def test_unbound_var_caught(self):
        A = Buffer("A", (8, 8))
        k = Var("phantom")
        body = MemCopy(A.region((k, 4), (0, 8)), A.region((0, 4), (0, 8)))
        with pytest.raises(ValidationError):
            validate_kernel(Kernel("k", [A], body))

    def test_rebound_loop_var_caught(self):
        A = Buffer("A", (8, 8))
        i = Var("i")
        inner = For(i, 2, MemCopy(A.region((i, 4), (0, 8)), A.region((0, 4), (0, 8))))
        with pytest.raises(ValidationError):
            validate_kernel(Kernel("k", [A], For(i, 2, inner)))

    def test_double_allocation_caught(self):
        A = Buffer("A", (8, 8))
        sh = Buffer("sh", (4, 4), scope=Scope.SHARED)
        inner = Allocate(sh, MemCopy(sh.full_region(), A.region((0, 4), (0, 4))))
        with pytest.raises(ValidationError):
            validate_kernel(Kernel("k", [A], Allocate(sh, inner)))

    def test_bad_pipeline_stage_attr_caught(self):
        A = Buffer("A", (8, 8))
        sh = Buffer("sh", (4, 4), scope=Scope.SHARED)
        body = Allocate(
            sh,
            MemCopy(sh.full_region(), A.region((0, 4), (0, 4))),
            attrs={"pipeline_stages": 0},
        )
        with pytest.raises(ValidationError):
            validate_kernel(Kernel("k", [A], body))

    def test_duplicate_params_caught(self):
        A = Buffer("A", (8, 8))
        B = Buffer("A", (8, 8))
        body = MemCopy(A.full_region(), B.full_region())
        with pytest.raises(ValidationError):
            validate_kernel(Kernel("k", [A, B], body))

    def test_sync_on_invisible_buffer_caught(self):
        A = Buffer("A", (8, 8))
        ghost = Buffer("ghost", (4,), scope=Scope.SHARED)
        with pytest.raises(ValidationError):
            validate_kernel(Kernel("k", [A], PipelineSync(ghost, SyncKind.PRODUCER_COMMIT)))
