"""Direct tests of the IR interpreters (eager and pipeline semantics)."""

import numpy as np
import pytest

from repro.interp import InterpreterError, PipelineHazardError, run_kernel
from repro.ir import Buffer, ComputeStmt, IRBuilder, Kernel, MemCopy, Scope, SyncKind
from repro.transform import apply_pipelining

from ..sync_mutation import drop_syncs


def copy_kernel(n_tiles=4, tile=8, is_async=False, stages=None):
    """O[t] = A[t] streamed through a shared buffer."""
    A = Buffer("A", (n_tiles * tile,))
    out_b = Buffer("O", (n_tiles * tile,))
    sh = Buffer("sh", (tile,), scope=Scope.SHARED)
    b = IRBuilder()
    attrs = {"pipeline_stages": stages} if stages else None
    with b.allocate(sh, attrs=attrs):
        with b.serial_for("t", n_tiles) as t:
            b.copy(sh.full_region(), A.region((t * tile, tile)), is_async=is_async)
            b.copy(out_b.region((t * tile, tile)), sh.full_region())
    return Kernel("stream", [A, out_b], b.finish())


class TestEagerMode:
    def test_streaming_copy(self):
        k = copy_kernel()
        a = np.arange(32, dtype=np.float16)
        out = run_kernel(k, {"A": a}, mode="eager")
        np.testing.assert_array_equal(out["O"], a)

    def test_inputs_not_mutated(self):
        k = copy_kernel()
        a = np.arange(32, dtype=np.float16)
        run_kernel(k, {"A": a}, mode="eager")
        np.testing.assert_array_equal(a, np.arange(32, dtype=np.float16))

    def test_missing_output_nan_filled_then_written(self):
        k = copy_kernel()
        out = run_kernel(k, {"A": np.ones(32, dtype=np.float16)}, mode="eager")
        assert not np.isnan(out["O"].astype(np.float32)).any()

    def test_wrong_input_shape_rejected(self):
        k = copy_kernel()
        with pytest.raises(InterpreterError, match="shape"):
            run_kernel(k, {"A": np.ones(31, dtype=np.float16)}, mode="eager")

    def test_syncs_are_noops_in_eager(self):
        A = Buffer("A", (8,))
        sh = Buffer("sh", (8,), scope=Scope.SHARED)
        b = IRBuilder()
        with b.allocate(sh):
            b.sync(sh, SyncKind.CONSUMER_WAIT)  # would deadlock in pipeline mode
            b.copy(sh.full_region(), A.full_region())
            b.copy(A.full_region(), sh.full_region())
        run_kernel(Kernel("k", [A], b.finish()), {"A": np.ones(8, dtype=np.float16)})

    def test_fused_fn_applied_on_copy(self):
        A = Buffer("A", (8,))
        out_b = Buffer("O", (8,))
        body = MemCopy(out_b.full_region(), A.full_region(), annotations={"fused_fn": "relu"})
        out = run_kernel(
            Kernel("k", [A, out_b], body),
            {"A": np.array([-1, 2, -3, 4, -5, 6, -7, 8], dtype=np.float16)},
        )
        assert out["O"].min() == 0

    def test_compute_without_fn_rejected(self):
        A = Buffer("A", (8,))
        body = ComputeStmt("mystery", A.full_region(), [])
        with pytest.raises(InterpreterError, match="semantics"):
            run_kernel(Kernel("k", [A], body), {"A": np.ones(8, dtype=np.float16)})

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_kernel(copy_kernel(), {"A": np.ones(32, dtype=np.float16)}, mode="fast")

    def test_dtype_cast_on_copy(self):
        A = Buffer("A", (4,), dtype="float32")
        out_b = Buffer("O", (4,), dtype="float16")
        body = MemCopy(out_b.full_region(), A.full_region())
        out = run_kernel(Kernel("k", [A, out_b], body), {"A": np.full(4, 1.5, dtype=np.float32)})
        assert out["O"].dtype == np.float16


class TestPipelineMode:
    def test_transformed_stream_correct(self):
        k = apply_pipelining(copy_kernel(is_async=True, stages=3))
        a = np.arange(32, dtype=np.float16)
        out = run_kernel(k, {"A": a}, mode="pipeline")
        np.testing.assert_array_equal(out["O"], a)

    def test_two_stage_stream_correct(self):
        k = apply_pipelining(copy_kernel(is_async=True, stages=2))
        a = np.arange(32, dtype=np.float16)
        out = run_kernel(k, {"A": a}, mode="pipeline")
        np.testing.assert_array_equal(out["O"], a)

    def test_async_copy_without_groups_rejected(self):
        k = copy_kernel(is_async=True)  # no hints -> no groups published
        k.attrs["pipeline_groups"] = []
        with pytest.raises(PipelineHazardError, match="pipelining pass"):
            run_kernel(k, {"A": np.ones(32, dtype=np.float16)}, mode="pipeline")

    def test_wait_with_empty_pipeline_deadlocks(self):
        A = Buffer("A", (8,))
        sh = Buffer("sh", (2, 8), scope=Scope.SHARED)
        from repro.transform.pipeline_pass import PipelineGroupInfo

        b = IRBuilder()
        with b.allocate(sh, attrs={"pipeline_stages": 2, "pipelined": True}):
            b.sync(sh, SyncKind.CONSUMER_WAIT)
            b.copy(A.full_region(), sh.region((0, 1), (0, 8)))
        k = Kernel("k", [A], b.finish())
        k.attrs["pipeline_groups"] = [
            PipelineGroupInfo(sh, [sh], Scope.SHARED, 2, "t", 4)
        ]
        with pytest.raises(PipelineHazardError, match="deadlock"):
            run_kernel(k, {"A": np.ones(8, dtype=np.float16)}, mode="pipeline")

    def test_commit_without_acquire_rejected(self):
        A = Buffer("A", (8,))
        sh = Buffer("sh", (2, 8), scope=Scope.SHARED)
        from repro.transform.pipeline_pass import PipelineGroupInfo

        b = IRBuilder()
        with b.allocate(sh, attrs={"pipeline_stages": 2, "pipelined": True}):
            b.sync(sh, SyncKind.PRODUCER_COMMIT)
            b.copy(A.full_region(), sh.region((0, 1), (0, 8)))
        k = Kernel("k", [A], b.finish())
        k.attrs["pipeline_groups"] = [
            PipelineGroupInfo(sh, [sh], Scope.SHARED, 2, "t", 4)
        ]
        with pytest.raises(PipelineHazardError, match="acquire"):
            run_kernel(k, {"A": np.ones(8, dtype=np.float16)}, mode="pipeline")

    def test_reading_unwaited_data_poisons_output(self):
        """If consumer_wait is removed, the consumer reads the NaN-filled
        buffer instead of the staged (not yet applied) copy."""
        k = apply_pipelining(copy_kernel(is_async=True, stages=2))
        broken = drop_syncs(
            k, lambda s: s.kind in (SyncKind.CONSUMER_WAIT, SyncKind.CONSUMER_RELEASE)
        )
        try:
            out = run_kernel(broken, {"A": np.arange(32, dtype=np.float16)}, mode="pipeline")
        except PipelineHazardError:
            return  # detected as a protocol violation — equally observable
        assert np.isnan(out["O"].astype(np.float32)).any()

    def test_determinism_bitwise(self):
        k = apply_pipelining(copy_kernel(is_async=True, stages=3))
        a = np.random.default_rng(0).standard_normal(32).astype(np.float16)
        o1 = run_kernel(k, {"A": a}, mode="pipeline")["O"]
        o2 = run_kernel(k, {"A": a}, mode="pipeline")["O"]
        np.testing.assert_array_equal(o1, o2)
