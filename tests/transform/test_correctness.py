"""End-to-end functional correctness of the pipelining transformation.

The transformed kernel, executed under strict pipeline semantics (staged
async copies, NaN-poisoned buffers), must reproduce the numpy reference for
every stage configuration. This is the reproduction's equivalent of running
the generated CUDA on hardware and diffing against cuBLAS.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.interp import PipelineHazardError, run_kernel
from repro.ir import validate_kernel
from repro.ir.stmt import SyncKind
from repro.schedule import TileConfig
from repro.transform import apply_pipelining

from ..sync_mutation import drop_syncs
from .conftest import build_kernel, random_inputs, reference


def run_both(kernel, spec, a_fn=None, seed=0):
    a, b = random_inputs(spec, seed)
    ref = reference(a, b, spec.batch, a_fn)
    pipelined = apply_pipelining(kernel)
    validate_kernel(pipelined)
    out_e = run_kernel(kernel, {"A": a, "B": b}, mode="eager")["C"].astype(np.float32)
    out_p = run_kernel(pipelined, {"A": a, "B": b}, mode="pipeline")["C"].astype(np.float32)
    np.testing.assert_allclose(out_e, ref, atol=0.5, rtol=0.02)
    np.testing.assert_allclose(out_p, ref, atol=0.5, rtol=0.02)
    np.testing.assert_array_equal(out_e, out_p)  # identical op order -> identical bits


STAGE_MATRIX = [
    (1, 1),
    (2, 1),
    (3, 1),
    (4, 1),
    (1, 2),
    (2, 2),
    (3, 2),
    (4, 2),
]


@pytest.mark.parametrize("smem,reg", STAGE_MATRIX)
def test_stage_matrix(smem, reg):
    cfg = TileConfig(16, 16, 16, warp_m=8, warp_n=8, chunk_k=8, smem_stages=smem, reg_stages=reg)
    kernel, spec = build_kernel(m=32, n=32, k=64, cfg=cfg)
    run_both(kernel, spec)


def test_batched():
    cfg = TileConfig(16, 16, 16, warp_m=8, warp_n=8, chunk_k=8, smem_stages=3, reg_stages=2)
    kernel, spec = build_kernel(m=16, n=16, k=64, batch=3, cfg=cfg)
    run_both(kernel, spec)


def test_stages_exceed_loop_extent():
    cfg = TileConfig(16, 16, 16, warp_m=8, warp_n=8, chunk_k=8, smem_stages=4, reg_stages=1)
    kernel, spec = build_kernel(m=16, n=16, k=32, cfg=cfg)  # ko extent 2 < stages 4
    run_both(kernel, spec)


def test_rectangular_tiles_and_warps():
    cfg = TileConfig(32, 16, 16, warp_m=8, warp_n=16, chunk_k=4, smem_stages=3, reg_stages=2)
    kernel, spec = build_kernel(m=64, n=32, k=64, cfg=cfg)
    run_both(kernel, spec)


def test_elementwise_fused_operand():
    """Pipeline-then-inline (Fig. 5 case 2) computes f at the operand read."""
    cfg = TileConfig(16, 16, 16, warp_m=8, warp_n=8, chunk_k=8, smem_stages=3, reg_stages=2)
    kernel, spec = build_kernel(m=32, n=32, k=64, cfg=cfg, a_elementwise="relu")
    assert kernel.attrs["operand_fused_fn"]["a"] == "relu"
    run_both(kernel, spec, a_fn=lambda x: np.maximum(x, 0))


def test_elementwise_fused_into_copy_without_pipelining():
    """Inline-then-no-pipeline (Fig. 5 case 1) fuses f into the copy."""
    cfg = TileConfig(16, 16, 16, warp_m=8, warp_n=8, chunk_k=8)
    kernel, spec = build_kernel(m=32, n=32, k=64, cfg=cfg, a_elementwise="relu")
    assert kernel.attrs["operand_fused_fn"]["a"] is None
    run_both(kernel, spec, a_fn=lambda x: np.maximum(x, 0))


def _nth_sync(kind, index=0, scope=None):
    """Failure injection: a ``drop_syncs`` predicate for the ``index``-th
    sync of ``kind`` (in ``scope``, if given)."""
    seen = itertools.count()
    return lambda s: (
        s.kind is kind and (scope is None or s.buffer.scope is scope) and next(seen) == index
    )


class TestFailureInjection:
    """Removing any synchronization primitive must be *observable* — either a
    detected protocol violation or a corrupted (NaN-poisoned) output. If
    these tests fail, the pipeline-semantics interpreter is too lax to act
    as a correctness oracle."""

    def _mutate_and_run(self, drop):
        cfg = TileConfig(
            16, 16, 16, warp_m=8, warp_n=8, chunk_k=8, smem_stages=3, reg_stages=2
        )
        kernel, spec = build_kernel(m=32, n=32, k=64, cfg=cfg)
        pipelined = apply_pipelining(kernel)
        broken = drop_syncs(pipelined, drop)
        a, b = random_inputs(spec)
        ref = reference(a, b, spec.batch)
        out = run_kernel(broken, {"A": a, "B": b}, mode="pipeline")["C"].astype(np.float32)
        if not np.allclose(out, ref, atol=0.5, rtol=0.02):
            raise PipelineHazardError("output corrupted")

    @pytest.mark.parametrize("kind", [SyncKind.CONSUMER_WAIT, SyncKind.PRODUCER_COMMIT])
    def test_dropping_sync_is_caught(self, kind):
        with pytest.raises(PipelineHazardError):
            self._mutate_and_run(_nth_sync(kind))

    def test_dropping_guarded_smem_wait_is_caught(self):
        from repro.ir import Scope

        # Drop the *in-loop* guarded smem wait (index 1; index 0 is the
        # prologue wait).
        with pytest.raises(PipelineHazardError):
            self._mutate_and_run(_nth_sync(SyncKind.CONSUMER_WAIT, index=1, scope=Scope.SHARED))

    def test_dropping_release_deadlocks(self):
        with pytest.raises(PipelineHazardError, match="deadlock|release"):
            self._mutate_and_run(_nth_sync(SyncKind.CONSUMER_RELEASE))

    def test_untransformed_async_kernel_rejected_by_pipeline_mode(self):
        cfg = TileConfig(16, 16, 16, warp_m=8, warp_n=8, chunk_k=8, smem_stages=3)
        kernel, spec = build_kernel(cfg=cfg)
        a, b = random_inputs(spec)
        with pytest.raises(PipelineHazardError, match="pipelining pass"):
            run_kernel(kernel, {"A": a, "B": b}, mode="pipeline")


@settings(max_examples=12, deadline=None)
@given(
    smem=st.integers(1, 4),
    reg=st.integers(1, 2),
    ko_extent=st.integers(2, 5),
    ki_choice=st.sampled_from([(16, 4), (16, 8), (16, 16)]),
    seed=st.integers(0, 3),
)
def test_property_random_configs(smem, reg, ko_extent, ki_choice, seed):
    """Any valid (stages, extent) combination preserves GEMM semantics."""
    block_k, chunk_k = ki_choice
    cfg = TileConfig(
        16, 16, block_k, warp_m=8, warp_n=8, chunk_k=chunk_k, smem_stages=smem, reg_stages=reg
    )
    kernel, spec = build_kernel(m=16, n=16, k=block_k * ko_extent, cfg=cfg)
    run_both(kernel, spec, seed=seed)
