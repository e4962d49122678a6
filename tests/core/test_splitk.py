"""Tests for the split-K GEMM extension."""

import numpy as np
import pytest

from repro.core import SplitKCompiled, SplitKCompiler, build_reduce_kernel, reduce_latency_us
from repro.interp import run_kernel
from repro.ir import validate_kernel
from repro.ops import bmm_spec, matmul_spec
from repro.tuning import Measurer, SpaceOptions

MEAS = Measurer(via_ir=False)
OPTS = SpaceOptions(max_size=250)


def make_compiler(**kw):
    return SplitKCompiler(measurer=MEAS, space_options=OPTS, **kw)


class TestReduceKernel:
    def test_validates(self):
        validate_kernel(build_reduce_kernel(128, 64, 4))

    def test_semantics(self):
        k = build_reduce_kernel(128, 64, 4)
        rng = np.random.default_rng(0)
        w = rng.standard_normal((4, 128, 64)).astype(np.float16)
        out = run_kernel(k, {"W": w}, mode="eager")["C"]
        ref = w.astype(np.float32).sum(axis=0).astype(np.float16)
        np.testing.assert_allclose(out.astype(np.float32), ref.astype(np.float32), atol=0.1)

    def test_non_tile_aligned_shapes(self):
        k = build_reduce_kernel(100, 50, 2)
        w = np.ones((2, 100, 50), dtype=np.float16)
        out = run_kernel(k, {"W": w}, mode="eager")["C"]
        np.testing.assert_allclose(out.astype(np.float32), 2.0)

    def test_latency_scales_with_splits(self):
        assert reduce_latency_us(1024, 64, 8) > reduce_latency_us(1024, 64, 2)


class TestCandidateSplits:
    def test_one_always_included(self):
        comp = make_compiler()
        assert 1 in comp.candidate_splits(matmul_spec("m", 64, 64, 64))

    def test_indivisible_k_excluded(self):
        comp = make_compiler(split_candidates=(1, 3))
        assert comp.candidate_splits(matmul_spec("m", 64, 64, 256)) == [1]

    def test_min_k_per_split_enforced(self):
        comp = make_compiler(min_k_per_split=128)
        splits = comp.candidate_splits(matmul_spec("m", 64, 64, 256))
        assert splits == [1, 2]

    def test_batched_problems_not_split(self):
        comp = make_compiler()
        assert comp.candidate_splits(bmm_spec("b", 4, 64, 64, 4096)) == [1]

    def test_split_without_a_tile_is_dropped(self):
        """Split 8 of K = 576 leaves K = 72, which no ``block_k`` divides:
        it is no candidate, and the op compiles with another split."""
        comp = make_compiler()
        spec = matmul_spec("m", 3136, 64, 576)
        assert comp.candidate_splits(spec) == [1, 2, 4]
        assert comp.compile(spec).split_k in {1, 2, 4}


class TestCompilation:
    def test_deep_reduction_picks_split(self):
        comp = make_compiler(split_candidates=(1, 2, 4, 8))
        ck = comp.compile(matmul_spec("deep", 64, 64, 8192))
        assert ck.split_k > 1

    def test_split_beats_plain_on_deep_shape(self):
        from repro.core import AlcopCompiler

        spec = matmul_spec("deep2", 64, 64, 8192)
        plain = AlcopCompiler(measurer=MEAS, space_options=OPTS).compile(spec)
        sk = make_compiler(split_candidates=(1, 2, 4, 8)).compile(spec)
        assert sk.latency_us < plain.latency_us

    def test_parallel_rich_shape_keeps_split_one(self):
        comp = make_compiler()
        ck = comp.compile(matmul_spec("wide", 2048, 2048, 256))
        assert ck.split_k == 1

    def test_cached(self):
        comp = make_compiler()
        spec = matmul_spec("c", 256, 256, 512)
        assert comp.compile(spec) is comp.compile(spec)

    def test_backend_hook(self):
        comp = make_compiler()
        assert comp.gemm_latency(matmul_spec("h", 256, 256, 512)) > 0


class TestFunctional:
    @pytest.mark.parametrize("split", [2, 4])
    def test_split_run_matches_reference(self, split):
        spec = matmul_spec("f", 32, 32, 512)
        comp = make_compiler()
        partial = comp._inner.compile(comp._partial_spec(spec, split))
        ck = SplitKCompiled(
            spec, split, partial,
            build_reduce_kernel(32, 32, split),
            reduce_latency_us(32, 32, split),
        )
        rng = np.random.default_rng(split)
        a = rng.standard_normal((32, 512)).astype(np.float16)
        b = rng.standard_normal((32, 512)).astype(np.float16)
        out = ck.run(a, b).astype(np.float32)
        ref = a.astype(np.float32) @ b.astype(np.float32).T
        np.testing.assert_allclose(out, ref, rtol=5e-2, atol=1.0)

    def test_split_one_run_uses_plain_path(self):
        spec = matmul_spec("f1", 32, 32, 128)
        ck = make_compiler(split_candidates=(1,)).compile(spec)
        assert ck.split_k == 1
        rng = np.random.default_rng(9)
        a = rng.standard_normal((32, 128)).astype(np.float16)
        b = rng.standard_normal((32, 128)).astype(np.float16)
        out = ck.run(a, b).astype(np.float32)
        ref = a.astype(np.float32) @ b.astype(np.float32).T
        np.testing.assert_allclose(out, ref, rtol=5e-2, atol=0.5)
