"""Tests for the ALCOP compiler driver and the baseline systems."""

import dataclasses

import numpy as np
import pytest

from repro.baselines import LIBRARY_CATALOG, LibraryKernels, XlaLikeCompiler, ablation_compilers
from repro.core import AlcopCompiler, SplitKCompiler
from repro.gpusim.occupancy import CompileError
from repro.ops import bmm_spec, matmul_spec, reference_matmul
from repro.tuning import Measurer, SpaceOptions

OPTS = SpaceOptions(max_size=250)
MEAS = Measurer(via_ir=False)


def _alcop(**kw):
    return AlcopCompiler(measurer=MEAS, space_options=OPTS, **kw)


class TestAlcopCompiler:
    SPEC = matmul_spec("cc_mm", 512, 256, 1024)

    def test_compile_returns_timed_kernel(self):
        ck = _alcop().compile(self.SPEC)
        assert ck.latency_us > 0
        assert ck.tflops > 0
        assert ck.kernel.attrs["config"] == ck.config

    def test_compile_cached(self):
        comp = _alcop()
        assert comp.compile(self.SPEC) is comp.compile(self.SPEC)

    def test_cache_tells_specs_apart_by_footprint(self):
        """A conv and a dense GEMM with the same name and dims differ only in
        ``a_footprint_ratio``; one compiler must not answer one with the
        other's kernel, on either entry point."""
        dense = matmul_spec("fp_mm", 3136, 64, 576)
        conv = dataclasses.replace(dense, a_footprint_ratio=0.12)
        fresh = _alcop().compile(dense).latency_us
        comp = _alcop()
        assert comp.compile(conv).latency_us < fresh
        assert comp.compile(dense).latency_us == fresh
        assert comp.gemm_latency(dense) == fresh

    def test_alcop_variant_uses_pipelining(self):
        ck = _alcop().compile(self.SPEC)
        assert ck.config.smem_stages >= 2  # search should pick a pipelined schedule

    def test_tvm_variant_never_pipelines(self):
        ck = _alcop(variant="tvm").compile(self.SPEC)
        assert ck.config.smem_stages == 1 and ck.config.reg_stages == 1
        assert ck.kernel.attrs["pipeline_groups"] == []

    def test_variant_ordering(self):
        """More pipelining freedom can only improve the searched optimum."""
        lat = {
            name: comp.compile(self.SPEC).latency_us
            for name, comp in ablation_compilers(measurer=MEAS, space_options=OPTS).items()
        }
        assert lat["ALCOP"] <= lat["ALCOP w/o ML"] <= lat["ALCOP w/o ML&MS"] <= lat["TVM"]
        assert lat["TVM DB"] <= lat["TVM"]

    def test_functional_run(self):
        spec = matmul_spec("small", 32, 32, 64)
        comp = AlcopCompiler(measurer=MEAS)
        ck = comp.compile(spec)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((32, 64)).astype(np.float16)
        b = rng.standard_normal((32, 64)).astype(np.float16)
        out = ck.run(a, b)
        np.testing.assert_allclose(
            out.astype(np.float32),
            reference_matmul(a, b).astype(np.float32),
            rtol=2e-2,
            atol=0.5,
        )

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            AlcopCompiler(variant="fastest")


@pytest.mark.parametrize("backend", [
    XlaLikeCompiler,
    LibraryKernels,
    lambda: SplitKCompiler(measurer=MEAS, space_options=OPTS),
], ids=["xla", "library", "splitk"])
def test_backend_memo_tells_specs_apart_by_footprint(backend):
    """A conv and a dense GEMM with the same name and dims differ only in
    ``a_footprint_ratio``; a backend that priced the conv must answer the
    dense GEMM as a fresh instance does."""
    dense = matmul_spec("fp_mm", 3136, 64, 1024)
    conv = dataclasses.replace(dense, a_footprint_ratio=0.12)
    seasoned = backend()
    assert seasoned.gemm_latency(conv) != backend().gemm_latency(dense)
    assert seasoned.gemm_latency(dense) == backend().gemm_latency(dense)


class TestLibrary:
    def test_catalog_is_fully_pipelined(self):
        assert all(c.smem_stages >= 3 and c.reg_stages == 2 for c in LIBRARY_CATALOG)

    def test_dispatch_requires_divisibility(self):
        lib = LibraryKernels()
        cfg = lib.dispatch(matmul_spec("m", 1024, 1024, 1024))
        assert 1024 % cfg.block_m == 0 and 1024 % cfg.block_n == 0

    def test_dispatch_failure(self):
        lib = LibraryKernels()
        with pytest.raises(CompileError):
            lib.dispatch(matmul_spec("odd", 48, 48, 48))

    def test_latency_cached_and_positive(self):
        lib = LibraryKernels()
        spec = matmul_spec("m", 1024, 1024, 1024)
        a = lib.gemm_latency(spec)
        assert a > 0 and lib.gemm_latency(spec) == a

    def test_library_competitive_with_alcop(self):
        """Libraries are within ~2x of searched ALCOP either way (Fig. 11)."""
        spec = matmul_spec("m2048", 2048, 2048, 2048)
        lib = LibraryKernels().gemm_latency(spec)
        alcop = _alcop().compile(spec).latency_us
        assert 0.5 < alcop / lib < 2.0


class TestXla:
    def test_picks_unpipelined_tile(self):
        xla = XlaLikeCompiler()
        cfg = xla.pick_tile(matmul_spec("m", 512, 512, 512))
        assert cfg.smem_stages == 1 and cfg.reg_stages == 1

    def test_conv_delegation_overhead(self):
        from repro.ops import Conv2dShape, conv2d_spec

        xla = XlaLikeCompiler()
        lib = LibraryKernels()
        conv = conv2d_spec("c", Conv2dShape(16, 128, 28, 28, 128, 3, 3, padding=1))
        # Delegated to cuDNN, plus per-call layout/selection overhead.
        assert xla.gemm_latency(conv) > lib.gemm_latency(conv)

    def test_matmul_delegation_overhead(self):
        spec = matmul_spec("m", 512, 768, 3072)
        assert XlaLikeCompiler().gemm_latency(spec) > LibraryKernels().gemm_latency(spec)

    def test_bmm_own_path_slower_than_alcop(self):
        spec = bmm_spec("b", 12, 512, 64, 512)
        assert XlaLikeCompiler().gemm_latency(spec) > _alcop().compile(spec).latency_us * 0.95
