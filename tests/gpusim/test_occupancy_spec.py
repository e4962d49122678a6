"""Tests for occupancy limits and timing-spec extraction."""

import dataclasses

import pytest

from repro.codegen import lower
from repro.gpusim import (
    A100,
    V100,
    CompileError,
    check_launchable,
    extract_timing_spec,
    tb_per_sm,
)
from repro.perfmodel import timing_spec_from_config
from repro.schedule import TileConfig, auto_schedule
from repro.tensor import GemmSpec, contraction, gemm_graph, placeholder
from repro.transform import apply_pipelining
from repro.tuning import enumerate_space


class TestOccupancy:
    def test_thread_limit(self):
        assert tb_per_sm(A100, smem_bytes=0, regs_per_thread=32, threads=1024) == 2

    def test_smem_limit(self):
        occ = tb_per_sm(A100, smem_bytes=40 * 1024, regs_per_thread=32, threads=128)
        assert occ == A100.smem_per_sm // (40 * 1024)

    def test_register_limit(self):
        occ = tb_per_sm(A100, smem_bytes=0, regs_per_thread=128, threads=256)
        assert occ == min(A100.max_tb_per_sm, A100.regs_per_sm // (128 * 256))

    def test_hard_tb_cap(self):
        assert tb_per_sm(A100, smem_bytes=16, regs_per_thread=1, threads=32) == A100.max_tb_per_sm

    def test_register_overflow_is_compile_error(self):
        with pytest.raises(CompileError, match="register overflow"):
            check_launchable(A100, 0, regs_per_thread=300, threads=128)

    def test_smem_overflow_is_compile_error(self):
        with pytest.raises(CompileError, match="shared memory"):
            check_launchable(A100, A100.max_smem_per_tb + 1, 32, 128)

    def test_too_many_threads(self):
        with pytest.raises(CompileError):
            check_launchable(A100, 0, 32, 4096)

    def test_regfile_exceeded_by_one_block(self):
        with pytest.raises(CompileError, match="register file"):
            check_launchable(A100, 0, 255, 1024)


def _compiled(cfg, m=256, n=256, k=512):
    spec = GemmSpec("t", 1, m, n, k)
    a = placeholder("A", (m, k))
    b = placeholder("B", (n, k))
    c = contraction(a, b, spec)
    return apply_pipelining(lower(auto_schedule(c, cfg))), spec


def _spec_or_error(derive):
    """The derived spec, or the type of the error that rejected it."""
    try:
        return derive()
    except (CompileError, ValueError) as exc:
        return type(exc)


#: Problems whose full spaces the static derivation is checked on against
#: the spec extracted from the compiled IR.
_SAMPLED_SPECS = {
    "1024x1024x1024": GemmSpec("s", 1, 1024, 1024, 1024),
    "12x128x128x64": GemmSpec("s", 12, 128, 128, 64),
    "4x384x64x512": GemmSpec("s", 4, 384, 64, 512),  # tail wave
    "96x96x96": GemmSpec("s", 1, 96, 96, 96),
    "256x256x32": GemmSpec("s", 1, 256, 256, 32),  # K is one tile
    "256x256x256-fp0.3": GemmSpec("s", 1, 256, 256, 256, a_footprint_ratio=0.3),
}


class TestSpecExtraction:
    CFG = TileConfig(64, 64, 32, warp_m=32, warp_n=32, chunk_k=16, smem_stages=3, reg_stages=2)

    def test_matches_static_derivation_pipelined(self):
        kernel, spec = _compiled(self.CFG)
        ext = extract_timing_spec(kernel)
        st = timing_spec_from_config(spec, self.CFG)
        for f in dataclasses.fields(ext):
            if f.name == "name":
                continue
            assert getattr(ext, f.name) == getattr(st, f.name), f.name

    def test_matches_static_derivation_unpipelined(self):
        cfg = TileConfig(64, 64, 32, warp_m=32, warp_n=32, chunk_k=16)
        kernel, spec = _compiled(cfg)
        ext = extract_timing_spec(kernel)
        st = timing_spec_from_config(spec, cfg)
        for f in dataclasses.fields(ext):
            if f.name == "name":
                continue
            assert getattr(ext, f.name) == getattr(st, f.name), f.name

    @pytest.mark.parametrize("gpu", [A100, V100], ids=["A100", "V100"])
    @pytest.mark.parametrize("shape", sorted(_SAMPLED_SPECS))
    def test_matches_static_derivation_sampled_space(self, shape, gpu):
        """The IR is the simulator's ground truth: on every 37th config of
        the full space, the static path rejects exactly the configs the
        compiled path rejects and otherwise derives every field alike."""
        spec = _SAMPLED_SPECS[shape]
        graph = gemm_graph(spec)
        for cfg in enumerate_space(spec, gpu)[::37]:
            ext = _spec_or_error(
                lambda: extract_timing_spec(apply_pipelining(lower(auto_schedule(graph, cfg))))
            )
            st = _spec_or_error(lambda: timing_spec_from_config(spec, cfg))
            if isinstance(ext, type) or isinstance(st, type):
                assert ext == st, cfg
                continue
            for f in dataclasses.fields(ext):
                if f.name != "name":
                    assert getattr(ext, f.name) == getattr(st, f.name), (cfg, f.name)

    def test_grid_and_extents(self):
        kernel, _ = _compiled(self.CFG)
        ts = extract_timing_spec(kernel)
        assert ts.grid == (256 // 64) ** 2
        assert ts.outer_extent == 512 // 32
        assert ts.inner_extent == 32 // 16
        assert ts.smem_stages == 3 and ts.reg_stages == 2

    def test_flops_total(self):
        kernel, spec = _compiled(self.CFG)
        ts = extract_timing_spec(kernel)
        assert ts.total_flops == spec.flops

    def test_smem_bytes_include_stages(self):
        kernel, _ = _compiled(self.CFG)
        ts = extract_timing_spec(kernel)
        assert ts.smem_bytes_per_tb == 3 * (64 + 64) * 32 * 2

    def test_validate_rejects_zero_flops(self):
        kernel, spec = _compiled(self.CFG)
        ts = extract_timing_spec(kernel)
        broken = dataclasses.replace(ts, flops_chunk_tb=0)
        with pytest.raises(ValueError):
            broken.validate()
