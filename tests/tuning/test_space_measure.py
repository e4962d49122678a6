"""Tests for design-space enumeration, measurement harness and records."""

import math

import pytest

from repro.schedule import TileConfig
from repro.tensor import GemmSpec
from repro.tuning import (
    FAILED,
    Measurer,
    SpaceOptions,
    TuneHistory,
    best_in_top_k,
    enumerate_space,
    restrict_space,
)


SPEC = GemmSpec("mm", 1, 512, 512, 512)


class TestSpace:
    def test_all_configs_tile_problem(self):
        for cfg in enumerate_space(SPEC):
            assert SPEC.m % cfg.block_m == 0
            assert SPEC.n % cfg.block_n == 0
            assert SPEC.k % cfg.block_k == 0

    def test_deterministic_order(self):
        assert [c.key() for c in enumerate_space(SPEC)] == [
            c.key() for c in enumerate_space(SPEC)
        ]

    def test_contains_unpipelined_and_pipelined(self):
        stages = {(c.smem_stages, c.reg_stages) for c in enumerate_space(SPEC)}
        assert (1, 1) in stages and (4, 2) in stages

    def test_launchable_only_filter(self):
        full = enumerate_space(SPEC)
        filtered = enumerate_space(SPEC, options=SpaceOptions(launchable_only=True))
        assert 0 < len(filtered) < len(full)

    def test_max_size_subsampling(self):
        capped = enumerate_space(SPEC, options=SpaceOptions(max_size=100))
        assert len(capped) <= 100
        # still spans pipelining variants
        assert len({c.smem_stages for c in capped}) > 1

    def test_warp_limits(self):
        warps = {cfg.warps_per_block for cfg in enumerate_space(SPEC)}
        assert max(warps) == 8

    def test_empty_space_raises(self):
        with pytest.raises(ValueError, match="empty"):
            enumerate_space(GemmSpec("bad", 1, 7, 7, 7))

    def test_variant_subspaces(self):
        space = enumerate_space(SPEC)
        tvm = restrict_space(space, "tvm")
        assert all(c.smem_stages == 1 and c.reg_stages == 1 for c in tvm)
        db = restrict_space(space, "tvm-db")
        assert all(c.smem_stages <= 2 and c.reg_stages == 1 for c in db)
        no_ml = restrict_space(space, "alcop-no-ml")
        assert all(c.reg_stages == 1 for c in no_ml)
        assert any(c.smem_stages == 4 for c in no_ml)
        assert restrict_space(space, "alcop") == space

    def test_subspace_nesting(self):
        space = enumerate_space(SPEC)
        tvm = {c.key() for c in restrict_space(space, "tvm")}
        db = {c.key() for c in restrict_space(space, "tvm-db")}
        no_ml = {c.key() for c in restrict_space(space, "alcop-no-ml")}
        assert tvm < db < no_ml

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            restrict_space(enumerate_space(SPEC), "cutlass")


class TestMeasurer:
    def test_caching(self):
        m = Measurer(via_ir=False)
        cfg = TileConfig(64, 64, 32, warp_m=32, warp_n=32, chunk_k=16)
        a = m.measure(SPEC, cfg)
        n = m.n_compiled
        b = m.measure(SPEC, cfg)
        assert a == b and m.n_compiled == n

    def test_failed_config_returns_inf(self):
        m = Measurer(via_ir=False)
        bad = TileConfig(256, 256, 64, warp_m=64, warp_n=64, chunk_k=16, smem_stages=4)
        assert math.isinf(m.measure(GemmSpec("big", 1, 512, 512, 512), bad))

    def test_via_ir_and_static_agree(self):
        cfg = TileConfig(64, 64, 32, warp_m=32, warp_n=32, chunk_k=16, smem_stages=3, reg_stages=2)
        ir_lat = Measurer(via_ir=True).measure(SPEC, cfg)
        st_lat = Measurer(via_ir=False).measure(SPEC, cfg)
        assert ir_lat == pytest.approx(st_lat)

    def test_best_skips_failures(self):
        m = Measurer(via_ir=False)
        space = enumerate_space(SPEC, options=SpaceOptions(max_size=60))
        cfg, lat = m.best(SPEC, space)
        assert math.isfinite(lat)


class TestRecords:
    def test_best_curve(self):
        h = TuneHistory()
        cfg = TileConfig(64, 64, 32, warp_m=32, warp_n=32, chunk_k=16)
        for lat in (100.0, 50.0, FAILED, 80.0):
            h.append(cfg, lat)
        assert h.best_latency_at(1) == 100.0
        assert h.best_latency_at(2) == 50.0
        assert h.best_latency_at(4) == 50.0
        assert h.normalized_curve([1, 2], exhaustive_best_us=50.0) == [0.5, 1.0]

    def test_all_failed_curve_is_zero(self):
        h = TuneHistory()
        cfg = TileConfig(64, 64, 32, warp_m=32, warp_n=32, chunk_k=16)
        h.append(cfg, FAILED)
        assert h.normalized_curve([1], 10.0) == [0.0]
        assert h.best_config_at(1) is None

    def test_best_in_top_k(self):
        assert best_in_top_k([100.0, 50.0, 25.0], 2, 25.0) == 0.5
        assert best_in_top_k([100.0, 50.0, 25.0], 3, 25.0) == 1.0
        assert best_in_top_k([FAILED, FAILED], 2, 25.0) == 0.0

    def test_zero_latency_does_not_divide_by_zero(self):
        """A zero/denormal simulated latency must clamp, not raise or inf."""
        h = TuneHistory()
        cfg = TileConfig(64, 64, 32, warp_m=32, warp_n=32, chunk_k=16)
        h.append(cfg, 0.0)
        (ratio,) = h.normalized_curve([1], exhaustive_best_us=10.0)
        assert math.isfinite(ratio)
        assert math.isfinite(best_in_top_k([0.0, 5e-324], 2, 10.0))

    def test_infinite_exhaustive_best_yields_zero(self):
        h = TuneHistory()
        cfg = TileConfig(64, 64, 32, warp_m=32, warp_n=32, chunk_k=16)
        h.append(cfg, 50.0)
        assert h.normalized_curve([1], exhaustive_best_us=math.inf) == [0.0]
        assert best_in_top_k([50.0], 1, math.inf) == 0.0

    def test_save_load_round_trip_with_failures(self, tmp_path):
        from repro.tuning.record import load_history, save_history

        h = TuneHistory()
        cfg = TileConfig(64, 64, 32, warp_m=32, warp_n=32, chunk_k=16)
        for lat in (120.0, FAILED, 80.5, FAILED):
            h.append(cfg, lat)
        path = tmp_path / "log.json"
        save_history(h, path)
        back = load_history(path)
        assert [r.latency_us for r in back.records] == [120.0, FAILED, 80.5, FAILED]
        assert [r.failed for r in back.records] == [False, True, False, True]
        assert [r.trial for r in back.records] == [0, 1, 2, 3]
        assert [r.config for r in back.records] == [r.config for r in h.records]
