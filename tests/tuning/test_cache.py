"""Tests for the disk-persistent measurement cache, the full-identity
cache keys, and parallel batch measurement."""

import json
import math

import pytest

from repro.gpusim.config import A100, V100
from repro.schedule import TileConfig
from repro.tensor import GemmSpec
from repro.tuning import (
    Measurer,
    MeasurementCache,
    SpaceOptions,
    compiler_version_hash,
    enumerate_space,
    gpu_fingerprint,
    measurement_key,
)

SPEC = GemmSpec("mm", 1, 256, 256, 256)
CFG = TileConfig(64, 64, 32, warp_m=32, warp_n=32, chunk_k=16)
SPACE = enumerate_space(SPEC, options=SpaceOptions(max_size=30))


class TestKeys:
    def test_version_hash_stable_within_process(self):
        assert compiler_version_hash() == compiler_version_hash()
        assert len(compiler_version_hash()) == 16

    def test_gpu_fingerprint_distinguishes_generations(self):
        assert gpu_fingerprint(A100) != gpu_fingerprint(V100)

    def test_key_covers_full_measurement_identity(self):
        base = measurement_key(A100, SPEC, CFG, via_ir=False)
        assert measurement_key(V100, SPEC, CFG, via_ir=False) != base
        assert measurement_key(A100, SPEC, CFG, via_ir=True) != base
        assert measurement_key(A100, SPEC, CFG, via_ir=False, version="other") != base
        other_spec = GemmSpec("mm", 1, 256, 256, 512)
        assert measurement_key(A100, other_spec, CFG, via_ir=False) != base
        other_cfg = CFG.with_stages(3, 2)
        assert measurement_key(A100, SPEC, other_cfg, via_ir=False) != base
        assert measurement_key(A100, SPEC, CFG, via_ir=False) == base


class TestMemoryKeyRegression:
    """The in-memory key must fold in the GPU spec and the via_ir mode —
    a measurer retargeted across generations or modes must re-measure."""

    def test_gpu_generations_not_conflated(self):
        m = Measurer(A100, via_ir=False)
        a100_lat = m.measure(SPEC, CFG)
        m.gpu = V100
        v100_lat = m.measure(SPEC, CFG)
        assert m.n_compiled == 2, "V100 must not be served the A100 latency"
        assert a100_lat != v100_lat
        # and flipping back hits the A100 entry, not the V100 one
        m.gpu = A100
        assert m.measure(SPEC, CFG) == a100_lat and m.n_compiled == 2

    def test_via_ir_mode_not_conflated(self):
        m = Measurer(A100, via_ir=False)
        static_lat = m.measure(SPEC, CFG)
        m.via_ir = True
        ir_lat = m.measure(SPEC, CFG)
        assert m.n_compiled == 2, "mode flip must recompile, not reuse"
        assert ir_lat == pytest.approx(static_lat)  # the proven-equal paths


class TestDiskCache:
    def test_round_trip_identical_latencies(self, tmp_path):
        cold = Measurer(via_ir=False, cache=MeasurementCache(tmp_path))
        first = cold.sweep(SPEC, SPACE)
        assert cold.n_compiled == len(SPACE)
        warm = Measurer(via_ir=False, cache=MeasurementCache(tmp_path))
        second = warm.sweep(SPEC, SPACE)
        assert second == first
        assert warm.n_compiled == 0
        assert warm.n_disk_hits == len(SPACE)

    def test_warm_run_at_least_5x_fewer_compiles(self, tmp_path):
        cold = Measurer(via_ir=False, cache=MeasurementCache(tmp_path))
        cold.sweep(SPEC, SPACE)
        warm = Measurer(via_ir=False, cache=MeasurementCache(tmp_path))
        warm.sweep(SPEC, SPACE)
        assert cold.n_compiled >= 5
        assert warm.n_compiled * 5 <= cold.n_compiled

    def test_failed_builds_are_cached(self, tmp_path):
        bad = TileConfig(256, 256, 64, warp_m=64, warp_n=64, chunk_k=16, smem_stages=4)
        spec = GemmSpec("big", 1, 512, 512, 512)
        cold = Measurer(via_ir=False, cache=MeasurementCache(tmp_path))
        assert math.isinf(cold.measure(spec, bad))
        warm = Measurer(via_ir=False, cache=MeasurementCache(tmp_path))
        assert math.isinf(warm.measure(spec, bad))
        assert warm.n_compiled == 0, "known compile failures must not recompile"

    def test_invalidation_on_version_bump(self, tmp_path):
        v1 = Measurer(via_ir=False, cache=MeasurementCache(tmp_path, version="v1"))
        lat = v1.measure(SPEC, CFG)
        v2 = Measurer(via_ir=False, cache=MeasurementCache(tmp_path, version="v2"))
        assert v2.measure(SPEC, CFG) == lat
        assert v2.n_compiled == 1, "a compiler change must orphan old entries"
        # returning to v1 still finds the original entries
        back = Measurer(via_ir=False, cache=MeasurementCache(tmp_path, version="v1"))
        assert back.measure(SPEC, CFG) == lat and back.n_compiled == 0

    def test_shared_dir_keeps_gpus_apart(self, tmp_path):
        a = Measurer(A100, via_ir=False, cache=MeasurementCache(tmp_path))
        v = Measurer(V100, via_ir=False, cache=MeasurementCache(tmp_path))
        assert a.measure(SPEC, CFG) != v.measure(SPEC, CFG)
        assert v.n_disk_hits == 0

    def test_corrupt_and_foreign_lines_skipped(self, tmp_path):
        cache = MeasurementCache(tmp_path, version="v1")
        cache.put("k1", 42.0)
        with cache.path.open("a") as f:
            f.write("{torn json\n")
            f.write(json.dumps({"key": "k2", "version": "other", "latency_us": 1.0}) + "\n")
        reloaded = MeasurementCache(tmp_path, version="v1")
        assert reloaded.get("k1") == 42.0
        assert reloaded.get("k2") is None

    def test_entries_carry_human_readable_meta(self, tmp_path):
        m = Measurer(via_ir=False, cache=MeasurementCache(tmp_path))
        m.measure(SPEC, CFG)
        entry = json.loads(m.cache.path.read_text().splitlines()[0])
        assert entry["gpu"] == A100.name
        assert entry["dims"] == [1, 256, 256, 256]


class TestParallel:
    def test_parallel_sweep_identical_to_serial(self):
        serial = Measurer(via_ir=False).sweep(SPEC, SPACE)
        parallel = Measurer(via_ir=False, jobs=4).sweep(SPEC, SPACE)
        assert parallel == serial  # bitwise: same floats, same order

    def test_duplicates_in_batch_compile_once(self):
        m = Measurer(via_ir=False, jobs=2)
        out = m.measure_many(SPEC, [CFG, CFG, CFG.with_stages(2, 1), CFG])
        assert m.n_compiled == 2
        assert out[0] == out[1] == out[3]

    def test_parallel_populates_disk_cache(self, tmp_path):
        cold = Measurer(via_ir=False, cache=MeasurementCache(tmp_path), jobs=4)
        first = cold.sweep(SPEC, SPACE)
        warm = Measurer(via_ir=False, cache=MeasurementCache(tmp_path))
        assert warm.sweep(SPEC, SPACE) == first
        assert warm.n_compiled == 0

    def test_parallel_failed_configs_still_inf(self):
        bad = TileConfig(256, 256, 64, warp_m=64, warp_n=64, chunk_k=16, smem_stages=4)
        spec = GemmSpec("big", 1, 512, 512, 512)
        out = Measurer(via_ir=False, jobs=2).measure_many(spec, [bad, CFG])
        assert math.isinf(out[0]) and math.isfinite(out[1])


class TestTelemetry:
    def test_counters_partition_the_measurements(self, tmp_path):
        m = Measurer(via_ir=False, cache=MeasurementCache(tmp_path))
        m.sweep(SPEC, SPACE)
        m.sweep(SPEC, SPACE)  # second sweep: all memory hits
        warm = Measurer(via_ir=False, cache=MeasurementCache(tmp_path))
        warm.sweep(SPEC, SPACE)
        tel = m.telemetry
        assert (tel.n_compiled, tel.memory_hits, tel.disk_hits) == (
            len(SPACE), len(SPACE), 0)
        assert tel.n_measured == 2 * len(SPACE)
        wtel = warm.telemetry
        assert (wtel.n_compiled, wtel.disk_hits) == (0, len(SPACE))
        assert "compiled" in tel.summary() and "disk-cache hits" in wtel.summary()
