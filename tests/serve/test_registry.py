"""The content-addressed kernel artifact registry: durability, corruption
quarantine, concurrency convergence, and key invalidation anatomy."""

import dataclasses
import json
import threading

import pytest

from repro import faults
from repro.core.errors import FaultInjected
from repro.gpusim.config import A100, V100
from repro.schedule.config import TileConfig
from repro.serve.registry import (
    ARTIFACT_DIR,
    QUARANTINE_DIR,
    ArtifactRegistry,
    KernelArtifact,
    artifact_key,
)
from repro.tensor.operation import GemmSpec


def _spec(m=128, n=128, k=128, batch=1):
    return GemmSpec("t", batch=batch, m=m, n=n, k=k, dtype="float16")


def _config():
    return TileConfig(
        block_m=64, block_n=64, block_k=32,
        warp_m=32, warp_n=32, chunk_k=16,
        smem_stages=2, reg_stages=2,
    )


def _artifact(key="k" * 64, latency=12.5):
    return KernelArtifact(
        key=key,
        spec=dataclasses.asdict(_spec()),
        config=_config().as_dict(),
        latency_us=latency,
        ir_text="kernel {}",
        cuda_source="__global__ void k() {}",
        provenance={"gpu": "A100", "session": "s1"},
    )


class TestArtifactKey:
    def test_deterministic(self):
        a = artifact_key(A100, _spec(), "alcop", False, 600, version="v1")
        b = artifact_key(A100, _spec(), "alcop", False, 600, version="v1")
        assert a == b and len(a) == 64

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gpu": V100},
            {"spec": _spec(m=256)},
            {"variant": "tvm-db"},
            {"via_ir": True},
            {"space_max": 400},
            {"version": "v2"},
        ],
    )
    def test_every_input_invalidates(self, kwargs):
        base = dict(gpu=A100, spec=_spec(), variant="alcop", via_ir=False,
                    space_max=600, version="v1")
        assert artifact_key(**base) != artifact_key(**{**base, **kwargs})

    def test_a_dense_gemm_key_is_pinned(self):
        """A request's footprint ratios default to 1.0, the value
        ``artifact_key`` has always hashed for a dense GEMM, so no
        dense-GEMM key moves when the wire carries them."""
        spec = GemmSpec("MM_BERT_FC1", 1, 512, 3072, 768)
        assert artifact_key(A100, spec, "alcop", False, 600, version="v1") == (
            "acfdd2803695b6282d545af5ec06773f321635b2683c19668c938ac01fffb75e")

    def test_shares_compiler_version_with_measurement_cache(self):
        """Default version is the live compiler hash — the same input the
        measurement cache keys on, so both invalidate together."""
        from repro.tuning.cache import compiler_version_hash

        assert artifact_key(A100, _spec(), "alcop", False, 600) == artifact_key(
            A100, _spec(), "alcop", False, 600, version=compiler_version_hash()
        )


class TestArtifactRoundtrip:
    def test_payload_roundtrip(self):
        art = _artifact()
        back = KernelArtifact.from_payload(json.loads(json.dumps(art.to_payload())))
        assert back == art
        assert back.tile_config() == _config()
        assert back.gemm_spec() == _spec()

    def test_bad_schema_rejected(self):
        payload = _artifact().to_payload()
        payload["schema"] = 999
        with pytest.raises(ValueError):
            KernelArtifact.from_payload(payload)

    def test_persists_across_reopen(self, tmp_path):
        reg = ArtifactRegistry(tmp_path)
        reg.put(_artifact())
        reopened = ArtifactRegistry(tmp_path)
        got = reopened.get("k" * 64)
        assert got is not None and got.latency_us == 12.5

    def test_in_memory_mode(self):
        reg = ArtifactRegistry()
        assert reg.get("k" * 64) is None
        reg.put(_artifact())
        assert reg.get("k" * 64) is not None
        assert reg.stats()["dir"] is None
        reg.flush()  # no-op, must not raise

    def test_flush_writes_index(self, tmp_path):
        reg = ArtifactRegistry(tmp_path)
        reg.put(_artifact())
        reg.flush()
        index = json.loads((tmp_path / "index.json").read_text())
        assert index["keys"] == ["k" * 64]
        assert index["size"] == 1 and index["inserted"] == 1


class TestCorruption:
    """Truncated/garbage artifact files must quarantine, never crash."""

    @pytest.mark.parametrize(
        "sick_bytes",
        [
            b"{ not json at all",
            b"",
            json.dumps({"schema": 1, "key": "k" * 64}).encode(),  # fields missing
            json.dumps(_artifact().to_payload()).encode()[:100],  # truncated
        ],
    )
    def test_sick_file_is_quarantined_miss(self, tmp_path, sick_bytes):
        reg = ArtifactRegistry(tmp_path)
        path = tmp_path / ARTIFACT_DIR / ("k" * 64 + ".json")
        path.write_bytes(sick_bytes)
        assert reg.get("k" * 64) is None
        assert not path.exists()
        assert len(list((tmp_path / QUARANTINE_DIR).iterdir())) == 1
        assert reg.stats()["quarantined"] == 1

    def test_key_mismatch_is_quarantined(self, tmp_path):
        """A valid artifact renamed onto the wrong content address must not
        be served under that address."""
        reg = ArtifactRegistry(tmp_path)
        wrong = "f" * 64
        (tmp_path / ARTIFACT_DIR / f"{wrong}.json").write_text(
            json.dumps(_artifact().to_payload())
        )
        assert reg.get(wrong) is None
        assert len(list((tmp_path / QUARANTINE_DIR).iterdir())) == 1

    def test_orphan_tmp_swept_on_open(self, tmp_path):
        ArtifactRegistry(tmp_path)  # creates layout
        orphan = tmp_path / ARTIFACT_DIR / ("k" * 64 + ".json.tmp")
        orphan.write_text("half-written")
        reg = ArtifactRegistry(tmp_path)
        assert not orphan.exists()
        assert reg.stats()["quarantined"] == 1
        assert reg.get("k" * 64) is None  # never served

    def test_quarantine_names_never_collide(self, tmp_path):
        reg = ArtifactRegistry(tmp_path)
        path = tmp_path / ARTIFACT_DIR / ("k" * 64 + ".json")
        for _ in range(3):
            path.write_text("garbage")
            assert reg.get("k" * 64) is None
        assert len(list((tmp_path / QUARANTINE_DIR).iterdir())) == 3


class TestConcurrency:
    def test_same_key_put_converges_to_one_artifact(self, tmp_path):
        reg = ArtifactRegistry(tmp_path)
        results = []
        barrier = threading.Barrier(8)

        def writer(i):
            barrier.wait()
            results.append(reg.put(_artifact(latency=float(i))))

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Everyone holds the same canonical artifact; exactly one insert.
        assert len({id(a) for a in results}) == 1
        assert reg.stats()["inserted"] == 1
        assert len(list((tmp_path / ARTIFACT_DIR).glob("*.json"))) == 1

    def test_concurrent_get_put(self, tmp_path):
        reg = ArtifactRegistry(tmp_path)
        stop = threading.Event()
        seen = []

        def reader():
            while not stop.is_set():
                art = reg.get("k" * 64)
                if art is not None:
                    seen.append(art.latency_us)

        t = threading.Thread(target=reader)
        t.start()
        try:
            for _ in range(20):
                reg.put(_artifact())
        finally:
            stop.set()
            t.join()
        assert all(v == 12.5 for v in seen)


class TestRegistryFaultSite:
    def test_crash_between_write_and_publish(self, tmp_path):
        """The 'registry' fault site models a daemon dying mid-put: the
        orphan tmp is quarantined by the next open and the key was never
        published."""
        reg = ArtifactRegistry(tmp_path)
        plan = faults.FaultPlan([faults.FaultRule("registry", "crash", match="put:")])
        with faults.injected(plan):
            with pytest.raises(FaultInjected):
                reg.put(_artifact())
        # Published name never appeared; only the tmp orphan exists.
        assert list((tmp_path / ARTIFACT_DIR).glob("*.json")) == []
        assert len(list((tmp_path / ARTIFACT_DIR).glob("*.tmp"))) == 1
        reopened = ArtifactRegistry(tmp_path)
        assert reopened.get("k" * 64) is None
        assert list((tmp_path / ARTIFACT_DIR).iterdir()) == []
        assert reopened.stats()["quarantined"] == 1

    def test_get_site_fires(self, tmp_path):
        reg = ArtifactRegistry(tmp_path)
        reg.put(_artifact())
        plan = faults.FaultPlan([faults.FaultRule("registry", "crash", match="get:")])
        with faults.injected(plan):
            with pytest.raises(FaultInjected):
                reg.get("k" * 64)
        assert reg.get("k" * 64) is not None  # healthy once the plan lifts

    def test_registry_is_a_declared_site(self):
        assert "registry" in faults.SITES
