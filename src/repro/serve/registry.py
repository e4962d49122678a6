"""Content-addressed kernel artifact registry.

The registry is the durable half of compile-as-a-service: one
:class:`KernelArtifact` per *solved problem* — transformed IR text,
generated CUDA source, the best :class:`~repro.schedule.config.TileConfig`,
its measured latency and full provenance (GPU fingerprint,
compiler-version hash, tune session id) — keyed by the same content
address anatomy as :mod:`repro.tuning.cache`. Both stores fold
:func:`~repro.tuning.cache.compiler_version_hash` and
:func:`~repro.tuning.cache.gpu_fingerprint` into their keys, so editing a
compile-path package orphans measurements *and* artifacts together: the
daemon can never serve a kernel the current compiler would not produce.

Layout (``docs/serving.md``)::

    <root>/
      artifacts/<key>.json       one artifact per content address
      quarantine/                corrupt/orphaned files, moved not deleted
      index.json                 advisory summary, rewritten by flush()

Durability and corruption: artifacts are published atomically (temp file +
``fsync`` + ``os.replace``), so a reader never observes a half-written
artifact under its final name. A daemon that dies mid-write leaves only a
``*.tmp`` orphan, which the next :class:`ArtifactRegistry` open sweeps
into ``quarantine/``. Unparseable or structurally invalid artifact files
discovered on read are likewise quarantined and reported as misses —
corruption is never fatal and never served. The ``registry`` fault site
(:mod:`repro.faults`) fires between write and publish (token
``put:<key>``) and on reads (token ``get:<key>``) so the chaos suite can
exercise both paths deterministically.

Concurrency: one lock serializes index mutation and publication. Two
threads racing to insert the same key converge to a single artifact —
the second writer adopts the first's published file (first-writer-wins,
matching :class:`~repro.tuning.cache.MeasurementCache`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import threading
import time
from typing import Callable, Dict, List, Optional, Union

from .. import faults
from ..core.degrade import DiskDegrade
from ..core.errors import RegistryError
from ..gpusim.config import GpuSpec
from ..obs import metrics as obs_metrics
from ..schedule.config import TileConfig
from ..tensor.operation import GemmSpec
from ..tuning.cache import compiler_version_hash, gpu_fingerprint

__all__ = ["KernelArtifact", "ArtifactRegistry", "artifact_key"]

_REGISTRY_HITS = obs_metrics.counter(
    "repro_registry_hits_total", "Artifact-registry lookups that hit.")
_REGISTRY_MISSES = obs_metrics.counter(
    "repro_registry_misses_total", "Artifact-registry lookups that missed.")

#: Bumped when the on-disk artifact schema changes shape.
SCHEMA_VERSION = 1

ARTIFACT_DIR = "artifacts"
QUARANTINE_DIR = "quarantine"
INDEX_FILE = "index.json"


#: Serializes the first :meth:`KernelArtifact.encoded` of each name, so
#: concurrent warm hits build one encoding, not one each.
_ENCODE_LOCK = threading.Lock()


def artifact_key(
    gpu: GpuSpec,
    spec: GemmSpec,
    variant: str,
    via_ir: bool,
    space_max: Optional[int],
    version: Optional[str] = None,
) -> str:
    """Content address of one solved problem.

    Same anatomy as :func:`repro.tuning.cache.measurement_key` — GPU
    fingerprint, problem identity, measurement mode, compiler-version
    hash (``version``, by default the live compiler's) — plus the search
    inputs that determine *which* config wins (variant restriction and the
    design-space cap). Identical inputs on an identical compiler always
    map to the same artifact; any drift in either orphans the entry. The
    serve daemon remembers the key of the request params it has answered,
    so a warm request does not hash again.
    """
    payload = {
        "gpu": gpu_fingerprint(gpu),
        "spec": dataclasses.asdict(spec),
        "variant": variant,
        "via_ir": bool(via_ir),
        "space": space_max,
        "version": version if version is not None else compiler_version_hash(),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@dataclasses.dataclass(frozen=True)
class KernelArtifact:
    """One fully solved problem: the kernel, its schedule, and where it
    came from."""

    key: str
    spec: Dict[str, object]
    config: Dict[str, object]
    latency_us: float
    ir_text: str
    cuda_source: str
    #: gpu name+fingerprint, compiler-version hash, tune session id,
    #: created-at unix seconds, search inputs (variant, space cap, via_ir).
    provenance: Dict[str, object]

    def __post_init__(self) -> None:
        # Encodings built from this artifact (:meth:`encoded`). Not a
        # field: never stored, compared or printed, and freed with it.
        object.__setattr__(self, "_encoded", {})

    def encoded(self, name: str, build: Callable[[], bytes]) -> bytes:
        """``build()``, run at most once per artifact and ``name``. The
        serve daemon keeps a registry hit's encoded reply here, one per
        op, so a warm reply does not encode the artifact again."""
        out = self._encoded.get(name)
        if out is None:
            with _ENCODE_LOCK:
                out = self._encoded.get(name)
                if out is None:
                    out = self._encoded[name] = build()
        return out

    def tile_config(self) -> TileConfig:
        return TileConfig(**self.config)

    def gemm_spec(self) -> GemmSpec:
        return GemmSpec(**self.spec)

    def to_payload(self) -> Dict[str, object]:
        out = dataclasses.asdict(self)
        out["schema"] = SCHEMA_VERSION
        return out

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "KernelArtifact":
        """Parse a stored artifact; raises ``ValueError``/``KeyError``/
        ``TypeError`` on anything structurally off (the registry turns
        those into quarantine, not crashes)."""
        if payload.get("schema") != SCHEMA_VERSION:
            raise ValueError(f"unsupported artifact schema {payload.get('schema')!r}")
        art = cls(
            key=str(payload["key"]),
            spec=dict(payload["spec"]),
            config=dict(payload["config"]),
            latency_us=float(payload["latency_us"]),
            ir_text=str(payload["ir_text"]),
            cuda_source=str(payload["cuda_source"]),
            provenance=dict(payload["provenance"]),
        )
        # Round-trip the structured fields now, so a corrupt config is
        # caught at load time rather than at dispatch time.
        art.tile_config()
        art.gemm_spec()
        return art


class ArtifactRegistry:
    """Disk-backed (or in-memory) store of :class:`KernelArtifact`\\ s.

    Parameters
    ----------
    root:
        Registry directory. ``None`` keeps everything in memory — the
        daemon still deduplicates and serves warm requests, it just
        forgets on restart.
    version:
        Compiler-version hash recorded in new artifacts' provenance
        (defaults to the live :func:`compiler_version_hash`).
    """

    def __init__(
        self, root: Union[str, pathlib.Path, None] = None, version: Optional[str] = None
    ) -> None:
        self.root = pathlib.Path(root) if root is not None else None
        self.version = version if version is not None else compiler_version_hash()
        self._lock = threading.RLock()
        self._memory: Dict[str, KernelArtifact] = {}
        self.hits = 0
        self.misses = 0
        self.n_quarantined = 0
        self.n_put = 0
        self._degrade = DiskDegrade(
            f"artifact registry at {self.root}",
            "artifacts from this run will not persist across restarts")
        if self.root is not None:
            try:
                (self.root / ARTIFACT_DIR).mkdir(parents=True, exist_ok=True)
                (self.root / QUARANTINE_DIR).mkdir(parents=True, exist_ok=True)
            except OSError as e:
                raise RegistryError(
                    f"cannot create registry directories under {self.root}: {e}"
                ) from e
            self._sweep_orphans()

    # ------------------------------------------------------------- internals
    def _artifact_path(self, key: str) -> pathlib.Path:
        return self.root / ARTIFACT_DIR / f"{key}.json"

    def _quarantine(self, path: pathlib.Path, reason: str) -> None:
        """Move a sick file aside (never delete: it is forensic evidence).
        Filename collisions in quarantine get a counter suffix."""
        qdir = self.root / QUARANTINE_DIR
        target = qdir / path.name
        n = 0
        while target.exists():
            n += 1
            target = qdir / f"{path.name}.{n}"
        try:
            os.replace(path, target)
        except OSError:
            return  # racing quarantiner already moved it
        self.n_quarantined += 1

    def _sweep_orphans(self) -> None:
        """Quarantine ``*.tmp`` files left by a writer that died between
        write and publish (the ``registry`` fault site's crash point)."""
        for tmp in (self.root / ARTIFACT_DIR).glob("*.tmp"):
            self._quarantine(tmp, "orphaned temp file")

    def _load(self, key: str) -> Optional[KernelArtifact]:
        path = self._artifact_path(key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        except OSError:
            self._quarantine(path, "unreadable")
            return None
        try:
            art = KernelArtifact.from_payload(json.loads(text))
            if art.key != key:
                raise ValueError(f"artifact self-identifies as {art.key[:12]}…")
        except (ValueError, KeyError, TypeError):
            # Truncated write, garbage bytes, schema drift, or a file
            # renamed onto the wrong key: quarantine and miss.
            self._quarantine(path, "corrupt artifact")
            return None
        return art

    @property
    def disk_errors(self) -> int:
        """Publishes/flushes absorbed by degrading to memory-only operation."""
        return self._degrade.disk_errors

    @property
    def degraded(self) -> bool:
        """True once a disk failure switched publishing to memory-only."""
        return self._degrade.degraded

    def _note_disk_error(self, action: str, exc: OSError) -> None:
        """Degrade to memory-only publishing: warn once, count always. The
        artifact still serves from memory for this daemon's lifetime — it
        just will not survive a restart."""
        self._degrade.note(action, exc)

    # ------------------------------------------------------------------ api
    def get(self, key: str) -> Optional[KernelArtifact]:
        """The artifact at ``key``, or None. Corrupt entries quarantine."""
        faults.inject("registry", token=f"get:{key}")
        with self._lock:
            art = self._memory.get(key)
            if art is None and self.root is not None:
                art = self._load(key)
                if art is not None:
                    self._memory[key] = art
            if art is None:
                self.misses += 1
                _REGISTRY_MISSES.inc()
            else:
                self.hits += 1
                _REGISTRY_HITS.inc()
            return art

    def put(self, artifact: KernelArtifact) -> KernelArtifact:
        """Publish ``artifact``; returns the canonical stored artifact.

        First writer wins: when the key is already present (another thread
        or an earlier daemon got there first), the existing artifact is
        returned and the new one is dropped — both callers converge on one
        stored kernel.
        """
        with self._lock:
            existing = self._memory.get(artifact.key)
            if existing is None and self.root is not None:
                existing = self._load(artifact.key)
            if existing is not None:
                self._memory[artifact.key] = existing
                return existing
            if self.root is not None and not self.degraded:
                path = self._artifact_path(artifact.key)
                tmp = path.with_name(path.name + ".tmp")
                try:
                    faults.inject("disk", token=f"registry:{artifact.key[:16]}",
                                  kinds=("crash",))
                    with tmp.open("w") as f:
                        f.write(json.dumps(artifact.to_payload(), sort_keys=True))
                        f.flush()
                        os.fsync(f.fileno())
                    # A crash here (the fault site) leaves only the tmp
                    # orphan; the published name never holds partial bytes.
                    faults.inject("registry", token=f"put:{artifact.key}")
                    os.replace(tmp, path)
                except OSError as e:
                    # ENOSPC/EIO mid-publish: keep the artifact in memory
                    # and degrade, never crash the request that built it.
                    try:
                        tmp.unlink(missing_ok=True)
                    except OSError:
                        pass
                    self._note_disk_error("publish an artifact", e)
            self._memory[artifact.key] = artifact
            self.n_put += 1
            return artifact

    def keys(self) -> List[str]:
        """Every published key (disk scan + memory), sorted."""
        with self._lock:
            found = set(self._memory)
            if self.root is not None:
                found.update(
                    p.stem for p in (self.root / ARTIFACT_DIR).glob("*.json")
                )
            return sorted(found)

    def __len__(self) -> int:
        return len(self.keys())

    def stats(self) -> Dict[str, object]:
        with self._lock:
            memo = [len(b) for art in self._memory.values()
                    for b in list(art._encoded.values())]
            return {
                "size": len(self.keys()),
                "hits": self.hits,
                "misses": self.misses,
                "inserted": self.n_put,
                "quarantined": self.n_quarantined,
                "disk_errors": self.disk_errors,
                "memo_replies": len(memo),
                "memo_bytes": sum(memo),
                "dir": str(self.root) if self.root is not None else None,
                "version": self.version,
            }

    def flush(self) -> None:
        """Durably rewrite the advisory index (size, keys, counters).

        Artifacts themselves are already durable at :meth:`put` time; the
        index exists so humans and monitoring can read the registry state
        without scanning, and graceful daemon shutdown calls this last.
        """
        if self.root is None or self.degraded:
            return
        with self._lock:
            payload = dict(self.stats())
            payload["keys"] = self.keys()
            payload["flushed_at"] = time.time()
            tmp = self.root / (INDEX_FILE + ".tmp")
            try:
                with tmp.open("w") as f:
                    f.write(json.dumps(payload, indent=1, sort_keys=True))
                    f.flush()
                    os.fsync(f.fileno())
                os.replace(tmp, self.root / INDEX_FILE)
            except OSError as e:
                self._note_disk_error("rewrite its index", e)
