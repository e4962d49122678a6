"""Content-addressed, disk-persistent measurement cache.

Every measurement the harness produces is a pure function of its full
identity: the GPU model, the GEMM problem, the schedule configuration, the
measurement mode (``via_ir``) and the compiler itself. This module hashes
that identity into a content address and persists ``address -> latency``
as an append-only JSON-lines file, so sweeps, tuner comparisons and repeat
benchmark runs never redo a compile the repo has already paid for.

Invalidation is automatic: the content address folds in a hash over the
source of every compile-path package (``transform``, ``codegen``,
``schedule``, ``gpusim``, ``perfmodel``, ``tensor``, ``ir`` and the
measurement harness itself), so editing a transform pass orphans old
entries instead of serving stale latencies. See ``docs/tuning_cache.md``
for the key anatomy and the CLI flags that drive this.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import operator
import pathlib
import threading
from typing import Dict, Optional, Union

from .. import faults
from ..core.degrade import DiskDegrade
from ..gpusim.config import GpuSpec
from ..obs import metrics as obs_metrics
from ..schedule.config import TileConfig
from ..tensor.operation import GemmSpec

__all__ = [
    "MeasurementCache",
    "compiler_version_hash",
    "gpu_fingerprint",
    "measurement_key",
]

#: Packages (under ``src/repro``) whose source defines what a measurement
#: means; any edit to them must invalidate persisted latencies.
_VERSION_PACKAGES = (
    "codegen",
    "gpusim",
    "ir",
    "perfmodel",
    "schedule",
    "tensor",
    "transform",
)

_version_hash: Optional[str] = None


def compiler_version_hash() -> str:
    """Hex digest over the compile-path sources (cached per process)."""
    global _version_hash
    if _version_hash is None:
        root = pathlib.Path(__file__).resolve().parent.parent
        h = hashlib.sha256()
        for pkg in _VERSION_PACKAGES:
            for path in sorted((root / pkg).rglob("*.py")):
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
        # The harness itself participates: it defines how specs are built
        # and timed, so a measure.py change also invalidates.
        h.update((root / "tuning" / "measure.py").read_bytes())
        _version_hash = h.hexdigest()[:16]
    return _version_hash


@functools.lru_cache(maxsize=None)
def gpu_fingerprint(gpu: GpuSpec) -> str:
    """Stable digest of every hardware parameter of ``gpu`` (not just its
    name — two presets that differ in any simulated quantity must never
    share cache entries)."""
    payload = json.dumps(dataclasses.asdict(gpu), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


#: ``TileConfig`` field names in the order sorted-key JSON writes them.
_CONFIG_FIELDS = tuple(sorted(f.name for f in dataclasses.fields(TileConfig)))
_config_values = operator.attrgetter(*_CONFIG_FIELDS)
#: A measurement key's payload up to its identity tail: ``"config"`` sorts
#: first among the payload's keys, so the config object opens it.
_CONFIG_HEAD = '{"config": {' + ", ".join(f'"{name}": %s' for name in _CONFIG_FIELDS) + "}, "


def _json_field(value: object) -> str:
    """``json.dumps(value)``, without the encoder call for an int or a bool."""
    if type(value) is int:
        return str(value)
    if type(value) is bool:
        return "true" if value else "false"
    return json.dumps(value)


@functools.lru_cache(maxsize=256)
def _identity_tail(gpu: GpuSpec, spec: GemmSpec, via_ir: bool, version: str) -> str:
    """The rest of a measurement key's sorted JSON payload after its config
    object: every key but ``"config"``, the same for a problem's configs."""
    payload = {
        "gpu": gpu_fingerprint(gpu),
        "spec": dataclasses.asdict(spec),
        "via_ir": via_ir,
        "version": version,
    }
    return json.dumps(payload, sort_keys=True)[1:]


def measurement_key(
    gpu: GpuSpec,
    spec: GemmSpec,
    cfg: TileConfig,
    via_ir: bool,
    version: Optional[str] = None,
) -> str:
    """Content address of one measurement: the full identity, hashed.

    The hashed bytes are ``json.dumps(payload, sort_keys=True)`` of
    ``{"gpu": gpu_fingerprint(gpu), "spec": asdict(spec), "config":
    cfg.as_dict(), "via_ir": bool(via_ir), "version": version}``, built
    from the config's fields and a memoized tail for the rest."""
    head = _CONFIG_HEAD % tuple(map(_json_field, _config_values(cfg)))
    tail = _identity_tail(gpu, spec, bool(via_ir),
                          version if version is not None else compiler_version_hash())
    return hashlib.sha256((head + tail).encode()).hexdigest()


_MISS = object()

_CACHE_HITS = obs_metrics.counter(
    "repro_cache_hits_total", "Measurement-cache lookups served from memory.")
_CACHE_MISSES = obs_metrics.counter(
    "repro_cache_misses_total", "Measurement-cache lookups that missed.")


class MeasurementCache:
    """Append-only JSON-lines store of measured latencies under a directory.

    Entries from other compiler versions are skipped on load (their content
    addresses can never match anyway), so a version bump behaves exactly
    like an empty cache without deleting the history. Failed builds are
    cached as ``"inf"`` — re-running a sweep does not re-discover known
    compile failures.

    Thread safety: lookups, inserts and the underlying file append are
    serialized by an internal lock, so one cache instance may back the
    serve daemon's shared measurer across concurrent request threads.

    Disk failure: an ``OSError`` on any write (ENOSPC, EIO, an unwritable
    directory) degrades the cache to memory-only for the rest of the
    process — one warning, a ``disk_errors`` counter, and the sweep keeps
    running on the in-memory entries instead of crashing the tuner.
    """

    FILENAME = "measurements.jsonl"

    def __init__(
        self, cache_dir: Union[str, pathlib.Path], version: Optional[str] = None
    ) -> None:
        self.dir = pathlib.Path(cache_dir)
        self._degrade = DiskDegrade(
            "measurement cache",
            f"results from this run will not persist to {self.dir}")
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            self._note_disk_error("create cache directory", e)
        self.path = self.dir / self.FILENAME
        self.version = version if version is not None else compiler_version_hash()
        self._entries: Dict[str, float] = {}
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._load()

    @property
    def disk_errors(self) -> int:
        """Disk writes absorbed by degrading to memory-only operation."""
        return self._degrade.disk_errors

    @property
    def degraded(self) -> bool:
        """True once a disk failure switched this cache to memory-only."""
        return self._degrade.degraded

    def _note_disk_error(self, action: str, exc: OSError) -> None:
        """Degrade to memory-only: warn once, count every occurrence."""
        self._degrade.note(action, exc)

    def _load(self) -> None:
        try:
            if not self.path.exists():
                return
            text = self.path.read_text()
        except OSError as e:
            self._note_disk_error("read its store", e)
            return
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn write from a crashed run: skip, don't crash
            if entry.get("version") != self.version or "key" not in entry:
                continue
            latency = entry.get("latency_us")
            self._entries[entry["key"]] = (
                math.inf if latency == "inf" else float(latency)
            )

    def get(self, key: str) -> Optional[float]:
        """Cached latency (``math.inf`` for cached failures) or None."""
        with self._lock:
            hit = self._entries.get(key, _MISS)
            if hit is _MISS:
                self.misses += 1
                _CACHE_MISSES.inc()
                return None
            self.hits += 1
            _CACHE_HITS.inc()
            return hit

    def put(self, key: str, latency_us: float, meta: Optional[dict] = None) -> None:
        """Record one measurement; ``meta`` rides along for humans reading
        the log (the key alone is opaque). The in-memory entry always
        lands, even when the disk append fails (degraded mode)."""
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = latency_us
            if self.degraded:
                return
            entry = dict(meta or {})
            entry.update(
                {
                    "key": key,
                    "version": self.version,
                    "latency_us": "inf" if math.isinf(latency_us) else latency_us,
                }
            )
            try:
                faults.inject("disk", token=f"cache:{key[:16]}", kinds=("crash",))
                with self.path.open("a") as f:
                    f.write(json.dumps(entry, sort_keys=True) + "\n")
            except OSError as e:
                self._note_disk_error("append a measurement", e)

    def __len__(self) -> int:
        return len(self._entries)
