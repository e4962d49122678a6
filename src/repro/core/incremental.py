"""Incremental sweep compilation: one checked pair of builds per tile group.

One sweep of the design space compiles thousands of configs, but the
space has structure (:mod:`repro.tuning.space` enumerates the pipelining
knobs ``smem_stages``/``reg_stages`` as the *innermost* loops): the up to
eight configs that share the tile and warp knobs — one *tile group*,
keyed by :func:`schedule_key` — differ only in how many pipeline stages
the transform realizes. The sweep needs only their timing specs, and
:func:`~repro.perfmodel.static_spec.timing_spec_from_config` derives
those from the knobs alone (paper Sec. IV). The engine answers a tile
group's configs from that static derivation, after checking it against
the compiler once per group:

* **Check** — on the group's first trial the engine fresh-builds its two
  stage extremes, ``(2, 2)`` and ``(1, 1)``, through the whole compiler
  (:func:`fresh_timing_spec`: schedule, lower, pipelining transform,
  extraction from the transformed IR) and compares each extracted spec
  with the static one, kernel name aside. The extremes cover both the
  pipelined and the un-pipelined code path of the tile at every level.
* **Pass** — every config of the group is answered by
  :func:`timing_spec_from_config`, carrying the built kernel's name.
* **Fail** — a group whose check differs, or whose build raises, is
  declined for good: the engine returns ``None`` for each of its configs
  and the caller compiles them fresh, so the fast path can never change a
  reported spec.

A check costs two fresh builds. ``tests`` assert that the specs the
engine serves equal fresh builds, field for field and in simulated
latency, over full enumerated spaces.

Reuse policy: a check costs one fresh build more than compiling its
config alone, so checking a tile key that never recurs is pure overhead.
The engine therefore checks a key only when it is *promised*
(:meth:`IncrementalEngine.note_batch` saw >= 2 configs share it in one
batch) or *recurring* (second sighting across calls — a tuner's later
batch, or one-config ``measure()`` calls, revisiting the tile); anything
else reports ``None`` and the caller compiles fresh. Verdicts live in a
bounded LRU; evictions and sizes are exported as :mod:`repro.obs` metrics
alongside the ``repro_lower_cache_hits_total`` /
``repro_transform_runs_total`` reuse counters.

Thread safety: the maps and counters are lock-guarded (the serve daemon
shares one measurer — hence one engine — across request threads); checks
run outside the lock and insert their verdict once. A trial whose
compile faults before reaching the engine records no verdict, so a
faulted trial cannot poison the cache for its neighbors.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..codegen.lower import lower
from ..gpusim.spec import KernelTimingSpec, extract_timing_spec
from ..ir.stmt import Kernel
from ..obs import metrics as _metrics
from ..perfmodel.static_spec import timing_spec_from_config
from ..schedule.auto import auto_schedule
from ..schedule.config import TileConfig
from ..tensor.operation import ContractionOp, GemmSpec, PlaceholderOp, Tensor
from ..transform import apply_pipelining
from . import profiling

__all__ = ["IncrementalEngine", "fresh_kernel", "fresh_timing_spec", "schedule_key", "sort_key"]

#: Stage counts a tile group's check builds: fully pipelined and fully
#: un-pipelined. Pipelinability does not depend on the exact count once
#: >= 2, so ``(2, 2)`` stands for every multi-stage sibling.
_CHECK_STAGES = ((2, 2), (1, 1))

_LOWER_HITS = _metrics.counter(
    "repro_lower_cache_hits_total",
    "Sweep trials answered from a tile group that already passed its check",
)
_LOWER_MISSES = _metrics.counter(
    "repro_lower_cache_misses_total",
    "Sweep trials that checked (and cached the verdict of) a new tile group",
)
_TRANSFORM_RUNS = _metrics.counter(
    "repro_transform_runs_total",
    "Fresh builds run by the incremental engine's checks (two per checked tile group)",
)
_EVICTIONS = _metrics.counter(
    "repro_stage_cache_evictions_total",
    "Tile-group verdicts evicted from the incremental engine's LRU",
)
_SIZE_GAUGE = _metrics.gauge(
    "repro_stage_cache_entries",
    "Tile-group verdicts currently held by the incremental engine",
)


def schedule_key(spec: GemmSpec, cfg: TileConfig) -> Tuple:
    """The tile group of ``cfg``: problem identity plus tile/warp/chunk/
    swizzle knobs. ``smem_stages`` and ``reg_stages`` are deliberately
    absent — that is the reuse."""
    return (
        spec,
        cfg.block_m,
        cfg.block_n,
        cfg.block_k,
        cfg.warp_m,
        cfg.warp_n,
        cfg.chunk_k,
        cfg.swizzle,
    )


def sort_key(cfg: TileConfig) -> Tuple:
    """Deterministic trial order grouping siblings consecutively: tile
    knobs first, pipelining knobs last. ``measure_many`` sorts uncached
    trials with this so one tile group's trials are contiguous."""
    return (
        cfg.block_m,
        cfg.block_n,
        cfg.block_k,
        cfg.warp_m,
        cfg.warp_n,
        cfg.chunk_k,
        cfg.swizzle,
        cfg.smem_stages,
        cfg.reg_stages,
    )


def fresh_kernel(graph: Tensor, cfg: TileConfig, verify_sync: bool = False) -> Kernel:
    """A fresh build of ``cfg``: schedule, lower and the pipelining
    transform (with the static race check when ``verify_sync``), each
    timed under its :mod:`~repro.core.profiling` stage."""
    with profiling.stage("schedule"):
        sched = auto_schedule(graph, cfg)
    with profiling.stage("lower"):
        kernel = lower(sched)
    with profiling.stage("transform"):
        return apply_pipelining(kernel, verify_sync=verify_sync)


def fresh_timing_spec(graph: Tensor, cfg: TileConfig) -> KernelTimingSpec:
    """The timing spec of a fresh build of ``cfg``, extracted from the
    transformed IR under the ``spec-extract`` stage."""
    kernel = fresh_kernel(graph, cfg)
    with profiling.stage("spec-extract"):
        return extract_timing_spec(kernel)


class IncrementalEngine:
    """Checked static timing specs for the configs of recurring tile groups."""

    def __init__(self, max_entries: int = 32) -> None:
        self.max_entries = max(1, int(max_entries))
        self._lock = threading.Lock()
        #: tile key -> kernel name of a group that passed its check, or
        #: None for one that failed it (declined for good)
        self._verdicts: "OrderedDict[Tuple, Optional[str]]" = OrderedDict()
        #: keys seen exactly once without a verdict (second sighting checks)
        self._seen: "OrderedDict[Tuple, bool]" = OrderedDict()
        #: keys a batch promised will recur (note_batch counted >= 2)
        self._hot: "OrderedDict[Tuple, bool]" = OrderedDict()
        #: trials answered from a tile group that passed its check
        self.hits = 0
        #: trials that checked their tile group (whatever the verdict)
        self.misses = 0
        #: trials handed back to the fresh path (unsupported graph, a tile
        #: key with no evidence of reuse, or a group that failed its check)
        self.bypasses = 0
        #: fresh builds run by checks, two per checked group
        self.transform_runs = 0
        self.evictions = 0
        # Newest engine wins the process-wide gauge (fresh instances in
        # one process are the test/serve-restart pattern).
        _SIZE_GAUGE.set_function(lambda: len(self._verdicts))

    # ------------------------------------------------------------- predicates
    @staticmethod
    def supports(graph: Tensor) -> bool:
        """Reuse is only sound for pure placeholder+contraction graphs:
        elementwise producers change how ``inline()`` routes fusion
        depending on which levels are pipelined, which the static
        derivation does not model. The measurement path always builds
        pure graphs; anything else compiles fresh."""
        op = graph.op
        return isinstance(op, ContractionOp) and all(
            isinstance(t.op, PlaceholderOp) for t in op.inputs
        )

    def note_batch(self, spec: GemmSpec, cfgs) -> None:
        """Mark tile keys that recur within one upcoming batch as worth a
        check, so even their first trial goes through the engine."""
        counts: Dict[Tuple, int] = {}
        for cfg in cfgs:
            k = schedule_key(spec, cfg)
            counts[k] = counts.get(k, 0) + 1
        with self._lock:
            for k, n in counts.items():
                if n >= 2:
                    self._hot[k] = True
                    self._hot.move_to_end(k)
            while len(self._hot) > 4 * self.max_entries * 64:
                self._hot.popitem(last=False)

    # ------------------------------------------------------------------- api
    def timing_spec(
        self, graph: Tensor, spec: GemmSpec, cfg: TileConfig
    ) -> Optional[KernelTimingSpec]:
        """Timing spec for ``cfg`` from its checked tile group, or ``None``
        when the engine declines and the caller should build fresh. Each
        call counts as exactly one hit, miss or bypass."""
        name = self._verdict(graph, spec, cfg)
        if name is None:
            return None
        with profiling.stage("spec-extract"):
            ts = timing_spec_from_config(spec, cfg)
        ts.name = name
        return ts

    def _verdict(self, graph: Tensor, spec: GemmSpec, cfg: TileConfig) -> Optional[str]:
        """The kernel name ``cfg``'s tile group answers with, checking the
        group first if it has reuse evidence but no verdict yet; ``None``
        when the engine declines."""
        if not self.supports(graph):
            with self._lock:
                self.bypasses += 1
            return None
        key = schedule_key(spec, cfg)
        with self._lock:
            if key in self._verdicts:
                self._verdicts.move_to_end(key)
                name = self._verdicts[key]
                if name is None:
                    self.bypasses += 1
                else:
                    self.hits += 1
                    _LOWER_HITS.inc()
                return name
            if key not in self._hot and key not in self._seen:
                # No evidence this tile key recurs: remember the sighting
                # and let the caller compile fresh. A second sighting checks.
                self._seen[key] = True
                while len(self._seen) > 4 * self.max_entries * 64:
                    self._seen.popitem(last=False)
                self.bypasses += 1
                return None
        # Check outside the lock: two fresh builds must not serialize
        # concurrent request threads. A racing check of the same key
        # reaches the same verdict.
        name = self._check(graph, spec, cfg)
        with self._lock:
            self._verdicts[key] = name
            self._verdicts.move_to_end(key)
            self.misses += 1
            _LOWER_MISSES.inc()
            self._seen.pop(key, None)
            while len(self._verdicts) > self.max_entries:
                self._verdicts.popitem(last=False)
                self.evictions += 1
                _EVICTIONS.inc()
        return name

    def _check(self, graph: Tensor, spec: GemmSpec, cfg: TileConfig) -> Optional[str]:
        """Fresh-build ``cfg``'s tile group at each of :data:`_CHECK_STAGES`
        and compare the extracted specs with the static derivation. The
        built kernel's name when every pair is equal, else ``None``."""
        name = None
        for stages in _CHECK_STAGES:
            staged = cfg.with_stages(*stages)
            with self._lock:
                self.transform_runs += 1
            _TRANSFORM_RUNS.inc()
            try:
                built = fresh_timing_spec(graph, staged)
                static = timing_spec_from_config(spec, staged)
            except Exception:
                return None
            static.name = name = built.name
            if static != built:
                return None
        return name

    # ------------------------------------------------------------------ stats
    def counts(self) -> Tuple[int, int, int, int]:
        """``(hits, misses, bypasses, check builds)`` so far."""
        with self._lock:
            return (self.hits, self.misses, self.bypasses, self.transform_runs)

    def add_counts(self, hits: int, misses: int, bypasses: int, check_builds: int) -> None:
        """Count trials another process's engine served on this one's
        behalf (a fleet worker's, shipped back per trial), process-wide
        metrics included."""
        with self._lock:
            self.hits += hits
            self.misses += misses
            self.bypasses += bypasses
            self.transform_runs += check_builds
        _LOWER_HITS.inc(hits)
        _LOWER_MISSES.inc(misses)
        _TRANSFORM_RUNS.inc(check_builds)

    @property
    def reuse_ratio(self) -> float:
        """Fraction of engine-served trials answered from a checked group."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        with self._lock:
            return {
                "lower_cache_hits": self.hits,
                "lower_cache_misses": self.misses,
                "bypasses": self.bypasses,
                "transform_runs": self.transform_runs,
                "entries": len(self._verdicts),
                "evictions": self.evictions,
                "reuse_ratio": self.reuse_ratio,
            }
