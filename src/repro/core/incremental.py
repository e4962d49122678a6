"""Incremental sweep compilation: stage-graph memoization across configs.

One sweep of the design space compiles thousands of configs, but the
space has structure (:mod:`repro.tuning.space` enumerates the pipelining
knobs ``smem_stages``/``reg_stages`` as the *innermost* loops): configs
that share the tile and warp knobs differ only in how many pipeline
stages the transform realizes, while ``auto_schedule`` + ``lower``
produce the same loop nest for all of them — up to the stage-count hint
integers and the async flags the hints imply. The engine exploits this:

* **schedule/lower key** — the tile-knob subset of
  :class:`~repro.schedule.config.TileConfig` (block/warp/chunk/swizzle)
  plus the problem. One *base kernel* per key, lowered at canonical stage
  counts ``(2, 2)`` so every pipeline level that *can* be pipelined is
  hinted, analyzed once (:func:`~repro.transform.analysis.analyze`).
* **transform key** — the full config. Each neighbor re-stages the base
  plan (:func:`~repro.transform.analysis.instantiate_plan`) and re-runs
  only the pipelining rewrite; levels a config leaves un-pipelined are
  *demoted* (hints stripped, copies made synchronous), reproducing a
  fresh lowering at those stage counts bit for bit.

The rewrite is copy-on-write (untouched subtrees are shared with the
base tree) and rewrite products that depend only on realized stage
counts are memoized per base kernel
(:class:`~repro.transform.pipeline_pass.RewriteCaches`), so sibling
configs share most of the transform's expression work too.

The measurement sweep needs only the *timing spec*, and the spec's
dependence on the pipelining knobs is tiny: at entry build the engine
materializes the base at its two stage extremes, extracts both specs
from the transformed IR, and proves that exactly five fields vary
(shared-memory footprint, the two stage counts, the register budget,
the async flag). Sibling specs are then derived from the extracted
extremes plus the instantiated plan — no per-config rewrite or IR walk
at all. Kernels proper (:meth:`IncrementalEngine.kernel`) always go
through the copy-on-write rewrite.

Outputs are bitwise-identical to fresh per-config builds — printer text
and simulated latency — which `tests` assert over full enumerated
spaces; the engine is a pure throughput optimization, never a semantic
one.

Reuse policy: a base kernel costs one full schedule+lower+analyze, so
building one for a config whose tile key never recurs is pure overhead.
The engine therefore builds a base only when the key is *promised*
(:meth:`IncrementalEngine.note_batch` saw >= 2 configs share it in one
batch) or *recurring* (second sighting across calls — the fleet
endpoint pattern, one ``measure()`` per shard item); anything else reports
``None`` and the caller compiles fresh. Entries live in a bounded LRU;
evictions and sizes are exported as :mod:`repro.obs` metrics alongside
the ``repro_lower_cache_hits_total`` / ``repro_transform_runs_total``
reuse counters.

Thread safety: the maps are lock-guarded (the serve daemon shares one
measurer — hence one engine — across request threads); base builds run
outside the lock and insert once. Per-config rewrites touch only
immutable statements and idempotent memo inserts, so concurrent rewrites
of one entry are safe. A config whose build *fails* (injected fault,
genuine compile rejection) never reaches the entry maps mid-build, so a
faulted trial cannot poison the shared stage cache for its neighbors.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..codegen.lower import lower
from ..gpusim.spec import KernelTimingSpec, extract_timing_spec
from ..ir.buffer import DTYPE_BYTES, Scope
from ..ir.stmt import Kernel
from ..obs import metrics as _metrics
from ..schedule.auto import auto_schedule
from ..schedule.config import TileConfig, tile_resources
from ..tensor.operation import ContractionOp, GemmSpec, PlaceholderOp, Tensor
from ..transform import RewriteCaches, analyze, instantiate_plan, transform_with_plan
from . import profiling

__all__ = ["IncrementalEngine", "schedule_key", "sort_key"]

#: Canonical stage counts the base kernel is hinted at. Any value >= 2
#: works (pipelinability does not depend on the exact count); 2 keeps the
#: hints minimal.
_BASE_STAGES = (2, 2)

_LOWER_HITS = _metrics.counter(
    "repro_lower_cache_hits_total",
    "Sweep trials that reused a memoized schedule+lower base kernel",
)
_LOWER_MISSES = _metrics.counter(
    "repro_lower_cache_misses_total",
    "Sweep trials that built (and cached) a new base kernel",
)
_TRANSFORM_RUNS = _metrics.counter(
    "repro_transform_runs_total",
    "Pipelining transforms run by the incremental engine (one per config)",
)
_EVICTIONS = _metrics.counter(
    "repro_stage_cache_evictions_total",
    "Base-kernel entries evicted from the incremental engine's LRU",
)
_SIZE_GAUGE = _metrics.gauge(
    "repro_stage_cache_entries",
    "Base-kernel entries currently held by the incremental engine",
)


def schedule_key(spec: GemmSpec, cfg: TileConfig) -> Tuple:
    """The stage-relevant knob subset shared by every pipelining sibling:
    problem identity plus tile/warp/chunk/swizzle knobs. ``smem_stages``
    and ``reg_stages`` are deliberately absent — that is the reuse."""
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
    trials with this so one base kernel's reuse window is contiguous."""
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


#: KernelTimingSpec fields that legitimately vary with the pipelining
#: knobs alone. Everything else must be identical across every sibling of
#: one base kernel — asserted per entry by comparing the extracted specs
#: of the fully-pipelined and fully-demoted materializations.
_STAGE_FIELDS = (
    "smem_bytes_per_tb",
    "smem_stages",
    "reg_stages",
    "regs_per_thread",
    "async_smem_copy",
)


class _Entry:
    """One memoized base: lowered canonical kernel + its analyzed plan +
    the rewrite memo tables shared by every derived config.

    ``ts_lo``/``ts_hi`` are the timing specs *extracted from transformed
    IR* at the two stage extremes — fully demoted ``(1, 1)`` and the
    canonical ``(2, 2)`` — from which every sibling's spec is derived
    (see :meth:`IncrementalEngine.timing_spec`). ``smem_stage_bytes`` is
    the per-stage shared-memory increment ``ts_hi - ts_lo`` implies.
    ``derivable`` is the build-time proof that nothing *else* varies
    with the stage knobs; when it is ``False`` the engine falls back to
    materialize-and-extract per config."""

    __slots__ = (
        "kernel", "plan", "caches",
        "ts_lo", "ts_hi", "smem_stage_bytes", "derivable",
    )

    def __init__(self, kernel: Kernel, plan) -> None:
        self.kernel = kernel
        self.plan = plan
        self.caches = RewriteCaches()
        self.ts_lo: Optional[KernelTimingSpec] = None
        self.ts_hi: Optional[KernelTimingSpec] = None
        self.smem_stage_bytes = 0
        self.derivable = False


class IncrementalEngine:
    """Memoizing compile engine for neighboring sweep configs."""

    def __init__(self, max_entries: int = 32) -> None:
        self.max_entries = max(1, int(max_entries))
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, _Entry]" = OrderedDict()
        #: keys seen exactly once without an entry (second sighting builds)
        self._seen: "OrderedDict[Tuple, bool]" = OrderedDict()
        #: keys a batch promised will recur (note_batch counted >= 2)
        self._hot: "OrderedDict[Tuple, bool]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: trials handed back to the fresh path (unsupported graph or a
        #: tile key with no evidence of reuse)
        self.bypasses = 0
        self.transform_runs = 0
        self.evictions = 0
        # Newest engine wins the process-wide gauge (fresh instances in
        # one process are the test/serve-restart pattern).
        _SIZE_GAUGE.set_function(lambda: len(self._entries))

    # ------------------------------------------------------------- predicates
    @staticmethod
    def supports(graph: Tensor) -> bool:
        """Reuse is only sound for pure placeholder+contraction graphs:
        elementwise producers change how ``inline()`` routes fusion
        depending on which levels are pipelined, so one base kernel could
        not stand in for every stage combination. The measurement path
        always builds pure graphs; anything else compiles fresh."""
        op = graph.op
        return isinstance(op, ContractionOp) and all(
            isinstance(t.op, PlaceholderOp) for t in op.inputs
        )

    def note_batch(self, spec: GemmSpec, cfgs) -> None:
        """Mark tile keys that recur within one upcoming batch as worth a
        base kernel, so even their first trial goes through the engine."""
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

    # ---------------------------------------------------------------- entries
    def _entry_for(self, graph: Tensor, spec: GemmSpec, cfg: TileConfig) -> Optional[_Entry]:
        key = schedule_key(spec, cfg)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                _LOWER_HITS.inc()
                return entry
            if key not in self._hot and key not in self._seen:
                # No evidence this tile key recurs: remember the sighting
                # and let the caller compile fresh. A second sighting (the
                # fleet worker's one-measure-per-item loop) builds.
                self._seen[key] = True
                while len(self._seen) > 4 * self.max_entries * 64:
                    self._seen.popitem(last=False)
                self.bypasses += 1
                return None
        # Build outside the lock: schedule+lower+analyze is the expensive
        # part and must not serialize concurrent request threads.
        base_cfg = cfg.with_stages(*_BASE_STAGES)
        with profiling.stage("schedule"):
            sch = auto_schedule(graph, base_cfg)
        with profiling.stage("lower"):
            kernel = lower(sch)
        with profiling.stage("transform"):
            plan = analyze(kernel)
        entry = _Entry(kernel, plan)
        self._extract_extremes(entry, base_cfg)
        with self._lock:
            raced = self._entries.get(key)
            if raced is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                _LOWER_HITS.inc()
                return raced
            self._entries[key] = entry
            self.misses += 1
            _LOWER_MISSES.inc()
            self._seen.pop(key, None)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
                _EVICTIONS.inc()
        return entry

    def _extract_extremes(self, entry: _Entry, base_cfg: TileConfig) -> None:
        """Materialize the base at its two stage extremes — fully pipelined
        ``(2, 2)`` and fully demoted ``(1, 1)`` — extract both timing specs
        from the transformed IR, and prove that only :data:`_STAGE_FIELDS`
        differ between them. Every sibling's spec is then derived by
        interpolating those fields (shared-memory footprint is linear in
        the stage count; the stage counts and register budget are config
        math; the async flag flips with demotion). A kernel that violates
        the proof — or whose extraction fails outright — simply leaves
        ``derivable`` False and every config materializes+extracts fresh,
        so the fast path can never change a reported spec."""
        try:
            with profiling.stage("transform"):
                hi = self._config_kernel_raw(entry, base_cfg)
                lo = self._config_kernel_raw(entry, base_cfg.with_stages(1, 1))
            with profiling.stage("spec-extract"):
                ts_hi = extract_timing_spec(hi)
                ts_lo = extract_timing_spec(lo)
        except Exception:
            return
        entry.ts_hi = ts_hi
        entry.ts_lo = ts_lo
        entry.smem_stage_bytes = ts_hi.smem_bytes_per_tb - ts_lo.smem_bytes_per_tb
        aligned = dataclasses.replace(
            ts_lo, **{f: getattr(ts_hi, f) for f in _STAGE_FIELDS}
        )
        entry.derivable = (
            aligned == ts_hi
            and ts_lo.smem_stages == 1
            and ts_lo.reg_stages == 1
            and ts_hi.smem_stages in (1, 2)
            and ts_hi.reg_stages in (1, 2)
        )

    # ------------------------------------------------------------------- api
    def kernel(self, graph: Tensor, spec: GemmSpec, cfg: TileConfig) -> Optional[Kernel]:
        """The fully transformed kernel for ``cfg``, derived from the
        memoized base — or ``None`` when the engine declines (unsupported
        graph / no reuse evidence) and the caller should build fresh."""
        if not self.supports(graph):
            with self._lock:
                self.bypasses += 1
            return None
        entry = self._entry_for(graph, spec, cfg)
        if entry is None:
            return None
        return self._config_kernel(entry, cfg)

    def timing_spec(
        self, graph: Tensor, spec: GemmSpec, cfg: TileConfig
    ) -> Optional[KernelTimingSpec]:
        """Timing spec for ``cfg`` through the memoized compile path, or
        ``None`` when the engine declines.

        When the entry carries the stage-extreme proof (``derivable``),
        the spec is *derived*: the stage-invariant fields come from specs
        extracted from transformed IR at entry build, and the five
        stage-dependent fields follow from the instantiated plan — which
        also replicates, config for config, the analysis errors a fresh
        build would raise. Otherwise each config materializes its kernel
        through the copy-on-write rewrite and extracts normally. Both
        routes are asserted bitwise-equal to fresh builds by the property
        tests over full enumerated spaces."""
        if not self.supports(graph):
            with self._lock:
                self.bypasses += 1
            return None
        entry = self._entry_for(graph, spec, cfg)
        if entry is None:
            return None
        if not entry.derivable:
            kernel = self._config_kernel(entry, cfg)
            with profiling.stage("spec-extract"):
                return extract_timing_spec(kernel)
        with profiling.stage("spec-extract"):
            plan, _demoted = instantiate_plan(
                entry.plan,
                {Scope.SHARED: cfg.smem_stages, Scope.REGISTER: cfg.reg_stages},
            )
            ss = rs = 1
            for g in plan.groups:
                if g.scope is Scope.SHARED:
                    ss = g.stages
                elif g.scope is Scope.REGISTER:
                    rs = g.stages
            base = entry.ts_hi if ss >= 2 else entry.ts_lo
            regs = tile_resources(cfg, ss, rs, DTYPE_BYTES[spec.dtype])[1]
            ts = dataclasses.replace(
                base,
                smem_bytes_per_tb=(
                    entry.ts_lo.smem_bytes_per_tb + (ss - 1) * entry.smem_stage_bytes
                ),
                smem_stages=ss,
                reg_stages=rs,
                regs_per_thread=regs,
            )
            ts.validate()
            return ts

    def _config_kernel_raw(self, entry: _Entry, cfg: TileConfig) -> Kernel:
        plan, demoted = instantiate_plan(
            entry.plan,
            {Scope.SHARED: cfg.smem_stages, Scope.REGISTER: cfg.reg_stages},
        )
        attrs = dict(entry.kernel.attrs)
        attrs["config"] = cfg
        out = transform_with_plan(
            entry.kernel, plan, demoted=demoted, caches=entry.caches, attrs=attrs
        )
        with self._lock:
            self.transform_runs += 1
        _TRANSFORM_RUNS.inc()
        return out

    def _config_kernel(self, entry: _Entry, cfg: TileConfig) -> Kernel:
        with profiling.stage("transform"):
            return self._config_kernel_raw(entry, cfg)

    # ------------------------------------------------------------------ stats
    @property
    def reuse_ratio(self) -> float:
        """Fraction of engine-served trials answered from a memoized base."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        with self._lock:
            return {
                "lower_cache_hits": self.hits,
                "lower_cache_misses": self.misses,
                "bypasses": self.bypasses,
                "transform_runs": self.transform_runs,
                "entries": len(self._entries),
                "evictions": self.evictions,
                "reuse_ratio": self.reuse_ratio,
            }
