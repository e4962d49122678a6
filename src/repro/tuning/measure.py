"""The measurement harness: compile a schedule and time it on the simulator.

This plays the role of AutoTVM's builder+runner: each measurement runs the
full compiler path — automatic schedule, lowering, pipelining program
transformation, timing-spec extraction from the produced IR — and then the
discrete-event simulator (the reproduction's "hardware"). Results are
cached by their full identity (GPU, problem, config, measurement mode) in
memory, optionally persisted to disk (:class:`~repro.tuning.cache.
MeasurementCache`). The measurer decides where a batch runs: in-process,
or on the tuning fleet (:mod:`repro.tuning.fleet`) when it has local
workers (``jobs > 1`` or a ``trial_timeout_s``) or remote ``endpoints``,
with the same bits either way.

Fault tolerance (docs/robustness.md): per-trial crashes, hangs and worker
deaths are ordinary measurement outcomes, never sweep aborts. Crashed
(or, on the fleet, worker-killing) attempts retry with exponential
backoff up to ``retries`` times before the config is recorded
:data:`FAILED` and quarantined; trials exceeding ``trial_timeout_s`` have
their worker put down and are recorded :data:`FAILED`. Crash/timeout
failures are kept out of the disk cache (they are properties of the run,
not of the config), while genuine compile failures persist as ``inf``.
The ``compile`` fault-injection site (:mod:`repro.faults`) lives here and
the ``worker`` site in the fleet worker loop, so the chaos suite
exercises every one of those recovery paths.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from .. import faults
from ..codegen import lower
from ..core import profiling
from ..core.errors import (
    CompileError,
    DeadlineExceededError,
    MeasurementTimeout,
    ReproError,
    WorkerCrash,
)
from ..core.incremental import IncrementalEngine
from ..core.incremental import sort_key as _incremental_sort_key
from ..obs import metrics as _metrics
from ..gpusim.config import A100, GpuSpec
from ..gpusim.engine import simulate_kernel
from ..gpusim.spec import extract_timing_spec
from ..perfmodel.static_spec import timing_spec_from_config
from ..schedule.auto import auto_schedule
from ..schedule.config import TileConfig
from ..tensor.operation import GemmSpec, Tensor, gemm_graph
from .cache import MeasurementCache, measurement_key
from .prune import prune_space

if TYPE_CHECKING:
    from .fleet import FleetTelemetry

__all__ = ["Measurer", "MeasureTelemetry", "MeasureFailure", "FAILED"]

#: Latency recorded for configurations that fail to compile/launch.
FAILED = math.inf

#: LRU bound on the per-spec tensor-expression graph cache: one entry per
#: distinct problem shape, so a long-lived serve daemon cycling many shapes
#: holds at most this many graphs.
TE_CACHE_MAX = 64

_TE_EVICTIONS = _metrics.counter(
    "repro_te_cache_evictions_total",
    "Tensor-expression graphs evicted from a measurer's per-spec LRU",
)
_TE_SIZE_GAUGE = _metrics.gauge(
    "repro_te_cache_entries",
    "Tensor-expression graphs currently held by the newest measurer",
)


@dataclasses.dataclass(frozen=True)
class MeasureTelemetry:
    """Where a measurer's answers came from, and what the compiles cost."""

    n_compiled: int
    memory_hits: int
    disk_hits: int
    compile_time_s: float
    #: worker attempts that crashed or died (injected or organic)
    n_crashes: int = 0
    #: trials terminated at the wall-clock budget
    n_timeouts: int = 0
    #: crashed attempts that were resubmitted
    n_retries: int = 0
    #: configs that exhausted their retries by killing workers
    n_quarantined: int = 0
    #: configs dropped by model-guided pruning before any compile
    n_pruned: int = 0
    #: accumulated (stage, seconds) compile-path breakdown, canonical order
    stage_time_s: Tuple[Tuple[str, float], ...] = ()
    #: disk-cache write failures absorbed by degrading to memory-only
    disk_errors: int = 0
    #: trials that reused a memoized schedule+lower base kernel
    lower_cache_hits: int = 0
    #: trials that built (and memoized) a new base kernel
    lower_cache_misses: int = 0
    #: pipelining transforms run by the incremental engine
    transform_runs: int = 0
    #: trials the engine handed back to the fresh path (no reuse evidence)
    lower_cache_bypasses: int = 0
    #: whether an incremental engine was attached at all
    incremental: bool = False
    #: trials answered by remote fleet endpoints, each counted once
    endpoint_trials: int = 0
    #: summed telemetry of every batch that ran on the fleet (None: none did)
    fleet: Optional["FleetTelemetry"] = None

    @property
    def n_measured(self) -> int:
        return self.n_compiled + self.endpoint_trials + self.memory_hits + self.disk_hits

    def summary(self) -> str:
        out = (
            f"{self.n_measured} measurements: {self.n_compiled} compiled "
            f"({self.compile_time_s:.2f}s), "
        )
        if self.endpoint_trials:
            out += f"{self.endpoint_trials} answered by endpoints, "
        out += f"{self.memory_hits} memory hits, {self.disk_hits} disk-cache hits"
        if self.n_pruned:
            out += f"; {self.n_pruned} pruned by the analytical model"
        if self.n_crashes or self.n_timeouts:
            out += (
                f"; {self.n_crashes} crashed attempt(s) "
                f"({self.n_retries} retried, {self.n_quarantined} quarantined), "
                f"{self.n_timeouts} timeout(s)"
            )
        return out

    def profile_summary(self) -> str:
        """Per-stage wall-clock breakdown of the compile+simulate path,
        with the incremental engine's stage-cache reuse next to it."""
        times = profiling.StageTimes()
        times.merge(dict(self.stage_time_s))
        out = times.summary()
        if self.incremental:
            served = self.lower_cache_hits + self.lower_cache_misses
            reuse = 100.0 * self.lower_cache_hits / served if served else 0.0
            out += (
                f"\n  stage cache      {self.lower_cache_hits} hits / "
                f"{self.lower_cache_misses} misses ({reuse:.0f}% reuse), "
                f"{self.transform_runs} incremental transform(s)"
            )
            if self.lower_cache_bypasses:
                out += f", {self.lower_cache_bypasses} bypassed"
        return out


@dataclasses.dataclass(frozen=True)
class MeasureFailure:
    """One abnormal measurement outcome (crash or timeout), for telemetry
    and post-mortems. Genuine compile failures are *not* failures in this
    sense — they are valid ``inf`` measurements."""

    spec: str
    config: Tuple
    reason: str  # "crash" | "timeout"
    detail: str
    attempt: int

    def as_error(self) -> ReproError:
        """This failure as its taxonomy exception
        (:class:`MeasurementTimeout` or :class:`WorkerCrash`), for callers
        that want to raise rather than inspect telemetry."""
        cls = MeasurementTimeout if self.reason == "timeout" else WorkerCrash
        return cls(
            f"trial {self.config} of {self.spec} "
            f"(attempt {self.attempt}): {self.detail}",
            diagnostic=self,
        )


def _cfg_token(spec: GemmSpec, cfg: TileConfig) -> str:
    """Deterministic event token identifying one (problem, config) trial,
    used by the fault-injection layer to make per-trial decisions."""
    return (
        f"{spec.name}:{spec.batch}x{spec.m}x{spec.n}x{spec.k}"
        f"|{','.join(str(x) for x in cfg.key())}"
    )


class Measurer:
    """Compile-and-simulate with caching and fault tolerance.

    Thread safety: telemetry counters, the in-memory result cache and the
    failure/quarantine records are guarded by an internal lock, so one
    measurer may be shared by concurrent request threads (the
    :mod:`repro.serve` daemon) without losing counts. Compiles themselves
    run outside the lock; only the bookkeeping serializes.

    Parameters
    ----------
    gpu:
        Target hardware model.
    via_ir:
        When True (default) the timing spec is extracted from the fully
        compiled IR — the honest path that measures the compiler's actual
        output. When False, the statically derived spec is used (proven
        equal in tests, ~3x faster for huge sweeps).
    cache:
        Optional disk-persistent :class:`MeasurementCache`; misses are
        compiled and written back, so later runs (or other measurers
        sharing the directory) warm-start.
    jobs:
        Worker-process width for batch measurement (:meth:`sweep` /
        :meth:`measure_many`): ``jobs > 1`` runs uncached trials on that
        many fleet local workers, which live for one batch. 1 (default)
        keeps everything in-process unless ``trial_timeout_s`` forces
        process isolation.
    endpoints:
        Addresses of running ``repro serve`` daemons (``host:port`` or a
        Unix socket path, :func:`~repro.tuning.fleet.parse_endpoint`).
        Every uncached batch is sharded over them, one fleet seat each,
        on top of the local workers; with ``jobs=1`` and no
        ``trial_timeout_s`` the endpoints measure alone.
    trial_timeout_s:
        Per-trial wall-clock budget. A trial exceeding it has its worker
        put down and is recorded :data:`FAILED`. Requires process
        isolation, so when set, even ``jobs=1`` batches run on a
        one-worker fleet.
    retries:
        How many times a crashed attempt (raising, or killing its worker)
        is resubmitted before the config is recorded :data:`FAILED` and
        quarantined.
    backoff_s:
        Base of the exponential retry backoff (``backoff_s * 2**attempt``).
    incremental:
        Enable the incremental compile engine
        (:class:`~repro.core.incremental.IncrementalEngine`): configs
        sharing tile knobs reuse one memoized schedule+lower base kernel
        and only re-run the pipelining transform. Outputs are
        bitwise-identical to fresh builds. Defaults to ``via_ir`` (the
        static-spec path has no IR stages to share).
    """

    def __init__(
        self,
        gpu: GpuSpec = A100,
        via_ir: bool = True,
        cache: Optional[MeasurementCache] = None,
        jobs: int = 1,
        endpoints: Sequence[str] = (),
        trial_timeout_s: Optional[float] = None,
        retries: int = 2,
        backoff_s: float = 0.05,
        incremental: Optional[bool] = None,
    ) -> None:
        self.gpu = gpu
        self.via_ir = via_ir
        self.cache = cache
        self.jobs = max(1, int(jobs))
        self.endpoints = tuple(endpoints)
        self.trial_timeout_s = trial_timeout_s
        self.retries = max(0, int(retries))
        self.backoff_s = backoff_s
        #: guards every telemetry counter and the in-memory caches below
        #: (fleet driver threads commit concurrently).
        self._lock = threading.Lock()
        self._cache: Dict[Tuple, float] = {}
        #: canonical tensor-expression graph per problem: building the
        #: placeholders + contraction is config-independent, so one graph
        #: serves every trial of a spec (auto_schedule never mutates it —
        #: cache_read materializes new tensors). Bounded LRU
        #: (:data:`TE_CACHE_MAX`) so a daemon cycling many shapes cannot
        #: grow it without limit; evictions are counted.
        self._te_cache: "OrderedDict[GemmSpec, Tensor]" = OrderedDict()
        self.te_cache_evictions = 0
        #: incremental compile engine (None = always compile fresh)
        self.engine: Optional[IncrementalEngine] = (
            IncrementalEngine()
            if (via_ir if incremental is None else bool(incremental)) and via_ir
            else None
        )
        # Newest measurer wins the process-wide size gauge (matching the
        # engine's own gauge convention).
        _TE_SIZE_GAUGE.set_function(lambda: len(self._te_cache))
        self.n_compiled = 0
        self.n_memory_hits = 0
        self.n_disk_hits = 0
        self.compile_time_s = 0.0
        self.n_crashes = 0
        self.n_timeouts = 0
        self.n_retries = 0
        self.n_endpoint_trials = 0
        #: summed :class:`~repro.tuning.fleet.FleetTelemetry` of every
        #: batch that ran on the fleet; None until one does.
        self.fleet_telemetry: Optional["FleetTelemetry"] = None
        #: configs dropped by model-guided pruning (opt-in, sweep-level)
        self.n_pruned = 0
        #: newest :class:`~repro.tuning.prune.PruneStats` from a pruned sweep
        self.last_prune_stats = None
        #: accumulated per-stage compile-path wall clock (schedule / lower /
        #: transform / spec-extract / simulate), including fleet workers.
        self.stage_times = profiling.StageTimes()
        #: in-memory keys of configs that exhausted retries by killing
        #: workers; they are never resubmitted by this measurer.
        self.quarantined: set = set()
        #: abnormal outcomes (crashes/timeouts) observed, newest last.
        self.failures: List[MeasureFailure] = []

    @property
    def telemetry(self) -> MeasureTelemetry:
        with self._lock:
            return self._telemetry_locked()

    def _telemetry_locked(self) -> MeasureTelemetry:
        return MeasureTelemetry(
            n_compiled=self.n_compiled,
            memory_hits=self.n_memory_hits,
            disk_hits=self.n_disk_hits,
            compile_time_s=self.compile_time_s,
            n_crashes=self.n_crashes,
            n_timeouts=self.n_timeouts,
            n_retries=self.n_retries,
            n_quarantined=len(self.quarantined),
            n_pruned=self.n_pruned,
            stage_time_s=tuple(self.stage_times.ordered()),
            disk_errors=self.cache.disk_errors if self.cache is not None else 0,
            lower_cache_hits=self.engine.hits if self.engine is not None else 0,
            lower_cache_misses=self.engine.misses if self.engine is not None else 0,
            transform_runs=self.engine.transform_runs if self.engine is not None else 0,
            lower_cache_bypasses=self.engine.bypasses if self.engine is not None else 0,
            incremental=self.engine is not None,
            endpoint_trials=self.n_endpoint_trials,
            fleet=self.fleet_telemetry,
        )

    def _key(self, spec: GemmSpec, cfg: TileConfig) -> Tuple:
        """Full in-memory identity. The GPU spec and the ``via_ir`` mode are
        part of it: a measurer retargeted across GPU generations (the
        ``bench_ablation_gpu_generations`` pattern) or flipped between
        measurement modes must never serve stale latencies."""
        return (self.gpu, self.via_ir, spec, cfg.key())

    def _te_graph(self, spec: GemmSpec) -> Tensor:
        """The canonical (placeholder + contraction) graph for ``spec``,
        built once per LRU residency and reused by every trial."""
        with self._lock:
            c = self._te_cache.get(spec)
            if c is not None:
                self._te_cache.move_to_end(spec)
                return c
        c = gemm_graph(spec)
        with self._lock:
            self._te_cache[spec] = c
            self._te_cache.move_to_end(spec)
            while len(self._te_cache) > TE_CACHE_MAX:
                self._te_cache.popitem(last=False)
                self.te_cache_evictions += 1
                _TE_EVICTIONS.inc()
        return c

    def _build_timing_spec(self, spec: GemmSpec, cfg: TileConfig):
        if not self.via_ir:
            with profiling.stage("spec-extract"):
                return timing_spec_from_config(spec, cfg)
        from ..transform import apply_pipelining

        c = self._te_graph(spec)
        if self.engine is not None:
            ts = self.engine.timing_spec(c, spec, cfg)
            if ts is not None:
                return ts
            # engine declined (no reuse evidence for this tile key): fresh
        with profiling.stage("schedule"):
            sched = auto_schedule(c, cfg)
        with profiling.stage("lower"):
            kernel = lower(sched)
        with profiling.stage("transform"):
            kernel = apply_pipelining(kernel)
        with profiling.stage("spec-extract"):
            return extract_timing_spec(kernel)

    def _compile_and_time(self, spec: GemmSpec, cfg: TileConfig, token: str = "") -> float:
        """One compile+simulate. Genuine compile/launch rejections return
        :data:`FAILED`; anything else (injected crashes, compiler bugs)
        propagates for the recovery layer to classify."""
        t0 = time.perf_counter()
        try:
            # Ambient token only matters to fault injection; skip the
            # context-manager round-trip on the (common) fault-free path.
            if faults.active_plan() is None:
                with profiling.collect(self.stage_times):
                    try:
                        ts = self._build_timing_spec(spec, cfg)
                        with profiling.stage("simulate"):
                            latency = simulate_kernel(ts, self.gpu).latency_us
                    except (CompileError, ValueError):
                        latency = FAILED
            else:
                with faults.push_token(token), profiling.collect(self.stage_times):
                    faults.inject("compile")
                    try:
                        ts = self._build_timing_spec(spec, cfg)
                        with profiling.stage("simulate"):
                            latency = simulate_kernel(ts, self.gpu).latency_us
                    except (CompileError, ValueError):
                        latency = FAILED
        except BaseException:
            dt = time.perf_counter() - t0
            with self._lock:
                self.compile_time_s += dt
            raise
        dt = time.perf_counter() - t0
        with self._lock:
            self.compile_time_s += dt
            self.n_compiled += 1
        return latency

    def _record(
        self, key: Tuple, spec: GemmSpec, cfg: TileConfig, latency: float,
        persist: bool = True,
    ) -> None:
        """Commit a result to the memory cache and (for genuine
        measurements, not crash/timeout placeholders) the disk cache."""
        with self._lock:
            self._cache[key] = latency
        if self.cache is not None and persist:
            self.cache.put(
                measurement_key(self.gpu, spec, cfg, self.via_ir, version=self.cache.version),
                latency,
                meta={
                    "gpu": self.gpu.name,
                    "spec": spec.name,
                    "dims": [spec.batch, spec.m, spec.n, spec.k],
                    "config": list(cfg.key()),
                    "via_ir": self.via_ir,
                },
            )

    def _lookup(self, key: Tuple, spec: GemmSpec, cfg: TileConfig) -> Optional[float]:
        """Memory cache, then disk cache (promoting disk hits to memory)."""
        with self._lock:
            hit = self._cache.get(key)
            if hit is not None:
                self.n_memory_hits += 1
                return hit
        if self.cache is not None:
            disk = self.cache.get(
                measurement_key(self.gpu, spec, cfg, self.via_ir, version=self.cache.version)
            )
            if disk is not None:
                with self._lock:
                    self.n_disk_hits += 1
                    self._cache[key] = disk
                return disk
        return None

    # ------------------------------------------------------------- recovery
    def _tally_compile(self, compile_s: float, stage_times: Dict[str, float]) -> None:
        """Count one compile a fleet worker ran for this measurer."""
        with self._lock:
            self.n_compiled += 1
            self.compile_time_s += compile_s
            self.stage_times.merge(stage_times)

    def _tally_endpoint_trial(self) -> None:
        """Count one trial a remote endpoint answered for this measurer."""
        with self._lock:
            self.n_endpoint_trials += 1

    def _tally_fleet(self, telemetry: "FleetTelemetry") -> None:
        """Add one fleet batch's telemetry to the running sum."""
        with self._lock:
            if self.fleet_telemetry is not None:
                telemetry = self.fleet_telemetry + telemetry
            self.fleet_telemetry = telemetry

    def _tally_failure(self, spec: GemmSpec, key: Tuple, cfg: TileConfig,
                       reason: str, attempt: int, detail: str) -> None:
        """Count one crashed or timed-out attempt; a crash with no retries
        left quarantines its config."""
        with self._lock:
            if reason == "timeout":
                self.n_timeouts += 1
            else:
                self.n_crashes += 1
                if attempt < self.retries:
                    self.n_retries += 1
                else:
                    self.quarantined.add(key)
            self.failures.append(
                MeasureFailure(
                    spec=spec.name, config=cfg.key(), reason=reason,
                    detail=detail, attempt=attempt,
                )
            )

    def _measure_with_recovery(self, spec: GemmSpec, cfg: TileConfig, key: Tuple) -> None:
        """Serial (in-process) trial with bounded retry; crash-class
        exceptions become :data:`FAILED` + quarantine instead of aborting
        the sweep."""
        # The trial token exists solely for fault injection; don't pay for
        # its construction per trial when no plan is active.
        token_base = _cfg_token(spec, cfg) if faults.active_plan() is not None else ""
        for attempt in range(self.retries + 1):
            try:
                token = f"{token_base}#a{attempt}" if token_base else ""
                latency = self._compile_and_time(spec, cfg, token=token)
                self._record(key, spec, cfg, latency)
                return
            except Exception as e:
                self._tally_failure(spec, key, cfg, "crash", attempt, repr(e))
                if attempt < self.retries:
                    time.sleep(self.backoff_s * (2**attempt))
        self._record(key, spec, cfg, FAILED, persist=False)

    @staticmethod
    def _deadline_check(deadline: Optional[float], spec: GemmSpec, done: int,
                        total: int) -> None:
        """Raise :class:`DeadlineExceededError` when ``deadline`` (absolute
        ``time.monotonic``) has passed. Results already committed stay in
        the caches, so a retry of the same request resumes warm."""
        if deadline is not None and time.monotonic() >= deadline:
            raise DeadlineExceededError(
                f"sweep of {spec.name} ran out of its deadline after "
                f"{done}/{total} uncached trials; committed results are kept"
            )

    # ------------------------------------------------------------------ api
    def measure(self, spec: GemmSpec, cfg: TileConfig) -> float:
        """Latency in us, or :data:`FAILED` when compilation fails."""
        return self.measure_many(spec, [cfg])[0]

    def measure_many(
        self, spec: GemmSpec, cfgs: Sequence[TileConfig],
        deadline: Optional[float] = None,
    ) -> List[float]:
        """Measure a batch, in input order, bit for bit as the serial path.

        Cache hits are answered in-process. The distinct uncached configs
        compile here, or on the fleet
        (:func:`~repro.tuning.fleet.fleet_sweep`) when this measurer has
        local workers or ``endpoints``: ``jobs`` local workers for a width
        above 1 or any ``trial_timeout_s``, plus one seat per endpoint.

        ``deadline`` (absolute ``time.monotonic`` seconds) aborts the batch
        cleanly with :class:`DeadlineExceededError` once passed: fleet
        workers are put down, committed results stay cached. The serving
        daemon uses this to stop burning a worker thread on a request whose
        client budget has already expired.
        """
        workers = self.jobs if self.jobs > 1 or self.trial_timeout_s is not None else 0
        if workers or self.endpoints:
            from .fleet import fleet_sweep

            return fleet_sweep(self, spec, cfgs, workers=workers,
                               endpoints=self.endpoints, deadline=deadline)[0]

        def run(order: List[Tuple[Tuple, TileConfig]]) -> None:
            for done, (key, cfg) in enumerate(order):
                self._deadline_check(deadline, spec, done, len(order))
                self._measure_with_recovery(spec, cfg, key)

        return self._measure_batch(spec, cfgs, run)

    def _measure_batch(self, spec: GemmSpec, cfgs: Sequence[TileConfig],
                       run: Callable[[List[Tuple[Tuple, TileConfig]]], None]) -> List[float]:
        """The one cache-lookup / dedup / commit path: answer hits from the
        caches, hand the distinct uncached ``(key, config)`` pairs to
        ``run`` (which commits each through :meth:`_record`), and read the
        batch back from the memory cache in input order."""
        results: Dict[int, float] = {}
        pending: Dict[Tuple, List[int]] = {}
        order: List[Tuple[Tuple, TileConfig]] = []
        for i, cfg in enumerate(cfgs):
            key = self._key(spec, cfg)
            if key in pending:  # duplicate within the batch: compile once
                pending[key].append(i)
                continue
            hit = self._lookup(key, spec, cfg)
            if hit is not None:
                results[i] = hit
                continue
            pending[key] = [i]
            order.append((key, cfg))
        if self.engine is not None and len(order) > 1:
            # Group uncached trials by shared schedule-key prefix so one
            # memoized base kernel's reuse window is contiguous (within a
            # fleet shard too), and tell the engine which tile keys this
            # batch repeats (so even their first trial goes through it).
            # Results are merged back by key into input positions below, so
            # the recorded latencies — and which configs are measured — are
            # unchanged.
            order.sort(key=lambda kc: _incremental_sort_key(kc[1]))
            self.engine.note_batch(spec, [cfg for _, cfg in order])
        if order:
            run(order)
            for key, _ in order:
                for i in pending[key]:
                    results[i] = self._cache[key]
        return [results[i] for i in range(len(cfgs))]

    def sweep(
        self,
        spec: GemmSpec,
        space: Sequence[TileConfig],
        prune_ratio: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> List[float]:
        """Measure every config; failed builds yield :data:`FAILED`.

        ``prune_ratio`` (opt-in, default off) runs the model-guided pruning
        pass first: configs the analytical model prices beyond
        ``prune_ratio`` times its best prediction are recorded
        :data:`FAILED` without ever being compiled. Positions in the
        returned list still correspond 1:1 to ``space``.
        """
        space = list(space)
        if not prune_ratio:
            return self.measure_many(spec, space, deadline=deadline)
        kept, stats = prune_space(spec, space, self.gpu, prune_ratio)
        with self._lock:
            self.n_pruned += stats.n_total - stats.n_kept
            self.last_prune_stats = stats
        kept_latency = self.measure_many(spec, kept, deadline=deadline)
        by_key = {cfg.key(): lat for cfg, lat in zip(kept, kept_latency)}
        return [by_key.get(cfg.key(), FAILED) for cfg in space]

    def best(self, spec: GemmSpec, space: Sequence[TileConfig],
             deadline: Optional[float] = None) -> Tuple[TileConfig, float]:
        """Exhaustive-search optimum over ``space``."""
        space = list(space)
        if not space:
            raise CompileError(
                f"cannot search an empty design space for {spec.name}: every "
                "candidate was removed by the variant/space restrictions"
            )
        latencies = self.sweep(spec, space, deadline=deadline)
        idx = min(range(len(space)), key=lambda i: latencies[i])
        if latencies[idx] == FAILED:
            raise CompileError(f"no configuration in the space compiles for {spec.name}")
        return space[idx], latencies[idx]
