"""Per-layer attribution for the traced benchmark run.

:class:`Instrument` wraps the public entry points of each layer of the
program (space enumeration, the measurer, the tuner's model and sampler,
the journal, the disk caches, the artifact registry, the serve daemon's
request handler, the simulator, CUDA emission) from outside: it rebinds
module attributes and class methods at start-up and edits nothing under
``src/``. Each wrapper opens an ``obs.trace`` span named after its layer and
counts the work passed through it. The program's own ``profiling.stage``
spans (schedule, lower, transform, syncheck, spec-extract, simulate) land
in the same tracer, parented under the innermost layer span, so one
Chrome/Perfetto export shows both.

A layer's self time is its span's duration minus the part of that interval
covered by its child spans. ``unattributed.s`` is the self time of the
root spans (the CLI command, or each serve request), i.e. the time the
program spent on the workload that no named layer covers.

Worker processes of ``--jobs N`` are invisible to the tracer; their stage
seconds and compile time come from the measurer's own telemetry, which the
workers ship back.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from repro.core import profiling
from repro.obs import trace as obs_trace

#: Layer spans whose metric is their self time rather than their duration.
SELF_TIME_LAYERS = ("measure", "propose", "tuner")

#: Metrics that count work; they must repeat exactly on a same-seed rerun.
COUNT_METRICS = (
    "space-enum.configs", "sweep.calls",
    "measure.configs_requested", "measure.configs_compiled",
    "measure.memory_hits", "measure.disk_hits", "measure.failed_configs",
    "measure.crashes",
    "incremental.hits", "incremental.misses", "incremental.bypasses",
    "simulate.calls", "simulate.wave_sims",
    "analytical.configs", "model-fit.calls", "model-fit.rows", "score.rows",
    "propose.calls", "tuner.trials", "tuner.best_trial",
    "journal.writes", "cache-io.reads", "cache-io.writes",
    "registry.hits", "registry.misses", "registry.writes",
    "serve.requests",
)

#: Seconds per layer, reported from span durations (``<layer>.s``).
TIMED_LAYERS = (
    "space-enum", "sweep", "analytical", "features", "model-fit", "score",
    "journal", "cache-io", "registry", "codegen",
)


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement`` (modules import layer functions by name)."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _n(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 0


class Instrument:
    """Wrappers, counters and the tracer of one traced run."""

    def __init__(self) -> None:
        self.tracer = obs_trace.Tracer(capacity=1 << 21)
        self.counts: Dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._depth = threading.local()
        self.measurers: List = []
        self.queue_wait_s: List[float] = []
        #: serve request id -> seconds spent in ReproServer.handle
        self.handle_s: Dict[str, float] = {}
        self.command = ""
        self.wall_s = 0.0

    # ------------------------------------------------------------ counting
    def add(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def _wrap(self, func: Callable, layer: Optional[str],
              count: Optional[Callable] = None, outermost: bool = False) -> Callable:
        """``func`` under a ``layer`` span (none when ``layer`` is None),
        with ``count(args, kwargs, result)`` run after each call.
        ``outermost`` skips nested calls of the same layer (``best`` calls
        ``sweep``), so they are neither spanned nor counted twice."""
        depth = self._depth

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if outermost:
                level = getattr(depth, layer, 0)
                if level:
                    return func(*args, **kwargs)
                setattr(depth, layer, 1)
            try:
                if layer is None:
                    out = func(*args, **kwargs)
                else:
                    with obs_trace.span(layer, category="layer"):
                        out = func(*args, **kwargs)
            finally:
                if outermost:
                    setattr(depth, layer, 0)
            if count is not None:
                count(args, kwargs, out)
            return out

        return wrapper

    def _patch_function(self, module, name, layer, count=None) -> None:
        original = getattr(module, name)
        _rebind(original, self._wrap(original, layer, count))

    def _patch_method(self, cls, name, layer, count=None, outermost=False) -> None:
        setattr(cls, name, self._wrap(getattr(cls, name), layer, count, outermost))

    # ------------------------------------------------------------- install
    def install(self) -> None:
        """Import every layer and wrap its entry points."""
        # The CLI imports command modules lazily; import them up front so
        # the rebinding below reaches every module that holds a reference.
        import repro.cli  # noqa: F401
        import repro.codegen as codegen
        import repro.gpusim.engine as engine
        import repro.perfmodel.batch as batch
        import repro.serve.server as server
        import repro.tuning.features as features
        import repro.tuning.space as space
        import repro.tuning.tuners as tuners
        from repro.serve.registry import ArtifactRegistry
        from repro.tuning.cache import MeasurementCache
        from repro.tuning.gbt import GradientBoostedTrees
        from repro.tuning.measure import Measurer
        from repro.tuning.sa import SimulatedAnnealingSampler
        from repro.tuning.session import TuneSession
        import repro.baselines.tvm_like  # noqa: F401
        import repro.core.compiler  # noqa: F401

        add = self.add

        self._patch_function(space, "enumerate_space", "space-enum",
                             lambda a, k, out: add("space-enum.configs", _n(out)))
        self._patch_function(engine, "simulate_kernel", None,
                             lambda a, k, out: add("simulate.calls"))
        # simulate_wave is only called from inside engine.py.
        engine.simulate_wave = self._wrap(
            engine.simulate_wave, None, lambda a, k, out: add("simulate.wave_sims"))
        self._patch_function(batch, "predict_latency_batch", "analytical",
                             lambda a, k, out: add("analytical.configs", _n(out)))
        self._patch_function(features, "featurize_batch", "features")
        self._patch_function(codegen, "emit_cuda", "codegen")

        init = Measurer.__init__

        @functools.wraps(init)
        def measurer_init(m, *args, **kwargs):
            init(m, *args, **kwargs)
            with self._lock:
                self.measurers.append(m)

        Measurer.__init__ = measurer_init
        sweep_count = lambda a, k, out: add("sweep.calls")  # noqa: E731
        self._patch_method(Measurer, "best", "sweep", sweep_count, outermost=True)
        self._patch_method(Measurer, "sweep", "sweep", sweep_count, outermost=True)

        def measured(a, k, out):
            add("measure.configs_requested", _n(out))
            add("measure.failed_configs", sum(1 for x in out if math.isinf(x)))

        self._patch_method(Measurer, "measure_many", "measure", measured)

        def fitted(a, k, out):
            add("model-fit.calls")
            add("model-fit.rows", _n(a[1] if len(a) > 1 else k.get("X")))

        self._patch_method(GradientBoostedTrees, "fit", "model-fit", fitted)
        self._patch_method(GradientBoostedTrees, "predict", "score",
                           lambda a, k, out: add("score.rows", _n(out)))
        self._patch_method(SimulatedAnnealingSampler, "propose", "propose",
                           lambda a, k, out: add("propose.calls"))

        def tuned(a, k, out):
            add("tuner.trials", len(out))
            best = min(out.records, key=lambda r: r.latency_us, default=None)
            add("tuner.best_trial", 0 if best is None else best.trial + 1)

        self._patch_method(tuners.Tuner, "tune", "tuner", tuned)
        self._patch_method(TuneSession, "log_trial", "journal",
                           lambda a, k, out: add("journal.writes"))

        self._patch_method(MeasurementCache, "get", "cache-io",
                           lambda a, k, out: add("cache-io.reads"))
        put = MeasurementCache.put

        def cache_put(c, *args, **kwargs):
            before = len(c)
            put(c, *args, **kwargs)
            add("cache-io.writes", len(c) - before)

        MeasurementCache.put = self._wrap(cache_put, "cache-io")

        self._patch_method(
            ArtifactRegistry, "get", "registry",
            lambda a, k, out: add("registry.misses" if out is None else "registry.hits"))
        self._patch_method(ArtifactRegistry, "put", "registry",
                           lambda a, k, out: add("registry.writes"))

        handle = server.ReproServer.handle

        @functools.wraps(handle)
        def serve_handle(srv, message, queue_wait_s=0.0):
            t0 = time.perf_counter()
            with obs_trace.span("serve.handle", category="layer"):
                out = handle(srv, message, queue_wait_s=queue_wait_s)
            dt = time.perf_counter() - t0
            if isinstance(message, dict) and message.get("op") in ("compile", "tune"):
                with self._lock:
                    self.counts["serve.requests"] += 1
                    self.queue_wait_s.append(queue_wait_s)
                    self.handle_s[str(message.get("id"))] = dt
            return out

        server.ReproServer.handle = serve_handle

    # ------------------------------------------------------------ activate
    @contextlib.contextmanager
    def active(self, command: str):
        """Trace the command. CLI commands get one root ``command`` span;
        a serve daemon's roots are its ``serve.handle`` spans."""
        self.command = command
        t0 = time.perf_counter()
        with obs_trace.activate(self.tracer, all_threads=True):
            if command == "serve":
                yield
            else:
                with obs_trace.span("command", category="root", attrs={"command": command}):
                    yield
        self.wall_s = time.perf_counter() - t0

    # ------------------------------------------------------------- metrics
    def metrics(self) -> Dict[str, float]:
        spans = self.tracer.spans()
        children = defaultdict(list)
        for s in spans:
            if s.parent_id:
                children[s.parent_id].append((s.start_s, s.start_s + s.duration_s))
        total = defaultdict(float)
        self_s = defaultdict(float)
        for s in spans:
            # The program has spans of its own (the daemon's "sweep"); only
            # ours and the profiling stages name layers.
            if s.category not in ("layer", "stage", "root"):
                continue
            total[s.name] += s.duration_s
            covered = 0.0
            if s.span_id and s.span_id in children:
                end = -math.inf
                for a, b in sorted(children[s.span_id]):
                    a = max(a, end)
                    if b > a:
                        covered += b - a
                        end = b
            self_s[s.name] += s.duration_s - covered

        m: Dict[str, float] = {}
        for layer in TIMED_LAYERS:
            m[f"{layer}.s"] = total[layer]
        for stage in profiling.STAGE_ORDER:
            m[f"{stage}.s"] = total[stage]
        m["measure.self_s"] = self_s["measure"]
        m["propose.s"] = self_s["propose"]
        m["tuner.self_s"] = self_s["tuner"]
        m["serve.handle_s"] = total["serve.handle"]
        waits = sorted(self.queue_wait_s)
        m["serve.queue_wait_ms"] = 1e3 * waits[len(waits) // 2] if waits else 0.0

        tel = [x.telemetry for x in self.measurers]
        pooled = [(x, t) for x, t in zip(self.measurers, tel) if x.jobs > 1]
        for x, t in pooled:
            for stage, seconds in t.stage_time_s:
                m[f"{stage}.s"] = m.get(f"{stage}.s", 0.0) + seconds
        worker_s = sum(t.compile_time_s for _, t in pooled)
        jobs = max((x.jobs for x, _ in pooled), default=0)
        m["pool.worker_compile_s"] = worker_s
        m["pool.busy_frac"] = worker_s / (self.wall_s * jobs) if jobs and self.wall_s else 0.0

        c = self.counts
        c["measure.configs_compiled"] = sum(t.n_compiled for t in tel)
        c["measure.memory_hits"] = sum(t.memory_hits for t in tel)
        c["measure.disk_hits"] = sum(t.disk_hits for t in tel)
        c["measure.crashes"] = sum(t.n_crashes for t in tel)
        c["incremental.hits"] = sum(t.lower_cache_hits for t in tel)
        c["incremental.misses"] = sum(t.lower_cache_misses for t in tel)
        c["incremental.bypasses"] = sum(t.lower_cache_bypasses for t in tel)
        for name in COUNT_METRICS:
            m[name] = int(c.get(name, 0))
        served = c["incremental.hits"] + c["incremental.misses"]
        m["incremental.reuse_ratio"] = c["incremental.hits"] / served if served else 0.0
        trials = c.get("tuner.trials", 0)
        m["measure.compiled_per_trial"] = (
            c["measure.configs_compiled"] / trials if trials else 0.0)

        roots = "serve.handle" if self.command == "serve" else "command"
        root_total = total[roots]
        m["unattributed.s"] = self_s[roots]
        m["attributed_frac"] = 1.0 - self_s[roots] / root_total if root_total else 0.0
        m["trace.spans_dropped"] = self.tracer.spans_dropped
        return m

    def write(self, path: str, trace_path: Optional[str]) -> None:
        record = {
            "command": self.command,
            "wall_s": self.wall_s,
            "metrics": self.metrics(),
            "handle_s": self.handle_s,
            "spans": len(self.tracer),
        }
        if trace_path:
            self.tracer.write_chrome_trace(trace_path)
            record["trace"] = trace_path
        with open(path, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
