"""Distributed tuning fleet (docs/distributed.md).

The one process-parallel measurement runner (``Measurer.measure_many``
sends every uncached batch here when the measurer has local workers or
remote endpoints), modelled on TVM's RPC-tracker measurement farm: a
:class:`FleetCoordinator` shards an enumerated design space across the
seats a batch starts with, streams results back as each trial lands, and
tolerates worker death at any point. One seat owns a shard at a time.

Workers come in two kinds:

:class:`LocalProcessWorker`
    One worker *process* per fleet slot, living for one sweep, running
    each trial with retry, quarantine and a ``trial_timeout_s`` watchdog.
:class:`RemoteServeWorker`
    A ``repro serve`` daemon reached over the newline-JSON Unix socket or
    HTTP transport, answering the ``measure`` op with one shard per
    request. One warm daemon box is one fleet slot.

The invariant that makes the fleet safe to trust: a sharded sweep is
**bitwise-identical** to a serial ``Measurer.sweep`` — every latency and
the best config — including under injected worker death at any fleet
width. Trials are deterministic simulations, so a retried config
reproduces the same bits; the coordinator keeps the first result of
each config and the chaos suite (``tests/chaos/test_fleet.py``) asserts
the identity end to end.

Failure model
-------------
A trial attempt that raises or kills its worker (``worker`` fault site)
is retried after a backoff, then quarantined FAILED; a trial outliving
``trial_timeout_s`` is recorded FAILED. The trial pays for either, not
its shard. A worker dying between trials (``fleet`` fault site,
``worker-death``) costs the shard's unmeasured remainder, which is
requeued at the next attempt number while the slot respawns its worker.
A lost dispatch (``coordinator`` token, ``crash``) requeues the whole
shard. A shard that fails :attr:`FleetCoordinator.max_shard_retries`
times aborts the sweep with :class:`~repro.core.errors.WorkerCrash` — by
then the fault is systemic, not transient. Results already streamed are
never lost: they are committed (through :func:`fleet_sweep`, into the
measurer's caches) the moment they arrive.

Endpoint health is tracked per slot by a :class:`CircuitBreaker`
(docs/robustness.md): repeated worker-start failures (any slot) or remote
transport/deadline failures open the breaker, which stops dispatching to
the sick seat for an escalating cooldown, then lets one half-open probe
shard through. A successful probe closes the breaker — a daemon that
restarts mid-sweep *rejoins* the fleet instead of being permanently
retired — while a breaker that opens :attr:`CircuitBreaker.max_opens`
times is deemed dead and retires its seat for good. An endpoint that
stalls keeps its shard until it answers or its client times out; the
breaker and the requeue then hand the shard to another seat.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import faults
from ..core import profiling
from ..core.errors import DeadlineExceededError, FaultInjected, ServeError, WorkerCrash
from ..gpusim.config import A100, GpuSpec
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..schedule.config import TileConfig
from ..tensor.operation import GemmSpec
from .measure import FAILED, Measurer, Trial, _cfg_token

__all__ = [
    "CircuitBreaker",
    "FleetCoordinator",
    "FleetResult",
    "FleetTelemetry",
    "LocalProcessWorker",
    "RemoteServeWorker",
    "fleet_sweep",
    "parse_endpoint",
]

#: (position in the sweep, config) — the unit of fleet work.
Item = Tuple[int, TileConfig]

#: on_result callback signature: (index, latency_us, persist_to_disk).
ResultSink = Callable[[int, float, bool], None]

#: on_trial callback signature: (index, outcome, attempt, detail). The
#: outcome is "compiled" (detail: (compile_s, stage_times, engine_counts)),
#: "endpoint" (detail: the endpoint that answered), "crash" or "timeout"
#: (detail: a description).
TrialSink = Callable[[int, str, int, object], None]


#: Process-global mirrors of the fleet telemetry counters, so a long
#: coordinator (or a daemon hosting many sweeps) shows up on /metrics.
_FLEET_DEATHS = obs_metrics.counter(
    "repro_fleet_worker_deaths_total", "Fleet workers that died mid-shard.")
_BREAKER_OPENS = obs_metrics.counter(
    "repro_breaker_opens_total", "Circuit breakers opened on sick fleet seats.")
_BREAKER_REJOINS = obs_metrics.counter(
    "repro_breaker_rejoins_total",
    "Fleet seats that rejoined after a successful half-open probe.")


def _coordinator_token(sid: int, attempt: int) -> str:
    return f"coordinator|shard={sid}|attempt={attempt}"


def _worker_token(spec: GemmSpec, cfg: TileConfig, sid: int, attempt: int) -> str:
    return f"worker|shard={sid}|attempt={attempt}|{_cfg_token(spec, cfg)}"


# --------------------------------------------------------------------- workers
class _TrialLost(WorkerCrash):
    """A local worker went down with a trial in flight, already charged to
    that trial; the shard's remainder is requeued at no cost to it."""


def _engine_counts(measurer: Measurer) -> Tuple[int, int, int, int]:
    engine = measurer.engine
    return engine.counts() if engine is not None else (0, 0, 0, 0)


def _run_trial(conn, measurer: Measurer, spec: GemmSpec, sid: int, idx: int,
               cfg: TileConfig, first: int, retries: int, backoff_s: float) -> None:
    """Every attempt of one config from attempt ``first`` on, each
    announced by ``("start", sid, idx, attempt)`` so the coordinator knows
    what was in flight if this process dies or hangs; a retry first waits
    ``backoff_s * 2**(attempt - 1)``. A raising attempt sends ``("crash",
    sid, idx, attempt, detail)``. The trial ends with ``("result", sid,
    idx, latency, True, ("compiled", attempt, (compile_s, stage_times,
    engine_counts)))``, where ``engine_counts`` is what the worker's
    incremental engine counted for the trial (hits, misses, bypasses,
    check builds), or with ``("result", sid, idx, inf, False)`` once
    retries are spent (quarantined: a run property, kept out of disk
    caches)."""
    token = _cfg_token(spec, cfg)
    for attempt in range(first, retries + 1):
        if attempt:
            time.sleep(backoff_s * 2 ** (attempt - 1))
        conn.send(("start", sid, idx, attempt))
        measurer.compile_time_s = 0.0
        measurer.stage_times = profiling.StageTimes()
        before = _engine_counts(measurer)
        try:
            faults.inject("worker", token=f"{token}#a{attempt}")
            latency = measurer._compile_and_time(spec, cfg, token=f"{token}#a{attempt}")
        except Exception as e:  # crash-class fault or unexpected compiler bug
            conn.send(("crash", sid, idx, attempt, repr(e)))
            continue
        engine_counts = tuple(b - a for a, b in zip(before, _engine_counts(measurer)))
        cost = (measurer.compile_time_s, dict(measurer.stage_times), engine_counts)
        conn.send(("result", sid, idx, latency, True, ("compiled", attempt, cost)))
        return
    conn.send(("result", sid, idx, FAILED, False))


def _fleet_worker_main(conn, gpu: GpuSpec, via_ir: bool, retries: int,
                       backoff_s: float) -> None:
    """Fleet worker process: a long-lived loop answering shard requests
    ``("shard", sid, attempt, spec, items, trace_ctx, first_attempts)``.

    Each trial runs the serial compile path (:func:`_run_trial`, from the
    attempt ``first_attempts`` names, default 0), so the values returned
    are bit-identical to a serial sweep's, and streams back as it lands,
    so the coordinator loses at most the trial in flight when this
    process dies. Given the coordinator's ``(trace_id, span_id)``, the
    worker records a ``fleet:worker-shard`` span with per-trial children
    and ships the spans back on the ``done`` message, stitching the child
    process into the coordinator's tree; a worker that dies mid-shard
    never ships its spans, so the trace loses detail, never validity.
    """
    try:
        faults.ensure_env_plan()
        measurer = Measurer(gpu, via_ir=via_ir)
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                return
            _, sid, attempt, spec, items, wire_ctx, first = msg
            tracer = None
            with contextlib.ExitStack() as scope:
                if wire_ctx is not None:
                    tracer = scope.enter_context(
                        obs_trace.activate(obs_trace.Tracer(capacity=4096)))
                    scope.enter_context(obs_trace.span(
                        "fleet:worker-shard", parent=obs_trace.SpanContext(*wire_ctx),
                        attrs={"shard": sid, "attempt": attempt,
                               "trials": len(items)}))
                if measurer.engine is not None:
                    measurer.engine.note_batch(spec, [cfg for _, cfg in items])
                for idx, cfg in items:
                    # Between trials: a death here is a shard loss.
                    faults.inject("fleet", token=_worker_token(spec, cfg, sid, attempt))
                    with obs_trace.span("fleet:trial", attrs={"index": idx}):
                        _run_trial(conn, measurer, spec, sid, idx, cfg,
                                   first.get(idx, 0), retries, backoff_s)
            spans = [s.as_dict() for s in tracer.spans()] if tracer is not None else None
            conn.send(("done", sid, spans))
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # coordinator went away; nothing to report to
    finally:
        try:
            conn.close()
        except OSError:
            pass


class LocalProcessWorker:
    """One fleet slot backed by a local worker process that lives until
    the sweep ends or the worker dies."""

    kind = "process"

    def __init__(self, gpu: GpuSpec, via_ir: bool, retries: int = 2,
                 backoff_s: float = 0.01, trial_timeout_s: Optional[float] = None) -> None:
        self.gpu = gpu
        self.via_ir = via_ir
        self.retries = retries
        self.backoff_s = backoff_s
        self.trial_timeout_s = trial_timeout_s
        self._proc = None
        self._conn = None

    def start(self) -> None:
        import multiprocessing as mp

        ctx = mp.get_context()
        self._conn, child = ctx.Pipe(duplex=True)
        self._proc = ctx.Process(
            target=_fleet_worker_main,
            args=(child, self.gpu, self.via_ir, self.retries, self.backoff_s),
            daemon=True,
        )
        self._proc.start()
        child.close()

    def measure_shard(
        self, spec: GemmSpec, sid: int, attempt: int, items: Sequence[Item],
        on_result: ResultSink, should_abort: Optional[Callable[[], bool]] = None,
        attempts: Optional[Dict[int, int]] = None,
        on_trial: Optional[TrialSink] = None,
    ) -> None:
        """Run ``items`` (each from the attempt ``attempts`` names, default
        0) on the worker, streaming each result into ``on_result`` as it
        lands (a compile's ``("compiled", attempt, cost)`` as a fourth
        argument) and each crashed or timed-out attempt into ``on_trial``.
        Raises :class:`WorkerCrash` when the worker dies between trials, or
        puts the worker down and raises it as soon as ``should_abort``
        turns true.
        A worker lost with a trial in flight — dead, or put down once the
        trial outlives ``trial_timeout_s`` — raises :class:`_TrialLost`
        after charging that trial a crash (FAILED once its retries are
        spent) or a timeout (FAILED, unless its result raced the kill)."""
        ctx = obs_trace.current_context()
        wire_ctx = (ctx.trace_id, ctx.span_id) if ctx is not None else None
        report = on_trial or (lambda *_: None)
        #: (index, attempt, monotonic start) of the attempt in flight
        trial = None

        def handle(msg) -> bool:
            """Apply one worker message; True once the shard is done."""
            nonlocal trial
            if msg[0] == "start":
                trial = (msg[2], msg[3], time.monotonic())
                return False
            trial = None
            if msg[0] == "crash":
                report(msg[2], "crash", msg[3], msg[4])
            elif msg[0] == "result":
                on_result(*msg[2:])
            else:
                # Adopt the child process's spans (message element 3,
                # absent from older workers) into every active tracer.
                if len(msg) > 2 and msg[2]:
                    for tracer in obs_trace.active_tracers():
                        tracer.import_spans(msg[2])
                return True
            return False

        try:
            self._conn.send(("shard", sid, attempt, spec, list(items), wire_ctx,
                             dict(attempts or {})))
            while True:
                # Checked before every poll: a worker streaming results is
                # never quiet, and must not outrun a failed sweep's deadline.
                if should_abort is not None and should_abort():
                    self._proc.terminate()
                    raise WorkerCrash(f"shard {sid} abandoned: sweep failed")
                if self._conn.poll(0.05):
                    if handle(self._conn.recv()):
                        return
                elif not self._proc.is_alive():
                    if not self._conn.poll():
                        raise EOFError("worker exited")
                elif (trial is not None and self.trial_timeout_s is not None
                      and time.monotonic() - trial[2] > self.trial_timeout_s):
                    idx, n, _ = trial
                    self._proc.terminate()
                    # Drain before recording the timeout: a result that
                    # landed between the deadline check and the terminate
                    # is a finished measurement, not a hang.
                    try:
                        while trial is not None and self._conn.poll(0.05):
                            handle(self._conn.recv())
                    except (EOFError, OSError):
                        pass
                    if trial is not None:
                        report(idx, "timeout", n,
                               f"exceeded {self.trial_timeout_s}s wall clock")
                        on_result(idx, FAILED, False)
                    raise _TrialLost(f"trial {idx} of shard {sid} outlived its "
                                     f"{self.trial_timeout_s}s budget")
        except (EOFError, OSError) as e:
            self._proc.join(timeout=1.0)
            code = self._proc.exitcode
            if trial is None:
                raise WorkerCrash(
                    f"fleet worker died mid-shard {sid} (exit code {code}): {e}"
                ) from e
            idx, n, _ = trial
            report(idx, "crash", n, f"worker died (exit code {code})")
            if n >= self.retries:
                on_result(idx, FAILED, False)
            raise _TrialLost(f"fleet worker died in trial {idx} of shard {sid} "
                             f"(exit code {code})") from e

    def stop(self) -> None:
        """Retire the worker with SIGTERM → SIGKILL escalation: never leak a
        child or its pipe fd, even one wedged where SIGTERM cannot reach."""
        if self._conn is not None:
            try:
                self._conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        if self._proc is not None:
            try:
                self._proc.join(timeout=0.5)
                if self._proc.is_alive():
                    self._proc.terminate()
                    self._proc.join(timeout=1.0)
                if self._proc.is_alive():
                    self._proc.kill()
                    self._proc.join(timeout=1.0)
            finally:
                self._proc = None
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None


class RemoteServeWorker:
    """One fleet slot backed by a ``repro serve`` daemon answering the
    ``measure`` op. Result streaming is per-shard (one request/response
    round trip per shard) rather than per-trial. The daemon's own measurer
    retries and quarantines its trials, so ``attempts`` and ``on_trial``
    are accepted and unused; each result reaches ``on_result`` with an
    ``("endpoint", 0, endpoint)`` fourth argument."""

    kind = "remote"

    def __init__(self, endpoint: str, via_ir: bool, timeout: float = 600.0) -> None:
        from ..serve.client import ServeClient

        self.endpoint = endpoint
        self.via_ir = via_ir
        kwargs = parse_endpoint(endpoint)
        self._client = ServeClient(timeout=timeout, **kwargs)

    def start(self) -> None:
        self._client.ping()

    def measure_shard(
        self, spec: GemmSpec, sid: int, attempt: int, items: Sequence[Item],
        on_result: ResultSink, should_abort: Optional[Callable[[], bool]] = None,
        attempts: Optional[Dict[int, int]] = None,
        on_trial: Optional[TrialSink] = None,
    ) -> None:
        from ..serve.protocol import spec_to_params

        result = self._client.measure(spec, [cfg for _, cfg in items])
        if bool(result.get("via_ir")) != bool(self.via_ir):
            raise ServeError(
                f"fleet worker {self.endpoint} measures via_ir="
                f"{result.get('via_ir')} but this sweep needs via_ir="
                f"{self.via_ir}; its latencies would not be bitwise-"
                "comparable to the serial sweep"
            )
        # A daemon that dropped a field (a convolution's footprint ratios)
        # measured another problem; its latencies must not be committed
        # under this spec's cache key.
        if result.get("spec") != spec_to_params(spec):
            raise ServeError(
                f"fleet worker {self.endpoint} measured spec "
                f"{result.get('spec')} but this sweep needs "
                f"{spec_to_params(spec)}; its latencies would not be "
                "bitwise-comparable to the serial sweep"
            )
        latencies = result.get("latencies", [])
        persist = result.get("persist", [True] * len(latencies))
        if len(latencies) != len(items):
            raise ServeError(
                f"fleet worker {self.endpoint} answered {len(latencies)} "
                f"latencies for a {len(items)}-trial shard"
            )
        for (idx, _), latency, keep in zip(items, latencies, persist):
            on_result(idx, float(latency), bool(keep), ("endpoint", 0, self.endpoint))

    def stop(self) -> None:
        pass  # the daemon outlives the sweep by design


def parse_endpoint(endpoint: str) -> Dict[str, object]:
    """``host:port`` → TCP/HTTP client kwargs; anything else is a Unix
    socket path (the jsonl transport)."""
    host, sep, port = endpoint.rpartition(":")
    if sep and port.isdigit() and "/" not in host:
        return {"host": host or "127.0.0.1", "port": int(port)}
    return {"socket_path": endpoint}


# ------------------------------------------------------------ circuit breaker
class CircuitBreaker:
    """Per-slot endpoint health: closed → open → half-open → closed.

    *Closed* (healthy): every dispatch is allowed; ``threshold``
    consecutive failures trip the breaker *open*. *Open*: no dispatches
    for an escalating cooldown (``cooldown_s * 2**(opens-1)``, capped at
    16×), after which the breaker goes *half-open* and admits exactly one
    probe shard. A probe success closes the breaker — the seat rejoins
    the fleet; a probe failure re-opens it with a longer cooldown. A
    breaker that has opened ``max_opens`` times is :attr:`exhausted`:
    the endpoint is dead, not flaky, and its seat retires.

    Not thread-safe by design: each fleet slot owns one breaker and only
    its own driver thread touches it.
    """

    def __init__(self, threshold: int = 3, cooldown_s: float = 0.25,
                 max_opens: int = 5) -> None:
        self.threshold = max(1, int(threshold))
        self.cooldown_s = max(0.0, float(cooldown_s))
        self.max_opens = max(1, int(max_opens))
        self.state = "closed"
        #: consecutive failures while closed (reset on success or trip)
        self.failures = 0
        #: lifetime count of closed/half-open → open transitions
        self.opens = 0
        self._opened_at = 0.0
        self._probe_out = False

    @property
    def exhausted(self) -> bool:
        """True once the breaker has opened ``max_opens`` times: give up."""
        return self.opens >= self.max_opens

    def _cooldown(self) -> float:
        return self.cooldown_s * (2 ** min(self.opens - 1, 4))

    def allow(self) -> bool:
        """May this slot take a shard right now? An open breaker whose
        cooldown has elapsed transitions to half-open and grants the one
        probe; a half-open breaker with its probe already out refuses."""
        if self.state == "closed":
            return True
        if self.state == "open":
            if time.monotonic() - self._opened_at < self._cooldown():
                return False
            self.state = "half-open"
            self._probe_out = True
            return True
        if self._probe_out:
            return False
        self._probe_out = True
        return True

    def release_probe(self) -> None:
        """Return an unused probe permission (``allow`` granted but no
        shard was available to dispatch)."""
        if self.state == "half-open":
            self._probe_out = False

    def record_success(self) -> bool:
        """A dispatch completed. Returns True when this success *rejoined*
        the seat (the breaker was not closed — a probe came back alive)."""
        rejoined = self.state != "closed"
        self.state = "closed"
        self.failures = 0
        self._probe_out = False
        return rejoined

    def record_failure(self) -> bool:
        """A dispatch failed at the transport (worker start, remote I/O,
        remote deadline). Returns True when this failure *opened* the
        breaker (so the caller can count opens and check exhaustion)."""
        if self.state == "open":
            return False
        if self.state == "half-open":
            self._probe_out = False
            self._trip()
            return True
        self.failures += 1
        if self.failures >= self.threshold:
            self._trip()
            return True
        return False

    def _trip(self) -> None:
        self.state = "open"
        self.opens += 1
        self.failures = 0
        self._opened_at = time.monotonic()


# ----------------------------------------------------------------- coordinator
@dataclasses.dataclass(frozen=True)
class FleetTelemetry:
    """What the sweep cost the fleet: dispatches, deaths, losses, breakers.
    Adding two sums their counts (``n_workers_peak`` takes the larger), so
    a measurer can total every batch it ran on the fleet."""

    #: seats the batch ran on (local workers plus endpoints)
    n_workers_peak: int
    n_shards: int
    shards_dispatched: int
    worker_deaths: int
    shard_losses: int
    results_streamed: int
    breaker_opens: int = 0
    breaker_rejoins: int = 0
    #: coordinator runs summed here (one per fleet batch)
    batches: int = 1

    def __add__(self, other: "FleetTelemetry") -> "FleetTelemetry":
        total = {f.name: getattr(self, f.name) + getattr(other, f.name)
                 for f in dataclasses.fields(self)}
        total["n_workers_peak"] = max(self.n_workers_peak, other.n_workers_peak)
        return FleetTelemetry(**total)

    def summary(self) -> str:
        out = (
            f"{self.batches} batch(es), "
            f"{self.n_shards} shard(s) over {self.n_workers_peak} worker(s), "
            f"{self.shards_dispatched} dispatch(es), "
            f"{self.results_streamed} result(s) streamed"
        )
        if self.worker_deaths or self.shard_losses:
            out += (
                f"; {self.worker_deaths} worker death(s), "
                f"{self.shard_losses} shard loss(es) recovered"
            )
        if self.breaker_opens:
            out += (
                f"; {self.breaker_opens} circuit-breaker open(s), "
                f"{self.breaker_rejoins} rejoin(s)"
            )
        return out


@dataclasses.dataclass(frozen=True)
class FleetResult:
    """Latencies aligned 1:1 with the input space, plus fleet telemetry."""

    latencies: List[float]
    telemetry: FleetTelemetry


@dataclasses.dataclass(frozen=True)
class _Shard:
    """A contiguous slice of the space: its unmeasured items and the
    attempt number of its next dispatch."""

    sid: int
    items: List[Item]
    attempt: int = 0


class _Slot:
    """One fleet seat: a driver thread plus the worker it manages."""

    def __init__(self, slot_id: int, factory: Callable[[], object],
                 remote: bool = False,
                 breaker: Optional[CircuitBreaker] = None) -> None:
        self.slot_id = slot_id
        self.factory = factory
        self.remote = remote
        self.retired = False
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.thread: Optional[threading.Thread] = None


class FleetCoordinator:
    """Shard a design space over a fixed set of seats (module docstring).

    Parameters
    ----------
    spec / configs:
        The problem and the (deduplicated) configs to measure.
    gpu / via_ir:
        Measurement identity — must match the serial measurer's for the
        bitwise-identity guarantee to be meaningful.
    workers:
        Local worker processes, one seat each.
    endpoints:
        Remote ``measure``-op daemons, one seat each, on top of the local
        workers.
    shard_size:
        Trials per shard. Defaults to ~4 shards per slot (enough
        granularity for balancing without drowning in dispatch overhead).
    max_shard_retries:
        Times one shard may be lost (worker death between trials / lost
        dispatch) before the sweep aborts with :class:`WorkerCrash`.
    trial_retries / trial_backoff_s / trial_timeout_s:
        Local workers' retries of a crashed trial before quarantine, the
        base of their exponential backoff, and the wall-clock budget after
        which a trial's worker is put down (None: unbounded).
    breaker_threshold / breaker_cooldown_s / breaker_max_opens:
        Per-slot :class:`CircuitBreaker` tuning — consecutive transport
        failures before the slot stops taking shards, base cooldown before
        its half-open probe, and opens before the seat retires for good.
    """

    def __init__(
        self,
        spec: GemmSpec,
        configs: Sequence[TileConfig],
        *,
        gpu: GpuSpec = A100,
        via_ir: bool = False,
        workers: int = 2,
        endpoints: Sequence[str] = (),
        shard_size: Optional[int] = None,
        max_shard_retries: int = 8,
        trial_retries: int = 2,
        trial_backoff_s: float = 0.01,
        trial_timeout_s: Optional[float] = None,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 0.25,
        breaker_max_opens: int = 5,
    ) -> None:
        self.spec = spec
        self.configs = list(configs)
        self.gpu = gpu
        self.via_ir = via_ir
        self.endpoints = list(endpoints)
        self.max_shard_retries = max(0, int(max_shard_retries))
        self.trial_retries = trial_retries
        self.trial_backoff_s = trial_backoff_s
        self.trial_timeout_s = trial_timeout_s
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_s = breaker_cooldown_s
        self.breaker_max_opens = breaker_max_opens
        self.workers = max(0, int(workers))
        n_slots = self.workers + len(self.endpoints)
        if n_slots < 1:
            raise ValueError("a fleet needs at least one local or remote worker")
        if shard_size is None:
            shard_size = max(1, math.ceil(len(self.configs) / (4 * n_slots)))
        self.shard_size = max(1, int(shard_size))

        self._cond = threading.Condition()
        self._queue: List[_Shard] = [
            _Shard(sid, [(i, self.configs[i]) for i in range(lo, min(lo + self.shard_size,
                                                                     len(self.configs)))])
            for sid, lo in enumerate(range(0, len(self.configs), self.shard_size))
        ]
        self._n_shards = len(self._queue)
        self._results: Dict[int, float] = {}
        #: next attempt number per index, once an attempt has failed
        self._attempts: Dict[int, int] = {}
        self._on_result: Optional[ResultSink] = None
        self._on_trial: Optional[TrialSink] = None
        #: commits land one at a time, as on the serial path
        self._sink_lock = threading.Lock()
        self._slots: List[_Slot] = []
        self._done = False
        self._failure: Optional[BaseException] = None
        # telemetry
        self._dispatched = 0
        self._deaths = 0
        self._losses = 0
        self._streamed = 0
        self._breaker_opens = 0
        self._breaker_rejoins = 0
        #: trace context of the coordinator's root span, handed to the
        #: driver threads (which have no span stack of their own).
        self._trace_ctx: Optional[obs_trace.SpanContext] = None

    # ------------------------------------------------------------- public api
    def run(self, on_result: Optional[ResultSink] = None,
            on_trial: Optional[TrialSink] = None,
            deadline: Optional[float] = None) -> FleetResult:
        """Measure everything; returns when every config has a result.

        ``on_result(index, latency, persist)`` is invoked exactly once per
        config, as its first result streams in (the hook
        :func:`fleet_sweep` uses to commit into a measurer's caches).
        ``on_trial(index, outcome, attempt, detail)`` hears, once per
        trial, where its result came from (a local compile's cost or the
        endpoint that answered) and every crashed or timed-out attempt
        from local workers.
        The two are never called concurrently. ``deadline`` (absolute
        ``time.monotonic``) aborts with :class:`DeadlineExceededError`,
        putting workers down; streamed results stay committed.
        """
        with obs_trace.span(
            "fleet:coordinator",
            attrs={"configs": len(self.configs), "shards": self._n_shards},
        ) as root:
            self._trace_ctx = root.context() if root is not None else None
            return self._run(on_result, on_trial, deadline)

    def _run(self, on_result: Optional[ResultSink], on_trial: Optional[TrialSink],
             deadline: Optional[float]) -> FleetResult:
        self._on_result = on_result
        self._on_trial = on_trial
        if not self.configs:
            return FleetResult([], self._telemetry_locked())
        with self._cond:
            for endpoint in self.endpoints:
                self._add_slot_locked(self._remote_factory(endpoint), remote=True)
            for _ in range(self.workers):
                self._add_slot_locked(self._local_factory())
        try:
            with self._cond:
                while len(self._results) < len(self.configs) and self._failure is None:
                    if deadline is not None and time.monotonic() >= deadline:
                        self._failure = DeadlineExceededError(
                            f"sweep of {self.spec.name} ran out of its deadline after "
                            f"{len(self._results)}/{len(self.configs)} uncached trials; "
                            "committed results are kept"
                        )
                        break
                    self._cond.wait(0.05)
        finally:
            with self._cond:
                self._done = True
                self._cond.notify_all()
            for slot in self._slots:
                if slot.thread is not None:
                    slot.thread.join(timeout=10.0)
        if self._failure is not None:
            raise self._failure
        with self._cond:
            telemetry = self._telemetry_locked()
        return FleetResult(
            [self._results[i] for i in range(len(self.configs))], telemetry
        )

    @property
    def telemetry(self) -> FleetTelemetry:
        with self._cond:
            return self._telemetry_locked()

    # ---------------------------------------------------------------- slots
    def _local_factory(self) -> Callable[[], object]:
        return lambda: LocalProcessWorker(self.gpu, self.via_ir, self.trial_retries,
                                          self.trial_backoff_s, self.trial_timeout_s)

    def _remote_factory(self, endpoint: str) -> Callable[[], object]:
        return lambda: RemoteServeWorker(endpoint, self.via_ir)

    def _add_slot_locked(self, factory: Callable[[], object],
                         remote: bool = False) -> None:
        slot = _Slot(
            len(self._slots), factory, remote=remote,
            breaker=CircuitBreaker(
                threshold=self.breaker_threshold,
                cooldown_s=self.breaker_cooldown_s,
                max_opens=self.breaker_max_opens,
            ),
        )
        self._slots.append(slot)
        slot.thread = threading.Thread(
            target=self._drive, args=(slot,), name=f"fleet-slot-{slot.slot_id}",
            daemon=True,
        )
        slot.thread.start()

    # --------------------------------------------------------------- driving
    def _over(self) -> bool:
        with self._cond:
            return self._done or self._failure is not None

    def _failed(self) -> bool:
        """The sweep failed or passed its deadline: stop measuring. A
        completed sweep is not failed, so a worker still reads the ``done``
        message (and trace spans) of the shard that finished it."""
        with self._cond:
            return self._failure is not None

    def _drive(self, slot: _Slot) -> None:
        worker = None
        try:
            while True:
                with self._cond:
                    shard = None
                    while shard is None:
                        if self._done or self._failure is not None or slot.retired:
                            return
                        if not slot.breaker.allow():
                            # Open breaker: sit out the cooldown without
                            # touching the queue.
                            self._cond.wait(0.05)
                            continue
                        shard = self._queue.pop(0) if self._queue else None
                        if shard is None:
                            slot.breaker.release_probe()
                            self._cond.wait(0.05)
                    self._dispatched += 1
                    attempts = {i: self._attempts[i] for i, _ in shard.items
                                if i in self._attempts}
                if worker is None:
                    try:
                        worker = slot.factory()
                        worker.start()
                    except Exception:
                        # The slot cannot get a worker (e.g. its endpoint is
                        # down). Hand the shard back untouched — this is not
                        # the shard's fault — and feed the breaker so a dead
                        # endpoint backs off instead of stalling the sweep
                        # (and retires for good once the breaker exhausts).
                        worker = None
                        with self._cond:
                            self._breaker_failure_locked(slot)
                            self._queue.append(shard)
                            self._cond.notify_all()
                        time.sleep(0.05)
                        continue
                try:
                    faults.inject(
                        "fleet",
                        token=_coordinator_token(shard.sid, shard.attempt),
                        kinds=("crash",),
                    )
                    # Driver threads have no span stack; parent the dispatch
                    # explicitly under the coordinator's root span so local
                    # worker-shard spans (and remote serve spans, via the
                    # client context on this thread) stitch into one tree.
                    with obs_trace.span(
                        "fleet:dispatch", parent=self._trace_ctx,
                        attrs={"slot": slot.slot_id, "shard": shard.sid,
                               "attempt": shard.attempt,
                               "kind": getattr(worker, "kind", "unknown")},
                    ):
                        worker.measure_shard(
                            self.spec, shard.sid, shard.attempt, shard.items,
                            self._commit, should_abort=self._failed,
                            attempts=attempts, on_trial=self._trial,
                        )
                except FaultInjected:
                    # Lost dispatch (shard-loss): the worker never saw the
                    # shard; requeue it whole, keep the worker.
                    self._abandon(shard, death=False)
                except (WorkerCrash, ServeError, EOFError, OSError) as e:
                    if self._over():
                        return
                    if slot.remote:
                        # Remote transport/deadline failure: the endpoint is
                        # sick, not the shard. Local mid-shard deaths stay
                        # out of the breaker — they are the chaos suite's
                        # injected faults, recovered by requeue alone.
                        with self._cond:
                            self._breaker_failure_locked(slot)
                    self._abandon(shard, death=True, error=e)
                    if worker is not None:
                        try:
                            worker.stop()
                        finally:
                            worker = None
                else:
                    if slot.breaker.record_success():
                        with self._cond:
                            self._breaker_rejoins += 1
                        _BREAKER_REJOINS.inc()
        except BaseException as e:  # never die silently: fail the sweep
            with self._cond:
                if self._failure is None:
                    self._failure = e
                self._cond.notify_all()
        finally:
            if worker is not None:
                worker.stop()

    def _breaker_failure_locked(self, slot: _Slot) -> None:
        """Feed one transport failure into ``slot``'s breaker; when the
        breaker exhausts, the seat retires — and when every seat is gone,
        the sweep aborts rather than hangs."""
        if slot.breaker.record_failure():
            self._breaker_opens += 1
            _BREAKER_OPENS.inc()
            if slot.breaker.exhausted:
                slot.retired = True
                if not any(
                    not s.retired for s in self._slots
                ) and self._failure is None:
                    self._failure = WorkerCrash(
                        "every fleet slot is gone (workers "
                        "unreachable); sweep cannot proceed"
                    )

    def _remaining(self, items: Sequence[Item]) -> List[Item]:
        return [it for it in items if it[0] not in self._results]

    def _commit(self, idx: int, latency: float, persist: bool,
                trial: Optional[Tuple[str, int, object]] = None) -> None:
        """First-write-wins merge of one streamed result; ``trial`` is the
        ``(outcome, attempt, detail)`` that ``on_trial`` hears with it."""
        with self._cond:
            self._streamed += 1
            if idx in self._results:
                return
            self._results[idx] = latency
            if len(self._results) == len(self.configs):
                self._cond.notify_all()
        with self._sink_lock:
            if trial is not None and self._on_trial is not None:
                self._on_trial(idx, *trial)
            if self._on_result is not None:
                self._on_result(idx, latency, persist)

    def _trial(self, idx: int, outcome: str, attempt: int, detail: object) -> None:
        """A local worker's crashed or timed-out attempt; the next dispatch
        of ``idx`` resumes after it."""
        with self._cond:
            self._attempts[idx] = attempt + 1
        if self._on_trial is not None:
            with self._sink_lock:
                self._on_trial(idx, outcome, attempt, detail)

    def _abandon(self, shard: _Shard, death: bool,
                 error: Optional[BaseException] = None) -> None:
        """A dispatch failed: requeue whatever the shard still owes, at the
        next shard attempt unless a trial in flight already paid."""
        with self._cond:
            if death:
                self._deaths += 1
                _FLEET_DEATHS.inc()
            self._losses += 1
            remaining = self._remaining(shard.items)
            if not remaining:
                self._cond.notify_all()
                return
            if isinstance(error, _TrialLost):
                self._queue.append(_Shard(shard.sid, remaining, shard.attempt))
            elif shard.attempt >= self.max_shard_retries:
                if self._failure is None:
                    self._failure = WorkerCrash(
                        f"fleet shard {shard.sid} lost {shard.attempt + 1} "
                        f"time(s) ({len(remaining)} trial(s) unmeasured); "
                        f"last error: {error!r}",
                        diagnostic=error,
                    )
            else:
                self._queue.append(_Shard(shard.sid, remaining, shard.attempt + 1))
            self._cond.notify_all()

    def _telemetry_locked(self) -> FleetTelemetry:
        return FleetTelemetry(
            n_workers_peak=len(self._slots),
            n_shards=self._n_shards,
            shards_dispatched=self._dispatched,
            worker_deaths=self._deaths,
            shard_losses=self._losses,
            results_streamed=self._streamed,
            breaker_opens=self._breaker_opens,
            breaker_rejoins=self._breaker_rejoins,
        )


# ------------------------------------------------------------------ integration
def fleet_sweep(
    measurer: Measurer,
    spec: GemmSpec,
    space: Sequence[TileConfig],
    *,
    workers: int = 2,
    endpoints: Sequence[str] = (),
    shard_size: Optional[int] = None,
    deadline: Optional[float] = None,
) -> Tuple[List[float], FleetTelemetry]:
    """Sweep ``space`` over a worker fleet, committing every result into
    ``measurer`` exactly as a serial sweep would.

    This is ``measurer``'s own batch path (cache lookup, in-batch dedup,
    commit) with the uncached configs run on ``workers`` local processes
    plus one slot per remote ``endpoints`` daemon;
    :meth:`Measurer.measure_many` calls it with the measurer's own
    workers and endpoints. Local workers take the measurer's ``retries``,
    ``backoff_s`` and ``trial_timeout_s``, and their compiles, crashes and
    timeouts land in its telemetry, as do the trials endpoints answer and
    the coordinator's :class:`FleetTelemetry`. The latencies are aligned
    with ``space`` and bitwise-equal to a serial
    ``measurer.sweep(spec, space)``; afterwards every config is a
    memory-cache hit. ``deadline`` is as in :meth:`FleetCoordinator.run`.
    """
    telemetry = FleetTelemetry(0, 0, 0, 0, 0, 0, batches=0)

    def run(order: List[Trial]) -> None:
        nonlocal telemetry
        coordinator = FleetCoordinator(
            spec,
            [cfg for _, cfg, _ in order],
            gpu=measurer.gpu,
            via_ir=measurer.via_ir,
            workers=workers,
            endpoints=endpoints,
            shard_size=shard_size,
            trial_retries=measurer.retries,
            trial_backoff_s=measurer.backoff_s,
            trial_timeout_s=measurer.trial_timeout_s,
        )

        def on_result(pos: int, latency: float, persist: bool) -> None:
            measurer._record(spec, order[pos], latency, persist=persist)

        def on_trial(pos: int, outcome: str, attempt: int, detail) -> None:
            key, cfg, _ = order[pos]
            if outcome == "compiled":
                measurer._tally_compile(*detail)
            elif outcome == "endpoint":
                measurer._tally_endpoint_trial()
            else:
                measurer._tally_failure(spec, key, cfg, outcome, attempt, detail)

        try:
            coordinator.run(on_result, on_trial, deadline)
        finally:
            telemetry = coordinator.telemetry
            measurer._tally_fleet(telemetry)

    return measurer._measure_batch(spec, space, run), telemetry
