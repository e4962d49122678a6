"""The ``repro serve`` daemon: compile-as-a-service.

One long-running process pays the expensive state once — the measurer's
TE-graph cache, the memoized design-space enumeration, the disk
measurement cache, the artifact registry — and then answers compile/tune
requests for the cost of a registry lookup. The serving loop is:

1. **accept**: listener threads (Unix socket speaking newline-JSON, TCP
   speaking HTTP POST) push accepted connections onto a thread-safe
   request queue;
2. **handle**: a fixed pool of worker threads drains the queue; each
   request is dispatched to its operation handler under a per-request
   stage-profiling collector, so every response reports exactly which
   compile stages (if any) it paid for;
3. **dedup**: concurrent requests for the same artifact key share one
   in-flight solve through a futures map — N identical tune requests run
   exactly one sweep, and all N get the same artifact (or the same error);
4. **persist**: solved problems are published to the content-addressed
   :class:`~repro.serve.registry.ArtifactRegistry`; re-encounters are
   served from it without touching the compiler.

Graceful shutdown (``shutdown`` request or SIGINT/SIGTERM) stops
accepting, drains the workers, and flushes the registry index last.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import pathlib
import queue
import socket
import threading
import time
import uuid
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Dict, List, Optional, Tuple

from ..codegen import emit_cuda
from ..core import profiling
from ..core.compiler import AlcopCompiler
from ..core.errors import (
    CompileError,
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
)
from ..gpusim.config import A100, GpuSpec
from ..ir.printer import format_kernel
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..tensor.operation import GemmSpec
from ..tuning.cache import MeasurementCache, compiler_version_hash, gpu_fingerprint
from ..tuning.measure import Measurer
from ..tuning.space import SpaceOptions, enumerate_space, restrict_space
from . import protocol
from .protocol import (
    OPS,
    PROTOCOL_VERSION,
    decode_message,
    encode_latency,
    encode_message,
    error_response,
    ok_response,
    parse_deadline,
    parse_measure_params,
    parse_problem_params,
)
from .registry import ArtifactRegistry, KernelArtifact, artifact_key

__all__ = [
    "ReproServer",
    "EndpointStats",
    "DEFAULT_SPACE",
    "DEFAULT_WORKERS",
    "DEFAULT_IDLE_TIMEOUT",
    "DEFAULT_MAX_QUEUE",
]

#: Design-space cap used when a request does not name one (matches the
#: CLI's ``--space`` default so ``repro compile`` and a served compile
#: solve the same search problem).
DEFAULT_SPACE = 600

DEFAULT_WORKERS = 4

#: Seconds a keep-alive connection may sit idle between requests before
#: the daemon closes it. Each open connection pins one worker thread, so
#: without this bound ``workers`` idle clients would starve the pool and
#: park every new request (including ping) in the queue forever.
DEFAULT_IDLE_TIMEOUT = 120.0

#: Admission-control bound on the connection/work queue. When the queue is
#: full, new connections are shed with a fast ``OverloadedError`` envelope
#: (carrying ``retry_after_s``) instead of waiting unboundedly — a daemon
#: under 4x sustained load answers *something* to every client rather than
#: growing an invisible backlog of doomed requests.
DEFAULT_MAX_QUEUE = 64

#: Latency samples kept per endpoint for the p50/p95/p99 estimates.
_LATENCY_WINDOW = 2048

#: Cap on spans shipped back in a traced response envelope — a runaway
#: sweep must not balloon one response past MAX_MESSAGE_BYTES.
_MAX_RESPONSE_SPANS = 2048

#: Server counters and their Prometheus help text. The ``counters`` dict
#: on the instance stays the status-op surface; each name is mirrored
#: into the process-global registry as ``repro_<name>_total``.
_COUNTER_HELP = {
    "sweeps_run": "Design-space sweeps the daemon has run.",
    "artifacts_built": "Kernel artifacts built and published to the registry.",
    "dedup_hits": "Requests served by joining another request's in-flight solve.",
    "fleet_shards": "Fleet measure shards served.",
    "fleet_trials": "Individual fleet trials measured for coordinators.",
    "requests_shed": "Connections refused at admission because the queue was full.",
    "deadline_exceeded": "Requests rejected or aborted past their deadline_s budget.",
}


class EndpointStats:
    """Per-operation request telemetry: counts, errors, latency quantiles."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.errors = 0
        #: requests refused at admission (queue full)
        self.shed = 0
        #: requests rejected or aborted because their deadline_s expired
        self.deadline_exceeded = 0
        self._latencies: List[float] = []

    def record(self, seconds: float, ok: bool) -> None:
        with self._lock:
            self.requests += 1
            if not ok:
                self.errors += 1
            self._latencies.append(seconds)
            if len(self._latencies) > _LATENCY_WINDOW:
                del self._latencies[: len(self._latencies) - _LATENCY_WINDOW]

    def record_shed(self) -> None:
        """A connection refused at admission: counted as a request + error
        so overload is visible in the same place as everything else."""
        with self._lock:
            self.requests += 1
            self.errors += 1
            self.shed += 1

    def record_deadline_exceeded(self) -> None:
        with self._lock:
            self.deadline_exceeded += 1

    @staticmethod
    def _quantile(ordered: List[float], q: float) -> float:
        if not ordered:
            return 0.0
        idx = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
        return ordered[idx]

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            ordered = sorted(self._latencies)
            return {
                "requests": self.requests,
                "errors": self.errors,
                "shed": self.shed,
                "deadline_exceeded": self.deadline_exceeded,
                "p50_ms": round(self._quantile(ordered, 0.50) * 1e3, 3),
                "p95_ms": round(self._quantile(ordered, 0.95) * 1e3, 3),
                "p99_ms": round(self._quantile(ordered, 0.99) * 1e3, 3),
            }


class ReproServer:
    """The compile-as-a-service daemon (see module docstring).

    Parameters
    ----------
    gpu:
        Target hardware model every request compiles for.
    socket_path / port / host:
        At least one listener: a Unix socket (newline-JSON) and/or a TCP
        port (HTTP). ``port=0`` binds an ephemeral port (tests); the bound
        port is readable from :attr:`port` after :meth:`start`.
    registry:
        The artifact registry; defaults to an in-memory one.
    cache_dir:
        Optional disk measurement cache backing the shared measurer.
    jobs:
        Measurement worker width (fleet local workers) used by sweeps the
        daemon runs.
    workers:
        Request-handling threads draining the connection queue.
    via_ir:
        Measurement mode of the shared measurer (see ``Measurer``).
    idle_timeout:
        Seconds a keep-alive connection may sit idle between requests
        before the daemon closes it and returns its worker to the pool
        (``None`` or ``<= 0`` disables the bound — tests only).
    max_queue:
        Admission-control bound on the connection queue. An accepted
        connection that finds the queue full is shed immediately with an
        ``OverloadedError`` envelope carrying ``retry_after_s`` — never a
        hang, never a silently dropped socket.
    trace_dir / trace_sample_rate:
        When ``trace_dir`` is set, a deterministic fraction
        (``trace_sample_rate``, 0..1) of requests are traced server-side
        and each sampled request's span tree is written to one Chrome-trace
        JSON file under the directory. Independent of client-initiated
        tracing, which always rides back on the response envelope.
    """

    def __init__(
        self,
        gpu: GpuSpec = A100,
        socket_path: Optional[str] = None,
        port: Optional[int] = None,
        host: str = "127.0.0.1",
        registry: Optional[ArtifactRegistry] = None,
        cache_dir: Optional[str] = None,
        jobs: int = 1,
        workers: int = DEFAULT_WORKERS,
        via_ir: bool = False,
        default_space: int = DEFAULT_SPACE,
        idle_timeout: Optional[float] = DEFAULT_IDLE_TIMEOUT,
        max_queue: int = DEFAULT_MAX_QUEUE,
        trace_dir: Optional[str] = None,
        trace_sample_rate: float = 1.0,
    ) -> None:
        if socket_path is None and port is None:
            raise ValueError("ReproServer needs a socket_path and/or a port to listen on")
        self.gpu = gpu
        self.socket_path = socket_path
        self.port = port
        self.host = host
        self.registry = registry if registry is not None else ArtifactRegistry()
        cache = MeasurementCache(cache_dir) if cache_dir else None
        self.measurer = Measurer(gpu, via_ir=via_ir, cache=cache, jobs=jobs)
        #: builds each winning config sync-verified, with the same stage
        #: annotations as the measurement path so per-request profiles
        #: account for it.
        self._compiler = AlcopCompiler(gpu, measurer=self.measurer, verify_sync=True)
        self.workers = max(1, int(workers))
        self.default_space = int(default_space)
        #: None (or <= 0) disables the idle bound — tests only; a shared
        #: daemon should always keep one so idle clients cannot pin workers.
        self.idle_timeout = idle_timeout if idle_timeout and idle_timeout > 0 else None
        #: tune session id stamped into every artifact this daemon builds.
        self.session_id = uuid.uuid4().hex[:12]
        self.started_at = time.time()

        self._stats: Dict[str, EndpointStats] = {op: EndpointStats() for op in OPS}
        self._stats["invalid"] = EndpointStats()
        #: connections shed at admission, before any op is known
        self._stats["admission"] = EndpointStats()
        self._counter_lock = threading.Lock()
        self.counters: Dict[str, int] = {name: 0 for name in _COUNTER_HELP}
        self._obs_counters = {
            name: obs_metrics.counter(f"repro_{name}_total", help_text)
            for name, help_text in _COUNTER_HELP.items()
        }
        self._request_seconds = obs_metrics.histogram(
            "repro_request_seconds", "End-to-end request handling latency.")
        self._inflight: Dict[str, Future] = {}
        self._inflight_lock = threading.Lock()

        self.trace_dir = trace_dir
        self.trace_sample_rate = max(0.0, min(1.0, float(trace_sample_rate)))
        self._trace_accum = 0.0  # deterministic sampling accumulator

        self.max_queue = max(1, int(max_queue))
        # (transport kind, connection, enqueue time) — the enqueue stamp
        # lets the first request on the connection charge its queue wait
        # against its deadline_s budget.
        self._conn_queue: "queue.Queue[Tuple[str, socket.socket, float]]" = queue.Queue(
            maxsize=self.max_queue
        )
        self._listeners: List[socket.socket] = []
        self._open_conns: set = set()
        self._open_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._stop_event = threading.Event()
        self._started = False

        # Callback gauges: re-registering replaces the callback, so the
        # newest server instance in a process (tests spin up several) is
        # the one the exposition page reflects.
        obs_metrics.gauge(
            "repro_serve_queue_depth",
            "Connections waiting in the admission queue.",
            fn=self._conn_queue.qsize)
        obs_metrics.gauge(
            "repro_serve_inflight",
            "Deduplicated solves currently in flight.",
            fn=lambda: len(self._inflight))

    # -------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Bind listeners and start acceptor + worker threads (non-blocking)."""
        if self._started:
            return
        if self.socket_path is not None:
            path = str(self.socket_path)
            if os.path.exists(path):
                os.unlink(path)  # stale socket from a dead daemon
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.bind(path)
            sock.listen(64)
            sock.settimeout(0.25)  # bounded accept() so stop() is prompt
            self._listeners.append(sock)
            self._spawn(self._accept_loop, sock, "jsonl", name="repro-serve-accept-unix")
        if self.port is not None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((self.host, self.port))
            sock.listen(64)
            sock.settimeout(0.25)
            self.port = sock.getsockname()[1]
            self._listeners.append(sock)
            self._spawn(self._accept_loop, sock, "http", name="repro-serve-accept-http")
        for i in range(self.workers):
            self._spawn(self._worker_loop, name=f"repro-serve-worker-{i}")
        self._started = True

    def _spawn(self, target, *args, name: str) -> None:
        t = threading.Thread(target=target, args=args, name=name, daemon=True)
        t.start()
        self._threads.append(t)

    def serve_forever(self) -> None:
        """Start (if needed), block until :meth:`stop`, then shut down."""
        self.start()
        self._stop_event.wait()
        self.shutdown()

    def stop(self) -> None:
        """Signal shutdown: stop accepting, let workers drain. Safe to call
        from a request handler (never joins the calling thread)."""
        self._stop_event.set()
        for sock in self._listeners:
            try:
                sock.close()
            except OSError:
                pass
        # Wake workers parked in readline() on idle keep-alive connections:
        # SHUT_RD gives them EOF while an in-flight response stays writable.
        with self._open_lock:
            open_conns = list(self._open_conns)
        for conn in open_conns:
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass

    def shutdown(self, timeout: float = 30.0) -> None:
        """Graceful stop: drain workers, then flush the registry last so
        everything solved before the stop signal is durably indexed."""
        self.stop()
        deadline = time.monotonic() + timeout
        for t in self._threads:
            if t is threading.current_thread():
                continue
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        if self.socket_path is not None and os.path.exists(str(self.socket_path)):
            try:
                os.unlink(str(self.socket_path))
            except OSError:
                pass
        self.registry.flush()

    @property
    def running(self) -> bool:
        return self._started and not self._stop_event.is_set()

    def _count(self, name: str, n: int = 1) -> None:
        """Increment a server counter and its process-global obs mirror."""
        with self._counter_lock:
            self.counters[name] += n
        self._obs_counters[name].inc(n)

    # ------------------------------------------------------------- networking
    def _accept_loop(self, listener: socket.socket, kind: str) -> None:
        while not self._stop_event.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue  # periodic stop_event check
            except OSError:
                return  # listener closed by stop()
            # Accepted sockets inherit the listener's 0.25s timeout; replace
            # it with the idle bound so a silent keep-alive client eventually
            # returns its worker to the pool (the timeout lands in readline()
            # as a socket.timeout, which the serve loops answer or close on).
            conn.settimeout(self.idle_timeout)
            try:
                self._conn_queue.put_nowait((kind, conn, time.monotonic()))
            except queue.Full:
                self._shed(kind, conn)

    def _retry_after_s(self) -> float:
        """Backoff hint for a shed client: scales with how many queued
        requests each worker would have to clear first, capped so a client
        never parks for long on a hint that may already be stale."""
        backlog = self._conn_queue.qsize() / max(1, self.workers)
        return round(min(5.0, 0.1 * (1.0 + backlog)), 3)

    def _shed(self, kind: str, conn: socket.socket) -> None:
        """Admission control: the queue is full, so answer a fast
        ``OverloadedError`` envelope (jsonl line or HTTP 503) and close —
        never a hang, never a silently dropped socket. Runs on the acceptor
        thread; the 1s send timeout bounds how long a slow shed client can
        stall further accepts."""
        retry_after = self._retry_after_s()
        self._count("requests_shed")
        self._stats["admission"].record_shed()
        err = OverloadedError(
            f"daemon is overloaded ({self.max_queue} connections queued); "
            f"retry in {retry_after}s",
            retry_after_s=retry_after,
        )
        payload = encode_message(error_response(err))
        try:
            conn.settimeout(1.0)
            if kind == "jsonl":
                conn.sendall(payload)
            else:
                conn.sendall(
                    protocol.http_response_bytes(payload, 503, "Service Unavailable")
                )
        except OSError:
            pass  # the client vanished first; shedding still succeeded
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _worker_loop(self) -> None:
        while True:
            try:
                kind, conn, enqueued_at = self._conn_queue.get(timeout=0.1)
            except queue.Empty:
                if self._stop_event.is_set():
                    return
                continue
            with self._open_lock:
                self._open_conns.add(conn)
            try:
                if kind == "jsonl":
                    self._serve_jsonl(conn, enqueued_at)
                else:
                    self._serve_http(conn, enqueued_at)
            finally:
                with self._open_lock:
                    self._open_conns.discard(conn)
                try:
                    conn.close()
                except OSError:
                    pass

    def _serve_jsonl(self, conn: socket.socket,
                     enqueued_at: Optional[float] = None) -> None:
        """Newline-JSON framing: many requests per connection, until EOF.

        The first message on the connection is charged the time the
        connection spent in the admission queue (``enqueued_at``) against
        its ``deadline_s``; later keep-alive messages waited for nothing.
        """
        f = conn.makefile("rwb")
        try:
            while True:
                line = f.readline(protocol.MAX_MESSAGE_BYTES + 2)
                if not line:
                    return
                if len(line) >= protocol.MAX_MESSAGE_BYTES + 2 and not line.endswith(b"\n"):
                    # readline() hit its size cap mid-line: the rest of this
                    # oversized message is still buffered and would be parsed
                    # as garbage "messages". Answer once, then close the
                    # connection rather than desync the stream.
                    self._stats["invalid"].record(0.0, ok=False)
                    err = ProtocolError(
                        f"message exceeds {protocol.MAX_MESSAGE_BYTES} bytes; "
                        "closing connection"
                    )
                    f.write(encode_message(error_response(err)))
                    f.flush()
                    return
                try:
                    message = decode_message(line)
                except ProtocolError as e:
                    self._stats["invalid"].record(0.0, ok=False)
                    f.write(encode_message(error_response(e)))
                    f.flush()
                    continue
                queue_wait_s = 0.0
                if enqueued_at is not None:
                    queue_wait_s = max(0.0, time.monotonic() - enqueued_at)
                    enqueued_at = None
                response = self.handle(message, queue_wait_s=queue_wait_s)
                f.write(encode_message(response))
                f.flush()
                if message.get("op") == "shutdown" and response.get("ok"):
                    self.stop()
                    return
        except (BrokenPipeError, ConnectionResetError, OSError):
            return  # client went away mid-exchange; nothing to salvage
        finally:
            try:
                f.close()
            except OSError:
                pass

    def _serve_http(self, conn: socket.socket,
                    enqueued_at: Optional[float] = None) -> None:
        """HTTP framing: one ``POST /rpc`` request per connection."""
        rfile = conn.makefile("rb")
        try:
            try:
                first, headers = protocol.read_http_head(rfile)
                method, path, *_ = first.split(" ") + ["", ""]
                if method == "GET" and path == protocol.HTTP_METRICS_PATH:
                    # Prometheus scrape: plain exposition text, no envelope.
                    conn.sendall(protocol.http_response_bytes(
                        obs_metrics.render().encode(),
                        content_type="text/plain; version=0.0.4; charset=utf-8",
                    ))
                    return
                if method != "POST" or path != protocol.HTTP_PATH:
                    raise ProtocolError(
                        f"unsupported HTTP request {method} {path}; "
                        f"use POST {protocol.HTTP_PATH}"
                    )
                body = protocol.read_http_body(rfile, headers)
                message = decode_message(body)
            except socket.timeout:
                # The client promised Content-Length bytes, sent fewer, and
                # kept the connection open: the read idled out. Answer an
                # error envelope (never a silent drop) and free the worker.
                self._stats["invalid"].record(0.0, ok=False)
                err = ProtocolError(
                    "timed out waiting for the full HTTP body "
                    "(short or truncated Content-Length)"
                )
                payload = encode_message(error_response(err))
                conn.sendall(
                    protocol.http_response_bytes(payload, 408, "Request Timeout")
                )
                return
            except ProtocolError as e:
                self._stats["invalid"].record(0.0, ok=False)
                payload = encode_message(error_response(e))
                conn.sendall(protocol.http_response_bytes(payload, 400, "Bad Request"))
                return
            queue_wait_s = 0.0
            if enqueued_at is not None:
                queue_wait_s = max(0.0, time.monotonic() - enqueued_at)
            response = self.handle(message, queue_wait_s=queue_wait_s)
            conn.sendall(protocol.http_response_bytes(encode_message(response)))
            if message.get("op") == "shutdown" and response.get("ok"):
                self.stop()
        except (BrokenPipeError, ConnectionResetError, OSError):
            return
        finally:
            try:
                rfile.close()
            except OSError:
                pass

    # --------------------------------------------------------------- dispatch
    def handle(self, message: Dict, queue_wait_s: float = 0.0) -> Dict:
        """Dispatch one decoded request envelope to its operation handler.

        Transport-independent (tests and the latency benchmark call it
        directly). Every request runs under its own stage-profiling
        collector; compile/tune responses report the stages they paid for,
        which is how the warm path proves it never touched the compiler.

        A ``deadline_s`` budget on the envelope is charged ``queue_wait_s``
        (time already spent in the admission queue) up front: work whose
        budget is gone before it starts is rejected with a
        ``DeadlineExceededError`` envelope, and the remaining budget rides
        into the measurement layer so an in-flight sweep aborts cleanly
        instead of burning a worker thread past the client's patience.
        """
        request_id = message.get("id")
        op = message.get("op")
        t0 = time.perf_counter()
        # `op` is attacker-controlled JSON: an unhashable value (list/dict)
        # would raise from a bare `op in self._stats`, so type-check first.
        stats_key = op if isinstance(op, str) and op in self._stats else "invalid"
        # Trace context on the envelope is optional and tolerant: garbage
        # ids mean "untraced", never an error (old-client compatibility).
        ctx = obs_trace.extract_context(message)
        tracer, to_file = self._request_tracer(ctx)
        root_span = None
        with contextlib.ExitStack() as obs_scope:
            if tracer is not None:
                obs_scope.enter_context(obs_trace.activate(tracer))
                root_span = obs_scope.enter_context(obs_trace.span(
                    f"serve:{op if isinstance(op, str) else 'invalid'}",
                    parent=ctx,
                    attrs={"session": self.session_id},
                ))
                if queue_wait_s > 0.0:
                    # The queue wait elapsed before any tracer existed;
                    # record it retroactively under the root span.
                    now = time.perf_counter()
                    obs_trace.record_span("queue-wait", now - queue_wait_s, now)
            try:
                if not isinstance(op, str) or op not in OPS:
                    raise ProtocolError(f"unknown op {op!r}; choose from {OPS}")
                params = message.get("params") or {}
                deadline = None
                budget = parse_deadline(message)
                if budget is not None:
                    remaining = budget - queue_wait_s
                    if remaining <= 0:
                        raise DeadlineExceededError(
                            f"request spent {queue_wait_s:.3f}s queued, past its "
                            f"{budget}s deadline; rejected before any work started"
                        )
                    deadline = time.monotonic() + remaining
                stages = profiling.StageTimes()
                with profiling.collect(stages):
                    result = self._dispatch(op, params, deadline)
                if op in ("compile", "tune"):
                    result["stages"] = {name: round(t, 6) for name, t in stages.ordered()}
                response = ok_response(result, request_id)
                ok = True
            except Exception as e:  # every failure becomes a structured envelope
                if isinstance(e, DeadlineExceededError):
                    self._stats[stats_key].record_deadline_exceeded()
                    self._count("deadline_exceeded")
                response = error_response(e, request_id)
                ok = False
        duration = time.perf_counter() - t0
        self._request_seconds.observe(duration)
        self._stats[stats_key].record(duration, ok)
        if root_span is not None:
            if ctx is not None and ok:
                # Client-initiated trace: ship the server-side spans back
                # on the result so the client stitches one tree.
                response["result"]["spans"] = [
                    s.as_dict() for s in tracer.spans()[:_MAX_RESPONSE_SPANS]
                ]
                response["result"]["trace_id"] = root_span.trace_id
            if to_file:
                self._write_trace(tracer, root_span)
        return response

    def _request_tracer(self, ctx) -> Tuple[Optional[obs_trace.Tracer], bool]:
        """Decide whether this request is traced: always when the envelope
        carries context (the client asked), or when ``--trace-dir``
        sampling picks it. The sampler is a deterministic accumulator —
        rate 0.25 traces exactly every 4th request — so smoke tests and
        reproductions see stable behavior."""
        to_file = False
        if self.trace_dir is not None and self.trace_sample_rate > 0.0:
            with self._counter_lock:
                self._trace_accum += self.trace_sample_rate
                if self._trace_accum >= 1.0:
                    self._trace_accum -= 1.0
                    to_file = True
        if ctx is None and not to_file:
            return None, False
        return obs_trace.Tracer(capacity=4096), to_file

    def _write_trace(self, tracer: obs_trace.Tracer, root_span) -> None:
        """Dump one sampled request's spans to ``trace_dir``. Tracing must
        never fail a request, so disk errors are swallowed."""
        try:
            d = pathlib.Path(self.trace_dir)
            d.mkdir(parents=True, exist_ok=True)
            name = f"trace-{root_span.trace_id}-{root_span.span_id}.json"
            tracer.write_chrome_trace(d / name)
        except OSError:
            pass

    def _dispatch(self, op: str, params: Dict,
                  deadline: Optional[float] = None) -> Dict:
        if op == "ping":
            return {"protocol": PROTOCOL_VERSION, "session": self.session_id}
        if op == "status":
            return self._op_status()
        if op == "health":
            return self._op_health()
        if op == "metrics":
            return self._op_metrics()
        if op == "shutdown":
            return {"stopping": True, "session": self.session_id}
        if op == "measure":
            return self._op_measure(params, deadline)
        p = parse_problem_params(params)
        artifact, served_from = self._ensure_artifact(p, deadline)
        result: Dict[str, object] = {
            "key": artifact.key,
            "spec": dict(artifact.spec),
            "config": dict(artifact.config),
            "latency_us": artifact.latency_us,
            "provenance": dict(artifact.provenance),
            "served_from": served_from,
        }
        if op == "compile":
            result["ir_text"] = artifact.ir_text
            result["cuda_source"] = artifact.cuda_source
        return result

    # ------------------------------------------------------------------ health
    def _op_health(self) -> Dict:
        """Lightweight overload probe: no compiler, no registry, no locks
        beyond the counters — cheap enough for a load balancer to poll."""
        queue_depth = self._conn_queue.qsize()
        if self._stop_event.is_set():
            state = "draining"
        elif 2 * queue_depth >= self.max_queue:
            state = "overloaded"
        else:
            state = "ready"
        with self._counter_lock:
            shed = self.counters["requests_shed"]
            expired = self.counters["deadline_exceeded"]
        return {
            "state": state,
            "queue_depth": queue_depth,
            "max_queue": self.max_queue,
            "workers": self.workers,
            "shed": shed,
            "deadline_exceeded": expired,
            "protocol": PROTOCOL_VERSION,
            "session": self.session_id,
        }

    def _op_metrics(self) -> Dict:
        """The process-global metrics page, as Prometheus text exposition.
        Same content as ``GET /metrics`` on the HTTP transport, wrapped in
        an envelope for jsonl clients."""
        return {
            "text": obs_metrics.render(),
            "protocol": PROTOCOL_VERSION,
            "session": self.session_id,
        }

    # --------------------------------------------------------- fleet endpoint
    def _op_measure(self, params: Dict, deadline: Optional[float] = None) -> Dict:
        """One fleet shard (docs/distributed.md): measure a batch of
        configs for a problem and answer the latencies in request order.

        The daemon's shared measurer serves the shard, so its memory/disk
        caches warm across shards and fleets exactly as across compile
        requests. ``persist`` marks which FAILED entries are genuine
        compile failures (cacheable) vs. crash placeholders (run
        properties a coordinator must not persist)."""
        p = parse_measure_params(params)
        spec = GemmSpec(
            p["name"], batch=p["batch"], m=p["m"], n=p["n"], k=p["k"], dtype=p["dtype"]
        )
        cfgs = p["configs"]
        with obs_trace.span("measure-shard", attrs={"configs": len(cfgs)}):
            latencies = self.measurer.measure_many(spec, cfgs, deadline=deadline)
        self._count("fleet_shards")
        self._count("fleet_trials", len(cfgs))
        persist = [
            self.measurer._key(spec, cfg) not in self.measurer.quarantined
            for cfg in cfgs
        ]
        return {
            "latencies": [encode_latency(x) for x in latencies],
            "persist": persist,
            "via_ir": self.measurer.via_ir,
            "gpu": self.gpu.name,
            "session": self.session_id,
        }

    # ------------------------------------------------------------ the service
    def _ensure_artifact(self, p: Dict,
                         deadline: Optional[float] = None) -> Tuple[KernelArtifact, str]:
        """Registry, then the in-flight dedup map, then a fresh solve."""
        spec = GemmSpec(
            p["name"], batch=p["batch"], m=p["m"], n=p["n"], k=p["k"], dtype=p["dtype"]
        )
        space_cap = p["space"] if p["space"] is not None else self.default_space
        key = artifact_key(self.gpu, spec, p["variant"], self.measurer.via_ir, space_cap)
        artifact = self.registry.get(key)
        if artifact is not None:
            return artifact, "registry"
        with self._inflight_lock:
            fut = self._inflight.get(key)
            owner = fut is None
            if owner:
                # Re-check the registry before becoming owner: the previous
                # owner publishes (registry.put) *before* popping its future,
                # so a thread whose lock-free registry miss raced the publish
                # and whose map lookup raced the pop must find it here —
                # otherwise it would run a duplicate sweep for the same key.
                artifact = self.registry.get(key)
                if artifact is not None:
                    return artifact, "registry"
                fut = Future()
                self._inflight[key] = fut
        if not owner:
            self._count("dedup_hits")
            # Someone else is already solving this exact problem; share
            # their result (or their exception — both callers see it). A
            # deadline bounds the wait: the solve itself keeps running for
            # whoever still has budget, this waiter just stops caring.
            timeout = None
            if deadline is not None:
                timeout = max(0.0, deadline - time.monotonic())
            try:
                with obs_trace.span("dedup-wait"):
                    return fut.result(timeout=timeout), "inflight"
            except FutureTimeoutError:
                raise DeadlineExceededError(
                    "deadline expired while waiting on another request's "
                    "in-flight solve of the same problem"
                ) from None
        try:
            artifact = self._solve(spec, p["variant"], space_cap, key, deadline)
        except BaseException as e:
            fut.set_exception(e)
            raise
        else:
            fut.set_result(artifact)
            return artifact, "fresh"
        finally:
            with self._inflight_lock:
                self._inflight.pop(key, None)

    def _solve(self, spec: GemmSpec, variant: str, space_cap: int, key: str,
               deadline: Optional[float] = None) -> KernelArtifact:
        """The cold path: search the space, build the winning kernel, and
        publish the artifact. ``deadline`` aborts the sweep mid-flight
        (committed trials stay cached, so a retry resumes warm)."""
        space = restrict_space(
            enumerate_space(spec, self.gpu, SpaceOptions(max_size=space_cap)), variant
        )
        if not space:
            raise CompileError(
                f"design space for {spec.name} is empty under the {variant!r} "
                f"variant restriction (cap {space_cap})"
            )
        with obs_trace.span("sweep", attrs={"space": len(space)}):
            cfg, latency = self.measurer.best(spec, space, deadline=deadline)
        self._count("sweeps_run")
        with obs_trace.span("build-kernel"):
            kernel = self._compiler.build(spec, cfg)
        artifact = KernelArtifact(
            key=key,
            spec=dataclasses.asdict(spec),
            config=cfg.as_dict(),
            latency_us=latency,
            ir_text=format_kernel(kernel),
            cuda_source=emit_cuda(kernel),
            provenance={
                "gpu": self.gpu.name,
                "gpu_fingerprint": gpu_fingerprint(self.gpu),
                "compiler_version": compiler_version_hash(),
                "session": self.session_id,
                "created_s": time.time(),
                "variant": variant,
                "space": space_cap,
                "via_ir": self.measurer.via_ir,
                "space_size": len(space),
            },
        )
        stored = self.registry.put(artifact)
        self._count("artifacts_built")
        return stored

    # ------------------------------------------------------------------ status
    def _op_status(self) -> Dict:
        telemetry = self.measurer.telemetry
        registry_stats = self.registry.stats()
        with self._counter_lock:
            counters = dict(self.counters)
        counters["registry_hits"] = registry_stats["hits"]
        counters["registry_misses"] = registry_stats["misses"]
        with self._inflight_lock:
            inflight = len(self._inflight)
        return {
            "protocol": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "session": self.session_id,
            "uptime_s": round(time.time() - self.started_at, 3),
            "gpu": self.gpu.name,
            "via_ir": self.measurer.via_ir,
            "workers": self.workers,
            "queue_depth": self._conn_queue.qsize(),
            "max_queue": self.max_queue,
            "inflight": inflight,
            "counters": counters,
            "registry": registry_stats,
            "measurer": {
                "n_compiled": telemetry.n_compiled,
                "memory_hits": telemetry.memory_hits,
                "disk_hits": telemetry.disk_hits,
                "compile_time_s": round(telemetry.compile_time_s, 6),
                "n_crashes": telemetry.n_crashes,
                "n_timeouts": telemetry.n_timeouts,
                "disk_errors": telemetry.disk_errors,
            },
            "incremental": (
                self.measurer.engine.stats()
                if self.measurer.engine is not None else None
            ),
            "endpoints": {op: s.snapshot() for op, s in self._stats.items()},
        }
