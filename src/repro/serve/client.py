"""Client for the ``repro serve`` daemon.

:class:`ServeClient` speaks both transports — newline-JSON over the Unix
socket, HTTP POST over TCP — one short-lived connection per request, so N
client instances (or one instance across N threads) exercise the daemon's
concurrent path naturally. Server-side failures arrive as structured
error envelopes and are re-raised as taxonomy exceptions
(:class:`~repro.core.errors.ServeError` /
:class:`~repro.core.errors.ProtocolError` /
:class:`~repro.core.errors.OverloadedError` /
:class:`~repro.core.errors.DeadlineExceededError`); transport failures
(daemon not up, connection reset) are wrapped in :class:`ServeError` so
callers catch one family.

Overload behaviour: ``deadline_s`` stamps a per-request budget onto every
envelope (the server rejects expired work and aborts over-budget sweeps);
``retries`` enables bounded retry with exponential backoff + jitter on
*transient* failures only — connect-refused/connection-reset transport
errors and ``OverloadedError`` envelopes (honouring the server's
``retry_after_s`` hint). Protocol errors and expired deadlines never
retry: the former is a caller bug, the latter would just expire again.
"""

from __future__ import annotations

import random
import socket
import time
import uuid
from typing import Dict, Optional

from ..core.errors import DeadlineExceededError, OverloadedError, ProtocolError, ServeError
from ..obs import trace as obs_trace
from . import protocol
from .protocol import decode_message, encode_message, raise_remote_error, spec_to_params

__all__ = ["ServeClient"]

#: Deterministically seeded jitter source for retry backoff. Spreads the
#: retry stampede of N clients without making tests time-flaky (no wall
#: clock involved).
_jitter_rng = random.Random(0x0A1C09)


class ServeClient:
    """Talk to a running daemon over its Unix socket or TCP port.

    Exactly one of ``socket_path`` / ``port`` must be given. ``timeout``
    bounds each whole request round-trip (a cold tune compiles a design
    space, so the default is generous).

    ``deadline_s`` (optional) is stamped onto every request envelope as
    the server-side budget. ``retries`` bounds how many times a transient
    failure (connection refused/reset, shed by admission control) is
    retried with exponential backoff (``backoff_s * 2**attempt``, jittered
    ±50%, capped at ``max_backoff_s``); an ``OverloadedError`` carrying
    ``retry_after_s`` uses the server's hint instead of the schedule.
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        timeout: float = 300.0,
        deadline_s: Optional[float] = None,
        retries: int = 0,
        backoff_s: float = 0.25,
        max_backoff_s: float = 5.0,
    ) -> None:
        if (socket_path is None) == (port is None):
            raise ValueError("give exactly one of socket_path or port")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.timeout = timeout
        self.deadline_s = deadline_s
        self.retries = max(0, int(retries))
        self.backoff_s = backoff_s
        self.max_backoff_s = max_backoff_s

    # ------------------------------------------------------------- transport
    def _connect(self) -> socket.socket:
        if self.socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            target = str(self.socket_path)
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            target = f"{self.host}:{self.port}"
        sock.settimeout(self.timeout)
        try:
            sock.connect(target if self.socket_path is not None else (self.host, self.port))
        except OSError as e:
            sock.close()
            err = ServeError(
                f"cannot reach repro serve at {target}: {e} "
                "(is the daemon running?)"
            )
            err.transient = True  # connect-refused: retryable
            raise err from e
        return sock

    def _roundtrip(self, message: Dict) -> Dict:
        payload = encode_message(message)
        sock = self._connect()
        try:
            # A daemon shedding under overload answers and closes before
            # reading the request; the write then breaks even though the
            # error envelope is already buffered locally. Swallow the
            # write-side pipe error and try the read — only an empty
            # response means the connection truly dropped.
            if self.socket_path is not None:
                write_error: Optional[OSError] = None
                try:
                    sock.sendall(payload)
                except (BrokenPipeError, ConnectionResetError) as e:
                    write_error = e
                f = sock.makefile("rb")
                line = f.readline(protocol.MAX_MESSAGE_BYTES + 2)
                f.close()
                if not line:
                    err = ServeError("daemon closed the connection without replying")
                    err.transient = True  # reset/drop mid-exchange: retryable
                    raise err from write_error
                return decode_message(line)
            write_error = None
            try:
                sock.sendall(protocol.http_request_bytes(payload, self.host))
            except (BrokenPipeError, ConnectionResetError) as e:
                write_error = e
            rfile = sock.makefile("rb")
            try:
                _, headers = protocol.read_http_head(rfile)
                body = protocol.read_http_body(rfile, headers)
            except (ProtocolError, OSError, EOFError):
                if write_error is not None:
                    err = ServeError(
                        f"connection to repro serve failed: {write_error}"
                    )
                    err.transient = True
                    raise err from write_error
                raise
            rfile.close()
            return decode_message(body)
        except socket.timeout as e:
            # Not marked transient: the daemon is up but slow; hammering it
            # with retries would add load exactly when it hurts most.
            raise ServeError(
                f"request timed out after {self.timeout}s (op {message.get('op')!r})"
            ) from e
        except OSError as e:
            err = ServeError(f"connection to repro serve failed: {e}")
            err.transient = True  # connection reset mid-exchange: retryable
            raise err from e
        finally:
            # Shut the connection down, not just this descriptor: a child
            # forked while the request was in flight holds a copy, and the
            # daemon would otherwise wait for that copy's EOF.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # never connected, or already reset
            try:
                sock.close()
            except OSError:
                pass

    # ------------------------------------------------------------------- api
    def _backoff(self, attempt: int) -> float:
        """Exponential backoff with ±50% jitter, capped."""
        base = self.backoff_s * (2 ** attempt)
        return min(base * _jitter_rng.uniform(0.5, 1.5), self.max_backoff_s)

    def _request_once(self, op: str, params: Optional[Dict]) -> Dict:
        envelope: Dict = {"op": op, "params": params or {}, "id": uuid.uuid4().hex[:8]}
        if self.deadline_s is not None:
            envelope["deadline_s"] = self.deadline_s
        # Distributed tracing: when a tracer is active on this thread the
        # request gets a client span and carries its context on the
        # envelope; the server ships its spans back on the result and we
        # adopt them, stitching one tree across the process boundary. With
        # no tracer active, span() yields None and nothing is stamped.
        with obs_trace.span(f"client:{op}") as client_span:
            if client_span is not None:
                obs_trace.inject_context(envelope)
            response = self._roundtrip(envelope)
        if not response.get("ok"):
            raise_remote_error(response.get("error") or {})
        result = response.get("result")
        if not isinstance(result, dict):
            return {}
        if client_span is not None:
            remote_spans = result.pop("spans", None)
            for tracer in obs_trace.active_tracers():
                tracer.import_spans(remote_spans)
        return result

    def request(self, op: str, params: Optional[Dict] = None) -> Dict:
        """One request/response cycle (with up to ``retries`` retries on
        transient failures); returns the ``result`` payload or re-raises
        the server's error envelope."""
        attempt = 0
        while True:
            try:
                return self._request_once(op, params)
            except OverloadedError as e:
                # Shed by admission control: always safe to retry, and the
                # server told us when. Fall back to our schedule if not.
                if attempt >= self.retries:
                    raise
                delay = e.retry_after_s if e.retry_after_s else self._backoff(attempt)
            except (ProtocolError, DeadlineExceededError):
                raise  # caller bug / expired budget: retrying cannot help
            except ServeError as e:
                if attempt >= self.retries or not getattr(e, "transient", False):
                    raise
                delay = self._backoff(attempt)
            time.sleep(min(float(delay), self.max_backoff_s))
            attempt += 1

    def ping(self) -> Dict:
        return self.request("ping")

    def health(self) -> Dict:
        """The daemon's overload state: ``ready``/``overloaded``/
        ``draining``, queue depth, shed counters."""
        return self.request("health")

    def compile(self, spec=None, /, **params) -> Dict:
        """Full artifact for a problem: config, latency, IR text, CUDA
        source, provenance, the stages this request paid for, and where it
        was served from (``registry`` / ``inflight`` / ``fresh``). The
        problem is ``spec`` (a GemmSpec, sent whole), problem-field
        keywords, or both; keywords such as ``variant`` and ``space`` add
        to the spec's fields."""
        return self.request("compile", _problem_params(spec, params))

    def tune(self, spec=None, /, **params) -> Dict:
        """Like :meth:`compile` but without the kernel text payload."""
        return self.request("tune", _problem_params(spec, params))

    def measure(self, spec, configs, **extra) -> Dict:
        """Fleet-worker shard measurement (docs/distributed.md): time each
        config of ``configs`` (TileConfigs or field dicts) for ``spec`` (a
        GemmSpec or problem-field dict) on the daemon. The result carries
        ``latencies`` (request order; ``inf`` decoded from the wire form),
        ``persist`` flags, the ``spec`` the daemon measured, and its
        ``via_ir``/``gpu`` identity, so the coordinator can refuse a
        mismatched worker."""
        from .protocol import decode_latency

        params = dict(spec) if isinstance(spec, dict) else spec_to_params(spec)
        params["configs"] = [
            cfg if isinstance(cfg, dict) else cfg.as_dict() for cfg in configs
        ]
        params.update(extra)
        result = self.request("measure", params)
        result["latencies"] = [
            decode_latency(x) for x in result.get("latencies", [])
        ]
        return result

    def status(self) -> Dict:
        return self.request("status")

    def metrics(self) -> Dict:
        """The daemon's metrics page (Prometheus text exposition under the
        ``text`` key), for clients on the jsonl transport where there is
        no ``GET /metrics`` to curl."""
        return self.request("metrics")

    def shutdown(self) -> Dict:
        """Ask the daemon to stop gracefully (drains, flushes registry)."""
        return self.request("shutdown")

    def wait_until_ready(self, timeout: float = 30.0, interval: float = 0.1) -> bool:
        """Poll ``ping`` until the daemon answers or ``timeout`` passes."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                self.ping()
                return True
            except ServeError:
                time.sleep(interval)
        return False


def _problem_params(spec, params: Dict) -> Dict:
    """Request params for a problem: ``spec``'s fields (a GemmSpec, or
    None), then ``params``."""
    if spec is None:
        return params
    return {**spec_to_params(spec), **params}
