"""Wire protocol of the ``repro serve`` daemon.

Requests and responses are single JSON objects. Two framings carry them:

* **jsonl** (Unix domain socket, ``repro serve --socket PATH``): one
  newline-terminated JSON document per message, many requests per
  connection. The native, lowest-latency transport.
* **HTTP** (TCP, ``repro serve --port N``): ``POST /rpc`` with a JSON
  body; the response body is the same JSON envelope. Lets anything that
  can speak HTTP — curl, a load balancer health check — talk to the
  daemon without a client library.

Request envelope::

    {"op": "compile", "id": "optional-correlation-id", "params": {...}}

Response envelope::

    {"id": ..., "ok": true,  "result": {...}}
    {"id": ..., "ok": false, "error": {"type": ..., "stage": ..., "message": ...}}

Operations (``docs/serving.md`` documents every field):

``ping``      liveness probe; result echoes the server's protocol version.
``compile``   ensure the artifact for a problem exists and return it whole
              (config, latency, IR text, CUDA source, provenance).
``tune``      same artifact-ensuring path, but the result carries only the
              schedule + latency + search metadata (no kernel text).
``status``    telemetry snapshot: per-endpoint request counts and p50/p95
              latencies, dedup/registry counters, queue depth, measurer
              telemetry, uptime.
``measure``   fleet endpoint (docs/distributed.md): measure one shard of
              configs for a problem and return the latencies — the daemon
              as one seat of a ``repro tune --fleet-endpoint`` fleet.
``health``    lightweight overload probe: ``state`` is ``ready``,
              ``overloaded`` (work queue at least half full) or
              ``draining`` (shutdown in progress), plus queue depth and
              shed counters. Never touches the compiler; safe for load
              balancers to poll at high frequency.
``shutdown``  graceful stop: drain in-flight work, flush the registry,
              acknowledge, exit.

Overload fields
---------------
A request envelope may carry a top-level ``deadline_s`` — the client's
remaining budget in seconds. The server subtracts queue wait before
dispatching, rejects already-expired work with a ``DeadlineExceededError``
envelope, and aborts an in-flight sweep when the budget runs out. A shed
request (bounded work queue full) is answered with an ``OverloadedError``
envelope whose payload carries ``retry_after_s``, the server's backoff
hint; :func:`raise_remote_error` reconstructs both types client-side.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple

from ..core.errors import ProtocolError, ReproError

__all__ = [
    "PROTOCOL_VERSION",
    "OPS",
    "encode_message",
    "decode_message",
    "ok_response",
    "error_response",
    "error_payload",
    "parse_deadline",
    "parse_problem_params",
    "parse_measure_params",
    "encode_latency",
    "decode_latency",
    "MAX_SHARD_CONFIGS",
]

# Version 2 adds the ``metrics`` op and optional ``trace_id`` /
# ``parent_span_id`` envelope fields (ignored by version-1 servers, which
# tolerate unknown fields by design).
PROTOCOL_VERSION = 2

OPS = ("ping", "compile", "tune", "status", "metrics", "measure", "health",
       "shutdown")

#: Upper bound on one serialized message; a registry artifact (IR + CUDA
#: text) is tens of KB, so this is generous while still refusing abuse.
MAX_MESSAGE_BYTES = 16 * 1024 * 1024


def encode_message(obj: Dict) -> bytes:
    """One newline-terminated JSON document."""
    return json.dumps(obj, sort_keys=True).encode() + b"\n"


def decode_message(raw: bytes) -> Dict:
    """Parse one message; malformed bytes raise :class:`ProtocolError`."""
    if len(raw) > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message exceeds {MAX_MESSAGE_BYTES} bytes")
    try:
        obj = json.loads(raw.decode("utf-8", errors="strict"))
    except (ValueError, UnicodeDecodeError) as e:
        raise ProtocolError(f"unparseable message: {e}") from e
    if not isinstance(obj, dict):
        raise ProtocolError(f"message must be a JSON object, got {type(obj).__name__}")
    return obj


def ok_response(result: Dict, request_id: Optional[object] = None) -> Dict:
    return {"id": request_id, "ok": True, "result": result}


def error_response(exc: BaseException, request_id: Optional[object] = None) -> Dict:
    return {"id": request_id, "ok": False, "error": error_payload(exc)}


def error_payload(exc: BaseException) -> Dict:
    """The structured error envelope: taxonomy type + stage + message, so
    clients can re-raise without string matching. An exception carrying a
    ``retry_after_s`` hint (:class:`~repro.core.errors.OverloadedError`)
    ships it in the payload so clients can honour the server's backoff."""
    payload = {
        "type": type(exc).__name__,
        "stage": getattr(exc, "stage", "unknown"),
        "message": str(exc),
    }
    retry_after = getattr(exc, "retry_after_s", None)
    if retry_after is not None:
        payload["retry_after_s"] = round(float(retry_after), 3)
    return payload


def parse_deadline(message: Dict) -> Optional[float]:
    """Validate the optional top-level ``deadline_s`` of a request
    envelope. Returns the budget in seconds, or ``None`` when absent."""
    budget = message.get("deadline_s")
    if budget is None:
        return None
    if isinstance(budget, bool) or not isinstance(budget, (int, float)):
        raise ProtocolError("deadline_s must be a number of seconds")
    budget = float(budget)
    if budget <= 0:
        raise ProtocolError("deadline_s must be positive")
    return budget


_REQUIRED_DIMS = ("m", "n", "k")


def parse_problem_params(params: Dict) -> Dict:
    """Validate and normalize the problem fields of a compile/tune request.

    Returns a dict with ``name, batch, m, n, k, dtype, variant, space`` —
    everything :mod:`repro.serve.server` needs to build the spec and the
    artifact key. Raises :class:`ProtocolError` on anything missing or
    non-positive, so a bad request is answered, never crashes a worker.
    """
    if not isinstance(params, dict):
        raise ProtocolError("params must be a JSON object")
    out: Dict = {}
    for dim in _REQUIRED_DIMS:
        if dim not in params:
            raise ProtocolError(f"missing required problem dimension {dim!r}")
        try:
            out[dim] = int(params[dim])
        except (TypeError, ValueError):
            raise ProtocolError(f"problem dimension {dim!r} must be an integer") from None
        if out[dim] <= 0:
            raise ProtocolError(f"problem dimension {dim!r} must be positive")
    try:
        out["batch"] = int(params.get("batch", 1))
    except (TypeError, ValueError):
        raise ProtocolError("batch must be an integer") from None
    if out["batch"] <= 0:
        raise ProtocolError("batch must be positive")
    out["name"] = str(params.get("name", "serve"))
    out["dtype"] = str(params.get("dtype", "float16"))
    space = params.get("space", None)
    if space is not None:
        try:
            space = int(space)
        except (TypeError, ValueError):
            raise ProtocolError("space must be an integer cap") from None
        if space <= 0:
            raise ProtocolError("space must be positive")
    out["space"] = space
    out["variant"] = str(params.get("variant", "alcop"))
    return out


#: Upper bound on configs per measure request; a fleet shard is tens of
#: trials, so this is generous while refusing a request that would pin a
#: worker thread for minutes.
MAX_SHARD_CONFIGS = 4096


def encode_latency(latency: float) -> object:
    """JSON-safe latency: ``inf`` (the FAILED sentinel) becomes the string
    ``"inf"`` so strict JSON parsers on either end never choke."""
    import math

    return "inf" if math.isinf(latency) else float(latency)


def decode_latency(value: object) -> float:
    import math

    return math.inf if value == "inf" else float(value)


def parse_measure_params(params: Dict) -> Dict:
    """Validate the fleet endpoint's ``measure`` request: the problem fields of
    :func:`parse_problem_params` plus ``configs``, a non-empty list of
    TileConfig field dicts. Returns the normalized problem dict with a
    ``configs`` list of validated :class:`~repro.schedule.config.TileConfig`.
    """
    from ..schedule.config import TileConfig

    out = parse_problem_params(params)
    raw = params.get("configs")
    if not isinstance(raw, list) or not raw:
        raise ProtocolError("measure needs a non-empty 'configs' list")
    if len(raw) > MAX_SHARD_CONFIGS:
        raise ProtocolError(
            f"refusing a {len(raw)}-config shard (cap {MAX_SHARD_CONFIGS})"
        )
    configs = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ProtocolError(f"configs[{i}] must be a JSON object of TileConfig fields")
        try:
            configs.append(TileConfig(**entry))
        except (TypeError, ValueError) as e:
            raise ProtocolError(f"configs[{i}] is not a valid TileConfig: {e}") from None
    out["configs"] = configs
    return out


# --------------------------------------------------------------- HTTP framing
#
# Deliberately minimal HTTP/1.1: exactly what the daemon's TCP mode needs
# (Content-Length framed POST bodies, close-delimited responses), with no
# dependency beyond the socket. Both ends send ``Connection: close``.

HTTP_PATH = "/rpc"

#: Prometheus scrape endpoint on the HTTP transport (GET, no envelope).
HTTP_METRICS_PATH = "/metrics"


def http_request_bytes(body: bytes, host: str) -> bytes:
    head = (
        f"POST {HTTP_PATH} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    )
    return head.encode() + body


def http_response_bytes(
    body: bytes,
    status: int = 200,
    reason: str = "OK",
    content_type: str = "application/json",
) -> bytes:
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    )
    return head.encode() + body


def read_http_head(rfile) -> Tuple[str, Dict[str, str]]:
    """Read the request/status line and headers from a file-like socket
    reader. Returns ``(first_line, lower-cased headers)``."""
    first = rfile.readline(65536).decode("latin-1").rstrip("\r\n")
    if not first:
        raise ProtocolError("empty HTTP message")
    headers: Dict[str, str] = {}
    while True:
        line = rfile.readline(65536).decode("latin-1")
        if line in ("\r\n", "\n", ""):
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return first, headers


def read_http_body(rfile, headers: Dict[str, str]) -> bytes:
    length = headers.get("content-length")
    if length is None:
        raise ProtocolError("HTTP message lacks Content-Length")
    try:
        n = int(length)
    except ValueError:
        raise ProtocolError(f"bad Content-Length {length!r}") from None
    if n < 0 or n > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"refusing HTTP body of {n} bytes")
    body = rfile.read(n)
    if len(body) != n:
        raise ProtocolError("truncated HTTP body")
    return body


def raise_remote_error(payload: Dict) -> None:
    """Re-raise a server error envelope client-side as the closest
    taxonomy class: :class:`ProtocolError` for protocol faults,
    :class:`~repro.core.errors.OverloadedError` for shed requests (with
    ``retry_after_s`` reconstructed from the payload),
    :class:`~repro.core.errors.DeadlineExceededError` for expired budgets,
    a generic :class:`~repro.core.errors.ServeError` otherwise."""
    from ..core.errors import DeadlineExceededError, OverloadedError, ServeError

    err = payload or {}
    name = err.get("type", "ServeError")
    message = err.get("message", "server reported an error")
    if name == "OverloadedError":
        retry_after = err.get("retry_after_s")
        raise OverloadedError(
            f"{name}: {message}",
            retry_after_s=float(retry_after) if retry_after is not None else None,
            diagnostic=err,
        )
    if name == "ProtocolError":
        cls = ProtocolError
    elif name == "DeadlineExceededError":
        cls = DeadlineExceededError
    else:
        cls = ServeError
    exc: ReproError = cls(f"{name}: {message}", diagnostic=err)
    raise exc
