"""The serve daemon: both transports, warm/cold/dedup semantics, telemetry,
error envelopes, and graceful shutdown."""

import json
import threading

import pytest

from repro.core.errors import ProtocolError, ServeError
from repro.serve.client import ServeClient
from repro.serve.registry import ArtifactRegistry
from repro.serve.server import ReproServer

SPACE = 16  # tiny design-space cap keeps sweeps fast

PROBLEM = {"m": 128, "n": 128, "k": 128}


@pytest.fixture
def unix_server(tmp_path):
    server = ReproServer(
        socket_path=str(tmp_path / "d.sock"),
        registry=ArtifactRegistry(tmp_path / "reg"),
        workers=4,
        default_space=SPACE,
    )
    server.start()
    try:
        yield server
    finally:
        server.stop()
        server.shutdown(timeout=10)


@pytest.fixture
def unix_client(unix_server):
    client = ServeClient(socket_path=unix_server.socket_path, timeout=120)
    assert client.wait_until_ready(timeout=10)
    return client


class TestUnixTransport:
    def test_ping(self, unix_server, unix_client):
        result = unix_client.ping()
        assert result["session"] == unix_server.session_id

    def test_cold_then_warm(self, unix_server, unix_client):
        cold = unix_client.tune(**PROBLEM)
        assert cold["served_from"] == "fresh"
        assert cold["latency_us"] > 0
        assert cold["stages"], "a fresh solve must report compile stages"

        warm = unix_client.compile(**PROBLEM)
        assert warm["served_from"] == "registry"
        assert warm["key"] == cold["key"]
        # The acceptance criterion: a warm request never touches the
        # compiler — no schedule/transform/simulate stages at all.
        assert warm["stages"] == {}
        assert "__global__" in warm["cuda_source"]
        assert warm["ir_text"]

    def test_tune_omits_kernel_text(self, unix_client):
        result = unix_client.tune(**PROBLEM)
        assert "cuda_source" not in result and "ir_text" not in result

    def test_many_requests_one_connection(self, unix_server):
        """The jsonl transport handles several requests per connection."""
        import socket as socketlib

        sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        sock.connect(unix_server.socket_path)
        f = sock.makefile("rwb")
        try:
            for i in range(3):
                f.write((json.dumps({"op": "ping", "id": str(i)}) + "\n").encode())
                f.flush()
                response = json.loads(f.readline())
                assert response["ok"] and response["id"] == str(i)
        finally:
            f.close()
            sock.close()


class TestDedup:
    def test_concurrent_identical_requests_share_one_sweep(self, unix_server):
        """N concurrent tune requests for the same key run exactly one
        sweep; the rest wait on the in-flight future."""
        n = 4
        results, errors = [], []
        barrier = threading.Barrier(n)

        def one():
            client = ServeClient(socket_path=unix_server.socket_path, timeout=120)
            barrier.wait()
            try:
                results.append(client.tune(m=256, n=128, k=128))
            except Exception as e:  # surface in the main thread
                errors.append(e)

        threads = [threading.Thread(target=one) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == n
        assert len({r["key"] for r in results}) == 1
        origins = sorted(r["served_from"] for r in results)
        assert origins.count("fresh") == 1
        assert set(origins) <= {"fresh", "inflight", "registry"}

        client = ServeClient(socket_path=unix_server.socket_path, timeout=30)
        status = client.status()
        assert status["counters"]["sweeps_run"] == 1
        assert status["counters"]["artifacts_built"] == 1
        assert (
            status["counters"]["dedup_hits"]
            == origins.count("inflight")
            == n - 1 - origins.count("registry")
        )


class TestWarmAcrossRestart:
    def test_new_daemon_serves_from_registry_without_compiling(self, tmp_path):
        reg_dir = tmp_path / "reg"
        first = ReproServer(
            socket_path=str(tmp_path / "a.sock"),
            registry=ArtifactRegistry(reg_dir),
            default_space=SPACE,
        )
        first.start()
        try:
            c = ServeClient(socket_path=first.socket_path, timeout=120)
            assert c.wait_until_ready(timeout=10)
            assert c.tune(**PROBLEM)["served_from"] == "fresh"
        finally:
            first.stop()
            first.shutdown(timeout=10)

        second = ReproServer(
            socket_path=str(tmp_path / "b.sock"),
            registry=ArtifactRegistry(reg_dir),
            default_space=SPACE,
        )
        second.start()
        try:
            c = ServeClient(socket_path=second.socket_path, timeout=120)
            assert c.wait_until_ready(timeout=10)
            warm = c.tune(**PROBLEM)
            assert warm["served_from"] == "registry"
            assert warm["stages"] == {}
            status = c.status()
            assert status["counters"]["sweeps_run"] == 0
            assert status["measurer"]["n_compiled"] == 0
        finally:
            second.stop()
            second.shutdown(timeout=10)


class TestErrors:
    def test_unknown_op_is_protocol_error(self, unix_client):
        with pytest.raises(ProtocolError, match="unknown op"):
            unix_client.request("frobnicate")

    def test_missing_problem_field_is_protocol_error(self, unix_client):
        with pytest.raises(ProtocolError, match="m"):
            unix_client.tune(n=128, k=128)

    def test_garbage_params_is_protocol_error(self, unix_client):
        with pytest.raises(ProtocolError):
            unix_client.tune(m="not-a-number", n=128, k=128)

    def test_error_does_not_kill_connection_handling(self, unix_client):
        with pytest.raises(ProtocolError):
            unix_client.request("nope")
        assert unix_client.ping()["protocol"] >= 1

    def test_errors_counted_in_endpoint_stats(self, unix_client):
        with pytest.raises(ProtocolError):
            unix_client.tune(n=1, k=1)
        status = unix_client.status()
        assert status["endpoints"]["tune"]["errors"] >= 1

    def test_unreachable_daemon_is_serve_error(self, tmp_path):
        client = ServeClient(socket_path=str(tmp_path / "nope.sock"), timeout=2)
        with pytest.raises(ServeError, match="cannot reach"):
            client.ping()

    def test_client_requires_exactly_one_endpoint(self):
        with pytest.raises(ValueError):
            ServeClient()
        with pytest.raises(ValueError):
            ServeClient(socket_path="/tmp/x.sock", port=1234)


class TestMalformedRequests:
    """Regression tests: hostile envelopes must produce error responses,
    never kill a worker thread or desync a connection."""

    def _roundtrip_raw(self, server, payload: bytes):
        import socket as socketlib

        sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        sock.settimeout(10)
        sock.connect(server.socket_path)
        f = sock.makefile("rwb")
        try:
            f.write(payload)
            f.flush()
            return json.loads(f.readline())
        finally:
            f.close()
            sock.close()

    def test_unhashable_op_is_error_envelope(self, tmp_path):
        server = ReproServer(socket_path=str(tmp_path / "d.sock"), default_space=SPACE)
        for bad_op in ([], {}, ["tune"], {"op": "nested"}):
            response = server.handle({"op": bad_op, "id": "x"})
            assert not response["ok"]
            assert response["error"]["type"] == "ProtocolError"

    def test_unhashable_op_does_not_kill_workers(self, unix_server):
        # More malformed requests than worker threads: with the old bug
        # each one killed a worker permanently and the daemon went silent.
        for _ in range(unix_server.workers + 1):
            response = self._roundtrip_raw(unix_server, b'{"op": []}\n')
            assert not response["ok"]
        client = ServeClient(socket_path=unix_server.socket_path, timeout=30)
        assert client.ping()["protocol"] >= 1

    def test_oversized_message_answers_once_and_closes(self, unix_server, monkeypatch):
        import socket as socketlib

        from repro.serve import protocol

        monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", 512)
        big = b'{"op": "ping", "pad": "' + b"x" * 2048 + b'"}\n'
        sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        sock.settimeout(10)
        sock.connect(unix_server.socket_path)
        f = sock.makefile("rwb")
        try:
            f.write(big)
            f.flush()
            response = json.loads(f.readline())
            assert not response["ok"]
            assert "exceeds" in response["error"]["message"]
            # The connection is closed — the buffered remainder of the
            # oversized message must not be parsed as further "messages".
            assert f.readline() == b""
        finally:
            f.close()
            sock.close()
        # And the daemon still serves fresh connections.
        client = ServeClient(socket_path=unix_server.socket_path, timeout=30)
        assert client.ping()["protocol"] >= 1


class TestIdleTimeout:
    def test_idle_connection_is_closed_and_worker_freed(self, tmp_path):
        import socket as socketlib

        server = ReproServer(
            socket_path=str(tmp_path / "d.sock"),
            workers=1,  # a single pinned worker would starve everything
            default_space=SPACE,
            idle_timeout=0.5,
        )
        server.start()
        try:
            sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
            sock.settimeout(10)
            sock.connect(server.socket_path)
            f = sock.makefile("rwb")
            f.write(b'{"op": "ping"}\n')
            f.flush()
            assert json.loads(f.readline())["ok"]
            # Go idle: the daemon closes the connection (EOF) instead of
            # letting it pin the only worker forever.
            assert f.readline() == b""
            f.close()
            sock.close()
            # The worker is back in the pool and answers new clients.
            client = ServeClient(socket_path=server.socket_path, timeout=30)
            assert client.ping()["protocol"] >= 1
        finally:
            server.stop()
            server.shutdown(timeout=10)

    def test_idle_timeout_disabled_when_nonpositive(self, tmp_path):
        server = ReproServer(
            socket_path=str(tmp_path / "d.sock"), default_space=SPACE, idle_timeout=0
        )
        assert server.idle_timeout is None


class TestConnectionRelease:
    def test_duplicated_descriptor_does_not_pin_the_daemon(self, tmp_path):
        """A child forked while a request is in flight holds a copy of the
        client's socket. The client shuts the connection down, so the
        daemon sees EOF and frees its only worker despite the copy."""
        import os

        server = ReproServer(
            socket_path=str(tmp_path / "d.sock"), workers=1, default_space=SPACE,
        )
        server.start()
        copies = []
        try:
            assert ServeClient(socket_path=server.socket_path,
                               timeout=30).wait_until_ready(timeout=10)
            client = ServeClient(socket_path=server.socket_path, timeout=3)
            connect = client._connect

            def connect_and_copy():
                sock = connect()
                copies.append(os.dup(sock.fileno()))
                return sock

            client._connect = connect_and_copy
            assert client.ping()["protocol"] >= 1
            assert client.ping()["protocol"] >= 1
            assert len(copies) == 2
        finally:
            for fd in copies:
                os.close(fd)
            server.stop()
            server.shutdown(timeout=10)


class TestDedupRecheck:
    def test_owner_rechecks_registry_under_lock(self, tmp_path):
        """A thread whose registry miss raced the owner's publish and whose
        in-flight lookup raced the owner's pop must be served from the
        registry, not run a duplicate sweep (CI asserts sweeps_run == 1)."""
        from repro.serve.protocol import parse_problem_params

        server = ReproServer(socket_path=str(tmp_path / "d.sock"), default_space=SPACE)
        p = parse_problem_params(dict(PROBLEM))
        _, served_from = server._ensure_artifact(p)
        assert served_from == "fresh"
        assert server.counters["sweeps_run"] == 1

        real_get = server.registry.get
        calls = {"n": 0}

        def get_missing_first(key):
            # Simulate the race: the lock-free pre-check misses, the
            # under-lock re-check sees the published artifact.
            calls["n"] += 1
            return None if calls["n"] == 1 else real_get(key)

        server.registry.get = get_missing_first
        artifact, served_from = server._ensure_artifact(p)
        assert served_from == "registry"
        assert artifact is not None
        assert calls["n"] == 2
        assert server.counters["sweeps_run"] == 1  # no duplicate sweep


class TestMeasureOp:
    """The fleet-worker endpoint: one shard of configs per request, with
    latencies bitwise-equal to a local serial measurer's."""

    def _space(self, n=6):
        from repro.gpusim.config import A100
        from repro.tensor.operation import GemmSpec
        from repro.tuning.space import SpaceOptions, enumerate_space

        spec = GemmSpec("shard", 1, 128, 128, 256)
        return spec, enumerate_space(spec, A100, SpaceOptions(max_size=n))

    def test_shard_roundtrip_matches_local_measurer(self, unix_client):
        from repro.gpusim.config import A100
        from repro.tuning.measure import Measurer

        spec, cfgs = self._space()
        result = unix_client.measure(spec, cfgs)
        local = Measurer(A100, via_ir=False).measure_many(spec, cfgs)
        assert result["latencies"] == local
        assert result["persist"] == [True] * len(cfgs)
        assert result["via_ir"] is False

    def test_inf_latency_survives_the_wire(self, unix_server):
        """The FAILED sentinel (math.inf) is not valid strict JSON; the
        protocol encodes it as the string "inf" and the client decodes it
        back, so a shard containing a non-compiling config round-trips."""
        import math

        from repro.serve.protocol import decode_latency, encode_latency

        assert encode_latency(math.inf) == "inf"
        assert decode_latency("inf") == math.inf
        assert decode_latency(encode_latency(12.5)) == 12.5

    def test_measure_counts_fleet_telemetry(self, unix_client):
        spec, cfgs = self._space()
        unix_client.measure(spec, cfgs)
        status = unix_client.status()
        assert status["counters"]["fleet_shards"] >= 1
        assert status["counters"]["fleet_trials"] >= len(cfgs)
        assert status["endpoints"]["measure"]["requests"] >= 1

    def test_repeat_shard_is_served_from_cache(self, unix_client):
        spec, cfgs = self._space()
        first = unix_client.measure(spec, cfgs)
        before = unix_client.status()["measurer"]["n_compiled"]
        second = unix_client.measure(spec, cfgs)
        after = unix_client.status()["measurer"]["n_compiled"]
        assert second["latencies"] == first["latencies"]
        assert after == before, "a repeat shard must not recompile"

    def test_empty_configs_is_protocol_error(self, unix_client):
        with pytest.raises(ProtocolError, match="configs"):
            unix_client.measure({"m": 64, "n": 64, "k": 64}, [])

    def test_bad_config_entry_is_protocol_error(self, unix_client):
        with pytest.raises(ProtocolError, match="configs\\[0\\]"):
            unix_client.measure(
                {"m": 64, "n": 64, "k": 64}, [{"not_a_field": 1}]
            )

    def test_oversized_shard_is_refused(self, unix_client, monkeypatch):
        from repro.serve import protocol

        monkeypatch.setattr(protocol, "MAX_SHARD_CONFIGS", 4)
        spec, cfgs = self._space(8)
        assert len(cfgs) > 4
        with pytest.raises(ProtocolError, match="cap"):
            unix_client.measure(spec, cfgs)


class TestStatus:
    def test_status_shape(self, unix_server, unix_client):
        unix_client.tune(**PROBLEM)
        status = unix_client.status()
        assert status["session"] == unix_server.session_id
        assert status["gpu"] == unix_server.gpu.name
        assert status["workers"] == 4
        for counter in ("sweeps_run", "artifacts_built", "dedup_hits",
                        "registry_hits", "registry_misses"):
            assert counter in status["counters"]
        for field in ("n_compiled", "memory_hits", "disk_hits", "compile_time_s",
                      "n_crashes", "n_timeouts", "bounds_derived", "bound_short_runs"):
            assert field in status["measurer"]
        tune_stats = status["endpoints"]["tune"]
        assert tune_stats["requests"] == 1
        assert tune_stats["p95_ms"] >= tune_stats["p50_ms"] >= 0


class TestShutdown:
    def test_shutdown_op_stops_and_flushes(self, tmp_path):
        reg_dir = tmp_path / "reg"
        server = ReproServer(
            socket_path=str(tmp_path / "d.sock"),
            registry=ArtifactRegistry(reg_dir),
            default_space=SPACE,
        )
        server.start()
        client = ServeClient(socket_path=server.socket_path, timeout=120)
        assert client.wait_until_ready(timeout=10)
        client.tune(**PROBLEM)
        client.shutdown()
        server.shutdown(timeout=10)
        assert not server.running
        index = json.loads((reg_dir / "index.json").read_text())
        assert index["size"] == 1 and len(index["keys"]) == 1

    def test_socket_file_removed(self, tmp_path):
        import os

        server = ReproServer(socket_path=str(tmp_path / "d.sock"), default_space=SPACE)
        server.start()
        assert os.path.exists(server.socket_path)
        server.stop()
        server.shutdown(timeout=10)
        assert not os.path.exists(server.socket_path)


class TestHttpTransport:
    @pytest.fixture
    def http_server(self, tmp_path):
        server = ReproServer(
            port=0,  # ephemeral
            registry=ArtifactRegistry(tmp_path / "reg"),
            default_space=SPACE,
        )
        server.start()
        try:
            yield server
        finally:
            server.stop()
            server.shutdown(timeout=10)

    def test_roundtrip_and_warm_path(self, http_server):
        client = ServeClient(port=http_server.port, timeout=120)
        assert client.wait_until_ready(timeout=10)
        cold = client.tune(**PROBLEM)
        warm = client.compile(**PROBLEM)
        assert cold["served_from"] == "fresh"
        assert warm["served_from"] == "registry" and warm["stages"] == {}

    def test_non_rpc_request_gets_400(self, http_server):
        import socket as socketlib

        sock = socketlib.socket(socketlib.AF_INET, socketlib.SOCK_STREAM)
        sock.settimeout(10)
        sock.connect(("127.0.0.1", http_server.port))
        sock.sendall(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
        head = sock.recv(64)
        sock.close()
        assert b"400" in head.split(b"\r\n")[0]

    def test_remote_error_taxonomy_over_http(self, http_server):
        client = ServeClient(port=http_server.port, timeout=30)
        assert client.wait_until_ready(timeout=10)
        with pytest.raises(ProtocolError):
            client.tune(m=-1, n=128, k=128)


class TestHandleDirect:
    """handle() is transport-independent — the benchmark drives it this way."""

    def test_ping_envelope(self, tmp_path):
        server = ReproServer(socket_path=str(tmp_path / "d.sock"), default_space=SPACE)
        response = server.handle({"op": "ping", "id": "x"})
        assert response["ok"] and response["id"] == "x"
        assert response["result"]["protocol"] >= 1

    def test_error_envelope_structure(self, tmp_path):
        server = ReproServer(socket_path=str(tmp_path / "d.sock"), default_space=SPACE)
        response = server.handle({"op": "tune", "params": {}})
        assert not response["ok"]
        err = response["error"]
        assert err["type"] == "ProtocolError" and err["stage"] == "serve"
