"""Warm replies: a registry hit's result is encoded once per artifact and
op, and the request id is spliced in front of it. The bytes on the wire
must equal ``encode_message`` of the response, on both transports, and
everything per request (faults, counters, tracing) must still happen."""

import json
import socket
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import faults
from repro.serve import protocol
from repro.serve import server as server_module
from repro.serve.protocol import (
    MemoizedReply,
    encode_message,
    encode_reply,
    ok_response,
    spec_to_params,
)
from repro.serve.registry import ArtifactRegistry, KernelArtifact
from repro.serve.server import ReproServer
from repro.workloads.suite import OPERATOR_SUITE

#: The id kinds a client may send: string, number, null, a nested object
#: (its keys out of order) and a non-ASCII string.
IDS = ("r7", 7, None, {"b": [1, {"y": 2, "x": "z"}], "a": 0.5}, "ïd-✓-ß")

SPACE = 16
PROBLEM = {"m": 128, "n": 128, "k": 128}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=16,
)


class TestSplice:
    @settings(max_examples=300, deadline=None)
    @given(request_id=json_values, result=st.dictionaries(st.text(), json_values, max_size=6))
    def test_splice_equals_encode_message(self, request_id, result):
        result_json = json.dumps(result, sort_keys=True).encode()
        reply = MemoizedReply(ok_response(result, request_id), result_json)
        assert reply == ok_response(result, request_id)
        assert encode_reply(reply) == encode_message(ok_response(result, request_id))

    def test_a_plain_response_is_encoded_whole(self):
        response = ok_response({"b": 1, "a": [2]}, "x")
        assert encode_reply(response) == encode_message(response)
        error = protocol.error_response(ValueError("boom"), 3)
        assert encode_reply(error) == encode_message(error)


class TestArtifactMemo:
    def _artifact(self):
        return KernelArtifact(key="k" * 64, spec={}, config={}, latency_us=1.0,
                              ir_text="", cuda_source="", provenance={})

    def test_built_once_per_name(self):
        art = self._artifact()
        calls = []

        def build():
            calls.append(1)
            return b"{}"

        assert art.encoded("compile", build) == b"{}"
        assert art.encoded("compile", build) == b"{}"
        assert art.encoded("tune", build) == b"{}"
        assert len(calls) == 2

    def test_concurrent_first_hits_build_once(self):
        """More threads than cores race to fill one memo, with a short
        switch interval: one build, and every thread gets its bytes."""
        art = self._artifact()
        calls, got = [], []
        barrier = threading.Barrier(8)

        def build():
            calls.append(1)
            time.sleep(0.01)  # hold the window a lost update would need
            return json.dumps({"n": len(calls)}).encode()

        def hit():
            barrier.wait(timeout=10)
            got.append(art.encoded("compile", build))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hit) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(calls) == 1
        assert got == [b'{"n": 1}'] * 8

    def test_memo_is_not_part_of_the_artifact(self):
        art = self._artifact()
        art.encoded("compile", lambda: b"{}")
        assert art == self._artifact()
        assert "compile" not in json.dumps(art.to_payload())


# ------------------------------------------------------------------ wire
def _jsonl_exchange(path, messages):
    """Raw reply lines for ``messages``, all on one connection."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(60)
    sock.connect(path)
    f = sock.makefile("rwb")
    try:
        out = []
        for message in messages:
            f.write(json.dumps(message).encode() + b"\n")
            f.flush()
            out.append(f.readline())
        return out
    finally:
        f.close()
        sock.close()


def _http_exchange(port, messages):
    """Raw response bodies for ``messages``, one connection each."""
    out = []
    for message in messages:
        sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        try:
            sock.sendall(protocol.http_request_bytes(json.dumps(message).encode(), "x"))
            rfile = sock.makefile("rb")
            _, headers = protocol.read_http_head(rfile)
            out.append(protocol.read_http_body(rfile, headers))
            rfile.close()
        finally:
            sock.close()
    return out


def _exchange(server, transport, messages):
    if transport == "jsonl":
        return _jsonl_exchange(server.socket_path, messages)
    return _http_exchange(server.port, messages)


def _suite_problems():
    return [dict(spec_to_params(spec), variant=variant)
            for spec in OPERATOR_SUITE.values() for variant in ("alcop", "tvm")]


@pytest.fixture(scope="module")
def suite_server(tmp_path_factory):
    """A daemon on both transports with the 24 suite keys solved."""
    tmp = tmp_path_factory.mktemp("warm")
    server = ReproServer(socket_path=str(tmp / "d.sock"), port=0, workers=2)
    for params in _suite_problems():
        assert server.handle({"op": "tune", "params": params})["ok"]
    server.start()
    try:
        yield server
    finally:
        server.stop()
        server.shutdown(timeout=10)


class TestSuiteWarmReplies:
    @pytest.mark.parametrize("transport", ["jsonl", "http"])
    def test_every_warm_reply_keeps_its_bytes(self, suite_server, transport):
        """24 suite keys x {compile, tune} x five id kinds: each warm reply
        is the encoding of its own decoded form, echoes its id, and equals
        the key's first reply except for that id."""
        for params in _suite_problems():
            for op in ("compile", "tune"):
                messages = [{"op": op, "params": params, "id": rid} for rid in IDS]
                first = None
                for rid, raw in zip(IDS, _exchange(suite_server, transport, messages)):
                    reply = json.loads(raw)
                    assert raw == encode_message(reply)
                    assert reply["ok"] and reply["id"] == rid
                    assert reply["result"]["served_from"] == "registry"
                    assert reply["result"]["stages"] == {}
                    anonymous = encode_message({**reply, "id": None})
                    first = anonymous if first is None else first
                    assert anonymous == first, (params["name"], op, rid)
        assert suite_server.registry.stats()["memo_replies"] == 48


# ---------------------------------------------------------- per request
@pytest.fixture
def small_server(tmp_path):
    server = ReproServer(socket_path=str(tmp_path / "d.sock"),
                         registry=ArtifactRegistry(tmp_path / "reg"), default_space=SPACE)
    assert server.handle({"op": "tune", "params": PROBLEM})["result"]["served_from"] == "fresh"
    server.start()
    try:
        yield server
    finally:
        server.stop()
        server.shutdown(timeout=10)


def _reply(server, message):
    raw = _jsonl_exchange(server.socket_path, [message])[0]
    assert raw == encode_message(json.loads(raw))
    return json.loads(raw)


class TestPerRequestWork:
    def test_status_memo_sizes_are_exact(self, small_server):
        compile_reply = _reply(small_server, {"op": "compile", "params": PROBLEM, "id": 1})
        tune_reply = _reply(small_server, {"op": "tune", "params": PROBLEM, "id": 2})
        _reply(small_server, {"op": "compile", "params": PROBLEM, "id": 3})
        registry = _reply(small_server, {"op": "status"})["result"]["registry"]
        assert registry["memo_replies"] == 2
        assert registry["memo_bytes"] == sum(
            len(json.dumps(r["result"], sort_keys=True)) for r in (compile_reply, tune_reply))

    def test_client_traced_warm_request_returns_its_spans(self, small_server):
        _reply(small_server, {"op": "compile", "params": PROBLEM, "id": "warm"})
        traced = _reply(small_server, {
            "op": "compile", "params": PROBLEM, "id": "t",
            "trace_id": "0123456789abcdef", "parent_span_id": "89abcdef",
        })
        result = traced["result"]
        assert result["served_from"] == "registry" and result["stages"] == {}
        assert result["trace_id"] == "0123456789abcdef"
        assert any(s["name"] == "serve:compile" for s in result["spans"])
        # A traced tune builds no memo of its own.
        _reply(small_server, {"op": "tune", "params": PROBLEM, "id": "u",
                              "trace_id": "0123456789abcdef"})
        assert small_server.registry.stats()["memo_replies"] == 1

    def test_a_sampled_request_writes_its_trace_and_skips_the_memo(self, tmp_path):
        traces = tmp_path / "traces"
        server = ReproServer(socket_path=str(tmp_path / "t.sock"), default_space=SPACE,
                             trace_dir=str(traces), trace_sample_rate=1.0)
        server.start()
        try:
            for rid in ("cold", "warm1", "warm2"):
                reply = _reply(server, {"op": "compile", "params": PROBLEM, "id": rid})
                assert reply["ok"] and reply["id"] == rid
            assert reply["result"]["served_from"] == "registry"
            assert len(list(traces.glob("trace-*.json"))) == 3
            assert server.registry.stats()["memo_replies"] == 0
        finally:
            server.stop()
            server.shutdown(timeout=10)

    def test_a_registry_fault_still_fails_a_warm_hit(self, small_server):
        warm = _reply(small_server, {"op": "compile", "params": PROBLEM, "id": "a"})
        key = warm["result"]["key"]
        plan = faults.FaultPlan([faults.FaultRule("registry", "crash", match=f"get:{key}")])
        with faults.injected(plan):
            failed = _reply(small_server, {"op": "compile", "params": PROBLEM, "id": "b"})
        assert not failed["ok"] and failed["id"] == "b"
        assert failed["error"]["type"] == "FaultInjected"
        again = _reply(small_server, {"op": "compile", "params": PROBLEM, "id": "c"})
        assert again["ok"] and again["result"] == warm["result"]

    def test_every_memoized_reply_is_counted(self, small_server):
        _reply(small_server, {"op": "compile", "params": PROBLEM, "id": 0})
        registry_hits = small_server.registry.stats()["hits"]
        requests = small_server._stats["compile"].snapshot()["requests"]
        observed = small_server._request_seconds.count
        n = 5
        replies = _jsonl_exchange(small_server.socket_path, [
            {"op": "compile", "params": PROBLEM, "id": i} for i in range(n)])
        assert [json.loads(r)["id"] for r in replies] == list(range(n))
        assert small_server.registry.stats()["memo_replies"] == 1
        assert small_server.registry.stats()["hits"] == registry_hits + n
        assert small_server._stats["compile"].snapshot()["requests"] == requests + n
        assert small_server._request_seconds.count == observed + n


# ----------------------------------------------------------- params memo
#: One suite problem (MM_BERT_FC1) written the ways a client may write it,
#: two of them refused by the wire. ``true == 1`` and both hash alike, so
#: only the value's type tells "batch bool" from "batch given".
BERT = {"name": "MM_BERT_FC1", "m": 512, "n": 3072, "k": 768}
SPELLINGS = {
    "as sent": BERT,
    "keys reordered": {"k": 768, "name": "MM_BERT_FC1", "n": 3072, "m": 512},
    "m float": {**BERT, "m": 512.0},
    "m string": {**BERT, "m": "512"},
    "unknown extra key": {**BERT, "colour": "blue"},
    "ratios given": {**BERT, "a_footprint_ratio": 1.0, "b_footprint_ratio": 1},
    "defaults given": {**BERT, "batch": 1, "dtype": "float16", "variant": "alcop"},
    "list name": {**BERT, "name": ["MM_BERT_FC1"]},
    "object extra": {**BERT, "extra": {"m": 64}},
    "tvm variant": {**BERT, "variant": "tvm"},
    "batch given": {**BERT, "batch": 1},
    "batch bool": {**BERT, "batch": True},
    "m fraction": {**BERT, "m": 512.5},
}


def _offline_server(tmp_path, registry, name="d"):
    return ReproServer(socket_path=str(tmp_path / f"{name}.sock"), registry=registry,
                       default_space=SPACE)


def _forbid_the_full_path(monkeypatch):
    """Make parsing, key hashing and the stage collector fail, so only a
    key memo hit can answer."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a memo hit reached the full path")

    for module, name in ((server_module, "parse_problem_params"),
                         (server_module, "artifact_key"),
                         (server_module.profiling, "StageTimes"),
                         (server_module.profiling, "collect")):
        monkeypatch.setattr(module, name, forbidden)


def _anonymous(response):
    """The wire bytes of ``response`` with neither its id nor its
    ``served_from``; checks first that they are its own encoding."""
    raw = encode_reply(response)
    reply = json.loads(raw)
    assert raw == encode_message(reply)
    if reply["ok"]:
        reply["result"]["served_from"] = None
    return encode_message({**reply, "id": None})


class TestParamsMemo:
    def test_every_spelling_is_answered_as_a_fresh_server_answers_it(self, tmp_path):
        """For each spelling, a server that has answered every other one
        answers it, and then again from its memo, exactly as a server that
        has answered nothing: same envelope, key, kernel and bytes but for
        the id. All of them share one registry, so every answer is the same
        stored artifact."""
        registry = ArtifactRegistry()
        solver = _offline_server(tmp_path, registry, "solver")
        for params in SPELLINGS.values():
            solver.handle({"op": "compile", "params": params})
        for name, params in SPELLINGS.items():
            warm = _offline_server(tmp_path, registry, "warm")
            for other, other_params in SPELLINGS.items():
                if other != name:
                    warm.handle({"op": "compile", "params": other_params, "id": other})
            for op in ("compile", "tune"):
                first = warm.handle({"op": op, "params": params, "id": 1})
                again = warm.handle({"op": op, "params": params, "id": 2})
                fresh = _offline_server(tmp_path, registry, "fresh").handle(
                    {"op": op, "params": params, "id": 3})
                for got in (first, again):
                    assert got["ok"] == fresh["ok"], (name, op)
                    if not got["ok"]:
                        assert got["error"] == fresh["error"], (name, op)
                        assert got["error"]["type"] == "ProtocolError", (name, op)
                        continue
                    for field in ("key", "config", "latency_us", "cuda_source", "spec"):
                        assert got["result"].get(field) == fresh["result"].get(field), (
                            name, op, field)
                    assert _anonymous(got) == _anonymous(fresh), (name, op)
        # 11 spellings parse; the list and object values skip the memo.
        assert len(warm._keys) == 9
        assert len(registry) == 3  # alcop, tvm and the list-named problem

    def test_a_memo_hit_parses_nothing(self, tmp_path, monkeypatch):
        """A hit goes from the params to the registry: no GemmSpec, no
        artifact-key hash, no stage collector."""
        server = _offline_server(tmp_path, ArtifactRegistry())
        warm = server.handle({"op": "compile", "params": BERT, "id": 0})
        assert warm["ok"]
        _forbid_the_full_path(monkeypatch)
        for op in ("compile", "tune"):
            reply = server.handle({"op": op, "params": BERT, "id": op})
            assert isinstance(reply, MemoizedReply)
            assert reply["ok"] and reply["result"]["key"] == warm["result"]["key"]
        # Each hit returns its own response: no two share a mutable dict.
        a, b = (server.handle({"op": "compile", "params": BERT, "id": i})["result"]
                for i in range(2))
        assert a == b and a is not b
        assert all(a[f] is not b[f] for f in ("spec", "config", "provenance", "stages"))
        # A spelling never answered before still takes the full path.
        assert server.handle({"op": "compile", "params": {**BERT, "m": 512.0}})["error"][
            "type"] == "AssertionError"

    def test_a_registry_fault_still_fails_a_memo_hit(self, tmp_path, monkeypatch):
        server = _offline_server(tmp_path, ArtifactRegistry())
        key = server.handle({"op": "compile", "params": BERT})["result"]["key"]
        _forbid_the_full_path(monkeypatch)
        hits = server.registry.stats()["hits"]
        plan = faults.FaultPlan([faults.FaultRule("registry", "crash", match=f"get:{key}")])
        with faults.injected(plan):
            failed = server.handle({"op": "tune", "params": BERT, "id": "b"})
        assert not failed["ok"] and failed["id"] == "b"
        assert failed["error"]["type"] == "FaultInjected"
        again = server.handle({"op": "tune", "params": BERT, "id": "c"})
        assert again["ok"] and again["result"]["key"] == key
        assert server.registry.stats()["hits"] == hits + 1
        assert server._stats["tune"].snapshot()["errors"] == 1

    def test_racing_first_hits_leave_one_entry(self, tmp_path):
        """8 threads, more than the cores, each the first to send these
        params to a server whose registry already holds their artifact:
        one memo entry, and equal replies."""
        registry = ArtifactRegistry()
        assert _offline_server(tmp_path, registry, "solver").handle(
            {"op": "compile", "params": BERT})["ok"]
        server = _offline_server(tmp_path, registry)
        barrier = threading.Barrier(8)
        replies = []

        def first_hit(i):
            barrier.wait(timeout=10)
            replies.append(server.handle({"op": "compile", "params": dict(BERT), "id": i}))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_hit, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(server._keys) == 1
        assert sorted(r["id"] for r in replies) == list(range(8))
        assert len({_anonymous(r) for r in replies}) == 1

    def test_the_memo_stops_growing_at_its_bound(self, tmp_path, monkeypatch):
        """Past its bound each new entry evicts the oldest, and an evicted
        spelling is answered through the full path as before."""
        monkeypatch.setattr(server_module, "_KEY_MEMO_SIZE", 4)
        server = _offline_server(tmp_path, ArtifactRegistry())
        spellings = [{**PROBLEM, "tag": i} for i in range(6)]
        keys = {server.handle({"op": "tune", "params": p})["result"]["key"]
                for p in spellings}
        assert len(keys) == 1
        assert len(server._keys) == 4
        kept = [server_module._params_memo_key(p) in server._keys for p in spellings]
        assert kept == [False, False, True, True, True, True]
        assert server.handle({"op": "tune", "params": spellings[0]})["ok"]
        assert len(server._keys) == 4
