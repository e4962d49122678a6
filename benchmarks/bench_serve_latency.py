"""Serving-path latency tracking (no paper figure — perf trajectory).

The ``repro serve`` daemon exists to amortize compile state across
requests; this benchmark records the numbers that claim rests on, as JSON
so the CI serve-smoke job can track their trajectory from PR to PR:

* **cold latency** — first tune of a shape: the bounded exhaustive search
  of its space + kernel build, through a real Unix-socket round trip;
* **warm latency (p50/p95)** — repeat compiles of the same shape, served
  from the artifact registry with zero compile stages;
* **dedup factor** — N concurrent identical tune requests against a fresh
  shape must run exactly one sweep (requests / sweeps == N).

Runs two ways: as a pytest benchmark inside the suite, and as a plain
script (``python benchmarks/bench_serve_latency.py --smoke --out FILE``)
for the CI serve-smoke job, which uploads the JSON artifact.
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile
import threading
import time

#: Concurrent identical requests in the dedup experiment.
DEDUP_CLIENTS = 3
#: Warm round trips for the p50/p95 estimate.
WARM_ROUNDS_FULL = 60
WARM_ROUNDS_QUICK = 20


def _quantile(ordered, q):
    if not ordered:
        return 0.0
    idx = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[idx]


def run_experiment(quick: bool) -> dict:
    from repro.serve.client import ServeClient
    from repro.serve.registry import ArtifactRegistry
    from repro.serve.server import ReproServer

    space = 24 if quick else 120
    warm_rounds = WARM_ROUNDS_QUICK if quick else WARM_ROUNDS_FULL
    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        tmp = pathlib.Path(tmp)
        server = ReproServer(
            socket_path=str(tmp / "d.sock"),
            registry=ArtifactRegistry(tmp / "reg"),
            workers=max(4, DEDUP_CLIENTS),
            default_space=space,
        )
        server.start()
        try:
            client = ServeClient(socket_path=server.socket_path, timeout=600)
            assert client.wait_until_ready(timeout=30), "daemon never became ready"

            # --- cold: first request pays the sweep + kernel build ----------
            t0 = time.perf_counter()
            cold = client.tune(m=512, n=512, k=512)
            cold_s = time.perf_counter() - t0
            assert cold["served_from"] == "fresh"

            # --- warm: registry round trips, zero compile work --------------
            warm_samples = []
            for _ in range(warm_rounds):
                t0 = time.perf_counter()
                warm = client.compile(m=512, n=512, k=512)
                warm_samples.append(time.perf_counter() - t0)
                assert warm["served_from"] == "registry"
                assert warm["stages"] == {}, (
                    f"warm request touched the compiler: {warm['stages']}"
                )
            warm_samples.sort()

            # --- dedup: concurrent identical requests, fresh shape ----------
            results, errors = [], []
            barrier = threading.Barrier(DEDUP_CLIENTS)

            def one():
                c = ServeClient(socket_path=server.socket_path, timeout=600)
                barrier.wait()
                try:
                    results.append(c.tune(m=1024, n=256, k=256))
                except Exception as e:
                    errors.append(e)

            threads = [threading.Thread(target=one) for _ in range(DEDUP_CLIENTS)]
            t0 = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            dedup_s = time.perf_counter() - t0
            assert not errors, errors

            status = client.status()
        finally:
            server.stop()
            server.shutdown(timeout=30)

    counters = status["counters"]
    return {
        "quick": quick,
        "space": space,
        "cold_ms": cold_s * 1e3,
        "warm_rounds": warm_rounds,
        "warm_p50_ms": _quantile(warm_samples, 0.50) * 1e3,
        "warm_p95_ms": _quantile(warm_samples, 0.95) * 1e3,
        "cold_over_warm_p50": cold_s / max(_quantile(warm_samples, 0.50), 1e-9),
        "dedup_clients": DEDUP_CLIENTS,
        "dedup_wall_s": dedup_s,
        "dedup_served_from": sorted(r["served_from"] for r in results),
        "sweeps_run": counters["sweeps_run"],
        "artifacts_built": counters["artifacts_built"],
        "dedup_hits": counters["dedup_hits"],
        "dedup_factor": DEDUP_CLIENTS / max(counters["sweeps_run"] - 1, 1),
        "endpoint_tune_p95_ms": status["endpoints"]["tune"]["p95_ms"],
        "measurer_n_compiled": status["measurer"]["n_compiled"],
    }


def format_table(r: dict) -> str:
    lines = ["Serve latency — cold vs. warm round trips and request dedup"]
    lines.append(
        f"cold tune (space {r['space']}): {r['cold_ms']:8.1f} ms  "
        f"({r['measurer_n_compiled']} configs compiled)"
    )
    lines.append(
        f"warm compile ({r['warm_rounds']} rounds): "
        f"p50 {r['warm_p50_ms']:6.2f} ms, p95 {r['warm_p95_ms']:6.2f} ms, "
        f"cold/warm {r['cold_over_warm_p50']:.0f}x"
    )
    lines.append(
        f"dedup: {r['dedup_clients']} concurrent identical tunes -> "
        f"{r['sweeps_run'] - 1} sweep(s) for that shape, "
        f"{r['dedup_hits']} shared in-flight "
        f"(served_from {r['dedup_served_from']})"
    )
    return "\n".join(lines)


def check_invariants(r: dict) -> None:
    assert r["warm_p50_ms"] < r["cold_ms"], (
        f"warm p50 {r['warm_p50_ms']:.2f} ms is not below the cold request "
        f"({r['cold_ms']:.2f} ms) — the registry is not saving work"
    )
    # Two shapes were tuned in total (cold experiment + dedup experiment);
    # the dedup fan-in must have collapsed to one sweep for its shape.
    assert r["sweeps_run"] == 2, (
        f"{r['sweeps_run']} sweeps ran for 2 distinct shapes — concurrent "
        "identical requests did not deduplicate"
    )
    assert r["dedup_served_from"].count("fresh") == 1
    assert r["artifacts_built"] == 2


# ------------------------------------------------------------------ pytest
def test_serve_latency(benchmark):
    from conftest import QUICK, RESULTS_DIR, write_result

    result = run_experiment(QUICK)
    check_invariants(result)
    write_result("serve_latency", format_table(result))
    out = RESULTS_DIR / "serve_latency.json"
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"[json written to {out}]")

    # Representative kernel: the transport-independent dispatch path on a
    # status request (no compile work, pure serving overhead).
    from repro.serve.server import ReproServer

    server = ReproServer(port=0, default_space=16)
    benchmark.pedantic(
        lambda: server.handle({"op": "status", "id": "bench"}), rounds=30, iterations=1
    )


# ------------------------------------------------------------------ script
def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="reduced space / rounds")
    parser.add_argument("--out", default=None, help="write the JSON record here")
    args = parser.parse_args(argv)

    result = run_experiment(args.smoke)
    check_invariants(result)
    print(format_table(result))
    if args.out:
        path = pathlib.Path(args.out)
        path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(f"[json written to {path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
