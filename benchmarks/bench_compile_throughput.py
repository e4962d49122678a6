"""Compile-path throughput tracking (no paper figure — perf trajectory).

Three numbers, recorded as JSON so their trajectory is tracked from PR to
PR by the CI artifact:

* **batch-model speedup** — ``analytical_rank`` via the vectorized batch
  model (:mod:`repro.perfmodel.batch`) against the per-config scalar loop,
  on a multi-thousand-config full space. Both run the same Table-I
  expressions, on columns or on one config's scalars, so the ratio prices
  numpy overhead per config as much as batching;
* **cold configs/sec** — trials through the full ``via_ir`` compiler path
  (schedule, lower, pipelining transform, spec extraction, simulation) on
  an empty cache, with the per-stage breakdown alongside;
* **warm configs/sec** — the same sweep answered from the measurement
  cache;
* **incremental configs/sec** — the same cold compile path with the
  incremental engine's stage-graph memoization, on a *group-preserving*
  slice of the space (whole tile-key groups, so the pipelining-knob
  siblings the engine reuses across are actually present), against a
  fresh-per-config measurer on the identical slice. The two latency
  lists are asserted exactly equal — the speedup is only recorded for
  bitwise-identical results (docs/performance.md);
* **tracing overhead** — the same cold sweep with an active tracer and a
  root span (so every compile stage is also recorded as a span), asserted
  to cost < 2% of cold-sweep throughput (docs/observability.md).

Runs two ways: as a pytest benchmark inside the suite, and as a plain
script (``python benchmarks/bench_compile_throughput.py --smoke --out
FILE``) for the CI bench-smoke job, which uploads the JSON artifact.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

#: The rank micro-benchmark space must stay >= 2000 configs — that scale is
#: where the batch/scalar contrast is meaningful (and what the recorded
#: speedup is defined over).
RANK_MNK = (1024, 1024, 1024)
RANK_MIN_CONFIGS = 2000
#: Loose floor on the batch speedup: typically ~20x; the assert tolerates a
#: loaded CI runner, the JSON records the exact measurement.
RANK_SPEEDUP_FLOOR = 5.0
#: Ceiling on the observability layer's cost on the cold compile path, in
#: percent of cold-sweep throughput. Interleaved min-of-N runs keep the
#: measurement stable on loaded CI runners.
TRACING_OVERHEAD_CEILING_PCT = 2.0
#: Loose floor on the incremental-vs-fresh speedup: typically >= 2x on an
#: idle machine; the assert tolerates a loaded CI runner, the JSON records
#: the exact measurement.
INCREMENTAL_SPEEDUP_FLOOR = 1.3
#: The engine serves 7 of each 8-config stage group from its memoized
#: base; the measured ratio is deterministic, the floor merely loose.
INCREMENTAL_REUSE_FLOOR = 0.5


def _group_preserving_space(spec, gpu, target: int):
    """Whole tile-key groups (all pipelining-knob siblings) until at least
    ``target`` configs — the strided ``max_size`` cap would scatter the
    siblings the incremental engine reuses across."""
    from repro.core.incremental import schedule_key
    from repro.tuning import enumerate_space

    out, seen_keys = [], []
    groups = {}
    for cfg in enumerate_space(spec, gpu):
        k = schedule_key(spec, cfg)
        if k not in groups:
            groups[k] = []
            seen_keys.append(k)
        groups[k].append(cfg)
    for k in seen_keys:
        out.extend(groups[k])
        if len(out) >= target:
            break
    return out


def _best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_experiment(quick: bool, jobs: int = 1) -> dict:
    from repro.gpusim import A100
    from repro.tensor import GemmSpec
    from repro.tuning import Measurer, SpaceOptions, enumerate_space
    from repro.tuning.tuners import _analytical_rank_scalar, analytical_rank

    # --- batch-vs-scalar analytical ranking ---------------------------------
    rank_spec = GemmSpec("throughput_rank", 1, *RANK_MNK)
    rank_space = enumerate_space(rank_spec, A100)
    assert len(rank_space) >= RANK_MIN_CONFIGS
    rounds = 2 if quick else 3
    scalar_s = _best_of(lambda: _analytical_rank_scalar(rank_spec, rank_space), rounds)
    batch_s = _best_of(lambda: analytical_rank(rank_spec, rank_space), rounds)

    # --- cold/warm sweep through the full via_ir compile path ---------------
    sweep_spec = GemmSpec("throughput_sweep", 1, 256, 256, 256)
    sweep_space = enumerate_space(
        sweep_spec, A100, options=SpaceOptions(max_size=48 if quick else 160)
    )
    measurer = Measurer(A100, via_ir=True, jobs=jobs)
    t0 = time.perf_counter()
    measurer.sweep(sweep_spec, sweep_space)
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    measurer.sweep(sweep_spec, sweep_space)
    warm_s = time.perf_counter() - t0

    # --- incremental engine vs fresh-per-config, identity-checked -----------
    from repro.ir.printer import format_kernel

    inc_space = _group_preserving_space(sweep_spec, A100, 48 if quick else 160)
    inc_rounds = 2 if quick else 3
    fresh_s = inc_s = float("inf")
    fresh_lat = inc_lat = None
    inc_measurer = None
    for _ in range(inc_rounds):
        m_fresh = Measurer(A100, via_ir=True, incremental=False)
        t0 = time.perf_counter()
        lat = m_fresh.sweep(sweep_spec, inc_space)
        dt = time.perf_counter() - t0
        if dt < fresh_s:
            fresh_s, fresh_lat = dt, lat
        m_inc = Measurer(A100, via_ir=True)
        t0 = time.perf_counter()
        lat = m_inc.sweep(sweep_spec, inc_space)
        dt = time.perf_counter() - t0
        if dt < inc_s:
            inc_s, inc_lat, inc_measurer = dt, lat, m_inc
    # Identity gate: the speedup is only real if the results are. Latency
    # lists must match exactly, and the first stage group's kernels must
    # print byte-identically through the engine's copy-on-write path.
    assert inc_lat == fresh_lat, "incremental sweep changed measured latencies"
    from repro.codegen.lower import lower as _lower
    from repro.schedule.auto import auto_schedule as _auto
    from repro.transform import apply_pipelining as _pipe

    graph = inc_measurer._te_graph(sweep_spec)
    engine = inc_measurer.engine
    for cfg in inc_space[:8]:
        fresh_kernel = _pipe(_lower(_auto(graph, cfg)))
        assert format_kernel(engine.kernel(graph, sweep_spec, cfg)) == format_kernel(
            fresh_kernel
        ), f"incremental kernel for {cfg} prints differently"
    incremental_identity_checked = True

    # --- tracing-on vs tracing-off overhead guard ---------------------------
    # A loaded CI runner's noise is second-scale (load spikes, frequency
    # drift), so the two modes are interleaved at *chunk* granularity
    # (~25 ms of work) with alternating order inside each round — any drift
    # hits both modes equally instead of being misread as tracing cost.
    # Each chunk gets a fresh Measurer, so every sweep is genuinely cold;
    # per-round totals are compared and the best (min) round wins: noise
    # only ever inflates the ratio, a real regression shows in every round.
    # Rounds stop early once one lands comfortably under the ceiling, and
    # keep going (up to six) when the runner is noisy.
    guard_space = enumerate_space(
        sweep_spec, A100, options=SpaceOptions(max_size=160)
    )
    chunks = [guard_space[i::4] for i in range(4)]

    def cold_chunk_s(chunk, traced: bool) -> float:
        from repro.obs import trace as obs_trace

        m = Measurer(A100, via_ir=True, jobs=jobs)
        if traced:
            tracer = obs_trace.Tracer(capacity=1 << 18)
            with obs_trace.activate(tracer, all_threads=True):
                with obs_trace.span("bench-cold-sweep"):
                    t0 = time.perf_counter()
                    m.sweep(sweep_spec, chunk)
                    return time.perf_counter() - t0
        t0 = time.perf_counter()
        m.sweep(sweep_spec, chunk)
        return time.perf_counter() - t0

    cold_chunk_s(chunks[0], traced=False)  # warm both code paths
    cold_chunk_s(chunks[0], traced=True)
    untraced_s = traced_s = float("inf")
    overhead_pct = float("inf")
    for _ in range(6):
        round_off = round_on = 0.0
        for j, chunk in enumerate(chunks):
            order = (False, True) if j % 2 == 0 else (True, False)
            for traced in order:
                dt = cold_chunk_s(chunk, traced=traced)
                if traced:
                    round_on += dt
                else:
                    round_off += dt
        pct = 100.0 * (round_on - round_off) / round_off
        if pct < overhead_pct:
            overhead_pct = pct
            untraced_s, traced_s = round_off, round_on
        if overhead_pct < TRACING_OVERHEAD_CEILING_PCT / 2:
            break

    return {
        "quick": quick,
        "rank_space_size": len(rank_space),
        "scalar_rank_s": scalar_s,
        "batch_rank_s": batch_s,
        "batch_speedup": scalar_s / batch_s,
        "sweep_space_size": len(sweep_space),
        "cold_sweep_s": cold_s,
        "cold_configs_per_s": len(sweep_space) / cold_s,
        "warm_sweep_s": warm_s,
        "warm_configs_per_s": len(sweep_space) / warm_s,
        "incremental_space_size": len(inc_space),
        "incremental_fresh_configs_per_s": len(inc_space) / fresh_s,
        "incremental_cold_configs_per_s": len(inc_space) / inc_s,
        "incremental_speedup": fresh_s / inc_s,
        "lower_reuse_ratio": inc_measurer.engine.reuse_ratio,
        "incremental_identity_checked": incremental_identity_checked,
        "incremental_stage_time_s": dict(inc_measurer.stage_times.ordered()),
        "untraced_cold_configs_per_s": len(guard_space) / untraced_s,
        "traced_cold_configs_per_s": len(guard_space) / traced_s,
        "tracing_overhead_pct": overhead_pct,
        "stage_time_s": dict(measurer.stage_times.ordered()),
    }


def format_table(r: dict) -> str:
    lines = ["Compile throughput — batch model and via_ir hot path"]
    lines.append(
        f"analytical rank ({r['rank_space_size']} configs): "
        f"scalar {r['scalar_rank_s'] * 1e3:7.1f} ms, "
        f"batch {r['batch_rank_s'] * 1e3:6.1f} ms, "
        f"speedup {r['batch_speedup']:.1f}x"
    )
    lines.append(
        f"via_ir sweep ({r['sweep_space_size']} configs): "
        f"cold {r['cold_configs_per_s']:7.1f} configs/s, "
        f"warm {r['warm_configs_per_s']:9.1f} configs/s"
    )
    lines.append(
        f"incremental sweep ({r['incremental_space_size']} configs, "
        f"group-preserving): fresh {r['incremental_fresh_configs_per_s']:7.1f} "
        f"configs/s, incremental {r['incremental_cold_configs_per_s']:7.1f} "
        f"configs/s ({r['incremental_speedup']:.2f}x, "
        f"reuse {r['lower_reuse_ratio']:.3f}, "
        f"identity {'checked' if r['incremental_identity_checked'] else 'SKIPPED'})"
    )
    lines.append(
        f"tracing overhead: off {r['untraced_cold_configs_per_s']:7.1f} "
        f"configs/s, on {r['traced_cold_configs_per_s']:7.1f} configs/s "
        f"({r['tracing_overhead_pct']:+.2f}%)"
    )
    lines.append("per-stage compile breakdown (cold sweep):")
    total = sum(r["stage_time_s"].values()) or 1.0
    for name, s in r["stage_time_s"].items():
        lines.append(f"  {name:12s} {s:8.4f}s  {100.0 * s / total:5.1f}%")
    return "\n".join(lines)


def check_invariants(r: dict) -> None:
    assert r["batch_speedup"] >= RANK_SPEEDUP_FLOOR, (
        f"batch analytical model only {r['batch_speedup']:.1f}x faster than "
        f"the scalar loop (floor {RANK_SPEEDUP_FLOOR}x)"
    )
    assert r["warm_configs_per_s"] > r["cold_configs_per_s"], (
        "warm (cached) sweep should beat the cold compile path"
    )
    assert r["stage_time_s"], "cold via_ir sweep recorded no stage breakdown"
    assert r["incremental_identity_checked"] is True, (
        "incremental sweep speedup recorded without the bitwise identity check"
    )
    assert r["incremental_speedup"] >= INCREMENTAL_SPEEDUP_FLOOR, (
        f"incremental engine only {r['incremental_speedup']:.2f}x faster than "
        f"fresh-per-config compiles (floor {INCREMENTAL_SPEEDUP_FLOOR}x)"
    )
    assert r["lower_reuse_ratio"] >= INCREMENTAL_REUSE_FLOOR, (
        f"incremental engine reused only {r['lower_reuse_ratio']:.3f} of "
        f"stage-graph builds (floor {INCREMENTAL_REUSE_FLOOR}); the sweep "
        "ordering or keying no longer groups pipelining-knob siblings"
    )
    assert r["incremental_stage_time_s"], (
        "incremental sweep recorded no stage breakdown"
    )
    assert r["tracing_overhead_pct"] < TRACING_OVERHEAD_CEILING_PCT, (
        f"tracing-on cold sweep costs {r['tracing_overhead_pct']:.2f}% "
        f"(ceiling {TRACING_OVERHEAD_CEILING_PCT}%): the observability "
        "layer has grown a hot-path cost"
    )


# ------------------------------------------------------------------ pytest
def test_compile_throughput(benchmark):
    from conftest import JOBS, QUICK, RESULTS_DIR, write_result

    result = run_experiment(QUICK, jobs=JOBS)
    check_invariants(result)
    write_result("compile_throughput", format_table(result))
    out = RESULTS_DIR / "compile_throughput.json"
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"[json written to {out}]")

    from repro.tensor import GemmSpec
    from repro.tuning import enumerate_space
    from repro.tuning.tuners import analytical_rank

    spec = GemmSpec("throughput_rank", 1, *RANK_MNK)
    space = enumerate_space(spec)
    benchmark.pedantic(lambda: analytical_rank(spec, space), rounds=3, iterations=1)


# ------------------------------------------------------------------ script
def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="reduced sweep sizes")
    parser.add_argument("--jobs", type=int, default=1, help="measurement pool width")
    parser.add_argument("--out", default=None, help="write the JSON record here")
    args = parser.parse_args(argv)

    result = run_experiment(args.smoke, jobs=args.jobs)
    check_invariants(result)
    print(format_table(result))
    if args.out:
        path = pathlib.Path(args.out)
        path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(f"[json written to {path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
