"""Property tests: the incremental engine is bitwise-invisible.

The engine (:mod:`repro.core.incremental`) is a pure throughput
optimization — every timing spec it serves must be indistinguishable
from a fresh per-config build. These tests assert that over *full*
enumerated spaces of several shapes: timing specs are equal in every
field, kernel name included, and simulated latencies match exactly on
A100 and V100. A tile group whose check fails is measured fresh, and a
fault-injection case proves a crashed trial cannot poison the engine for
its neighboring configs.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.codegen.lower import lower
from repro.core import incremental
from repro.core.incremental import IncrementalEngine, schedule_key, sort_key
from repro.gpusim.config import A100, V100
from repro.gpusim.engine import simulate_kernel
from repro.gpusim.spec import extract_timing_spec
from repro.schedule.auto import auto_schedule
from repro.tensor.operation import GemmSpec, contraction, gemm_graph, placeholder
from repro.transform import apply_pipelining
from repro.tuning.measure import FAILED, Measurer
from repro.tuning.space import enumerate_space

SPEC = GemmSpec("inc_prop", 1, 64, 64, 64)


def _graph(spec: GemmSpec):
    a = placeholder("A", (spec.m, spec.k), dtype=spec.dtype)
    b = placeholder("B", (spec.n, spec.k), dtype=spec.dtype)
    return contraction(a, b, spec)


def _fresh_kernel(graph, cfg):
    return apply_pipelining(lower(auto_schedule(graph, cfg)))


def _latency(ts, gpu):
    """Simulated latency, or the error identity for unlaunchable configs
    (both paths must fail the same way, not just succeed the same way)."""
    try:
        return simulate_kernel(ts, gpu).latency_us
    except Exception as e:
        return (type(e).__name__, str(e))


@pytest.mark.parametrize("spec, gpus", [
    (SPEC, [A100]),
    (SPEC, [V100]),
    (GemmSpec("inc_k_one_tile", 1, 128, 128, 16), [A100, V100]),
    (GemmSpec("inc_batched", 12, 128, 64, 256), [A100, V100]),
    (GemmSpec("inc_non_pow2", 1, 96, 160, 48), [A100, V100]),
], ids=["a100", "v100", "k-one-tile", "batched", "non-pow2"])
def test_full_space_bitwise_identical(spec, gpus):
    """Every config of the full space: the engine's timing spec equals a
    fresh build's in every field, kernel name included, and so does the
    simulated latency on each GPU. Beyond 64³: K of one tile (no
    shared-memory pipelining possible), a batched and a non-power-of-two
    problem."""
    space = enumerate_space(spec, A100)
    graph = gemm_graph(spec)
    engine = IncrementalEngine()
    engine.note_batch(spec, space)
    for cfg in space:
        ts_inc = engine.timing_spec(graph, spec, cfg)
        ts_fresh = extract_timing_spec(_fresh_kernel(graph, cfg))
        assert ts_inc == ts_fresh, cfg
        for gpu in gpus:
            assert _latency(ts_inc, gpu) == _latency(ts_fresh, gpu), (gpu.name, cfg)
    # The space enumerates the stage knobs innermost: one check per tile
    # group (two fresh builds), every other sibling a hit.
    assert engine.bypasses == 0
    assert engine.hits + engine.misses == len(space)
    assert engine.transform_runs == 2 * engine.misses
    assert engine.reuse_ratio > 0.8


def test_sweep_results_identical_to_fresh_measurer():
    """End-to-end through ``Measurer.sweep``: the incremental measurer
    reports exactly the latency list a non-incremental one does."""
    space = enumerate_space(SPEC, A100)[:256]
    fresh = Measurer(A100, via_ir=True, incremental=False).sweep(SPEC, space)
    inc_measurer = Measurer(A100, via_ir=True)
    inc = inc_measurer.sweep(SPEC, space)
    assert inc == fresh
    assert inc_measurer.engine is not None
    assert inc_measurer.engine.hits > 0


def test_measure_order_and_results_unchanged_by_sorting():
    """measure_many regroups trials by schedule key internally but the
    returned list must stay aligned to the caller's config order."""
    space = enumerate_space(SPEC, A100)[:64]
    shuffled = list(reversed(space))
    m = Measurer(A100, via_ir=True)
    lat = m.measure_many(SPEC, shuffled)
    serial = {cfg.key(): l for cfg, l in zip(shuffled, lat)}
    m2 = Measurer(A100, via_ir=True, incremental=False)
    for cfg in space:
        assert serial[cfg.key()] == m2.measure(SPEC, cfg)


def test_failed_check_measures_group_fresh(monkeypatch):
    """A static derivation that disagrees with the compiler on one tile
    group fails that group's check: the engine declines each of its
    configs, the measurer compiles them fresh with the latencies of a
    non-incremental measurer, and the group is checked once, not once per
    sibling."""
    space = enumerate_space(SPEC, A100)[:64]
    n_groups = len({schedule_key(SPEC, cfg) for cfg in space})
    victim = schedule_key(SPEC, space[8])
    victim_size = sum(1 for cfg in space if schedule_key(SPEC, cfg) == victim)
    assert n_groups >= 4 and victim_size >= 4
    static = incremental.timing_spec_from_config
    victim_calls = []

    def perturbed(spec, cfg):
        ts = static(spec, cfg)
        if schedule_key(spec, cfg) == victim:
            victim_calls.append(cfg)
            if (cfg.smem_stages, cfg.reg_stages) == (1, 1):
                ts.epilogue_bytes += 1
        return ts

    monkeypatch.setattr(incremental, "timing_spec_from_config", perturbed)
    measurer = Measurer(A100, via_ir=True)
    got = measurer.sweep(SPEC, space)
    assert got == Measurer(A100, via_ir=True, incremental=False).sweep(SPEC, space)
    engine = measurer.engine
    assert [(c.smem_stages, c.reg_stages) for c in victim_calls] == [(2, 2), (1, 1)]
    assert engine.misses == n_groups
    assert engine.transform_runs == 2 * n_groups
    assert engine.bypasses == victim_size - 1
    assert engine.hits == len(space) - n_groups - (victim_size - 1)


def test_compile_fault_mid_sweep_does_not_poison_neighbors():
    """A config whose trial crashes (injected ``compile`` fault) fails in
    both paths, its siblings stay bitwise-identical, and the shared stage
    cache serves the faulted config correctly once the fault is gone."""
    space = [cfg for cfg in enumerate_space(SPEC, A100)
             if schedule_key(SPEC, cfg) == schedule_key(SPEC, enumerate_space(SPEC, A100)[0])]
    assert len(space) >= 4
    # Fault the *middle* sibling so the cache is warm when it crashes and
    # used again afterwards.
    victim = sorted(space, key=sort_key)[len(space) // 2]
    match = ",".join(str(x) for x in victim.key())
    plan = faults.FaultPlan([faults.FaultRule("compile", "crash", match=match)])

    with faults.injected(plan):
        inc_measurer = Measurer(A100, via_ir=True, retries=0)
        inc = inc_measurer.sweep(SPEC, space)
    with faults.injected(plan):
        fresh = Measurer(A100, via_ir=True, incremental=False, retries=0).sweep(SPEC, space)

    assert inc == fresh
    victim_idx = next(i for i, c in enumerate(space) if c.key() == victim.key())
    assert inc[victim_idx] == FAILED
    assert all(l != FAILED for i, l in enumerate(inc) if i != victim_idx)

    # The engine's shared entry was not poisoned: with the fault plan gone
    # it serves the victim a spec identical to a fresh build's.
    graph = _graph(SPEC)
    engine = inc_measurer.engine
    assert engine is not None
    served = engine.timing_spec(graph, SPEC, victim)
    assert served == extract_timing_spec(_fresh_kernel(graph, victim))


def test_unsupported_graph_bypasses():
    """Graphs with non-placeholder inputs compile fresh: the engine
    declines rather than answering from a derivation that does not model
    fusion."""
    graph = _graph(SPEC)
    engine = IncrementalEngine()
    assert engine.supports(graph)
    # A tensor whose op is not a pure contraction-of-placeholders.
    assert not engine.supports(graph.op.inputs[0])
    assert engine.timing_spec(graph.op.inputs[0], SPEC, enumerate_space(SPEC, A100)[0]) is None
    assert engine.bypasses == 1


def test_lru_eviction_bounded_and_counted():
    space = enumerate_space(SPEC, A100)
    graph = _graph(SPEC)
    engine = IncrementalEngine(max_entries=4)
    engine.note_batch(SPEC, space)
    for cfg in space[:200]:
        assert engine.timing_spec(graph, SPEC, cfg) is not None
    assert len(engine._verdicts) <= 4
    assert engine.evictions > 0
    stats = engine.stats()
    assert stats["entries"] <= 4
    assert stats["evictions"] == engine.evictions
