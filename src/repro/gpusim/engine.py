"""The kernel timing engine: a per-SM discrete-event pipeline simulation.

One *wave* of co-resident threadblocks on a single representative SM is
simulated event-by-event (all SMs execute the same program on symmetric
tiles, so one SM with its fair bandwidth share represents the machine). A
threadblock is one sequential process — exactly like the instruction stream
of the transformed kernel:

* prologue: issue the first ``smem_stages - 1`` asynchronous chunk copies;
* each outer iteration: issue the copy for iteration ``ko + stages - 1``,
  wait for chunk ``ko`` to arrive, run the inner (register-level) pipeline
  on the SM's tensor-core server, release the stage;
* epilogue: write the output tile through DRAM.

Asynchronous copies are posted to FIFO bandwidth servers (L2 and DRAM with
a working-set-derived DRAM fraction) and complete in the background; the
pipeline depth manifests as slack between a copy's issue and its wait —
precisely the mechanism ALCOP exploits. Contention between co-resident
threadblocks (``N_mplx``), wave quantization, bank conflicts and exposed
shared-memory latency are modelled here but deliberately *not* in the
analytical model, which keeps the model's best-in-top-k below 100% as in
the paper.

Each threadblock process is a generator that keeps its own clock and
yields the absolute time it resumes at. :func:`simulate_wave` resumes the
earliest one first from a ``(time, seq, generator)`` heap, ties broken in
push order. Because the threadblocks therefore act in nondecreasing time
order, each FIFO server (L2, DRAM, the SM's tensor cores) is a single
float — the time it next falls free — and a request at ``now`` completes
at ``free = max(now, free) + service``.
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Dict, List, Optional, Tuple

from .config import A100, GpuSpec
from .occupancy import CompileError, tb_per_sm
from .spec import KernelTimingSpec

__all__ = ["SimResult", "simulate_kernel", "simulate_wave"]

#: Fixed kernel launch overhead (us).
_LAUNCH_OVERHEAD = 3.0
#: Bank-conflict slowdown of shared-memory traffic without swizzling.
_BANK_CONFLICT_FACTOR = 1.8
#: Stagger between threadblock starts on one SM (us) — breaks ties
#: deterministically, like staggered warp scheduling on hardware.
_TB_STAGGER = 0.01
#: Fraction of the register-staged store (LDG+STS) cost that is exposed on
#: the SM's issue/shared-memory ports when copies are not cp.async; the
#: remainder overlaps with math under warp scheduling.
_STORE_THROUGH_FACTOR = 0.5


@dataclasses.dataclass
class SimResult:
    """Outcome of simulating one kernel launch."""

    latency_us: float
    tb_per_sm: int
    waves: int
    wave_latency_us: float
    tail_latency_us: float
    dram_fraction: float
    total_flops: int
    trace: Optional[List[Tuple[int, str, float, float]]] = None

    @property
    def tflops(self) -> float:
        """Achieved throughput in TFLOP/s."""
        return self.total_flops / self.latency_us / 1e6


def _dram_fraction(ts: KernelTimingSpec, gpu: GpuSpec, wave_tbs: int) -> float:
    """Fraction of the wave's load traffic that misses L2 and hits DRAM.

    Derived from the working set of one threadblock-batch
    (:meth:`KernelTimingSpec.workset_bytes`), as in the paper's memory
    latency model.
    """
    if ts.a_chunk_bytes + ts.b_chunk_bytes == 0:
        return 1.0
    covered = min(wave_tbs, ts.grid)
    unique = ts.workset_bytes(covered)
    requested = covered * (ts.a_chunk_bytes + ts.b_chunk_bytes)
    # If the live working set overflows L2, re-reads also go to DRAM.
    resident = unique * (ts.smem_stages + 1)
    if resident > gpu.l2_size:
        return 1.0
    return min(1.0, unique / requested)


def simulate_wave(
    ts: KernelTimingSpec,
    gpu: GpuSpec,
    n_tb_on_sm: int,
    active_sms: int,
    collect_trace: bool = False,
    outer_extent: Optional[int] = None,
) -> Tuple[float, float, Optional[list]]:
    """Simulate one wave on a representative SM.

    Returns ``(wave_latency, dram_fraction, trace)``.
    """
    E_o = outer_extent if outer_extent is not None else ts.outer_extent
    E_i = ts.inner_extent
    S = ts.smem_stages
    wave_tbs = n_tb_on_sm * active_sms
    dram_frac = _dram_fraction(ts, gpu, wave_tbs)

    l2_rate = gpu.l2_bw / active_sms  # bytes/us available to this SM's TBs
    dram_rate = gpu.dram_bw / active_sms
    mem_latency = gpu.l2_latency + dram_frac * (gpu.dram_latency - gpu.l2_latency)

    bank = 1.0 if ts.swizzle else _BANK_CONFLICT_FACTOR
    t_load = ts.frag_bytes_tb * bank / gpu.smem_bw_per_sm
    # One hmma.16816-class instruction covers 2*16^3 FLOPs; its issue slots
    # are not free, which caps achievable utilization below nominal peak.
    mma_ops = ts.flops_chunk_tb / (2 * 16 * 16 * 16)
    t_math = ts.flops_chunk_tb / gpu.tc_flops_per_sm + mma_ops * gpu.mma_issue_cost
    # Without cp.async, global->shared copies stage through registers
    # (LDG + STS): the store half occupies the SM's shared-memory ports and
    # issue slots, contending with compute. cp.async bypasses this path —
    # a real Ampere advantage of asynchronous copies.
    if ts.async_smem_copy:
        t_store_through = 0.0
    else:
        t_store_through = _STORE_THROUGH_FACTOR * ts.smem_chunk_bytes * bank / gpu.smem_bw_per_sm
    if ts.reg_stages >= 2:
        # Register double-buffering overlaps the fragment load (and its
        # latency) with the previous chunk's math.
        inner_service = max(t_load, t_math) + gpu.issue_overhead
    else:
        inner_service = t_load + gpu.smem_latency + t_math + 2 * gpu.issue_overhead

    trace: Optional[list] = [] if collect_trace else None
    finish: List[float] = []
    # Time each FIFO server next falls free.
    l2_free = dram_free = tc_free = 0.0

    def issue_chunk(now: float) -> float:
        """Post one outer chunk's copies; returns their completion time."""
        nonlocal l2_free, dram_free
        done = 0.0
        for nbytes in (ts.a_chunk_bytes, ts.b_chunk_bytes):
            if nbytes <= 0:
                continue
            l2_free = max(now, l2_free) + nbytes / l2_rate
            dram_free = max(now, dram_free) + nbytes * dram_frac / dram_rate
            done = max(done, l2_free, dram_free)
        return done + mem_latency

    def tb_process(tb_idx: int, now: float):
        nonlocal dram_free, tc_free
        smem_done: Dict[int, float] = {}
        # Prologue: the first S-1 chunks are issued ahead of the loop.
        for p in range(S - 1):
            smem_done[p] = issue_chunk(now)
            now += 2 * gpu.issue_overhead
            yield now
        if ts.reg_stages >= 2 and S >= 2:
            # Hoisted inner-pipeline prologue (holistic pipeline): one
            # fragment load after the first chunk lands.
            now = max(now, smem_done[0])
            yield now
            now += t_load + gpu.smem_latency
            yield now
        for ko in range(E_o):
            smem_done[ko + S - 1] = issue_chunk(now)
            now += 2 * gpu.issue_overhead
            yield now
            wait_start = now
            now = max(now, smem_done[ko])
            yield now
            if trace is not None:
                trace.append((tb_idx, f"smem_wait[{ko}]", wait_start, now))
            if t_store_through > 0.0:
                # Register-staged stores into shared memory occupy the SM.
                tc_free = max(now, tc_free) + t_store_through
                now = max(now, tc_free)
                yield now
            if ts.reg_stages >= 2 and S == 1:
                # Recursive (non-fused) inner pipeline refills each chunk.
                now += t_load + gpu.smem_latency
                yield now
            use_start = now
            for _ in range(E_i):
                tc_free = max(now, tc_free) + inner_service
                now = max(now, tc_free)
                yield now
            if trace is not None:
                trace.append((tb_idx, f"use[{ko}]", use_start, now))
            now += gpu.sync_overhead
            yield now
        # Epilogue write-back.
        ep_start = now
        dram_free = max(now, dram_free) + ts.epilogue_bytes / dram_rate
        now = max(now, dram_free + gpu.dram_write_latency)
        yield now
        if trace is not None:
            trace.append((tb_idx, "epilogue", ep_start, now))
        finish.append(now)

    # Sorted by (start time, seq), so already a heap.
    heap = [(i * _TB_STAGGER, i, tb_process(i, i * _TB_STAGGER)) for i in range(n_tb_on_sm)]
    seq = n_tb_on_sm
    while heap:
        tb = heap[0][2]
        try:
            when = next(tb)
        except StopIteration:
            heapq.heappop(heap)
            continue
        heapq.heapreplace(heap, (when, seq, tb))
        seq += 1
    return max(finish), dram_frac, trace


def _wave_latency_extrapolated(
    ts: KernelTimingSpec,
    gpu: GpuSpec,
    n_tb: int,
    active: int,
    collect_trace: bool,
    max_outer_iters: Optional[int],
) -> Tuple[float, float, Optional[list]]:
    """Simulate the wave, extrapolating long reduction loops from the
    steady-state rate measured over two truncated runs."""
    if max_outer_iters is None or ts.outer_extent <= max_outer_iters:
        return simulate_wave(ts, gpu, n_tb, active, collect_trace)
    if max_outer_iters <= ts.smem_stages + 1:
        # The shorter truncated run has at least smem_stages + 1 iterations.
        raise ValueError(
            f"max_outer_iters={max_outer_iters} is too small to extrapolate a "
            f"{ts.outer_extent}-iteration loop; it must exceed "
            f"smem_stages + 1 = {ts.smem_stages + 1}"
        )
    e_long = max_outer_iters
    e_short = max(ts.smem_stages + 1, max_outer_iters // 2)
    t_long, frac, trace = simulate_wave(ts, gpu, n_tb, active, collect_trace, outer_extent=e_long)
    t_short, _, _ = simulate_wave(ts, gpu, n_tb, active, False, outer_extent=e_short)
    rate = (t_long - t_short) / (e_long - e_short)
    return t_long + rate * (ts.outer_extent - e_long), frac, trace


def simulate_kernel(
    ts: KernelTimingSpec,
    gpu: GpuSpec = A100,
    collect_trace: bool = False,
    max_outer_iters: Optional[int] = 64,
) -> SimResult:
    """Simulate a full kernel launch; raises :class:`CompileError` when the
    kernel cannot be built or launched on ``gpu``.

    Carries the ``simulate`` fault-injection site (:mod:`repro.faults`):
    chaos plans can crash the simulator (:class:`SimulationError`) or
    corrupt the reported latency here.
    """
    from .. import faults

    faults.inject("simulate")
    ts.validate()
    if ts.async_smem_copy and not gpu.has_async_copy:
        raise CompileError(
            f"{gpu.name} lacks asynchronous copy hardware (cp.async); the "
            "pipelined kernel cannot be compiled for it"
        )
    occ = tb_per_sm(gpu, ts.smem_bytes_per_tb, ts.regs_per_thread, ts.threads_per_tb)

    tbs_per_wave = occ * gpu.num_sms
    full_waves = ts.grid // tbs_per_wave
    remainder = ts.grid - full_waves * tbs_per_wave

    wave_lat = 0.0
    dram_frac = 1.0
    trace = None
    if full_waves:
        wave_lat, dram_frac, trace = _wave_latency_extrapolated(
            ts, gpu, occ, gpu.num_sms, collect_trace, max_outer_iters
        )

    tail_lat = 0.0
    if remainder:
        tail_occ = min(occ, -(-remainder // gpu.num_sms))
        tail_active = min(gpu.num_sms, -(-remainder // tail_occ))
        tail_lat, tail_frac, tail_trace = _wave_latency_extrapolated(
            ts, gpu, tail_occ, tail_active, collect_trace and trace is None, max_outer_iters
        )
        if trace is None:
            trace = tail_trace
        if not full_waves:
            dram_frac = tail_frac

    latency = faults.corrupt("simulate", _LAUNCH_OVERHEAD + full_waves * wave_lat + tail_lat)
    return SimResult(
        latency_us=latency,
        tb_per_sm=occ,
        waves=full_waves + (1 if remainder else 0),
        wave_latency_us=wave_lat,
        tail_latency_us=tail_lat,
        dram_fraction=dram_frac,
        total_flops=ts.total_flops,
        trace=trace,
    )
