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
push order; a threadblock whose new clock is still strictly before every
other's is resumed again without a push and pop, which is the pop the heap
would make. Because the threadblocks therefore act in nondecreasing time
order, each FIFO server (L2, DRAM, the SM's tensor cores) is a single
float — the time it next falls free — and a request at ``now`` completes
at ``free = max(now, free) + service``.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .config import A100, GpuSpec
from .elementwise import maximum, minimum, where
from .occupancy import CompileError, occupancy, tb_per_sm
from .spec import KernelTimingSpec

__all__ = ["LatencyBounds", "SimResult", "simulate_kernel", "simulate_wave"]

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
#: Outer iterations a wave is simulated for before its latency is
#: extrapolated: :func:`simulate_kernel`'s default ``max_outer_iters``, and
#: the cap above which :class:`LatencyBounds` extrapolates its bound.
_MAX_OUTER_ITERS = 64
#: Factor on each of :class:`LatencyBounds`' closed-form sums. The
#: event loop adds the same terms one at a time, and the two roundings
#: differ by about 2e-12 relative at most at this simulator's sizes.
_BOUND_SLACK = 1.0 - 1e-9


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


def _dram_fraction(ts: KernelTimingSpec, gpu: GpuSpec, wave_tbs):
    """Fraction of the wave's load traffic that misses L2 and hits DRAM.

    Derived from the working set of one threadblock-batch
    (:meth:`KernelTimingSpec.workset_bytes`), as in the paper's memory
    latency model. Elementwise over columns, like :func:`_wave_constants`.
    """
    chunk_bytes = ts.a_chunk_bytes + ts.b_chunk_bytes
    covered = minimum(wave_tbs, ts.grid)
    unique = ts.workset_bytes(covered)
    requested = covered * chunk_bytes
    # If the live working set overflows L2, re-reads also go to DRAM. A
    # kernel that copies nothing counts as all DRAM, and max(., 1) keeps
    # its quotient defined: Python raises on a zero divisor.
    resident = unique * (ts.smem_stages + 1)
    return where((chunk_bytes == 0) | (resident > gpu.l2_size), 1.0,
                 minimum(1.0, unique / maximum(requested, 1)))


class _WaveConstants(NamedTuple):
    """What one step of a wave costs: the per-wave constants that
    :func:`simulate_wave` runs on and :class:`LatencyBounds` sums (as
    columns)."""

    dram_frac: float
    #: latency of a copy after its last byte is served (L2/DRAM blend)
    mem_latency: float
    #: ``(L2 service, DRAM service)`` of the A and the B chunk
    chunk_service: List[Tuple[float, float]]
    issue_cost: float
    #: one fragment load into registers plus its latency
    frag_fill: float
    #: tensor-core service of one inner-loop chunk
    inner_service: float
    #: tensor-core service of one register-staged store (0 with cp.async)
    store_through: float
    #: DRAM service of one threadblock's output tile
    epilogue_service: float
    #: one fragment fill hoisted ahead of the outer loop (holistic pipeline)
    hoisted_fill: bool
    #: one fragment fill per outer iteration (recursive inner pipeline)
    chunk_fill: bool


def _wave_constants(ts: KernelTimingSpec, gpu: GpuSpec, n_tb_on_sm, active_sms) -> _WaveConstants:
    """The constants of a wave of ``n_tb_on_sm`` threadblocks on each of
    ``active_sms`` SMs. Each is the same IEEE expression, on the same
    operands, as the step that uses it, so computing it once changes no bit.

    One kernel's scalars give Python numbers. A static space's timing-spec
    columns (``n_tb_on_sm`` and ``active_sms`` may be columns too) give
    each row's constants as columns, bit for bit the same."""
    wave_tbs = n_tb_on_sm * active_sms
    dram_frac = _dram_fraction(ts, gpu, wave_tbs)

    l2_rate = gpu.l2_bw / active_sms  # bytes/us available to this SM's TBs
    dram_rate = gpu.dram_bw / active_sms
    mem_latency = gpu.l2_latency + dram_frac * (gpu.dram_latency - gpu.l2_latency)

    bank = where(ts.swizzle, 1.0, _BANK_CONFLICT_FACTOR)
    t_load = ts.frag_bytes_tb * bank / gpu.smem_bw_per_sm
    # One hmma.16816-class instruction covers 2*16^3 FLOPs; its issue slots
    # are not free, which caps achievable utilization below nominal peak.
    mma_ops = ts.flops_chunk_tb / (2 * 16 * 16 * 16)
    t_math = ts.flops_chunk_tb / gpu.tc_flops_per_sm + mma_ops * gpu.mma_issue_cost
    # Without cp.async, global->shared copies stage through registers
    # (LDG + STS): the store half occupies the SM's shared-memory ports and
    # issue slots, contending with compute. cp.async bypasses this path —
    # a real Ampere advantage of asynchronous copies.
    t_store_through = where(
        ts.async_smem_copy, 0.0,
        _STORE_THROUGH_FACTOR * ts.smem_chunk_bytes * bank / gpu.smem_bw_per_sm)
    # Register double-buffering overlaps the fragment load (and its
    # latency) with the previous chunk's math.
    inner_service = where(
        ts.reg_stages >= 2,
        maximum(t_load, t_math) + gpu.issue_overhead,
        t_load + gpu.smem_latency + t_math + 2 * gpu.issue_overhead)
    return _WaveConstants(
        dram_frac=dram_frac,
        mem_latency=mem_latency,
        chunk_service=[
            (nbytes / l2_rate, nbytes * dram_frac / dram_rate)
            for nbytes in (ts.a_chunk_bytes, ts.b_chunk_bytes)
        ],
        issue_cost=2 * gpu.issue_overhead,
        frag_fill=t_load + gpu.smem_latency,
        inner_service=inner_service,
        store_through=t_store_through,
        epilogue_service=ts.epilogue_bytes / dram_rate,
        hoisted_fill=(ts.reg_stages >= 2) & (ts.smem_stages >= 2),
        chunk_fill=(ts.reg_stages >= 2) & (ts.smem_stages == 1),
    )


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
    c = _wave_constants(ts, gpu, n_tb_on_sm, active_sms)
    dram_frac = c.dram_frac
    mem_latency = c.mem_latency
    # A zero-byte chunk posts nothing: queued on the servers, it would
    # move the time its copy lands.
    chunk_service = [service for service, nbytes in
                     zip(c.chunk_service, (ts.a_chunk_bytes, ts.b_chunk_bytes)) if nbytes > 0]
    issue_cost = c.issue_cost
    frag_fill = c.frag_fill
    inner_service = c.inner_service
    t_store_through = c.store_through
    epilogue_service = c.epilogue_service
    hoisted_fill = c.hoisted_fill
    chunk_fill = c.chunk_fill

    trace: Optional[list] = [] if collect_trace else None
    finish: List[float] = []
    sync_overhead = gpu.sync_overhead
    dram_write_latency = gpu.dram_write_latency
    # The time each FIFO server (L2, DRAM, tensor cores) next falls free.
    free = [0.0, 0.0, 0.0]

    # ``b if b > a else a`` is CPython's ``max(a, b)`` exactly: it keeps the
    # first argument unless the second compares greater.
    def issue_chunk(now: float) -> float:
        """Post one outer chunk's copies; returns their completion time."""
        done = 0.0
        for l2_service, dram_service in chunk_service:
            l2 = free[0]
            l2 = (l2 if l2 > now else now) + l2_service
            dram = free[1]
            dram = (dram if dram > now else now) + dram_service
            free[0] = l2
            free[1] = dram
            if l2 > done:
                done = l2
            if dram > done:
                done = dram
        return done + mem_latency

    def tb_process(tb_idx: int, now: float):
        smem_done: List[float] = []  # completion time of chunk i
        # Prologue: the first S-1 chunks are issued ahead of the loop.
        for _ in range(S - 1):
            smem_done.append(issue_chunk(now))
            now += issue_cost
            yield now
        if hoisted_fill:
            # Hoisted inner-pipeline prologue (holistic pipeline): one
            # fragment load after the first chunk lands.
            landed = smem_done[0]
            if landed > now:
                now = landed
            yield now
            now += frag_fill
            yield now
        for ko in range(E_o):
            smem_done.append(issue_chunk(now))
            now += issue_cost
            yield now
            wait_start = now
            landed = smem_done[ko]
            if landed > now:
                now = landed
            yield now
            if trace is not None:
                trace.append((tb_idx, f"smem_wait[{ko}]", wait_start, now))
            if t_store_through > 0.0:
                # Register-staged stores into shared memory occupy the SM.
                tc = free[2]
                tc = (tc if tc > now else now) + t_store_through
                free[2] = tc
                if tc > now:
                    now = tc
                yield now
            if chunk_fill:
                # Recursive (non-fused) inner pipeline refills each chunk.
                now += frag_fill
                yield now
            use_start = now
            for _ in range(E_i):
                tc = free[2]
                tc = (tc if tc > now else now) + inner_service
                free[2] = tc
                if tc > now:
                    now = tc
                yield now
            if trace is not None:
                trace.append((tb_idx, f"use[{ko}]", use_start, now))
            now += sync_overhead
            yield now
        # Epilogue write-back.
        ep_start = now
        dram = free[1]
        dram = (dram if dram > now else now) + epilogue_service
        free[1] = dram
        written = dram + dram_write_latency
        if written > now:
            now = written
        yield now
        if trace is not None:
            trace.append((tb_idx, "epilogue", ep_start, now))
        finish.append(now)

    # Sorted by (start time, seq), so already a heap. The root is the
    # threadblock to resume. Pushed back after yielding ``when``, it would
    # carry the largest ``seq`` so far and lose every tie, so it would be
    # popped again next exactly when ``when`` is strictly below the
    # earliest other entry, the smaller of the root's children: then it is
    # resumed again without touching the heap.
    heap = [(i * _TB_STAGGER, i, tb_process(i, i * _TB_STAGGER)) for i in range(n_tb_on_sm)]
    seq = n = n_tb_on_sm
    while n > 1:
        tb = heap[0][2]
        due = heap[1][0]
        if n > 2:
            other = heap[2][0]
            if other < due:
                due = other
        for when in tb:
            if when < due:
                continue
            heapq.heapreplace(heap, (when, seq, tb))
            seq += 1
            break
        else:
            heapq.heappop(heap)
            n -= 1
    if n:
        for _ in heap[0][2]:  # the last threadblock runs to completion
            pass
    return max(finish), dram_frac, trace


def _short_extent(ts: KernelTimingSpec, max_outer_iters: int) -> int:
    """Length of the shorter of the two truncated runs a wave longer than
    ``max_outer_iters`` is extrapolated from (the longer runs
    ``max_outer_iters``)."""
    if max_outer_iters <= ts.smem_stages + 1:
        # The shorter truncated run has at least smem_stages + 1 iterations.
        raise ValueError(
            f"max_outer_iters={max_outer_iters} is too small to extrapolate a "
            f"{ts.outer_extent}-iteration loop; it must exceed "
            f"smem_stages + 1 = {ts.smem_stages + 1}"
        )
    return max(ts.smem_stages + 1, max_outer_iters // 2)


def _extrapolate(t_long: float, t_short: float, e_long: int, e_short: int,
                 outer_extent: int) -> float:
    """A wave's latency over ``outer_extent`` iterations from its runs of
    ``e_long`` and ``e_short``, never below ``t_long``: a longer loop is
    not faster than its truncated run. So a lower bound on ``t_long``
    bounds the result by itself, and, the result being nondecreasing in
    ``t_long`` under IEEE rounding, passing that bound in place of
    ``t_long`` gives a tighter one."""
    rate = (t_long - t_short) / (e_long - e_short)
    t = t_long + rate * (outer_extent - e_long)
    return t if t > t_long else t_long


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
    e_short = _short_extent(ts, max_outer_iters)
    t_long, frac, trace = simulate_wave(ts, gpu, n_tb, active, collect_trace,
                                        outer_extent=max_outer_iters)
    t_short, _, _ = simulate_wave(ts, gpu, n_tb, active, False, outer_extent=e_short)
    return _extrapolate(t_long, t_short, max_outer_iters, e_short, ts.outer_extent), frac, trace


def _waves(ts: KernelTimingSpec, gpu: GpuSpec, occ):
    """``(full_waves, has_tail, tail_occ, tail_active)`` of launching
    ``ts``'s grid at ``occ`` threadblocks per SM, on one kernel's ints or
    a static space's columns. The tail wave runs ``tail_occ``
    threadblocks on each of ``tail_active`` SMs; without a tail both are
    1, so a column's tail constants stay finite."""
    tbs_per_wave = occ * gpu.num_sms
    full_waves = ts.grid // tbs_per_wave
    remainder = ts.grid - full_waves * tbs_per_wave
    # max(., 1) moves only a launch without a tail (remainder 0).
    tail_occ = maximum(minimum(occ, -(-remainder // gpu.num_sms)), 1)
    tail_active = maximum(minimum(gpu.num_sms, -(-remainder // tail_occ)), 1)
    return full_waves, remainder > 0, tail_occ, tail_active


def _launch(ts: KernelTimingSpec, gpu: GpuSpec) -> Tuple[int, int, Optional[Tuple[int, int]]]:
    """``(threadblocks per SM, full waves, tail)`` of launching ``ts`` on
    ``gpu``, where ``tail`` is the tail wave's ``(threadblocks per SM,
    active SMs)`` or None. Raises ``ValueError`` for an invalid spec and
    :class:`CompileError` when the kernel cannot be built or launched on
    ``gpu``."""
    ts.validate()
    if ts.async_smem_copy and not gpu.has_async_copy:
        raise CompileError(
            f"{gpu.name} lacks asynchronous copy hardware (cp.async); the "
            "pipelined kernel cannot be compiled for it"
        )
    occ = tb_per_sm(gpu, ts.smem_bytes_per_tb, ts.regs_per_thread, ts.threads_per_tb)
    full_waves, has_tail, tail_occ, tail_active = _waves(ts, gpu, occ)
    return occ, full_waves, (tail_occ, tail_active) if has_tail else None


def _launch_columns(ts: KernelTimingSpec, gpu: GpuSpec) -> Tuple[np.ndarray, ...]:
    """:func:`_launch` over a static space's timing-spec columns:
    ``(launchable, occ, full_waves, has_tail, tail_occ, tail_active)``.
    A static spec always validates (positive dimensions and tiles that
    divide them), so only the cp.async and occupancy checks can refuse a
    row, and they clear its ``launchable`` entry where :func:`_launch`
    raises. A row that cannot launch holds 1 in ``occ``, so every wave's
    constants stay finite."""
    occ, launchable = occupancy(gpu, ts.smem_bytes_per_tb, ts.regs_per_thread,
                                ts.threads_per_tb)
    if not gpu.has_async_copy:
        launchable &= ~ts.async_smem_copy
    return (launchable, occ) + _waves(ts, gpu, occ)


def _row(ts: KernelTimingSpec, i: int) -> KernelTimingSpec:
    """Row ``i`` of timing-spec columns as a scalar spec (Python ints,
    floats and bools, as :func:`timing_spec_from_config` gives them)."""
    return dataclasses.replace(
        ts, **{k: v[i].item() for k, v in vars(ts).items() if isinstance(v, np.ndarray)})


def _wave_bound_columns(ts: KernelTimingSpec, gpu: GpuSpec, n_tb_on_sm, active_sms,
                        E_o: np.ndarray) -> np.ndarray:
    """A lower bound on ``simulate_wave(..., outer_extent=E_o)``'s latency
    for each row's wave: the largest of three sums the event loop provably
    reaches (docs/simulator.md proves each)."""
    c = _wave_constants(ts, gpu, n_tb_on_sm, active_sms)
    E_i = ts.inner_extent
    S = ts.smem_stages
    sync = gpu.sync_overhead
    write = gpu.dram_write_latency
    (a_l2, a_dram), (b_l2, b_dram) = c.chunk_service
    chunk_dram = a_dram + b_dram
    # With one stage, each iteration waits for the copy it has just issued.
    copy = np.maximum(a_l2 + b_l2, chunk_dram) + c.mem_latency
    step = np.where(S == 1, np.maximum(c.issue_cost, copy), c.issue_cost)
    # The last threadblock's own dependency chain.
    chain = (
        (n_tb_on_sm - 1) * _TB_STAGGER
        + (S - 1) * c.issue_cost
        + np.where(c.hoisted_fill, c.frag_fill, 0.0)
        + E_o * (step + c.store_through + np.where(c.chunk_fill, c.frag_fill, 0.0)
                 + E_i * c.inner_service + sync)
        + c.epilogue_service
        + write
    )
    # The tensor-core server's total service, then the last user's tail.
    tensor_cores = (n_tb_on_sm * E_o * (E_i * c.inner_service + c.store_through)
                    + sync + c.epilogue_service + write)
    # The DRAM server's total service; the wave's last request is an epilogue.
    dram = n_tb_on_sm * ((S - 1 + E_o) * chunk_dram + c.epilogue_service) + write
    return np.maximum(np.maximum(chain, tensor_cores), dram) * _BOUND_SLACK


class LatencyBounds:
    """A lower bound on ``simulate_kernel(ts_i, gpu).latency_us``, in
    microseconds, for each row ``ts_i`` of a static space's timing-spec
    columns ``ts`` (:func:`~repro.perfmodel.batch.derive_timing_arrays`),
    from one numpy pass of closed-form sums over each wave's constants.

    ``bound[i]`` is ``inf`` where :func:`simulate_kernel` would refuse the
    kernel. A row whose loop is extrapolated (``outer_extent > 64``,
    :func:`simulate_kernel`'s default ``max_outer_iters``) is bounded by
    its 64-iteration closed form, because :func:`_extrapolate` never
    returns less than the long run. :meth:`extrapolate` tightens it: it
    runs the shorter of the row's two truncated simulations for each wave
    shape (full, tail), which ``short_runs[i]`` counts.
    """

    def __init__(self, ts: KernelTimingSpec, gpu: GpuSpec) -> None:
        launchable, occ, full_waves, has_tail, tail_occ, tail_active = _launch_columns(ts, gpu)
        # An extrapolated wave's closed-form part bounds its long run.
        E_o = np.minimum(ts.outer_extent, _MAX_OUTER_ITERS)
        wave = np.where(full_waves > 0, _wave_bound_columns(ts, gpu, occ, gpu.num_sms, E_o), 0.0)
        tail = np.where(has_tail, _wave_bound_columns(ts, gpu, tail_occ, tail_active, E_o), 0.0)
        extrapolated = launchable & (ts.outer_extent > _MAX_OUTER_ITERS)
        # The same expression as simulate_kernel's latency: IEEE addition
        # and multiplication are monotone, so smaller terms give a smaller sum.
        self.bound = np.where(launchable, _LAUNCH_OVERHEAD + full_waves * wave + tail, math.inf)
        self.short_runs = np.where(
            extrapolated, (full_waves > 0).astype(np.int64) + has_tail, 0)
        self._ts, self._gpu = ts, gpu
        self._waves = (full_waves, occ, wave, has_tail, tail_occ, tail_active, tail)

    def extrapolate(self, i: int) -> float:
        """Row ``i``'s tighter bound, at least ``bound[i]``, when
        ``short_runs[i]`` is nonzero. Each wave runs its exact short run
        and goes through :func:`_extrapolate` with its long run's
        closed-form bound, as :func:`_wave_latency_extrapolated` does with
        the simulated one."""
        ts, gpu = _row(self._ts, i), self._gpu
        full_waves, occ, wave, has_tail, tail_occ, tail_active, tail = self._waves
        e_short = _short_extent(ts, _MAX_OUTER_ITERS)

        def bound(n_tb: int, active: int, b_long: float) -> float:
            t_short, _, _ = simulate_wave(ts, gpu, n_tb, active, False, outer_extent=e_short)
            return _extrapolate(b_long, t_short, _MAX_OUTER_ITERS, e_short, ts.outer_extent)

        n_waves = int(full_waves[i])
        wave_bound = bound(int(occ[i]), gpu.num_sms, float(wave[i])) if n_waves else 0.0
        tail_bound = (bound(int(tail_occ[i]), int(tail_active[i]), float(tail[i]))
                      if has_tail[i] else 0.0)
        return _LAUNCH_OVERHEAD + n_waves * wave_bound + tail_bound


def simulate_kernel(
    ts: KernelTimingSpec,
    gpu: GpuSpec = A100,
    collect_trace: bool = False,
    max_outer_iters: Optional[int] = _MAX_OUTER_ITERS,
) -> SimResult:
    """Simulate a full kernel launch; raises :class:`CompileError` when the
    kernel cannot be built or launched on ``gpu``.

    Carries the ``simulate`` fault-injection site (:mod:`repro.faults`):
    chaos plans can crash the simulator (:class:`SimulationError`) or
    corrupt the reported latency here.
    """
    from .. import faults

    faults.inject("simulate")
    occ, full_waves, tail = _launch(ts, gpu)

    wave_lat = 0.0
    dram_frac = 1.0
    trace = None
    if full_waves:
        wave_lat, dram_frac, trace = _wave_latency_extrapolated(
            ts, gpu, occ, gpu.num_sms, collect_trace, max_outer_iters
        )

    tail_lat = 0.0
    if tail is not None:
        tail_occ, tail_active = tail
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
        waves=full_waves + (0 if tail is None else 1),
        wave_latency_us=wave_lat,
        tail_latency_us=tail_lat,
        dram_fraction=dram_frac,
        total_flops=ts.total_flops,
        trace=trace,
    )
