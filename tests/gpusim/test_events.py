"""Tests of the wave simulator's event loop and FIFO bandwidth servers.

:func:`simulate_wave` resumes its threadblock generators earliest first and
keeps the L2, DRAM and tensor-core servers as single floats. These tests
drive it on hand-built timing specs with round-number rates and zeroed
fixed costs, so every simulated time is an exact small float that can be
worked out by hand.
"""

import dataclasses

from repro.gpusim import A100, KernelTimingSpec, simulate_kernel
from repro.gpusim.engine import _TB_STAGGER, simulate_wave


def toy_gpu(**kw):
    """A100 with 100 B/us L2, 10 B/us DRAM, 2048 FLOP/us tensor cores and
    no latencies or issue/barrier overheads unless given."""
    params = dict(
        l2_bw=100.0, dram_bw=10.0, tc_flops_per_sm=2048.0,
        l2_latency=0.0, dram_latency=0.0, dram_write_latency=0.0, smem_latency=0.0,
        issue_overhead=0.0, sync_overhead=0.0, mma_issue_cost=0.0,
    )
    params.update(kw)
    return dataclasses.replace(A100, name="toy", **params)


def toy_spec(a=0, b=0, **kw):
    """One outer and one inner iteration of 8192 FLOPs (4 us on
    :func:`toy_gpu`) per threadblock, copying ``a`` + ``b`` bytes per chunk."""
    params = dict(
        name="toy", grid=4, threads_per_tb=128, warps_per_tb=4, smem_bytes_per_tb=0,
        regs_per_thread=64, outer_extent=1, smem_chunk_bytes=a + b, smem_stages=1,
        inner_extent=1, frag_bytes_tb=0, flops_chunk_tb=8192, reg_stages=1,
        epilogue_bytes=0, a_chunk_bytes=a, b_chunk_bytes=b,
    )
    params.update(kw)
    return KernelTimingSpec(**params)


def run(ts, gpu, n_tb=1):
    """Simulate ``n_tb`` threadblocks on one SM; returns (latency, trace)."""
    latency, _, trace = simulate_wave(ts, gpu, n_tb, 1, collect_trace=True)
    return latency, trace


def waits(trace, ko=0):
    """``(tb, start, end)`` of every threadblock's wait for chunk ``ko``."""
    return [(tb, s, e) for tb, what, s, e in trace if what == f"smem_wait[{ko}]"]


class TestFifoServer:
    def test_idle_server_serves_immediately(self):
        # Chunk 0 is issued at 0: 10 us on DRAM + 3 us latency. Chunk 1 is
        # issued at 17, after 4 us of math, when DRAM has been idle since
        # 10: its service starts at 17, not when the server fell free.
        gpu = toy_gpu(l2_latency=1.0, dram_latency=3.0)
        _, trace = run(toy_spec(a=100, outer_extent=2), gpu)
        assert waits(trace, 0) == [(0, 0.0, 13.0)]
        assert waits(trace, 1) == [(0, 17.0, 30.0)]

    def test_queueing(self):
        # A and B are both requested at 0; B's 10 us of DRAM service
        # waits for A's to finish.
        _, trace = run(toy_spec(a=100, b=100), toy_gpu())
        assert waits(trace) == [(0, 0.0, 20.0)]

    def test_zero_byte_chunks_are_not_posted(self):
        # A spec that copies nothing posts no request to either server, so
        # each chunk lands the bare memory latency (all of it DRAM's, 3 us)
        # after its issue: chunk 1, issued at 7 after 4 us of math, lands
        # at 10, and its 4 us of math end at 14.
        gpu = toy_gpu(l2_latency=1.0, dram_latency=3.0)
        latency, trace = run(toy_spec(outer_extent=2), gpu)
        assert latency == 14.0
        assert waits(trace, 0) == [(0, 0.0, 3.0)]
        assert waits(trace, 1) == [(0, 7.0, 10.0)]

    def test_kernel_without_shared_memory_or_registers(self):
        # Neither count limits occupancy, so the 128 threads do: 16
        # threadblocks per SM. The grid of 4 is one tail wave of one
        # threadblock on each of 4 SMs: the 14 us above plus the 3 us launch.
        gpu = toy_gpu(l2_latency=1.0, dram_latency=3.0)
        res = simulate_kernel(toy_spec(outer_extent=2, regs_per_thread=0), gpu)
        assert (res.latency_us, res.tb_per_sm) == (17.0, 16)


class TestSimulator:
    def test_single_process_delay(self):
        # Nothing to copy: a lone threadblock's time is its issue delay
        # (2 x 1 us), its math (4 us + 2 x 1 us issue) and its barrier (5 us).
        latency, trace = run(toy_spec(), toy_gpu(issue_overhead=1.0, sync_overhead=5.0))
        assert latency == 13.0
        assert trace == [
            (0, "smem_wait[0]", 2.0, 2.0),
            (0, "use[0]", 2.0, 8.0),
            (0, "epilogue", 13.0, 13.0),
        ]

    def test_wait_until_past_is_now(self):
        # Two stages: chunk 1 is issued at 0 and lands at 20 + 3 = 23, but
        # its wait comes after 32 us of math on chunk 0, at 45. Waiting
        # for a time already past resumes at the current time.
        gpu = toy_gpu(tc_flops_per_sm=256.0, l2_latency=1.0, dram_latency=3.0)
        _, trace = run(toy_spec(a=100, outer_extent=2, smem_stages=2), gpu)
        assert waits(trace, 0) == [(0, 0.0, 13.0)]
        assert waits(trace, 1) == [(0, 45.0, 45.0)]

    def test_two_processes_interleave(self):
        # Threadblock 1 starts later, but acts at 0.01 while threadblock 0
        # computes until 4: events run in time order, not one threadblock
        # to completion after the other. Threadblock 1 then queues behind
        # threadblock 0 on the tensor cores.
        latency, trace = run(toy_spec(), toy_gpu(), n_tb=2)
        assert latency == 8.0
        assert trace == [
            (0, "smem_wait[0]", 0.0, 0.0),
            (1, "smem_wait[0]", _TB_STAGGER, _TB_STAGGER),
            (0, "use[0]", 0.0, 4.0),
            (0, "epilogue", 4.0, 4.0),
            (1, "use[0]", _TB_STAGGER, 8.0),
            (1, "epilogue", 8.0, 8.0),
        ]

    def test_server_contention_via_time_order(self):
        """The later-starting threadblock must queue behind the earlier one."""
        _, trace = run(toy_spec(a=100), toy_gpu(), n_tb=2)
        assert waits(trace) == [(0, 0.0, 10.0), (1, _TB_STAGGER, 20.0)]

    def test_start_time_offsets(self):
        _, trace = run(toy_spec(), toy_gpu(), n_tb=3)
        assert [(tb, s) for tb, s, _ in waits(trace)] == [
            (i, i * _TB_STAGGER) for i in range(3)
        ]


class TestContinuation:
    """A resumed threadblock keeps running while its new clock is strictly
    below the earliest other threadblock's; these cases pin the event
    order at the edges of that rule."""

    def test_equal_clock_goes_behind_earlier_push(self):
        # Two stages; each chunk is one 10 us DRAM copy. Threadblock 0
        # posts chunk 0 at 0 (DRAM 0-10), and its issue cost takes its
        # clock to exactly threadblock 1's start. The tie goes to
        # threadblock 1, pushed first: its chunk 0 is served 10-20, before
        # threadblock 0's chunk 1 (20-30).
        gpu = toy_gpu(issue_overhead=_TB_STAGGER / 2)
        _, trace = run(toy_spec(a=100, smem_stages=2), gpu, n_tb=2)
        assert [(tb, end) for tb, _, end in waits(trace)] == [(0, 10.0), (1, 20.0)]

    def test_earliest_other_entry_in_right_child(self):
        # Each threadblock copies one chunk: 1 us on L2, 10 us on DRAM, 3 us
        # latency. Posted at 0, 0.01 and 0.02, the chunks land at 13, 23
        # and 33; when threadblock 0 resumes at 13, the heap's left child
        # holds threadblock 2 (33) and its right child threadblock 1 (23).
        # Threadblock 0 computes 13-17, then its epilogue waits for DRAM to
        # drain at 30, past 23: threadblock 1 computes before threadblock
        # 0's epilogue, and the two epilogues at 30 go in push order.
        latency, trace = run(toy_spec(a=100), toy_gpu(l2_latency=1.0, dram_latency=3.0), n_tb=3)
        assert latency == 37.0
        assert trace == [
            (0, "smem_wait[0]", 0.0, 13.0),
            (0, "use[0]", 13.0, 17.0),
            (1, "smem_wait[0]", _TB_STAGGER, 23.0),
            (1, "use[0]", 23.0, 27.0),
            (0, "epilogue", 17.0, 30.0),
            (1, "epilogue", 27.0, 30.0),
            (2, "smem_wait[0]", 2 * _TB_STAGGER, 33.0),
            (2, "use[0]", 33.0, 37.0),
            (2, "epilogue", 37.0, 37.0),
        ]
