"""Memory-bound non-GEMM operators for end-to-end model timing.

Layer norms, softmaxes, activations and residual additions are bandwidth
bound on every backend; pipelining does not apply to them (they fail
detection rule 2 — no sequential load-and-use loop). Their latency is a
simple roofline: bytes moved over DRAM bandwidth plus a launch overhead.
"""

from __future__ import annotations

import dataclasses

from ..gpusim.config import A100, GpuSpec

__all__ = ["MemoryBoundOp", "memory_bound_latency"]

#: Achievable fraction of peak DRAM bandwidth for simple elementwise
#: kernels (uncoalesced tails, read+write turnaround).
_EFFICIENCY = 0.75


@dataclasses.dataclass(frozen=True)
class MemoryBoundOp:
    """One memory-bound operator instance.

    ``bytes_read`` / ``bytes_written`` describe one execution; ``count``
    repeats it (e.g. per transformer layer).
    """

    name: str
    bytes_read: int
    bytes_written: int
    count: int = 1


def memory_bound_latency(
    op: MemoryBoundOp, gpu: GpuSpec = A100, launch_overhead: float = 3.0
) -> float:
    """Latency (us) of all ``count`` executions of a memory-bound op."""
    per_call = (op.bytes_read + op.bytes_written) / (gpu.dram_bw * _EFFICIENCY)
    return op.count * (per_call + launch_overhead)
