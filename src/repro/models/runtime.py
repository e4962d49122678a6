"""End-to-end model latency estimation (paper Sec. V-B, Table III).

A model's inference latency is the sum of its GEMM-family kernels (each
compiled and timed by the backend under evaluation), its memory-bound
elementwise kernels (roofline; scaled by the backend's fusion quality),
and per-kernel launch overhead. Operators the tiled GEMM compiler cannot
express (3-channel stem convolutions, sub-tile classifier GEMMs) are
costed by a backend-independent roofline fallback.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Protocol

from ..core.errors import DegradationEvent, ReproError
from ..gpusim.config import A100, GpuSpec
from ..ops.elementwise import memory_bound_latency
from ..tensor.operation import GemmSpec
from .graph import ModelGraph

__all__ = ["Backend", "ModelLatency", "estimate_model_latency", "roofline_fallback_latency"]


class Backend(Protocol):
    """What the runtime needs from a compiler backend."""

    def gemm_latency(self, spec: GemmSpec) -> float: ...

    elementwise_factor: float
    launch_overhead: float
    fallback_factor: float


@dataclasses.dataclass
class ModelLatency:
    """Per-category latency breakdown of one model on one backend (us)."""

    model: str
    backend: str
    gemm_us: float
    fallback_us: float
    memory_us: float
    overhead_us: float
    per_op: Dict[str, float]
    #: every graceful-degradation step taken while estimating this model:
    #: ladder steps recorded by the backend plus runtime roofline
    #: fallbacks for ops no variant could compile.
    degradations: List[DegradationEvent] = dataclasses.field(default_factory=list)

    @property
    def total_us(self) -> float:
        return self.gemm_us + self.fallback_us + self.memory_us + self.overhead_us

    @property
    def n_degraded_ops(self) -> int:
        return len({ev.op for ev in self.degradations})


def roofline_fallback_latency(spec: GemmSpec, gpu: GpuSpec = A100) -> float:
    """Latency of an op compiled through a generic (untiled) path: the
    maximum of a half-efficiency compute roofline and a 70%-efficiency
    memory roofline."""
    t_compute = spec.flops / (0.5 * gpu.tc_flops_total)
    unique_bytes = (
        spec.a_bytes * spec.a_footprint_ratio + spec.b_bytes * spec.b_footprint_ratio + spec.c_bytes
    )
    t_memory = unique_bytes / (0.7 * gpu.dram_bw)
    return max(t_compute, t_memory)


def estimate_model_latency(
    graph: ModelGraph, backend: Backend, gpu: GpuSpec = A100, backend_name: str = ""
) -> ModelLatency:
    """Compile every operator of ``graph`` with ``backend`` and sum.

    Fault tolerance: a backend failure on one op (any
    :class:`~repro.core.errors.ReproError` — compile, transform,
    sync-verification or simulation) degrades that op to the roofline
    fallback instead of failing the model; every degradation (the
    backend's own ladder steps included) is recorded on the result.
    """
    label = backend_name or type(backend).__name__
    gemm_us = 0.0
    fallback_us = 0.0
    overhead_us = 0.0
    per_op: Dict[str, float] = {}
    degradations: List[DegradationEvent] = []
    for op in graph.gemm_ops:
        n_before = len(getattr(backend, "degradations", ()))
        try:
            per_call = backend.gemm_latency(op.spec)
            gemm_us += per_call * op.count
        except (ReproError, ValueError) as e:
            per_call = roofline_fallback_latency(op.spec, gpu) * backend.fallback_factor
            fallback_us += per_call * op.count
            backend_steps = list(getattr(backend, "degradations", ())[n_before:])
            degradations.extend(backend_steps)
            if not any(ev.to_variant == "roofline" for ev in backend_steps):
                # Backends without their own ladder (or errors thrown before
                # it engaged) still get the roofline step on the record.
                degradations.append(
                    DegradationEvent.from_error(op.spec.name, label, "roofline", e)
                )
        else:
            # Success may still have stepped down the ladder en route.
            degradations.extend(getattr(backend, "degradations", ())[n_before:])
        per_op[op.spec.name] = per_call * op.count
        overhead_us += backend.launch_overhead * op.count

    memory_us = 0.0
    for mop in graph.memory_ops:
        memory_us += (
            memory_bound_latency(mop, gpu, launch_overhead=backend.launch_overhead)
            * backend.elementwise_factor
        )
    return ModelLatency(
        model=graph.name,
        backend=label,
        gemm_us=gemm_us,
        fallback_us=fallback_us,
        memory_us=memory_us,
        overhead_us=overhead_us,
        per_op=per_op,
        degradations=degradations,
    )
