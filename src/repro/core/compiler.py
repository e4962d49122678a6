"""ALCOP's top-level compiler driver (the architecture of paper Fig. 4).

:class:`AlcopCompiler` is the one place that solves a problem. For one
GEMM-family problem it runs the whole flow:

1. exhaustive schedule search (:meth:`~repro.tuning.measure.Measurer.best`)
   over the variant-restricted design space (:meth:`AlcopCompiler.space`);
   the Table II tuning methods run under ``repro tune``;
2. automatic schedule construction (cache reads, tiling, pipelining marks
   with the Sec. II applicability rules), lowering and the Sec. III
   pipelining program transformation
   (:func:`~repro.core.incremental.fresh_kernel`);
3. timing on the simulated A100 (and optional functional execution through
   the pipeline-semantics interpreter).

Compiler *variants* (``alcop``, ``alcop-no-ml``, ``alcop-no-ml-no-ms``,
``tvm-db``, ``tvm``) restrict which pipelining features the search may use,
implementing the paper's ablations and the vanilla-TVM baseline on an
otherwise identical stack.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import faults
from ..gpusim.config import A100, GpuSpec
from ..gpusim.engine import SimResult, simulate_kernel
from ..gpusim.spec import extract_timing_spec
from ..interp import run_kernel
from ..ir.stmt import Kernel
from ..schedule.config import TileConfig
from ..tensor.operation import GemmSpec, gemm_graph
from ..tuning.measure import Measurer
from ..tuning.space import SpaceOptions, enumerate_space, restrict_space
from .errors import CompileError, DegradationEvent, ReproError
from .incremental import fresh_kernel

__all__ = ["CompiledKernel", "AlcopCompiler", "VARIANTS"]

#: Compiler variants in decreasing pipelining capability. The order doubles
#: as the graceful-degradation ladder: when a build fails at one rung, the
#: per-op fallback steps rightward until something compiles (and finally to
#: the roofline fallback in :mod:`repro.models.runtime`).
VARIANTS = ("alcop", "alcop-no-ml", "alcop-no-ml-no-ms", "tvm-db", "tvm")


@dataclasses.dataclass
class CompiledKernel:
    """A compiled, timed kernel."""

    spec: GemmSpec
    config: TileConfig
    kernel: Kernel
    sim: SimResult
    #: the variant whose search space the config came from (the ladder
    #: rung that compiled, under :meth:`AlcopCompiler.compile_with_fallback`)
    variant: str

    @property
    def latency_us(self) -> float:
        return self.sim.latency_us

    @property
    def tflops(self) -> float:
        return self.sim.tflops

    def run(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Execute functionally through the pipeline-semantics interpreter
        (intended for small problem sizes / correctness checks)."""
        mode = "pipeline" if self.kernel.attrs.get("pipeline_groups") else "eager"
        return run_kernel(self.kernel, {"A": a, "B": b}, mode=mode)["C"]


class AlcopCompiler:
    """Compile GEMM-family problems with automatic pipelining."""

    def __init__(
        self,
        gpu: GpuSpec = A100,
        variant: str = "alcop",
        measurer: Optional[Measurer] = None,
        space_options: Optional[SpaceOptions] = None,
        verify_sync: bool = True,
    ) -> None:
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
        self.gpu = gpu
        self.variant = variant
        self.space_options = space_options
        self.measurer = measurer or Measurer(gpu, via_ir=False)
        #: run the static synchronization race checker on every built kernel
        #: (repro.ir.syncheck); a mis-transformed pipeline fails the build.
        self.verify_sync = verify_sync
        #: every ladder step taken, in order (surfaced by ``repro suite``
        #: and :func:`repro.models.runtime.estimate_model_latency`).
        self.degradations: List[DegradationEvent] = []
        self._cache: Dict[Tuple[str, GemmSpec], CompiledKernel] = {}
        #: per-op ladder resolution: spec -> first variant that compiled, so
        #: repeated calls skip known-failing rungs (and record each
        #: degradation exactly once).
        self._resolved: Dict[GemmSpec, str] = {}
        self._failed: Dict[GemmSpec, ReproError] = {}

    # ------------------------------------------------------------------ search
    def space(
        self, spec: GemmSpec, variant: str, options: Optional[SpaceOptions]
    ) -> List[TileConfig]:
        """``spec``'s design space under ``options``, restricted to
        ``variant``. A restriction that leaves nothing raises a
        :class:`CompileError` naming the spec, the variant and the cap; a
        problem no tile divides raises :func:`enumerate_space`'s
        ``ValueError``."""
        space = restrict_space(enumerate_space(spec, self.gpu, options), variant)
        if not space:
            cap = options.max_size if options is not None else None
            raise CompileError(
                f"design space for {spec.name} is empty under the {variant!r} "
                f"variant restriction (cap {cap})",
                diagnostic={"spec": spec.name, "variant": variant, "cap": cap},
            )
        return space

    # ------------------------------------------------------------------ build
    def build(self, spec: GemmSpec, config: TileConfig) -> Kernel:
        """Schedule, lower and pipeline one problem at a fixed config."""
        return fresh_kernel(gemm_graph(spec), config, verify_sync=self.verify_sync)

    def compile(self, spec: GemmSpec) -> CompiledKernel:
        """Search, build and time a kernel for ``spec`` (cached)."""
        return self._compile_as(spec, self.variant)

    def _compile_as(self, spec: GemmSpec, variant: str) -> CompiledKernel:
        """One rung of the ladder: compile ``spec`` under ``variant``'s
        search-space restriction (cached per variant)."""
        key = (variant, spec)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        faults.inject("build", token=f"variant={variant};op={spec.name}")
        config, _ = self.measurer.best(spec, self.space(spec, variant, self.space_options))
        kernel = self.build(spec, config)
        sim = simulate_kernel(extract_timing_spec(kernel), self.gpu)
        out = CompiledKernel(spec=spec, config=config, kernel=kernel, sim=sim, variant=variant)
        self._cache[key] = out
        return out

    def compile_with_fallback(self, spec: GemmSpec) -> CompiledKernel:
        """Compile ``spec``, stepping down the variant ladder on failure.

        A transform rejection, sync-verification race, launch failure or
        injected fault at one rung degrades to the next more conservative
        variant (``alcop → … → tvm``) instead of failing the caller; each
        step is recorded as a :class:`DegradationEvent`, and the returned
        kernel's ``variant`` names the rung that compiled. When even
        ``tvm`` cannot compile the op, the last error is re-raised — the
        caller then prices the op with the roofline fallback.
        """
        known_failure = self._failed.get(spec)
        if known_failure is not None:
            raise known_failure
        start = self._resolved.get(spec, self.variant)
        ladder = VARIANTS[VARIANTS.index(start):]
        last_error: Optional[Exception] = None
        for i, variant in enumerate(ladder):
            try:
                out = self._compile_as(spec, variant)
                self._resolved[spec] = variant
                return out
            except (ReproError, ValueError) as e:
                last_error = e
                next_rung = ladder[i + 1] if i + 1 < len(ladder) else "roofline"
                self.degradations.append(
                    DegradationEvent.from_error(spec.name, variant, next_rung, e)
                )
        if not isinstance(last_error, ReproError):
            last_error = CompileError(
                f"every variant of the ladder failed for {spec.name}",
                diagnostic={"spec": spec.name, "ladder": list(ladder)},
            )
        self._failed[spec] = last_error
        raise last_error

    # ---------------------------------------------------------------- backend
    def gemm_latency(self, spec: GemmSpec) -> float:
        """Backend hook for the end-to-end model runtime: a failing
        pipelined build steps down the variant ladder per-op instead of
        failing the whole model."""
        return self.compile_with_fallback(spec).latency_us

    #: bandwidth efficiency multiplier for unfused elementwise ops (TVM and
    #: ALCOP fuse simple epilogues but keep layernorm/softmax standalone).
    elementwise_factor: float = 1.0
    #: per-op launch overhead in us
    launch_overhead: float = 3.0
    #: multiplier applied to roofline fallback ops (shapes our tiled GEMM
    #: compiler cannot tile, e.g. the 3-channel first convolution).
    fallback_factor: float = 1.0
