"""ALCOP's top-level compiler driver (the architecture of paper Fig. 4).

:class:`AlcopCompiler` wires the whole flow together for one GEMM-family
problem:

1. schedule search over the (variant-restricted) design space — exhaustive
   or any of the Table II tuning methods;
2. automatic schedule construction (cache reads, tiling, pipelining marks
   with the Sec. II applicability rules);
3. lowering and the Sec. III pipelining program transformation;
4. timing on the simulated A100 (and optional functional execution through
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
from ..codegen import lower
from ..gpusim.config import A100, GpuSpec
from ..gpusim.engine import SimResult, simulate_kernel
from ..gpusim.spec import extract_timing_spec
from ..interp import run_kernel
from ..ir.stmt import Kernel
from ..schedule.auto import auto_schedule
from ..schedule.config import TileConfig
from ..tensor.operation import GemmSpec, Tensor, gemm_graph
from ..transform import apply_pipelining
from ..tuning.measure import Measurer
from ..tuning.space import SpaceOptions, enumerate_space, restrict_space
from ..tuning.tuners import ModelAssistedXGBTuner, XGBTuner
from . import profiling
from .errors import CompileError, DegradationEvent, ReproError

__all__ = ["CompiledKernel", "AlcopCompiler", "VARIANTS"]

#: Compiler variants in decreasing pipelining capability. The order doubles
#: as the graceful-degradation ladder: when a build fails at one rung, the
#: per-op fallback steps rightward until something compiles (and finally to
#: the roofline fallback in :mod:`repro.models.runtime`).
VARIANTS = ("alcop", "alcop-no-ml", "alcop-no-ml-no-ms", "tvm-db", "tvm")

_SEARCH_METHODS = ("exhaustive", "model-assisted-xgb", "xgb")


@dataclasses.dataclass
class CompiledKernel:
    """A compiled, timed kernel."""

    spec: GemmSpec
    config: TileConfig
    kernel: Kernel
    sim: SimResult

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
        search: str = "exhaustive",
        n_trials: int = 50,
        seed: int = 0,
        measurer: Optional[Measurer] = None,
        space_options: Optional[SpaceOptions] = None,
        verify_sync: bool = True,
        degrade: bool = True,
    ) -> None:
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
        if search not in _SEARCH_METHODS:
            raise ValueError(f"unknown search {search!r}; choose from {_SEARCH_METHODS}")
        self.gpu = gpu
        self.variant = variant
        self.search = search
        self.n_trials = n_trials
        self.seed = seed
        self.space_options = space_options
        self.measurer = measurer or Measurer(gpu, via_ir=False)
        #: run the static synchronization race checker on every built kernel
        #: (repro.ir.syncheck); a mis-transformed pipeline fails the build.
        self.verify_sync = verify_sync
        #: when used as an end-to-end backend (:meth:`gemm_latency`), step
        #: down the variant ladder per-op instead of failing the model.
        self.degrade = degrade
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
    def _search_config(self, spec: GemmSpec, variant: Optional[str] = None) -> TileConfig:
        variant = variant or self.variant
        space = restrict_space(
            enumerate_space(spec, self.gpu, self.space_options), variant
        )
        if not space:
            raise CompileError(
                f"design space for {spec.name} is empty under the {variant!r} "
                "variant restriction (no tiling divides the problem within "
                "the space bounds)",
                diagnostic={"spec": spec.name, "variant": variant},
            )
        if self.search == "exhaustive":
            cfg, _ = self.measurer.best(spec, space)
            return cfg
        tuner_cls = ModelAssistedXGBTuner if self.search == "model-assisted-xgb" else XGBTuner
        tuner = tuner_cls(spec, space, measurer=self.measurer, gpu=self.gpu, seed=self.seed)
        history = tuner.tune(self.n_trials)
        cfg = history.best_config_at(self.n_trials)
        if cfg is None:
            raise CompileError(
                f"no valid schedule found for {spec.name} (variant {variant!r}) "
                f"in {self.n_trials} trials: every measured config failed to compile",
                diagnostic={"spec": spec.name, "variant": variant,
                            "trials": len(history)},
            )
        return cfg

    # ------------------------------------------------------------------ build
    def build(
        self, spec: GemmSpec, config: TileConfig, graph_output: Optional[Tensor] = None
    ) -> Kernel:
        """Schedule, lower and pipeline one problem at a fixed config."""
        if graph_output is None:
            graph_output = gemm_graph(spec)
        with profiling.stage("schedule"):
            sch = auto_schedule(graph_output, config)
        with profiling.stage("lower"):
            kernel = lower(sch)
        with profiling.stage("transform"):
            return apply_pipelining(kernel, verify_sync=self.verify_sync)

    def compile(self, spec: GemmSpec, graph_output: Optional[Tensor] = None) -> CompiledKernel:
        """Search, build and time a kernel for ``spec`` (cached)."""
        return self._compile_as(spec, self.variant, graph_output)

    def _compile_as(
        self, spec: GemmSpec, variant: str, graph_output: Optional[Tensor] = None
    ) -> CompiledKernel:
        """One rung of the ladder: compile ``spec`` under ``variant``'s
        search-space restriction (cached per variant)."""
        key = (variant, spec)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        faults.inject("build", token=f"variant={variant};op={spec.name}")
        config = self._search_config(spec, variant)
        kernel = self.build(spec, config, graph_output)
        sim = simulate_kernel(extract_timing_spec(kernel), self.gpu)
        out = CompiledKernel(spec=spec, config=config, kernel=kernel, sim=sim)
        self._cache[key] = out
        return out

    def compile_with_fallback(
        self, spec: GemmSpec, graph_output: Optional[Tensor] = None
    ) -> CompiledKernel:
        """Compile ``spec``, stepping down the variant ladder on failure.

        A transform rejection, sync-verification race, launch failure or
        injected fault at one rung degrades to the next more conservative
        variant (``alcop → … → tvm``) instead of failing the caller; each
        step is recorded as a :class:`DegradationEvent`. When even ``tvm``
        cannot compile the op, the last error is re-raised — the model
        runtime then prices the op with its roofline fallback.
        """
        known_failure = self._failed.get(spec)
        if known_failure is not None:
            raise known_failure
        start = self._resolved.get(spec, self.variant)
        ladder = VARIANTS[VARIANTS.index(start):]
        last_error: Optional[Exception] = None
        for i, variant in enumerate(ladder):
            try:
                out = self._compile_as(spec, variant, graph_output)
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
        """Backend hook for the end-to-end model runtime. With
        :attr:`degrade` (the default) a failing pipelined build steps down
        the variant ladder per-op instead of failing the whole model."""
        if self.degrade:
            return self.compile_with_fallback(spec).latency_us
        return self.compile(spec).latency_us

    #: bandwidth efficiency multiplier for unfused elementwise ops (TVM and
    #: ALCOP fuse simple epilogues but keep layernorm/softmax standalone).
    elementwise_factor: float = 1.0
    #: per-op launch overhead in us
    launch_overhead: float = 3.0
    #: multiplier applied to roofline fallback ops (shapes our tiled GEMM
    #: compiler cannot tile, e.g. the 3-channel first convolution).
    fallback_factor: float = 1.0
