"""Deterministic A100-like GPU timing simulator (the evaluation substrate).

See DESIGN.md: this package substitutes for the paper's physical A100 —
it executes the *compiled kernel IR* (via :func:`extract_timing_spec`) under
a discrete-event model of the memory/computation pipeline."""

from .config import A100, A100_NO_ASYNC, H100, V100, GpuSpec
from .engine import SimResult, simulate_kernel, simulate_wave
from .occupancy import CompileError, check_launchable, tb_per_sm
from .spec import KernelTimingSpec, extract_timing_spec
from .trace import format_timeline, stall_time

__all__ = [
    "A100",
    "A100_NO_ASYNC",
    "H100",
    "V100",
    "GpuSpec",
    "SimResult",
    "simulate_kernel",
    "simulate_wave",
    "CompileError",
    "check_launchable",
    "tb_per_sm",
    "KernelTimingSpec",
    "extract_timing_spec",
    "format_timeline",
    "stall_time",
]
