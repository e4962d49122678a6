"""Vanilla-TVM-like baselines.

The baselines share ALCOP's entire stack (schedule machinery, lowering,
simulator) with the pipelining features disabled in the search space, so
measured deltas are attributable to pipelining alone — the paper's
experimental design:

* :func:`tvm_compiler` — no pipelining at all (``smem == reg == 1``);
* :func:`ablation_compilers` — the Fig. 10 set, TVM DB (manually inserted
  double-buffering: up to 2-stage shared-memory pipelining, no
  multi-stage, no multi-level) and ALCOP's ablations among them.
"""

from __future__ import annotations

from ..core.compiler import AlcopCompiler
from ..gpusim.config import A100, GpuSpec
from ..tuning.measure import Measurer

__all__ = ["tvm_compiler", "ablation_compilers"]


def tvm_compiler(gpu: GpuSpec = A100, measurer: Measurer = None, **kwargs) -> AlcopCompiler:
    """Vanilla TVM: exhaustive tiling search, no pipelining."""
    return AlcopCompiler(gpu=gpu, variant="tvm", measurer=measurer, **kwargs)


def ablation_compilers(gpu: GpuSpec = A100, measurer: Measurer = None, **kwargs):
    """The Fig. 10 compiler set, keyed by display name."""
    mk = lambda variant: AlcopCompiler(gpu=gpu, variant=variant, measurer=measurer, **kwargs)
    return {
        "TVM": mk("tvm"),
        "TVM DB": mk("tvm-db"),
        "ALCOP w/o ML&MS": mk("alcop-no-ml-no-ms"),
        "ALCOP w/o ML": mk("alcop-no-ml"),
        "ALCOP": mk("alcop"),
    }
