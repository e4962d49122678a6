"""Correctness gate, run in the benchmark process outside the timed region.

Two independent references for every kernel a workload chose:

* the chosen config is built on the smallest problem it tiles and executed
  by the pipeline-semantics interpreter (``repro.interp.run_kernel``),
  compared against numpy;
* the chosen config is re-simulated on the workload's real problem by a
  fresh, non-incremental ``Measurer``, which must reproduce the latency the
  program reported bit for bit.

Each check returns an error message, or None when it passes.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.compiler import AlcopCompiler
from repro.gpusim.config import A100
from repro.interp import run_kernel
from repro.schedule.config import TileConfig
from repro.tensor.operation import GemmSpec
from repro.tuning.measure import Measurer


def interp_check(key: Tuple[int, ...], seed: int) -> Optional[str]:
    """Pipelined execution of config ``key`` against numpy."""
    cfg = TileConfig(*key)
    # Enough k-steps to run the pipeline's prologue, steady state and drain.
    k = cfg.block_k * max(2, cfg.smem_stages + 1)
    spec = GemmSpec("gate", batch=1, m=cfg.block_m, n=cfg.block_n, k=k)
    kernel = AlcopCompiler(gpu=A100).build(spec, cfg)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((spec.m, k)).astype(np.float16)
    b = rng.standard_normal((spec.n, k)).astype(np.float16)
    mode = "pipeline" if kernel.attrs.get("pipeline_groups") else "eager"
    out = run_kernel(kernel, {"A": a, "B": b}, mode=mode)["C"].astype(np.float32)
    ref = a.astype(np.float32) @ b.astype(np.float32).T
    if not np.allclose(out, ref, atol=0.5, rtol=0.02):
        worst = float(np.max(np.abs(out - ref)))
        return f"{cfg}: interpreter ({mode}) differs from numpy by up to {worst:.3g}"
    return None


def resimulate_check(key: Tuple[int, ...], dims: Dict, latency_us: float) -> Optional[str]:
    """A fresh, non-incremental measurer must reproduce ``latency_us``."""
    cfg = TileConfig(*key)
    fields = {k: v for k, v in dims.items() if k != "via_ir"}
    fields.setdefault("name", "cli")
    spec = GemmSpec(**fields)
    fresh = Measurer(A100, via_ir=dims["via_ir"], incremental=False).measure(spec, cfg)
    if fresh != latency_us or math.isinf(fresh):
        return f"{cfg} on {spec}: fresh measurer gives {fresh!r} us, program reported {latency_us!r}"
    return None


class Gate:
    """Runs each distinct check once per benchmark run."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.failures = []
        self.checked = 0
        self._done = set()

    def kernel(self, key: Tuple[int, ...], dims: Dict, latency_us: float) -> bool:
        ok = True
        for check, args in (("interp", (key,)),
                            ("resim", (key, tuple(sorted(dims.items())), latency_us))):
            if (check, args) in self._done:
                continue
            self._done.add((check, args))
            self.checked += 1
            if check == "interp":
                err = interp_check(key, self.seed)
            else:
                err = resimulate_check(key, dims, latency_us)
            if err:
                self.failures.append(err)
                ok = False
        return ok
