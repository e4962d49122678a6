"""The Pipeline Latency Model (paper Table I, middle row; Fig. 9).

Estimates the stable-state latency of a load-and-use loop given the load
and use latencies, the loop trip count, the pipeline depth ``n_pipe`` and
the multiplexing factor ``n_mplx`` (parallel workers sharing the same
compute units — co-resident threadblocks at the shared-memory level, warps
at the register level).

The criterion: during one chunk's load, the compute units can process
other chunks of this pipeline (``n_pipe``) and chunks of other workers
(``n_mplx``) — ``n_pipe * n_mplx - 1`` use-steps in total. If the load fits
inside that window the loop is compute-bound; otherwise loading is the
bottleneck and the loop advances one full load-use round trip per
``n_pipe`` overlapping streams.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pipeline_latency", "is_load_bound", "loop_latency"]


def _check(t_load: float, t_use: float, n_loop: int, n_pipe: int, n_mplx: int) -> None:
    if t_load < 0 or t_use <= 0:
        raise ValueError("t_load must be >= 0 and t_use > 0")
    if n_loop < 1 or n_pipe < 1 or n_mplx < 1:
        raise ValueError("n_loop, n_pipe and n_mplx must be >= 1")


def is_load_bound(t_load: float, t_use: float, n_pipe: int, n_mplx: int) -> bool:
    """True when data loading is the bottleneck of the stable state."""
    return t_load > (n_pipe * n_mplx - 1) * t_use


def loop_latency(t_load, t_use, n_loop, n_pipe, n_mplx):
    """The model's formula without input checks, elementwise on numpy
    columns; on scalars it returns a numpy scalar."""
    return np.where(
        is_load_bound(t_load, t_use, n_pipe, n_mplx),
        (t_load + t_use) * n_loop / n_pipe,
        t_use * n_loop,
    )[()]


def pipeline_latency(
    t_load: float, t_use: float, n_loop: int, n_pipe: int, n_mplx: int
) -> float:
    """Stable-state latency of the whole load-and-use loop (Table I)."""
    _check(t_load, t_use, n_loop, n_pipe, n_mplx)
    return float(loop_latency(t_load, t_use, n_loop, n_pipe, n_mplx))
