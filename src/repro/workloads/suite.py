"""The single-operator benchmark suite (paper Sec. V-A, Fig. 10).

Operators are extracted from real DNN workloads — BERT, GPT-2, ResNet-50,
VGG — with a variety of shapes; all use half precision and run on tensor
cores. Shapes follow the paper where it states them (e.g. MM_RN50_FC has a
1024x64 output with a 2048 reduction axis) and standard model dimensions
elsewhere.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import DegradationEvent, ReproError
from ..ops.bmm import bmm_spec
from ..ops.conv2d import Conv2dShape, conv2d_spec
from ..ops.matmul import matmul_spec
from ..tensor.operation import GemmSpec

__all__ = [
    "OPERATOR_SUITE",
    "DEGRADATION_LADDER",
    "suite_specs",
    "get_operator",
    "degraded_best",
]

#: Variant ladder the suite runner steps down when an operator cannot be
#: measured at its preferred variant (subset of
#: :data:`repro.core.compiler.VARIANTS` — the ablation variants share
#: alcop's failure modes, so the suite skips straight to the baselines).
DEGRADATION_LADDER = ("alcop", "tvm-db", "tvm")


def _build_suite() -> Dict[str, GemmSpec]:
    ops: Dict[str, GemmSpec] = {}

    def add(spec: GemmSpec) -> None:
        ops[spec.name] = spec

    # -- MatMuls ---------------------------------------------------------------
    # BERT-base, seq 512, hidden 768: feed-forward layers.
    add(matmul_spec("MM_BERT_FC1", m=512, n=3072, k=768))
    add(matmul_spec("MM_BERT_FC2", m=512, n=768, k=3072))
    add(matmul_spec("MM_BERT_QKV", m=512, n=2304, k=768))
    # GPT-2 (124M), seq 1024, hidden 768.
    add(matmul_spec("MM_GPT2_FC1", m=1024, n=3072, k=768))
    # ResNet-50 classifier: small output (1024x64), long reduction (2048) —
    # the paper's largest-speedup case.
    add(matmul_spec("MM_RN50_FC", m=1024, n=64, k=2048))
    # A large-output 1x1 convolution (abundant inter-tile parallelism, so
    # little benefit from pipelining per the paper's insight).
    add(
        conv2d_spec(
            "MM_Conv1x1_1",
            Conv2dShape(n=16, c=256, h=56, w=56, k=64, r=1, s=1),
        )
    )

    # -- Batched MatMuls ---------------------------------------------------------
    # BERT attention, 12 heads, seq 512, head dim 64.
    add(bmm_spec("BMM_BERT_QK", batch=12, m=512, n=512, k=64))  # short reduction
    add(bmm_spec("BMM_BERT_SV", batch=12, m=512, n=64, k=512))  # long reduction
    # GPT-2 attention, 12 heads, seq 1024.
    add(bmm_spec("BMM_GPT2_QK", batch=12, m=1024, n=1024, k=64))
    add(bmm_spec("BMM_GPT2_SV", batch=12, m=1024, n=64, k=1024))

    # -- Convolutions (implicit GEMM) ---------------------------------------------
    add(
        conv2d_spec(
            "Conv_RN50_3x3",
            Conv2dShape(n=16, c=128, h=28, w=28, k=128, r=3, s=3, padding=1),
        )
    )
    add(
        conv2d_spec(
            "Conv_VGG_3x3",
            Conv2dShape(n=8, c=256, h=28, w=28, k=512, r=3, s=3, padding=1),
        )
    )
    return ops


OPERATOR_SUITE: Dict[str, GemmSpec] = _build_suite()


def suite_specs() -> List[GemmSpec]:
    """All suite operators in canonical order."""
    return list(OPERATOR_SUITE.values())


def get_operator(name: str) -> GemmSpec:
    try:
        return OPERATOR_SUITE[name]
    except KeyError:
        raise KeyError(f"unknown operator {name!r}; choose from {sorted(OPERATOR_SUITE)}")


def degraded_best(
    measurer,
    spec: GemmSpec,
    space: Sequence,
    variant: str = "alcop",
    events: Optional[List[DegradationEvent]] = None,
) -> Tuple[Optional[object], float, str]:
    """Exhaustive best over ``space`` restricted to ``variant``, stepping
    down :data:`DEGRADATION_LADDER` when a rung fails (empty restricted
    space, every candidate failing to compile, injected faults).

    Returns ``(config, latency_us, variant_used)``; when even ``tvm``
    fails the op is priced by the backend-independent roofline fallback
    (``config is None``, ``variant_used == "roofline"``). Each ladder step
    is appended to ``events`` when given.
    """
    from ..models.runtime import roofline_fallback_latency
    from ..tuning.space import restrict_space

    start = DEGRADATION_LADDER.index(variant) if variant in DEGRADATION_LADDER else 0
    ladder = DEGRADATION_LADDER[start:]
    for i, rung in enumerate(ladder):
        try:
            cfg, latency = measurer.best(spec, restrict_space(list(space), rung))
            return cfg, latency, rung
        except (ReproError, ValueError) as e:
            next_rung = ladder[i + 1] if i + 1 < len(ladder) else "roofline"
            if events is not None:
                events.append(DegradationEvent.from_error(spec.name, rung, next_rung, e))
    return None, roofline_fallback_latency(spec, measurer.gpu), "roofline"
