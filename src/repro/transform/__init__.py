"""Pipelining program transformation (paper Sec. III) and companion
passes: static bounds verification, unrolling, simplification."""

from .analysis import (
    BufferPlan,
    GroupPlan,
    PipelinePlan,
    TransformError,
    analyze,
)
from .bounds import BoundsError, Interval, interval_of, verify_in_bounds
from .cleanup import simplify_pass, unroll_pass
from .pipeline_pass import PipelineGroupInfo, apply_pipelining

__all__ = [
    "BufferPlan",
    "GroupPlan",
    "PipelinePlan",
    "TransformError",
    "analyze",
    "BoundsError",
    "Interval",
    "interval_of",
    "verify_in_bounds",
    "simplify_pass",
    "unroll_pass",
    "PipelineGroupInfo",
    "apply_pipelining",
]
