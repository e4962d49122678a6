"""Pipelining program transformation (paper Sec. III) and its static
bounds verifier."""

from .analysis import (
    BufferPlan,
    GroupPlan,
    PipelinePlan,
    TransformError,
    analyze,
)
from .bounds import BoundsError, Interval, interval_of, verify_in_bounds
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
    "PipelineGroupInfo",
    "apply_pipelining",
]
