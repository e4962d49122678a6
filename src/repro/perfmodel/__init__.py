"""Pipeline-aware analytical performance model (paper Sec. IV, Table I)
plus the bottleneck-analysis baseline it is compared against."""

from .batch import derive_timing_arrays, predict_latency_batch
from .bottleneck import bottleneck_latency
from .kernel_model import ModelBreakdown, predict_breakdown, predict_latency
from .pipeline_model import is_load_bound, pipeline_latency
from .roofline import RooflineReport, analyze_operator
from .static_spec import timing_spec_from_config

__all__ = [
    "derive_timing_arrays",
    "predict_latency_batch",
    "bottleneck_latency",
    "ModelBreakdown",
    "predict_breakdown",
    "predict_latency",
    "is_load_bound",
    "pipeline_latency",
    "RooflineReport",
    "analyze_operator",
    "timing_spec_from_config",
]
