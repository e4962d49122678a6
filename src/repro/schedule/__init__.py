"""Schedule transformation layer (paper Sec. II): tiling configuration,
pipelining applicability detection, ordering constraints, and the automatic
scheduler."""

from .auto import auto_schedule
from .config import ResourceUsage, TileConfig, WARP_SIZE
from .detection import (
    RULE_ASYNC,
    RULE_SEQ_LOOP,
    RULE_SYNC_POS,
    PipelineCheck,
    check_pipelinable,
)
from .errors import OrderingError, PipelineRejected, ScheduleError
from .ordering import RECOMMENDED_ORDER, verify_log_order
from .schedule import Schedule

__all__ = [
    "auto_schedule",
    "ResourceUsage",
    "TileConfig",
    "WARP_SIZE",
    "RULE_ASYNC",
    "RULE_SEQ_LOOP",
    "RULE_SYNC_POS",
    "PipelineCheck",
    "check_pipelinable",
    "OrderingError",
    "PipelineRejected",
    "ScheduleError",
    "RECOMMENDED_ORDER",
    "verify_log_order",
    "Schedule",
]
