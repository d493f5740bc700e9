"""Benchmark resource-allocation strategies: OPTM, RULE, PID, brownout,
static, and the HPA-style horizontal baseline."""

from repro.baselines.brownout import BrownoutController
from repro.baselines.horizontal import (
    HorizontalRuleAutoscaler,
    ReplicaAllocator,
)
from repro.baselines.optm import OptimumResult, OptimumSearch
from repro.baselines.optm_batch import (
    OptimumAllocator,
    OptimumBatch,
    OptimumRequest,
)
from repro.baselines.pid import PIDController
from repro.baselines.rule import RuleBasedAutoscaler, RuleBatch
from repro.baselines.static import StaticAllocator

__all__ = [
    "BrownoutController",
    "HorizontalRuleAutoscaler",
    "ReplicaAllocator",
    "OptimumSearch",
    "OptimumResult",
    "OptimumAllocator",
    "OptimumBatch",
    "OptimumRequest",
    "PIDController",
    "RuleBasedAutoscaler",
    "RuleBatch",
    "StaticAllocator",
]
