"""Intelligent runtime selection: profiling sketches, cost model, analytic
and empirical policies, and the end-to-end adaptive reducer."""

from repro.selection.bound_tier import (
    BoundStats,
    BoundTier,
    bound_stats_item,
    bound_stats_stream,
    item_unit_roundoff,
)
from repro.selection.certify import Certificate, certify
from repro.selection.classifier import GridCell, GridClassifier
from repro.selection.fitting import FitReport, fit_variability_model
from repro.selection.costmodel import DEFAULT_RELATIVE_COSTS, CostModel
from repro.selection.policy import AnalyticPolicy, SelectionDecision, VariabilityModel
from repro.selection.profile import StreamProfile, profile_chunk, profile_stream
from repro.selection.selector import (
    AdaptiveReducer,
    AdaptiveResult,
    NonFiniteOperandError,
    Policy,
)
from repro.selection.streaming import StreamingSelector, SwitchEvent
from repro.selection.subtree import (
    HierarchicalReducer,
    HierarchicalResult,
    SubtreePlan,
)

__all__ = [
    "AdaptiveReducer",
    "AdaptiveResult",
    "AnalyticPolicy",
    "BoundStats",
    "BoundTier",
    "bound_stats_item",
    "bound_stats_stream",
    "item_unit_roundoff",
    "Certificate",
    "certify",
    "CostModel",
    "DEFAULT_RELATIVE_COSTS",
    "FitReport",
    "GridCell",
    "GridClassifier",
    "HierarchicalReducer",
    "HierarchicalResult",
    "NonFiniteOperandError",
    "Policy",
    "SelectionDecision",
    "StreamProfile",
    "StreamingSelector",
    "SwitchEvent",
    "SubtreePlan",
    "VariabilityModel",
    "fit_variability_model",
    "profile_chunk",
    "profile_stream",
]
