"""Resilience analysis tools: per-layer sweeps, activation distributions
under fault, bit-position sensitivity, and text reporting."""

from repro.analysis.activations import (
    FaultyActivationStats,
    capture_activation_distribution,
)
from repro.analysis.bitpos import BitPositionResult, run_bit_position_study
from repro.analysis.perclass import PerClassResult, run_per_class_analysis
from repro.analysis.outcomes import (
    OutcomeBreakdown,
    OutcomeCounts,
    run_outcome_analysis,
)
from repro.analysis.layerwise import (
    LayerwiseResult,
    cliff_fault_rate,
    run_layerwise_analysis,
)
from repro.analysis.reporting import (
    format_box_table,
    format_comparison_table,
    format_curve_table,
    format_rate,
    format_table,
)

__all__ = [
    "BitPositionResult",
    "FaultyActivationStats",
    "LayerwiseResult",
    "OutcomeBreakdown",
    "OutcomeCounts",
    "PerClassResult",
    "capture_activation_distribution",
    "cliff_fault_rate",
    "format_box_table",
    "format_comparison_table",
    "format_curve_table",
    "format_rate",
    "format_table",
    "run_bit_position_study",
    "run_outcome_analysis",
    "run_per_class_analysis",
    "run_layerwise_analysis",
]
