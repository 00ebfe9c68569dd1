"""Dynamic introspection: traces, weighted automata, coverage, aggregation.

Everything here consumes the same event stream and notification framework
the validation path uses (section 4.4.2's pluggable handlers), so "always
on" monitoring, logical coverage and debugging traces come from one set of
instrumentation points.
"""

from .aggregate import (
    AggregationRow,
    DispatchStats,
    StackAggregator,
    codegen_report,
    dispatch_stats,
    format_dispatch_stats,
    governor_report,
)
from .coverage import AssertionCoverage, CoverageReport, coverage_report
from .health import HealthReport, format_health, health_report
from .trace import TraceRecord, TraceRecorder, sequence_histogram
from .weights import WeightedEdge, WeightedGraph, to_dot, weighted_graph

__all__ = [
    "AggregationRow",
    "DispatchStats",
    "StackAggregator",
    "codegen_report",
    "dispatch_stats",
    "format_dispatch_stats",
    "governor_report",
    "AssertionCoverage",
    "CoverageReport",
    "coverage_report",
    "HealthReport",
    "format_health",
    "health_report",
    "TraceRecord",
    "TraceRecorder",
    "sequence_histogram",
    "WeightedEdge",
    "WeightedGraph",
    "to_dot",
    "weighted_graph",
]
