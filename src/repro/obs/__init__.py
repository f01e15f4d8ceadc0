"""Observability: metrics registry, planner decisions, exporters.

One :class:`Observability` bundle per instrumented run, threaded through
:class:`~repro.ucx.context.UCXContext` into the planner, pipeline engine,
and cuda_ipc module.  All instrumentation is optional: components take
``obs=None`` and guard every touch point, so the uninstrumented hot path
costs nothing (verified by ``benchmarks/test_planner_overhead.py``).

Spans have one source: the context's always-on
:class:`~repro.obs.tracing.FlightRecorder`.  The Chrome-trace export and
the critical-path analyzer are views over its parent-linked spans, and
metrics collectors pull component ``stats_snapshot()`` values instead of
mirroring them as counters.

On top of the passive layer sits the closed loop (``repro.obs.drift``):
with ``autotune=True`` the context attaches a :class:`DriftController`
that joins predictions with observed completion times, detects model
drift, and recalibrates (α̂, β̂) online.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.obs.chrome_trace import (
    FLIGHT_PID,
    chrome_trace,
    dump_chrome_trace,
    trace_events,
)
from repro.obs.critical_path import (
    CriticalPathAnalyzer,
    PathContribution,
    TransferBreakdown,
)
from repro.obs.decision_log import PlannerDecision, PlannerDecisionLog
from repro.obs.drift import (
    DriftController,
    DriftEvent,
    ErrorRecord,
    OnlineRecalibrator,
    PageHinkley,
    PredictionErrorTracker,
    RefitResult,
    size_bucket,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
)
from repro.obs.tracing import (
    FlightRecorder,
    SpanView,
    TraceBreakdown,
    TraceTree,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.planner import TransferPlan


@dataclass
class Observability:
    """The per-run bundle: metrics + planner decisions + errors."""

    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    decisions: PlannerDecisionLog = field(default_factory=PlannerDecisionLog)
    errors: PredictionErrorTracker = field(
        default_factory=PredictionErrorTracker
    )
    #: Request the closed loop: the context wires a DriftController here
    #: when a tracer is available.  Off by default — pure telemetry.
    autotune: bool = False
    drift: DriftController | None = None

    @classmethod
    def create(cls) -> "Observability":
        return cls()

    def feedback(
        self, plan: "TransferPlan", observed: float, *, now: float = 0.0
    ) -> DriftEvent | None:
        """Report one executed plan's observed completion time.

        Routed through the drift controller when autotuning is wired
        (which shares :attr:`errors`, so the tracker sees every sample
        either way); otherwise just recorded.
        """
        if self.drift is not None:
            return self.drift.observe(plan, observed, now=now)
        self.errors.record(plan, observed, now=now)
        return None


__all__ = [
    "Observability",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Timer",
    "Histogram",
    "PlannerDecision",
    "PlannerDecisionLog",
    "PredictionErrorTracker",
    "ErrorRecord",
    "size_bucket",
    "PageHinkley",
    "OnlineRecalibrator",
    "RefitResult",
    "DriftController",
    "DriftEvent",
    "CriticalPathAnalyzer",
    "TransferBreakdown",
    "PathContribution",
    "chrome_trace",
    "trace_events",
    "dump_chrome_trace",
    "FLIGHT_PID",
    "FlightRecorder",
    "SpanView",
    "TraceTree",
    "TraceBreakdown",
]
