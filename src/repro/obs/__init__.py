"""Observability: pull metrics, the flight recorder and its views.

Spans have one source: the context's always-on
:class:`~repro.obs.tracing.FlightRecorder`.  It is also the one decision
record: a put's ``plan*`` span carries Algorithm 1's choice (mode, path
count, predicted T, planning wall time, and the load bucket when the plan
was priced against load), and the ``pipeline.path[i]`` spans beside it
carry each path's bytes, θ and chunk count.  The Chrome-trace export and
the critical-path analyzer are views over those parent-linked spans.

Metrics are views too: a :class:`MetricsRegistry` holds collectors that
pull component ``stats_snapshot()`` values and the recorder's stage
aggregates at snapshot time.  Only the
:class:`~repro.ucx.context.UCXContext` holds an :class:`Observability`
bundle, to register those collectors and to feed the closed loop; no
layer below it takes one.

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
from repro.obs.metrics import MetricsRegistry
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
    """The per-run bundle: pull metrics + prediction errors + drift loop."""

    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    errors: PredictionErrorTracker = field(
        default_factory=PredictionErrorTracker
    )
    #: Request the closed loop: the context wires a DriftController here
    #: when a tracer is available.  Off by default — pure telemetry.
    autotune: bool = False
    drift: DriftController | None = None

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
