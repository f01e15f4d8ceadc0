"""Human-readable reports for the closed-loop telemetry CLI commands."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.util.tables import Table

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.critical_path import CriticalPathAnalyzer
    from repro.obs.drift import DriftController, PredictionErrorTracker
    from repro.obs.tracing import FlightRecorder, TraceTree


def drift_report(
    closed: "PredictionErrorTracker",
    open_loop: "PredictionErrorTracker | None" = None,
    *,
    controller: "DriftController | None" = None,
    recovery_window: int = 16,
) -> str:
    """Prediction-error and recovery statistics, closed vs open loop."""
    table = Table(
        ["loop", "samples", "mean_abs_err", "tail_abs_err"],
        title="prediction error (relative); tail = last "
        f"{recovery_window} transfers",
    )

    def row(label, tracker):
        table.add(
            loop=label,
            samples=len(tracker.records),
            mean_abs_err=f"{tracker.mean_abs_error():.3f}",
            tail_abs_err=f"{tracker.mean_abs_error(last=recovery_window):.3f}",
        )

    row("closed", closed)
    if open_loop is not None:
        row("open", open_loop)
    lines = [table.render()]

    if controller is not None:
        lines.append("")
        events = Table(
            ["seq", "time_ms", "pair", "hops_refit", "plans_invalidated",
             "max_beta_change"],
            title="drift events (detector firings that changed the model)",
        )
        for e in controller.events:
            events.add(
                seq=e.seq,
                time_ms=f"{e.time * 1e3:.2f}",
                pair=f"{e.src}->{e.dst}",
                hops_refit=len(e.refits),
                plans_invalidated=e.plans_invalidated,
                max_beta_change=(
                    f"{max(e.refits, key=lambda r: abs(r.beta_change)).beta_change:+.1%}"
                    if e.refits
                    else "-"
                ),
            )
        lines.append(events.render())
    return "\n".join(lines)


def chaos_report(results) -> str:
    """Recovery summary for one or more chaos scenarios.

    ``results`` is an iterable of
    :class:`~repro.bench.experiments.chaos.ChaosResult`.  Three blocks: the
    per-scenario recovery table (fault-free vs chaotic duration, retries,
    re-routed bytes), the injected fault windows, and the health-registry
    state-machine traffic.
    """
    results = list(results)
    table = Table(
        ["scenario", "channel", "t0_ms", "t_chaos_ms", "overhead",
         "retries", "failovers", "rerouted_mb", "delivered"],
        title="chaos recovery (overhead = chaotic / fault-free duration)",
    )
    for r in results:
        table.add(
            scenario=r.scenario,
            channel=r.channel,
            t0_ms=f"{r.fault_free.duration * 1e3:.3f}",
            t_chaos_ms=f"{r.chaotic.duration * 1e3:.3f}",
            overhead=f"{r.overhead_ratio:.2f}x",
            retries=r.chaotic.retries,
            failovers=r.recovery["path_failovers"],
            rerouted_mb=f"{r.chaotic.rerouted_bytes / 1e6:.1f}",
            delivered="ok" if r.delivered_bytes == r.nbytes else (
                f"SHORT {r.delivered_bytes}/{r.nbytes}"
            ),
        )
    lines = [table.render(), ""]

    windows = Table(
        ["scenario", "kind", "channel", "start_ms", "end_ms"],
        title="injected fault windows",
    )
    for r in results:
        for w in r.windows:
            windows.add(
                scenario=r.scenario,
                kind=w.kind,
                channel=w.channel,
                start_ms=f"{w.start * 1e3:.3f}",
                end_ms=f"{w.end * 1e3:.3f}",
            )
    lines.append(windows.render())

    for r in results:
        h = r.health
        lines.append(
            f"{r.scenario}: health tracked={h['tracked_paths']} "
            f"states={h['states']} quarantines={h['quarantines']} "
            f"probes={h['probes']} readmissions={h['readmissions']}"
        )
    return "\n".join(lines)


def critical_path_report(analyzer: "CriticalPathAnalyzer") -> str:
    """Per-transfer bottleneck table (the last 20 transfers) plus the
    aggregate slack summary."""
    transfers = analyzer.transfers()
    table = Table(
        ["transfer", "nbytes", "dur_ms", "bottleneck", "max_slack_us",
         "rel_slack", "last_chunk"],
        title="critical-path attribution (slack ≈ 0 ⇔ Theorem 1 split)",
    )
    for t in transfers[-20:]:
        table.add(
            transfer=t.name,
            nbytes=t.nbytes,
            dur_ms=f"{t.duration * 1e3:.3f}",
            bottleneck=t.bottleneck,
            max_slack_us=f"{t.max_slack * 1e6:.2f}",
            rel_slack=f"{t.max_relative_slack:.2%}",
            last_chunk=t.bottleneck_chunk or "-",
        )
    summary = analyzer.summary()
    lines = [table.render(), ""]
    lines.append(
        f"transfers={summary['transfers']} "
        f"max_relative_slack={summary['max_relative_slack']:.2%}"
    )
    for pid, s in summary["slack_s"].items():
        lines.append(
            f"  {pid}: mean_slack={s['mean'] * 1e6:.2f}us "
            f"max_slack={s['max'] * 1e6:.2f}us "
            f"bottleneck_count={summary['bottleneck_counts'].get(pid, 0)}"
        )
    return "\n".join(lines)


def slowest_report(tree: "TraceTree", *, n: int = 10) -> str:
    """The n slowest transfers with their per-stage time split."""
    table = Table(
        ["trace", "pair", "nbytes", "dur_ms", "queue_ms", "plan_us",
         "exec_ms", "recovery_ms", "retries", "status"],
        title=f"slowest transfers (top {n} by duration)",
    )
    roots = tree.slowest(n)
    for root in roots:
        bd = tree.breakdown(root.trace_id)
        table.add(
            trace=root.trace_id,
            pair=f"{root.attrs.get('src', '?')}->{root.attrs.get('dst', '?')}",
            nbytes=root.attrs.get("nbytes", "?"),
            dur_ms=f"{root.duration * 1e3:.3f}",
            queue_ms=f"{bd.stages['queue'] * 1e3:.3f}",
            plan_us=f"{bd.stages['plan'] * 1e6:.1f}",
            exec_ms=f"{bd.stages['execute'] * 1e3:.3f}",
            recovery_ms=f"{bd.stages['recovery'] * 1e3:.3f}",
            retries=root.attrs.get("retries", 0),
            status="ok" if root.attrs.get("ok", True) else "FAILED",
        )
    lines = [table.render()]
    if not roots:
        lines.append("(no settled transfers in the flight recorder)")
    lines.append(
        "run `cli timeline <trace>` for a transfer's full span tree"
    )
    return "\n".join(lines)


def timeline_report(tree: "TraceTree", trace_id: int) -> str:
    """One trace's parent-linked span tree, depth-indented."""
    bd = tree.breakdown(trace_id)
    root = bd.root
    lines = [
        f"trace {trace_id}: "
        f"{root.attrs.get('src', '?')}->{root.attrs.get('dst', '?')} "
        f"{root.attrs.get('nbytes', '?')} bytes, "
        f"{root.duration * 1e3:.3f} ms"
        + ("" if not root.open else " (still open)"),
        "",
    ]
    for depth, span in bd.walk():
        marker = "·" if span.t1 == span.t0 else " "
        dur = "open" if span.open else f"{span.duration * 1e6:10.1f}us"
        t0 = f"{span.t0 * 1e3:9.3f}ms"
        detail = ""
        if "path" in span.attrs:
            detail = f" path={span.attrs['path']} nbytes={span.attrs['nbytes']}"
        elif "wall_time_s" in span.attrs:
            detail = f" wall={span.attrs['wall_time_s'] * 1e6:.1f}us"
        elif span.kind.startswith("recovery.retry"):
            detail = (
                f" rerouted={span.attrs.get('rerouted_bytes', 0)}"
                f" failed={','.join(span.attrs.get('failed_paths', []))}"
            )
        lines.append(
            f"  {t0} {dur} {marker} {'  ' * depth}{span.kind}{detail}"
        )
    stages = ", ".join(
        f"{name}={sec * 1e6:.1f}us" for name, sec in bd.stages.items()
    )
    lines += ["", f"stage totals: {stages}"]
    return "\n".join(lines)


def tracing_stats_report(flight: "FlightRecorder") -> str:
    """Recorder occupancy plus per-stage latency percentiles."""
    s = flight.summary()
    lines = [
        f"flight recorder: {s['resident']}/{s['capacity']} spans resident, "
        f"{s['spans_recorded']} recorded, {s['dropped']} dropped "
        f"({s['dropped_open']} while open), "
        f"{s['traces_started']} traces",
    ]
    table = Table(
        ["stage", "count", "mean_us", "p50_us", "p90_us", "p99_us"],
        title="per-stage latency",
    )
    for stage, snap in s["stages"].items():
        table.add(
            stage=stage,
            count=snap["count"],
            mean_us=f"{snap['mean'] * 1e6:.2f}",
            p50_us=f"{snap['p50'] * 1e6:.2f}",
            p90_us=f"{snap['p90'] * 1e6:.2f}",
            p99_us=f"{snap['p99'] * 1e6:.2f}",
        )
    lines.append(table.render())
    return "\n".join(lines)


__all__ = [
    "drift_report",
    "chaos_report",
    "critical_path_report",
    "slowest_report",
    "timeline_report",
    "tracing_stats_report",
]
