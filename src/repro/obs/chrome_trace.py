"""Chrome-trace (``chrome://tracing`` / Perfetto) timeline export.

Converts :class:`~repro.sim.trace.Tracer` records (one per completed channel
transfer) and :class:`~repro.obs.tracing.FlightRecorder` spans (the causal
per-transfer story: queue, plan, per-path pipeline executions, recovery
rounds, settle) into the Trace Event Format: a JSON object with a
``traceEvents`` list of complete ("ph": "X") events carrying
``pid``/``tid``/``ts``/``dur``, plus metadata ("ph": "M") events naming the
rows.  Simulated seconds map to trace microseconds.

Fabric rows are **stable**: channel rows are sorted by name before
numbering, so two exports of equivalent runs place every channel at the
same tid regardless of completion order.  Injected
:class:`~repro.sim.faults.FaultWindow` intervals (``faults=``) become
``cat="fault"`` events on their own ``fault:<channel>`` rows after the
channel rows, so an outage never hides the copies it overlaps.
Flight-recorder spans live under their own process with one row per
trace; every event carries ``args.trace_id`` and ``args.parent`` so
tooling can re-nest a transfer's stages.

Load the output via ``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracing import FlightRecorder
    from repro.sim.faults import FaultWindow
    from repro.sim.trace import Tracer

#: Trace-event timestamps are microseconds; the simulator runs in seconds.
_US = 1e6

FABRIC_PID = 0
FLIGHT_PID = 2


def _meta(pid: int, name: str) -> dict:
    return {
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "tid": 0,
        "args": {"name": name},
    }


def _thread_meta(pid: int, tid: int, name: str) -> dict:
    return {
        "name": "thread_name",
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "args": {"name": name},
    }


def trace_events(
    tracer: "Tracer | None" = None,
    flight: "FlightRecorder | None" = None,
    *,
    faults: "Sequence[FaultWindow]" = (),
) -> list[dict]:
    """Flat ``traceEvents`` list for the given sources.

    Metadata ("M") events lead, then every complete ("X") event sorted by
    timestamp across all sources.  Tracer records arrive in *completion*
    order, so without the sort a timeline viewer (or a streaming consumer)
    would see time move backwards.  Fault windows that never end are
    clipped to the last event of the other sources (and dropped when there
    is none).
    """
    meta: list[dict] = []
    complete: list[dict] = []
    records = tracer.records if tracer is not None else ()
    channels = sorted({rec.channel for rec in records})
    fault_rows = sorted({f"fault:{w.channel}" for w in faults})
    if channels or fault_rows:
        meta.append(_meta(FABRIC_PID, "fabric (channels)"))
    tids = {name: i for i, name in enumerate(channels + fault_rows)}
    for name, tid in tids.items():
        meta.append(_thread_meta(FABRIC_PID, tid, name))
    for rec in records:
        complete.append(
            {
                "name": rec.tag or rec.channel,
                "cat": "fabric",
                "ph": "X",
                "pid": FABRIC_PID,
                "tid": tids[rec.channel],
                "ts": rec.start * _US,
                "dur": rec.duration * _US,
                "args": {"nbytes": rec.nbytes, "channel": rec.channel},
            }
        )
    if flight is not None and len(flight):
        meta.append(_meta(FLIGHT_PID, "flight recorder (traces)"))
        seen_traces: set[int] = set()
        for view in flight.iter_spans():
            if view.open:
                continue  # still in flight at export time
            if view.trace_id not in seen_traces:
                seen_traces.add(view.trace_id)
                meta.append(
                    _thread_meta(
                        FLIGHT_PID, view.trace_id, f"trace {view.trace_id}"
                    )
                )
            complete.append(
                {
                    "name": view.kind,
                    "cat": "flight",
                    "ph": "X",
                    "pid": FLIGHT_PID,
                    "tid": view.trace_id,
                    "ts": view.t0 * _US,
                    "dur": view.duration * _US,
                    "args": {
                        "trace_id": view.trace_id,
                        "sid": view.sid,
                        "parent": view.parent,
                        **view.attrs,
                    },
                }
            )
    horizon = max((e["ts"] + e["dur"] for e in complete), default=None)
    for w in faults:
        end = w.end * _US
        if not math.isfinite(end):
            if horizon is None:
                continue
            end = max(horizon, w.start * _US)
        complete.append(
            {
                "name": f"{w.kind}:{w.channel}",
                "cat": "fault",
                "ph": "X",
                "pid": FABRIC_PID,
                "tid": tids[f"fault:{w.channel}"],
                "ts": w.start * _US,
                "dur": end - w.start * _US,
                "args": {"kind": w.kind, "channel": w.channel},
            }
        )
    complete.sort(key=lambda e: (e["ts"], e["pid"], e["tid"]))
    return meta + complete


def chrome_trace(
    tracer: "Tracer | None" = None,
    flight: "FlightRecorder | None" = None,
    *,
    faults: "Sequence[FaultWindow]" = (),
    metadata: dict | None = None,
) -> dict:
    """The full trace object (``traceEvents`` + display hints)."""
    return {
        "traceEvents": trace_events(tracer, flight, faults=faults),
        "displayTimeUnit": "ms",
        "otherData": metadata or {},
    }


def dump_chrome_trace(
    path: str | Path,
    tracer: "Tracer | None" = None,
    flight: "FlightRecorder | None" = None,
    *,
    faults: "Sequence[FaultWindow]" = (),
    metadata: dict | None = None,
) -> Path:
    """Write the trace JSON to ``path`` and return it."""
    path = Path(path)
    path.write_text(
        json.dumps(chrome_trace(tracer, flight, faults=faults, metadata=metadata))
    )
    return path


__all__ = [
    "chrome_trace",
    "trace_events",
    "dump_chrome_trace",
    "FABRIC_PID",
    "FLIGHT_PID",
]
