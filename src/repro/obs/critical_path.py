"""Critical-path attribution for multi-path transfers (Theorem 1, live).

The equal-time theorem says the optimal split finishes every path at the
same instant — any slack on a path means bytes should have moved to it.
This analyzer makes that directly observable from the flight recorder:
each transfer is a root ``transfer`` span, and its paths are the root's
direct ``pipeline.path[i]`` children, found by parent link.  It reports,
per transfer, which path was the bottleneck and how much slack every
other path had.  On the noise-free simulator with a well-calibrated
model, per-path slack of a dynamic plan is ≈ 0; a path with persistent
slack is the planner's model being wrong about it.

Only the first execution round counts: a recovery round's paths hang
under their ``recovery.retry[k]`` span, not under the root, and a path
that faulted (``ok=False``) never finished its share.  The retry rounds'
time shows up as the transfer's ``post_overhead``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs.tracing import TraceTree

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracing import FlightRecorder


@dataclass(frozen=True)
class PathContribution:
    """One path's interval within a transfer."""

    path_id: str
    start: float
    end: float
    nbytes: int
    chunks: int
    theta: float
    slack: float  # bottleneck end − this path's end (≥ 0)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class TransferBreakdown:
    """Per-transfer completion attribution."""

    name: str
    src: int
    dst: int
    nbytes: int
    start: float
    end: float
    paths: tuple[PathContribution, ...]
    bottleneck: str  # path_id of the last-finishing path
    bottleneck_chunk: str  # span kind of its last chunk (the path's own if direct)
    pre_overhead: float  # submit → first path start (queue/request/IPC/rndv)
    post_overhead: float  # last path end → settle (includes recovery rounds)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def max_slack(self) -> float:
        return max((p.slack for p in self.paths), default=0.0)

    @property
    def max_relative_slack(self) -> float:
        """Max slack as a fraction of the bottleneck path's duration."""
        bn = next((p for p in self.paths if p.path_id == self.bottleneck), None)
        if bn is None or bn.duration <= 0:
            return 0.0
        return self.max_slack / bn.duration


class CriticalPathAnalyzer:
    """Walks a run's flight-recorder traces."""

    def __init__(self, source: "FlightRecorder | TraceTree") -> None:
        self.tree = source if isinstance(source, TraceTree) else TraceTree(source)

    # ------------------------------------------------------------------
    def transfers(self) -> list[TransferBreakdown]:
        """One breakdown per settled transfer with paths, in completion order."""
        out = []
        for root in self.tree.roots():
            if root.kind != "transfer" or root.open:
                continue
            children = self.tree.breakdown(root.trace_id).children
            mine = [
                s
                for s in children.get(root.sid, ())
                if s.kind.startswith("pipeline.path") and s.attrs.get("ok", True)
            ]
            if not mine:
                continue
            mine.sort(key=lambda s: s.attrs["path"])
            bottleneck_end = max(s.t1 for s in mine)
            paths = tuple(
                PathContribution(
                    path_id=s.attrs["path"],
                    start=s.t0,
                    end=s.t1,
                    nbytes=int(s.attrs.get("nbytes", 0)),
                    chunks=int(s.attrs.get("chunks", 1)),
                    theta=float(s.attrs.get("theta", 0.0)),
                    slack=bottleneck_end - s.t1,
                )
                for s in mine
            )
            bn_span = max(mine, key=lambda s: s.t1)
            last = max(
                children.get(bn_span.sid, ()),
                key=lambda s: (s.t0, s.sid),
                default=bn_span,
            )
            out.append(
                TransferBreakdown(
                    name=root.attrs.get("tag") or f"trace{root.trace_id}",
                    src=int(root.attrs.get("src", -1)),
                    dst=int(root.attrs.get("dst", -1)),
                    nbytes=int(root.attrs.get("nbytes", 0)),
                    start=root.t0,
                    end=root.t1,
                    paths=paths,
                    bottleneck=bn_span.attrs["path"],
                    bottleneck_chunk=last.kind,
                    pre_overhead=min(s.t0 for s in mine) - root.t0,
                    post_overhead=root.t1 - bottleneck_end,
                )
            )
        out.sort(key=lambda t: t.end)
        return out

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Aggregate view: bottleneck histogram plus slack stats per path."""
        transfers = self.transfers()
        bottlenecks: dict[str, int] = {}
        slack: dict[str, list[float]] = {}
        for t in transfers:
            bottlenecks[t.bottleneck] = bottlenecks.get(t.bottleneck, 0) + 1
            for p in t.paths:
                slack.setdefault(p.path_id, []).append(p.slack)
        return {
            "transfers": len(transfers),
            "bottleneck_counts": dict(sorted(bottlenecks.items())),
            "slack_s": {
                pid: {
                    "mean": sum(v) / len(v),
                    "max": max(v),
                }
                for pid, v in sorted(slack.items())
            },
            "max_relative_slack": max(
                (t.max_relative_slack for t in transfers), default=0.0
            ),
        }


__all__ = [
    "PathContribution",
    "TransferBreakdown",
    "CriticalPathAnalyzer",
]
