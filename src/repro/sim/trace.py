"""Timeline tracing for simulated transfers.

A :class:`Tracer` collects :class:`TraceRecord` entries (one per completed
channel transfer).  Experiments use traces to assert pipeline overlap
properties (e.g. that chunk ``c+1``'s first hop overlaps chunk ``c``'s
second hop) and to render per-link utilisation summaries.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TraceRecord:
    channel: str
    tag: str
    start: float
    end: float
    nbytes: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Append-only trace sink with simple query helpers."""

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []

    def record(
        self, channel: str, tag: str, start: float, end: float, nbytes: float
    ) -> None:
        self.records.append(TraceRecord(channel, tag, start, end, nbytes))

    # ------------------------------------------------------------------
    def for_channel(self, channel: str) -> list[TraceRecord]:
        return [r for r in self.records if r.channel == channel]

    def for_tag_prefix(self, prefix: str) -> list[TraceRecord]:
        return [r for r in self.records if r.tag.startswith(prefix)]

    def total_bytes(self, channel: str | None = None) -> float:
        return sum(
            r.nbytes for r in self.records if channel is None or r.channel == channel
        )

    def makespan(self) -> float:
        if not self.records:
            return 0.0
        return max(r.end for r in self.records) - min(r.start for r in self.records)

    @staticmethod
    def overlap(a: TraceRecord, b: TraceRecord) -> float:
        """Length of the time interval where both records are active."""
        return max(0.0, min(a.end, b.end) - max(a.start, b.start))

    def concurrency_profile(self) -> list[tuple[float, int]]:
        """(time, active-count) steps over the recorded copies.

        Deltas at identical timestamps are aggregated before accumulating:
        a zero-duration record (its -1 edge sorts before its +1) or a
        transfer ending exactly when another starts must not produce a
        transient dip — or a negative count — in the profile.
        """
        deltas: dict[float, int] = {}
        for r in self.records:
            deltas[r.start] = deltas.get(r.start, 0) + 1
            deltas[r.end] = deltas.get(r.end, 0) - 1
        profile = []
        active = 0
        for t in sorted(deltas):
            active += deltas[t]
            profile.append((t, active))
        return profile

    def clear(self) -> None:
        self.records.clear()


__all__ = ["Tracer", "TraceRecord"]
