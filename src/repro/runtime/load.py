"""Per-channel in-flight load accounting for the transfer service.

The paper's model (and :class:`~repro.core.planner.PathPlanner`) price each
candidate path against *idle* link bandwidths.  The fabric, however, is a
shared max-min resource: the moment two puts overlap, every β the planner
used is wrong by roughly the number of flows sharing the channel.

:class:`LoadTracker` is the :class:`~repro.runtime.service.TransferManager`'s
view of that sharing: for every fabric channel it maintains the number of
in-flight *planned* path-flows crossing it and the bytes they still intend
to move.  The planner derates per-hop bandwidth with the classical
``β / (1 + load)`` approximation, where ``load`` is the (bucketed) number of
*other* flows on the hop — exact for max-min fair sharing of one saturated
channel, and a usable first-order correction everywhere else (see
DESIGN.md §5e for the limits).

Loads are **bucketed** before they reach the planner so the LRU plan cache
stays effective: raw in-flight counts fluctuate per admit/finish, but the
bucket (0, 1, 2, then powers of two capped at 16) changes rarely, and the
derated plan is a function of the bucket alone — two snapshots with equal
:meth:`LoadSnapshot.bucket_key` always produce identical plans, which is
what makes the bucket a sound cache-key component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.planner import TransferPlan

#: Bucket ceiling: beyond 16 concurrent flows the β/(1+load) correction is
#: dominated by queueing effects the model does not capture anyway.
MAX_LOAD_BUCKET = 16


def load_bucket(flows: int) -> int:
    """Bucket an in-flight flow count: 0, 1, 2, 4, 8, 16 (capped).

    Small counts stay exact (they matter most for the β/(1+load) derate);
    larger counts round up to the next power of two so the plan-cache key
    space stays tiny under heavy churn.
    """
    if flows <= 2:
        return max(flows, 0)
    bucket = 4
    while bucket < flows and bucket < MAX_LOAD_BUCKET:
        bucket *= 2
    return bucket


class LoadSnapshot:
    """An immutable point-in-time view of per-channel in-flight load."""

    __slots__ = ("_flows", "_key")

    def __init__(self, flows: dict[str, int] | None = None) -> None:
        self._flows = dict(flows) if flows else {}
        self._key: tuple[tuple[str, int], ...] | None = None

    # ------------------------------------------------------------------
    @property
    def is_idle(self) -> bool:
        return not self._flows

    def flows_on(self, channel: str) -> int:
        return self._flows.get(channel, 0)

    def hop_load(self, hop: tuple[str, ...]) -> int:
        """Bucketed flow count of the hop's most-loaded channel.

        A hop's copy crosses all of its channels concurrently, so its
        effective bandwidth is set by the busiest one — the same
        bottleneck rule the fabric's max-min solver applies.
        """
        load = 0
        for channel in hop:
            flows = self._flows.get(channel, 0)
            if flows > load:
                load = flows
        return load_bucket(load)

    def bucket_key(self) -> tuple[tuple[str, int], ...]:
        """Canonical bucketed form, used as the plan-cache key component.

        Only channels with a non-zero bucket appear, sorted by name, so an
        idle snapshot keys identically to ``load=None`` planning.
        """
        if self._key is None:
            self._key = tuple(
                sorted(
                    (channel, load_bucket(flows))
                    for channel, flows in self._flows.items()
                    if flows > 0
                )
            )
        return self._key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LoadSnapshot {dict(self._flows)}>"


#: The empty snapshot, shared: idle-load planning allocates nothing.
IDLE_SNAPSHOT = LoadSnapshot()


@dataclass
class LoadHold:
    """The reversible per-channel increments of one executing plan."""

    flows: dict[str, int] = field(default_factory=dict)
    nbytes: dict[str, float] = field(default_factory=dict)
    released: bool = False


class LoadTracker:
    """Live per-channel in-flight flow/byte counts.

    The transfer path acquires a :class:`LoadHold` for each plan *before*
    executing it and releases it when the execution round settles, so any
    transfer planned in between sees the fabric as it actually is.  A
    transfer never holds its own load while planning (acquire happens after
    ``plan()``), so the β/(1+load) derate counts *other* flows only.
    """

    def __init__(self) -> None:
        self._flows: dict[str, int] = {}
        self._bytes: dict[str, float] = {}
        self.acquires = 0
        self.releases = 0
        self.peak_channel_flows = 0

    # ------------------------------------------------------------------
    def acquire(self, plan: "TransferPlan") -> LoadHold:
        """Register a plan's per-channel footprint; returns the hold."""
        hold = LoadHold()
        for a in plan.active_assignments:
            for hop in a.path.hops:
                for channel in hop:
                    hold.flows[channel] = hold.flows.get(channel, 0) + 1
                    hold.nbytes[channel] = hold.nbytes.get(channel, 0.0) + a.nbytes
        for channel, n in hold.flows.items():
            live = self._flows.get(channel, 0) + n
            self._flows[channel] = live
            if live > self.peak_channel_flows:
                self.peak_channel_flows = live
        for channel, n in hold.nbytes.items():
            self._bytes[channel] = self._bytes.get(channel, 0.0) + n
        self.acquires += 1
        return hold

    def release(self, hold: LoadHold) -> None:
        """Undo an acquire (idempotent: double release is a no-op)."""
        if hold.released:
            return
        hold.released = True
        for channel, n in hold.flows.items():
            live = self._flows.get(channel, 0) - n
            if live > 0:
                self._flows[channel] = live
            else:
                self._flows.pop(channel, None)
        for channel, n in hold.nbytes.items():
            left = self._bytes.get(channel, 0.0) - n
            if left > 1e-9:
                self._bytes[channel] = left
            else:
                self._bytes.pop(channel, None)
        self.releases += 1

    # ------------------------------------------------------------------
    def flows_on(self, channel: str) -> int:
        return self._flows.get(channel, 0)

    @property
    def is_idle(self) -> bool:
        return not self._flows

    def snapshot(self) -> LoadSnapshot:
        """Freeze the current load (cheap: one small dict copy)."""
        if not self._flows:
            return IDLE_SNAPSHOT
        return LoadSnapshot(self._flows)

    def stats_snapshot(self) -> dict:
        """Structured counters, pulled by a metrics collector."""
        return {
            "acquires": self.acquires,
            "releases": self.releases,
            "loaded_channels": len(self._flows),
            "inflight_flows": sum(self._flows.values()),
            "inflight_bytes": sum(self._bytes.values()),
            "peak_channel_flows": self.peak_channel_flows,
        }


__all__ = [
    "LoadTracker",
    "LoadSnapshot",
    "LoadHold",
    "load_bucket",
    "IDLE_SNAPSHOT",
    "MAX_LOAD_BUCKET",
]
