"""Hysteresis overload state machine driving backpressure and degradation.

The :class:`OverloadGovernor` watches two signals maintained by the
:class:`~repro.runtime.service.TransferManager`: the instantaneous
admission-queue depth and an EWMA of observed queue wait.  It walks a
three-state ladder::

    NORMAL  --depth >= pressured_depth or ewma_wait >= wait threshold-->  PRESSURED
    PRESSURED  --depth >= shedding_depth-->  SHEDDING

with hysteresis on the way down: a state is exited only once depth falls
to ``exit_fraction`` (0.5) of the threshold that entered it (and the EWMA
wait is back under that fraction of its threshold), so the machine does
not flap at the boundary.  Each observed wait enters the EWMA with weight
``ewma_alpha`` (0.2).  Both are fixed constants.

The manager builds its governor once, from the config's three thresholds.
The governor is *inert* unless thresholds are configured: with
``overload_pressured_depth``/``overload_shedding_depth``/``overload_wait_pressured``
all ``None`` the state stays NORMAL and ``degrade_level`` stays 0, which
keeps default timelines bit-identical.  ``degrade_level`` (0/1/2) is the
value threaded into planner and graph-cache keys to request cheaper plans.
"""

from __future__ import annotations

from enum import IntEnum


class OverloadState(IntEnum):
    NORMAL = 0
    PRESSURED = 1
    SHEDDING = 2


class OverloadGovernor:
    """Tracks overload state from queue depth + EWMA queue wait."""

    #: A state exits at this fraction of the threshold that entered it.
    exit_fraction = 0.5
    #: EWMA weight of each observed queue wait.
    ewma_alpha = 0.2

    def __init__(
        self,
        *,
        pressured_depth: int | None = None,
        shedding_depth: int | None = None,
        wait_pressured: float | None = None,
    ) -> None:
        self.pressured_depth = pressured_depth
        self.shedding_depth = shedding_depth
        self.wait_pressured = wait_pressured
        self.state = OverloadState.NORMAL
        self.ewma_wait = 0.0
        self.transitions = 0
        self.time_entered_state = 0.0

    @property
    def enabled(self) -> bool:
        return (
            self.pressured_depth is not None
            or self.shedding_depth is not None
            or self.wait_pressured is not None
        )

    @property
    def degrade_level(self) -> int:
        return int(self.state)

    def observe_wait(self, waited: float) -> None:
        """Fold one observed queue wait into the EWMA.

        Unconditional (unlike :meth:`update`): deadline admission reads
        the EWMA as its queue-wait estimate even when no overload
        thresholds are configured, and the fold is a two-multiply no-op
        cost that changes no timeline by itself.
        """
        a = self.ewma_alpha
        self.ewma_wait = (1.0 - a) * self.ewma_wait + a * waited

    def _wait_hot(self) -> bool:
        return self.wait_pressured is not None and self.ewma_wait >= self.wait_pressured

    def _wait_cool(self) -> bool:
        if self.wait_pressured is None:
            return True
        return self.ewma_wait < self.exit_fraction * self.wait_pressured

    def update(self, depth: int, now: float = 0.0) -> OverloadState:
        """Re-evaluate the state machine against the current queue depth."""
        if not self.enabled:
            return self.state
        prev = self.state
        state = self.state
        # Escalate (may climb two rungs in one update under a burst).
        if state is OverloadState.NORMAL:
            if (
                self.pressured_depth is not None and depth >= self.pressured_depth
            ) or self._wait_hot():
                state = OverloadState.PRESSURED
        if state is OverloadState.PRESSURED:
            if self.shedding_depth is not None and depth >= self.shedding_depth:
                state = OverloadState.SHEDDING
        # De-escalate with hysteresis, one rung per update.
        dropped_from_shedding = False
        if state is OverloadState.SHEDDING and prev is OverloadState.SHEDDING:
            assert self.shedding_depth is not None
            if depth <= self.exit_fraction * self.shedding_depth:
                state = OverloadState.PRESSURED
                dropped_from_shedding = True
        if (
            state is OverloadState.PRESSURED
            and prev is not OverloadState.NORMAL
            and not dropped_from_shedding
        ):
            enter_depth = self.pressured_depth
            depth_cool = (
                enter_depth is None or depth <= self.exit_fraction * enter_depth
            )
            if depth_cool and self._wait_cool():
                state = OverloadState.NORMAL
        if state is not prev:
            self.state = state
            self.transitions += 1
            self.time_entered_state = now
        return self.state

    def snapshot(self) -> dict:
        return {
            "enabled": self.enabled,
            "state": self.state.name.lower(),
            "degrade_level": self.degrade_level,
            "ewma_wait": self.ewma_wait,
            "transitions": self.transitions,
            "pressured_depth": self.pressured_depth,
            "shedding_depth": self.shedding_depth,
            "wait_pressured": self.wait_pressured,
        }


__all__ = ["OverloadState", "OverloadGovernor"]
