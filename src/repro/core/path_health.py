"""Per-path circuit breakers: healthy → suspect → quarantined → probe.

The planner's candidate set is topology-derived and static; link failures
are runtime events.  :class:`PathHealthRegistry` closes that gap with a
classical circuit breaker per (src, dst, path): consecutive failures push a
path through *suspect* into *quarantined*, quarantined paths are excluded
from planning (and the cached plans using them invalidated), and after a
seeded, exponentially backed-off probe delay a single transfer is let
through as a *probe* — its outcome re-admits the path or re-quarantines it
with a longer backoff.

All state transitions are driven by the transport reporting outcomes
(:meth:`record_success` / :meth:`record_failure`) and by planning-time
queries (:meth:`excluded`); the registry schedules nothing itself, so runs
stay deterministic — the only randomness is the probe-delay jitter, drawn
from a generator seeded at construction.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np


class PathHealth(enum.Enum):
    HEALTHY = "healthy"
    SUSPECT = "suspect"
    QUARANTINED = "quarantined"
    PROBING = "probing"


@dataclass
class _Entry:
    state: PathHealth = PathHealth.HEALTHY
    consecutive_failures: int = 0
    failures: int = 0
    successes: int = 0
    quarantined_at: float = 0.0
    probe_at: float = 0.0
    backoff: float = 0.0


@dataclass(frozen=True)
class HealthTransition:
    """One state-machine edge, kept for reports and tests."""

    time: float
    src: int
    dst: int
    path_id: str
    old: PathHealth
    new: PathHealth


class PathHealthRegistry:
    """Circuit-breaker state per (src, dst, path_id).

    ``on_quarantine`` is a callback ``(src, dst, path_id)`` fired on entry
    into quarantine — the context uses it to invalidate cached plans
    using the path.
    """

    #: Consecutive-failure thresholds for the two demotions.
    suspect_after = 1
    quarantine_after = 2
    #: Quarantine (simulated seconds) before the first probe; it grows by
    #: ``backoff_factor`` on every failed probe, up to ``max_backoff``.
    probe_backoff = 2e-3
    backoff_factor = 2.0
    max_backoff = 1.0
    #: Seed of the probe-delay jitter (+0..25%), which de-synchronizes
    #: probes of simultaneously quarantined paths deterministically.
    seed = 0

    def __init__(
        self,
        *,
        on_quarantine: Callable[[int, int, str], None] | None = None,
    ) -> None:
        self.on_quarantine = on_quarantine
        self._rng = np.random.default_rng(self.seed)
        self._entries: dict[tuple[int, int, str], _Entry] = {}
        self.transitions: list[HealthTransition] = []
        self.quarantines = 0
        self.probes = 0
        self.readmissions = 0

    # ------------------------------------------------------------------
    def state(self, src: int, dst: int, path_id: str) -> PathHealth:
        e = self._entries.get((src, dst, path_id))
        return e.state if e is not None else PathHealth.HEALTHY

    def record_failure(
        self, src: int, dst: int, path_id: str, *, now: float
    ) -> PathHealth:
        key = (src, dst, path_id)
        e = self._entries.get(key)
        if e is None:
            e = self._entries[key] = _Entry()
        e.failures += 1
        e.consecutive_failures += 1
        if e.state is PathHealth.PROBING:
            # Failed probe: back to quarantine with a longer backoff.
            e.backoff = min(e.backoff * self.backoff_factor, self.max_backoff)
            self._quarantine(key, e, now, count=False)
        elif e.state is PathHealth.QUARANTINED:
            # A transfer planned before the quarantine failed late: push
            # the next probe out, the link is clearly still bad.
            e.probe_at = max(e.probe_at, now + self._jittered(e.backoff))
        elif e.consecutive_failures >= self.quarantine_after:
            e.backoff = self.probe_backoff
            self._quarantine(key, e, now, count=True)
        elif e.consecutive_failures >= self.suspect_after:
            self._transition(key, e, PathHealth.SUSPECT, now)
        return e.state

    def record_success(
        self, src: int, dst: int, path_id: str, *, now: float
    ) -> PathHealth:
        e = self._entries.get((src, dst, path_id))
        if e is None:
            return PathHealth.HEALTHY  # untracked == healthy; stay cheap
        e.successes += 1
        e.consecutive_failures = 0
        if e.state in (PathHealth.PROBING, PathHealth.QUARANTINED):
            self.readmissions += 1
            e.backoff = 0.0
        if e.state is not PathHealth.HEALTHY:
            self._transition((src, dst, path_id), e, PathHealth.HEALTHY, now)
        return e.state

    def excluded(self, src: int, dst: int, *, now: float) -> tuple[str, ...]:
        """Paths planning must avoid for this pair, sorted.

        Side effect: a quarantined path whose probe delay has elapsed is
        moved to *probing* and NOT excluded — the caller's transfer is the
        probe.  While a probe is in flight the path stays excluded for
        everyone else (no stampede onto a possibly-bad link).
        """
        if not self._entries:
            return ()
        out = []
        for (s, d, path_id), e in self._entries.items():
            if (s, d) != (src, dst):
                continue
            if e.state is PathHealth.QUARANTINED:
                if now >= e.probe_at:
                    self.probes += 1
                    self._transition((s, d, path_id), e, PathHealth.PROBING, now)
                else:
                    out.append(path_id)
            elif e.state is PathHealth.PROBING:
                out.append(path_id)
        return tuple(sorted(out))

    def unhealthy_paths(self, src: int, dst: int) -> tuple[str, ...]:
        """Pure read: paths currently quarantined or probing, sorted.

        Unlike :meth:`excluded` this has NO probe side effect, so the
        deadline-admission predictor can price a pair's surviving capacity
        without perturbing probe scheduling (which must stay driven by the
        transfers that actually execute).
        """
        if not self._entries:
            return ()
        return tuple(sorted(
            path_id
            for (s, d, path_id), e in self._entries.items()
            if (s, d) == (src, dst)
            and e.state in (PathHealth.QUARANTINED, PathHealth.PROBING)
        ))

    # ------------------------------------------------------------------
    def _quarantine(
        self, key: tuple[int, int, str], e: _Entry, now: float, *, count: bool
    ) -> None:
        e.quarantined_at = now
        e.probe_at = now + self._jittered(e.backoff)
        if count:
            self.quarantines += 1
        self._transition(key, e, PathHealth.QUARANTINED, now)
        if self.on_quarantine is not None:
            self.on_quarantine(*key)

    def _transition(
        self, key: tuple[int, int, str], e: _Entry, new: PathHealth, now: float
    ) -> None:
        if e.state is new:
            return
        self.transitions.append(
            HealthTransition(now, key[0], key[1], key[2], e.state, new)
        )
        e.state = new

    def _jittered(self, backoff: float) -> float:
        return backoff * (1.0 + 0.25 * float(self._rng.random()))

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Structured state, pulled by a metrics collector."""
        counts: dict[str, int] = {s.value: 0 for s in PathHealth}
        for e in self._entries.values():
            counts[e.state.value] += 1
        return {
            "tracked_paths": len(self._entries),
            "states": counts,
            "quarantines": self.quarantines,
            "probes": self.probes,
            "readmissions": self.readmissions,
            "transitions": len(self.transitions),
        }


__all__ = [
    "PathHealth",
    "PathHealthRegistry",
    "HealthTransition",
]
