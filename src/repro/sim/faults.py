"""Deterministic fault injection for the transfer fabric.

Real intra-node fabrics fail in ways :mod:`repro.sim.noise` cannot express:
NVLink lanes down-train (hard outage), marginal links flap between up and
down, and ECC scrubbing or thermal events stall a channel without erroring.
This module provides seeded, scriptable injectors for those three failure
shapes, attachable to any :class:`~repro.sim.fabric.Fabric` channel:

* :class:`LinkDown` — a hard outage window ``[at, at + duration)``.  Flows
  crossing the channel when it goes down fail their events with
  :class:`LinkFailure`; new copies admitted while the channel is down fail
  the same way.
* :class:`FlappingLink` — a Markov up/down process with exponential holding
  times drawn from a seeded generator; the full window sequence is
  precomputed in the constructor so a schedule's timeline is reproducible
  and inspectable before the run.
* :class:`StallInjector` — the channel stays "up" but every crossing flow
  makes zero progress for the window (exercises deadline watchdogs, which
  hard failures never would).

A :class:`FaultSchedule` groups injectors into a scenario: it arms them all
on a fabric and exposes the merged :class:`FaultWindow` list for reports and
Chrome-trace markers (``faults=`` of :func:`repro.obs.chrome_trace.chrome_trace`).
Overlapping windows of one kind on one channel act as their union: the
channel comes back only when the last of them closes.

Determinism: injectors schedule plain engine callbacks; all randomness
(flap hold times) is drawn from ``numpy`` generators seeded at construction
time.  Two runs of the same scenario on the same workload are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.sim.engine import SimError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.fabric import Fabric


class LinkFailure(SimError):
    """A flow was killed by a hard channel outage.

    Raised into every process waiting on a flow that crossed the failed
    channel (and into later ops of any stream those flows poisoned).
    """

    def __init__(self, channel: str, *, tag: str = "", nbytes: int = 0) -> None:
        self.channel = channel
        self.tag = tag
        self.nbytes = nbytes
        detail = f" (flow {tag!r}, {nbytes} bytes)" if tag else ""
        super().__init__(f"link failure on channel {channel!r}{detail}")


@dataclass(frozen=True)
class FaultWindow:
    """One scheduled fault interval on one channel."""

    kind: str  # "down" | "stall"
    channel: str
    start: float
    end: float  # math.inf = never restored


class FaultInjector:
    """Base class: a set of fault windows plus the arming logic."""

    def windows(self) -> tuple[FaultWindow, ...]:
        raise NotImplementedError

    def arm(self, fabric: "Fabric", open_windows: dict | None = None) -> None:
        """Schedule this injector's windows as engine callbacks.

        ``open_windows`` counts the open windows per ``(kind, channel)``.
        :meth:`FaultSchedule.attach` shares one count across its injectors,
        so a channel under overlapping windows goes down (or stalls) when
        the first one opens and comes back when the last one closes.
        """
        engine = fabric.engine
        counts = {} if open_windows is None else open_windows
        for w in self.windows():
            if w.start < engine.now:
                raise SimError(
                    f"fault window on {w.channel!r} starts at {w.start} "
                    f"but the clock is already at {engine.now}"
                )
            if w.kind == "down":
                begin = fabric.fail_channel
                finish = fabric.restore_channel
            else:
                begin = fabric.stall_channel
                finish = fabric.unstall_channel
            key = (w.kind, w.channel)

            def opened(_ev, fn=begin, key=key):
                counts[key] = counts.get(key, 0) + 1
                if counts[key] == 1:
                    fn(key[1])

            def closed(_ev, fn=finish, key=key):
                counts[key] -= 1
                if counts[key] == 0:
                    fn(key[1])

            engine.call_at(w.start).add_callback(opened)
            if math.isfinite(w.end):
                engine.call_at(w.end).add_callback(closed)


class LinkDown(FaultInjector):
    """Hard outage: the channel is down for ``[at, at + duration)``."""

    def __init__(self, channel: str, at: float, duration: float = math.inf) -> None:
        if at < 0:
            raise ValueError("fault start must be >= 0")
        if duration <= 0:
            raise ValueError("fault duration must be > 0")
        self.channel = channel
        self.at = float(at)
        self.duration = float(duration)

    def windows(self) -> tuple[FaultWindow, ...]:
        return (FaultWindow("down", self.channel, self.at, self.at + self.duration),)


class StallInjector(FaultInjector):
    """Zero-progress window: flows stay alive but transfer nothing.

    Unlike :class:`LinkDown` this produces no error of its own — only a
    deadline watchdog (or the stall ending) unsticks the transfer, which is
    exactly the timeout machinery this injector exists to exercise.
    """

    def __init__(self, channel: str, at: float, duration: float) -> None:
        if at < 0:
            raise ValueError("fault start must be >= 0")
        if duration <= 0 or not math.isfinite(duration):
            raise ValueError("stall duration must be finite and > 0")
        self.channel = channel
        self.at = float(at)
        self.duration = float(duration)

    def windows(self) -> tuple[FaultWindow, ...]:
        return (FaultWindow("stall", self.channel, self.at, self.at + self.duration),)


class FlappingLink(FaultInjector):
    """Markov up/down link: exponential holding times, seeded.

    The window sequence is drawn once in the constructor (generator seeded
    with ``seed``), so the same arguments always produce the same scenario
    and the windows can be reported before the simulation runs.
    """

    def __init__(
        self,
        channel: str,
        *,
        first_down: float,
        mean_down: float,
        mean_up: float,
        until: float,
        seed: int = 0,
    ) -> None:
        if first_down < 0:
            raise ValueError("first_down must be >= 0")
        if mean_down <= 0 or mean_up <= 0:
            raise ValueError("mean holding times must be > 0")
        if until <= first_down:
            raise ValueError("until must be > first_down")
        self.channel = channel
        self.seed = seed
        rng = np.random.default_rng(seed)
        windows: list[FaultWindow] = []
        t = float(first_down)
        while t < until:
            down = float(rng.exponential(mean_down))
            end = min(t + max(down, 1e-12), until)
            windows.append(FaultWindow("down", channel, t, end))
            t = end + float(rng.exponential(mean_up))
        self._windows = tuple(windows)

    def windows(self) -> tuple[FaultWindow, ...]:
        return self._windows


class FaultSchedule:
    """A scripted scenario: an ordered collection of injectors."""

    def __init__(self, *injectors: FaultInjector) -> None:
        self.injectors: list[FaultInjector] = list(injectors)
        self.attached = False

    def add(self, injector: FaultInjector) -> "FaultSchedule":
        self.injectors.append(injector)
        return self

    def attach(self, fabric: "Fabric") -> None:
        """Arm every injector on ``fabric`` (idempotence is the caller's
        problem: attaching twice doubles the scenario).  Overlapping
        windows of one kind on one channel act as their union."""
        open_windows: dict = {}
        for inj in self.injectors:
            inj.arm(fabric, open_windows)
        self.attached = True

    def windows(self) -> tuple[FaultWindow, ...]:
        merged = [w for inj in self.injectors for w in inj.windows()]
        merged.sort(key=lambda w: (w.start, w.channel, w.kind))
        return tuple(merged)

    def active_at(self, t: float) -> tuple[FaultWindow, ...]:
        """Windows covering time ``t`` (overload reports use this to label
        which submissions raced a fault)."""
        return tuple(w for w in self.windows() if w.start <= t < w.end)

    def describe(self) -> str:
        lines = [f"fault schedule: {len(self.injectors)} injector(s)"]
        for w in self.windows():
            end = f"{w.end:.6g}" if math.isfinite(w.end) else "inf"
            lines.append(f"  {w.kind:>5} {w.channel} [{w.start:.6g}s, {end}s)")
        return "\n".join(lines)


__all__ = [
    "LinkFailure",
    "FaultWindow",
    "FaultInjector",
    "LinkDown",
    "StallInjector",
    "FlappingLink",
    "FaultSchedule",
]
