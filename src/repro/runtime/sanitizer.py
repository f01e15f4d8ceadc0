"""Opt-in sim-level invariant sanitizer (DESIGN.md §5h).

Chaos and overload scenarios push the transport through admission,
shedding, expiry, fault recovery, and replanning — lots of places where a
byte or a resource hold could silently fall on the floor.  The sanitizer
checks, at quiescence (engine drained, nothing queued or in flight), that
the books balance:

* **Byte conservation** — every submitted byte is accounted one way:
  ``submitted == delivered + failed + shed + expired + cancelled +
  rejected`` (plus anything still queued/in flight, which must be zero at
  quiescence).
* **No orphaned flows** — the fabric carries no live flows once the
  service reports nothing in flight.
* **No leaked load holds** — the :class:`~repro.runtime.load.LoadTracker`
  is back to idle (every acquire was released).
* **No leaked stream-pool entries** — every pooled pipeline stream is
  alive and idle (destroyed or fault-poisoned streams must have been
  dropped by ``reset_path_streams``).
* **A drained engine heap** — once the engine holds no live entries,
  every entry left on its heap is a counted tombstone (a cancelled entry
  not yet popped); anything else is an entry the engine lost track of.

The check is opt-in — call :func:`check_invariants` from tests or pass
``--sanitize`` to the overload CLI.  It reads counters only (no engine
interaction), so running it cannot perturb a timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.ucx.context import UCXContext


class InvariantViolation(AssertionError):
    """One or more transport invariants failed at quiescence."""


@dataclass
class SanitizerReport:
    """Outcome of one :func:`check_invariants` sweep."""

    ok: bool
    violations: list[str] = field(default_factory=list)
    checked: dict = field(default_factory=dict)

    def describe(self) -> str:
        if self.ok:
            return "sanitizer: all invariants hold"
        lines = ["sanitizer: INVARIANT VIOLATIONS"]
        lines += [f"  - {v}" for v in self.violations]
        return "\n".join(lines)


def check_invariants(
    context: "UCXContext", *, raise_on_violation: bool = True
) -> SanitizerReport:
    """Verify transport invariants at quiescence; see module docstring.

    Returns a :class:`SanitizerReport`; with ``raise_on_violation`` (the
    default) an :class:`InvariantViolation` carrying the report text is
    raised instead of returning a failing report.
    """
    violations: list[str] = []
    manager = getattr(context, "transfers", None)
    checked: dict = {}

    if manager is not None:
        if manager.queue_depth != 0:
            violations.append(
                f"admission queue not drained: {manager.queue_depth} queued"
            )
        if manager.inflight != 0:
            violations.append(
                f"transfers still in flight: {manager.inflight}"
            )
        accounted = (
            manager.bytes_delivered
            + manager.bytes_failed
            + manager.bytes_shed
            + manager.bytes_expired
            + manager.bytes_cancelled
            + manager.bytes_rejected
        )
        checked["bytes"] = {
            "submitted": manager.bytes_submitted,
            "accounted": accounted,
        }
        if manager.bytes_submitted != accounted:
            violations.append(
                "byte conservation broken: submitted "
                f"{manager.bytes_submitted} != accounted {accounted} "
                f"(delivered {manager.bytes_delivered}, failed "
                f"{manager.bytes_failed}, shed {manager.bytes_shed}, expired "
                f"{manager.bytes_expired}, cancelled {manager.bytes_cancelled}, "
                f"rejected {manager.bytes_rejected})"
            )
        load = manager.load.stats_snapshot()
        checked["load"] = load
        if load.get("inflight_flows", 0) != 0 or load.get("inflight_bytes", 0) != 0:
            violations.append(
                "load tracker not idle: "
                f"{load.get('inflight_flows', 0)} flows / "
                f"{load.get('inflight_bytes', 0)} bytes still held"
            )

    fabric = getattr(getattr(context, "runtime", None), "fabric", None)
    if fabric is not None:
        live = fabric.active_flows
        checked["fabric_flows"] = live
        if live != 0:
            violations.append(f"orphaned fabric flows: {live} still active")

    pipeline = getattr(context, "pipeline", None)
    if pipeline is not None:
        leaked = pipeline.leaked_streams()
        checked["stream_pool"] = len(pipeline._stream_pool)
        if leaked:
            detail = ", ".join(f"{key}: {why}" for key, why in leaked)
            violations.append(f"leaked stream-pool entries: {detail}")

    engine = getattr(context, "engine", None)
    if engine is not None:
        snap = engine.stats_snapshot()
        queued, tombstones = snap["queued"], snap["tombstones"]
        checked["engine_heap"] = {
            "queued": queued, "live": snap["live"], "tombstones": tombstones
        }
        if snap["live"] == 0 and queued != tombstones:
            violations.append(
                f"engine heap not drained: {queued} entries queued at "
                f"quiescence, {tombstones} of them counted tombstones"
            )

    report = SanitizerReport(ok=not violations, violations=violations, checked=checked)
    if violations and raise_on_violation:
        raise InvariantViolation(report.describe())
    return report


__all__ = ["check_invariants", "SanitizerReport", "InvariantViolation"]
