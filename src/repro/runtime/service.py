"""The transfer service: one admission point for every byte in the system.

Every caller — ``UCXContext.put``, endpoints, the MPI
:class:`~repro.mpi.comm.Communicator` (and through it every collective), and
the bench experiments — submits here, and the manager dispatches
admitted transfers to ``CudaIpcModule.start_put``.  It adds:

* **Admission control** — optional per-GPU-pair and global in-flight caps
  (``TransportConfig.max_inflight_per_pair`` / ``max_inflight_total``).
  Requests that cannot be admitted queue FIFO; a pair at its limit never
  blocks other pairs (per-pair FIFO order is still preserved).
* **Load tracking** — a :class:`~repro.runtime.load.LoadTracker` maintains
  per-channel in-flight flow/byte counts that the contention-aware planner
  reads (``TransportConfig.contention_aware``).
* **Deadlines & cancellation** (DESIGN.md §5h) — ``submit`` accepts an
  optional absolute ``deadline`` or relative ``timeout``; admission uses
  the performance model's predicted completion time plus the EWMA queue
  wait to fast-fail requests that cannot make it
  (:class:`~repro.gpu.errors.DeadlineUnsatisfiable`), queued requests are
  cancellable via :meth:`cancel`, and an engine-flush expiry sweep fails
  queued requests whose deadline has become unreachable.
* **Bounded backpressure** — ``admission_queue_limit`` caps the queue;
  over the limit one of three shed policies picks a victim
  (``reject-newest`` / ``reject-cheapest`` / ``tenant-fair``), failed with
  :class:`~repro.gpu.errors.TransferShed`.  A hysteresis
  :class:`~repro.runtime.overload.OverloadGovernor` walks
  normal → pressured → shedding off queue depth and EWMA wait, and its
  ``degrade_level`` asks the planner for cheaper plans under pressure.
* **Retry budgets** — a hierarchical
  :class:`~repro.runtime.budget.RetryBudget` (global + per-pair token
  buckets) that the recovery loop consumes before every replan, so storms
  of retries against one quarantined path back off collectively.

With the default configuration (no caps, contention-aware planning off,
no deadlines/limits/budgets) the manager dispatches synchronously and
returns the put process event untouched, so single-transfer timelines are
bit-identical to a bare ``start_put`` — asserted by
``tests/test_transfer_manager.py``.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.gpu.errors import DeadlineUnsatisfiable, TransferCancelled, TransferShed
from repro.obs.tracing import SETTLE_KEYS, TRANSFER_KEYS
from repro.runtime.budget import RetryBudget
from repro.runtime.load import LoadTracker
from repro.runtime.overload import OverloadGovernor

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine, Event
    from repro.ucx.context import UCXContext
    from repro.ucx.tuning import TransportConfig

#: Sentinel returned by the shed-victim chooser: shed the incoming request.
_INCOMING = object()

#: Fixed seed of the tenant-fair shed RNG (deterministic across runs).
_SHED_SEED = 0x5EDF00D


@dataclass
class _QueuedRequest:
    """A submitted transfer waiting for admission."""

    seq: int
    src: int
    dst: int
    nbytes: int
    tag: str
    event: "Event"
    enqueued_at: float
    trace_id: int = -1
    root_sid: int = -1  # the trace's root "transfer" span
    deadline_at: float | None = None  # absolute completion deadline
    predicted: float | None = None  # model-predicted service time at admission


class TransferManager:
    """Request queue + admission control + load tracking for transfers."""

    def __init__(self, context: "UCXContext") -> None:
        self.context = context
        self.engine: "Engine" = context.engine
        self.config: "TransportConfig" = context.config
        cfg = self.config
        self.load = LoadTracker()
        self.governor = OverloadGovernor(
            pressured_depth=cfg.overload_pressured_depth,
            shedding_depth=cfg.overload_shedding_depth,
            wait_pressured=cfg.overload_wait_pressured,
        )
        #: Hierarchical retry budget, metered by the recovery loop.
        self.retry_budget = RetryBudget(
            total=cfg.retry_budget_total,
            per_pair=cfg.retry_budget_per_pair,
            refill_rate=cfg.retry_budget_refill,
        )
        self._queue: list[_QueuedRequest] = []
        self._inflight_pair: dict[tuple[int, int], int] = {}
        self._inflight_total = 0
        self._seq = 0
        self._deadline_queued = 0  # queued requests carrying a deadline
        self._sweep_registered = False
        self._shed_rng = random.Random(_SHED_SEED)
        # run-level counters
        self.submitted = 0
        self.queued = 0  # requests that waited in the admission queue
        self.dispatched_direct = 0
        self.dispatched_queued = 0
        self.completed = 0
        self.failed = 0
        self.rejected = 0  # deadline-unsatisfiable at submit
        self.expired = 0  # deadline passed while queued
        self.cancelled = 0  # explicit cancel() while queued
        self.shed = 0  # backpressure victims
        self.peak_queue_depth = 0
        self.peak_inflight = 0
        self.queue_time_total = 0.0
        # byte conservation ledger (checked by the invariant sanitizer):
        # submitted == delivered + failed + shed + expired + cancelled
        #              + rejected + queued + inflight
        self.bytes_submitted = 0
        self.bytes_delivered = 0
        self.bytes_failed = 0
        self.bytes_shed = 0
        self.bytes_expired = 0
        self.bytes_cancelled = 0
        self.bytes_rejected = 0
        self._bytes_inflight = 0

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def inflight(self) -> int:
        return self._inflight_total

    # ------------------------------------------------------------------
    def submit(
        self,
        src: int,
        dst: int,
        nbytes: int,
        *,
        tag: str = "",
        deadline: float | None = None,
        timeout: float | None = None,
    ) -> "Event":
        """Submit a transfer; the returned event's value is a PutResult.

        Admissible requests dispatch synchronously — no extra simulated
        time, no wrapper process — so the default (uncapped) configuration
        dispatches exactly what a bare ``cuda_ipc.start_put`` would.  Requests
        over an in-flight cap queue FIFO and dispatch from the completion
        callback of an earlier transfer.

        ``deadline`` is an absolute simulated time by which the transfer
        must complete; ``timeout`` is the relative form (``now + timeout``).
        With either set, admission compares the model-predicted completion
        (plus the EWMA queue wait if the request would queue) against the
        deadline and *fast-fails* the returned event with
        :class:`DeadlineUnsatisfiable` when it cannot be met.  Queued
        requests whose deadline becomes unreachable are expired by the
        engine-flush sweep.  Both default to ``None`` (no deadline), which
        keeps timelines bit-identical to the pre-deadline service.  A NaN
        deadline or timeout raises :class:`ValueError`: no comparison with
        it is ever true, so it would be counted but never enforced.  A
        size that is not an integer (``operator.index`` rejects it: a
        float, a string) raises :class:`TypeError`, since the plan and
        graph caches would key it by its truncation.
        """
        operator.index(nbytes)
        if nbytes < 0:
            raise ValueError("negative transfer size")
        if deadline is not None and timeout is not None:
            raise ValueError("pass deadline or timeout, not both")
        bound = deadline if deadline is not None else timeout
        if bound is not None and math.isnan(bound):
            raise ValueError("deadline or timeout is NaN")
        self.submitted += 1
        self.bytes_submitted += nbytes
        self._seq += 1
        # Trace identity is minted at admission: the root "transfer" span
        # opens here so queue wait is part of the transfer's story.
        flight = self.context.flight
        trace_id, root_sid = flight.begin_trace(
            "transfer", (TRANSFER_KEYS, src, dst, nbytes, tag)
        ) if flight.enabled else (-1, -1)
        now = self.engine.now
        deadline_at = deadline if deadline is not None else (
            now + timeout if timeout is not None else None
        )
        predicted: float | None = None
        if deadline_at is not None:
            admit_now = self._can_admit(src, dst)
            predicted = self._predict_service_time(src, dst, nbytes)
            wait_est = 0.0 if admit_now else self.governor.ewma_wait
            if predicted is not None and now + wait_est + predicted > deadline_at:
                return self._reject(
                    src, dst, nbytes, deadline_at, predicted, trace_id, root_sid
                )
        if self._can_admit(src, dst):
            self.dispatched_direct += 1
            return self._dispatch(
                src, dst, nbytes, tag, trace_id, root_sid, deadline_at=deadline_at
            )
        limit = self.config.admission_queue_limit
        if limit is not None and self.queue_depth >= limit:
            victim = self._choose_shed_victim(src, dst, nbytes)
            if victim is _INCOMING:
                return self._shed_incoming(src, dst, nbytes, trace_id, root_sid)
            self._shed_queued(victim)
        req = _QueuedRequest(
            seq=self._seq,
            src=src,
            dst=dst,
            nbytes=nbytes,
            tag=tag,
            event=self.engine.event(),
            enqueued_at=now,
            trace_id=trace_id,
            root_sid=root_sid,
            deadline_at=deadline_at,
            predicted=predicted,
        )
        self._queue.append(req)
        if deadline_at is not None:
            self._deadline_queued += 1
            if not self._sweep_registered:
                self.engine.add_flush_hook(self._expiry_sweep)
                self._sweep_registered = True
        self.queued += 1
        depth = self.queue_depth
        if depth > self.peak_queue_depth:
            self.peak_queue_depth = depth
        self._update_governor()
        return req.event

    # ------------------------------------------------------------------
    def cancel(self, handle: "Event") -> bool:
        """Cancel a *queued* transfer by its submit() event.

        Returns ``True`` if the request was found in the admission queue:
        it is removed, its event fails with :class:`TransferCancelled`, and
        its trace settles with outcome ``"cancelled"``.  Dispatched (in
        flight) transfers are not cancellable; for those — and for unknown
        handles — ``False`` is returned and nothing changes.
        """
        for i, r in enumerate(self._queue):
            if r.event is handle:
                del self._queue[i]
                if r.deadline_at is not None:
                    self._deadline_queued -= 1
                self.cancelled += 1
                self.bytes_cancelled += r.nbytes
                if r.root_sid >= 0:
                    self._finish_terminal(r.trace_id, r.root_sid, "cancelled")
                r.event.fail(TransferCancelled(r.src, r.dst))
                self._update_governor()
                return True
        return False

    # ------------------------------------------------------------------
    def _predict_service_time(
        self, src: int, dst: int, nbytes: int
    ) -> float | None:
        """Model-predicted completion time for deadline admission.

        Planned through the transport's one path-selection ladder
        (``CudaIpcModule.plan_avoiding``) at the current degrade level, so
        admission prices the plan the dispatch would run: the pair's
        *surviving* capacity (a half-quarantined pair doesn't over-admit),
        or the configured set when every path is unhealthy.  ``None`` when
        the pair has no usable path (admission then proceeds
        optimistically and the failure surfaces in execution, where
        recovery can act on it).
        """
        if not self.config.multipath:
            return None
        ctx = self.context
        # unhealthy_paths is a pure read: no probe side effect
        avoid = (ctx.health.unhealthy_paths(src, dst),)
        try:
            plan = ctx.cuda_ipc.plan_avoiding(
                src, dst, nbytes, avoid, degrade=self.governor.degrade_level
            )
        except ValueError:
            return None
        return plan.predicted_time

    def _reject(
        self,
        src: int,
        dst: int,
        nbytes: int,
        deadline_at: float,
        predicted: float,
        trace_id: int,
        root_sid: int,
    ) -> "Event":
        """Fast-fail a submit whose deadline is provably unreachable."""
        self.rejected += 1
        self.bytes_rejected += nbytes
        if root_sid >= 0:
            self._finish_terminal(trace_id, root_sid, "rejected")
        ev = self.engine.event()
        ev.fail(
            DeadlineUnsatisfiable(src, dst, deadline_at, predicted=predicted)
        )
        return ev

    # ------------------------------------------------------------------
    def _choose_shed_victim(self, src: int, dst: int, nbytes: int):
        """Pick who pays for a full admission queue (see shed_policy)."""
        policy = self.config.shed_policy
        if policy == "reject-newest":
            return _INCOMING
        queued = self._queue
        if not queued:
            return _INCOMING
        if policy == "reject-cheapest":
            # Cheapest-to-retry: the smallest transfer (oldest wins ties).
            victim = min(queued, key=lambda r: (r.nbytes, r.seq))
            return _INCOMING if nbytes <= victim.nbytes else victim
        # tenant-fair: shed a seeded-random member of the most-queued pair
        # (the incoming request counts toward its own pair).
        counts: dict[tuple[int, int], int] = {(src, dst): 1}
        for r in queued:
            pair = (r.src, r.dst)
            counts[pair] = counts.get(pair, 0) + 1
        worst = max(counts.items(), key=lambda kv: (kv[1], kv[0]))[0]
        candidates: list = [r for r in queued if (r.src, r.dst) == worst]
        if worst == (src, dst):
            candidates.append(_INCOMING)
        return candidates[self._shed_rng.randrange(len(candidates))]

    def _shed_incoming(
        self, src: int, dst: int, nbytes: int, trace_id: int, root_sid: int
    ) -> "Event":
        self._account_shed(nbytes)
        if root_sid >= 0:
            self._finish_terminal(trace_id, root_sid, "shed")
        ev = self.engine.event()
        ev.fail(TransferShed(src, dst, policy=self.config.shed_policy))
        return ev

    def _shed_queued(self, victim: _QueuedRequest) -> None:
        self._queue = [r for r in self._queue if r is not victim]
        if victim.deadline_at is not None:
            self._deadline_queued -= 1
        self._account_shed(victim.nbytes)
        if victim.root_sid >= 0:
            self._finish_terminal(victim.trace_id, victim.root_sid, "shed")
        victim.event.fail(
            TransferShed(victim.src, victim.dst, policy=self.config.shed_policy)
        )

    def _account_shed(self, nbytes: int) -> None:
        self.shed += 1
        self.bytes_shed += nbytes

    # ------------------------------------------------------------------
    def _expiry_sweep(self) -> None:
        """Engine-flush hook: expire queued requests past their deadline.

        Must be a cheap no-op when nothing is pending — the guard is one
        integer compare, and the hook is only ever registered once the
        first deadline-carrying request queues.
        """
        if self._deadline_queued <= 0:
            return
        now = self.engine.now
        kept: list[_QueuedRequest] = []
        expired: list[_QueuedRequest] = []
        for r in self._queue:
            if r.deadline_at is not None and (
                now + (r.predicted or 0.0) > r.deadline_at * (1 + 1e-12)
            ):
                expired.append(r)
            else:
                kept.append(r)
        if not expired:
            return
        self._queue = kept
        for r in expired:
            self._deadline_queued -= 1
            self.expired += 1
            self.bytes_expired += r.nbytes
            if r.root_sid >= 0:
                self._finish_terminal(r.trace_id, r.root_sid, "expired")
            r.event.fail(
                DeadlineUnsatisfiable(
                    r.src,
                    r.dst,
                    r.deadline_at,
                    predicted=r.predicted,
                    message=(
                        f"GPU{r.src}->GPU{r.dst} expired in queue at "
                        f"t={now:.6g}s (deadline {r.deadline_at:.6g}s)"
                    ),
                )
            )
        self._update_governor()

    # ------------------------------------------------------------------
    def _update_governor(self) -> None:
        """Re-evaluate the overload governor against the queue depth."""
        gov = self.governor
        if gov.enabled:
            gov.update(self.queue_depth, self.engine.now)

    # ------------------------------------------------------------------
    def _can_admit(self, src: int, dst: int) -> bool:
        cfg = self.config
        if (
            cfg.max_inflight_total is not None
            and self._inflight_total >= cfg.max_inflight_total
        ):
            return False
        if cfg.max_inflight_per_pair is not None:
            if (
                self._inflight_pair.get((src, dst), 0)
                >= cfg.max_inflight_per_pair
            ):
                return False
        return True

    def _dispatch(
        self,
        src: int,
        dst: int,
        nbytes: int,
        tag: str,
        trace_id: int = -1,
        root_sid: int = -1,
        deadline_at: float | None = None,
    ) -> "Event":
        pair = (src, dst)
        self._inflight_pair[pair] = self._inflight_pair.get(pair, 0) + 1
        self._inflight_total += 1
        self._bytes_inflight += nbytes
        if self._inflight_total > self.peak_inflight:
            self.peak_inflight = self._inflight_total
        ev = self.context.cuda_ipc.start_put(
            src,
            dst,
            nbytes,
            tag=tag,
            trace=(trace_id, root_sid),
            deadline_at=deadline_at,
        )
        # One completion callback: it settles the trace *before* pumping
        # the queue, so a trace's own spans close before the next
        # transfer's open.
        ev.add_callback(
            lambda e, pair=pair, t=trace_id, r=root_sid, n=nbytes: self._on_done(
                pair, e, t, r, n
            )
        )
        return ev

    def _finish_trace(self, trace_id: int, root_sid: int, ev: "Event") -> None:
        """Record the ``settle`` marker and close the trace's root span."""
        flight = self.context.flight
        if ev.ok:
            result = ev.value
            attrs = (SETTLE_KEYS, True, result.retries, result.rerouted_bytes)
        else:
            attrs = {"ok": False}
        flight.settle(trace_id, root_sid, attrs)

    def _finish_terminal(self, trace_id: int, root_sid: int, outcome: str) -> None:
        """Settle a trace that never dispatched (shed/expired/cancelled/...)."""
        self.context.flight.settle(
            trace_id, root_sid, {"ok": False, "outcome": outcome}
        )

    def _on_done(
        self,
        pair: tuple[int, int],
        ev: "Event",
        trace_id: int = -1,
        root_sid: int = -1,
        nbytes: int = 0,
    ) -> None:
        if root_sid >= 0:
            self._finish_trace(trace_id, root_sid, ev)
        self._inflight_total -= 1
        self._bytes_inflight -= nbytes
        left = self._inflight_pair.get(pair, 0) - 1
        if left > 0:
            self._inflight_pair[pair] = left
        else:
            self._inflight_pair.pop(pair, None)
        if ev.ok:
            self.completed += 1
            self.bytes_delivered += nbytes
        else:
            self.failed += 1
            self.bytes_failed += nbytes
        self._pump()

    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Dispatch admissible queued requests in FIFO order.

        A pair whose head request cannot be admitted blocks *that pair's*
        later requests (preserving per-pair ordering) but not other pairs'.
        """
        if not self._queue:
            return
        remaining: list[_QueuedRequest] = []
        blocked: set[tuple[int, int]] = set()
        queue, self._queue = self._queue, []
        for req in queue:
            pair = (req.src, req.dst)
            if pair in blocked or not self._can_admit(req.src, req.dst):
                blocked.add(pair)
                remaining.append(req)
                continue
            if req.deadline_at is not None:
                self._deadline_queued -= 1
            self._dispatch_queued(req)
        remaining.extend(self._queue)
        self._queue = remaining
        self._update_governor()

    def _dispatch_queued(self, req: _QueuedRequest) -> None:
        now = self.engine.now
        waited = now - req.enqueued_at
        self.queue_time_total += waited
        self.governor.observe_wait(waited)
        if req.root_sid >= 0:
            # one-shot queue span (enqueue -> dispatch); recording it
            # feeds the queue_wait stage aggregate
            self.context.flight.record(
                "admission.queue",
                req.trace_id,
                req.root_sid,
                req.enqueued_at,
                now,
                {"nbytes": req.nbytes},
            )
        self.dispatched_queued += 1
        put = self._dispatch(
            req.src,
            req.dst,
            req.nbytes,
            req.tag,
            req.trace_id,
            req.root_sid,
            deadline_at=req.deadline_at,
        )

        def settle(ev, event=req.event):
            if ev.ok:
                event.succeed(ev.value)
            else:
                event.fail(ev._exception)

        put.add_callback(settle)

    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """Structured run statistics, pulled by a metrics collector."""
        return {
            "submitted": self.submitted,
            "queued": self.queued,
            "dispatched_direct": self.dispatched_direct,
            "dispatched_queued": self.dispatched_queued,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "expired": self.expired,
            "cancelled": self.cancelled,
            "shed": self.shed,
            "queue_depth": self.queue_depth,
            "peak_queue_depth": self.peak_queue_depth,
            "inflight": self._inflight_total,
            "peak_inflight": self.peak_inflight,
            "queue_time_total": self.queue_time_total,
            "bytes": {
                "submitted": self.bytes_submitted,
                "delivered": self.bytes_delivered,
                "failed": self.bytes_failed,
                "shed": self.bytes_shed,
                "expired": self.bytes_expired,
                "cancelled": self.bytes_cancelled,
                "rejected": self.bytes_rejected,
                "inflight": self._bytes_inflight,
            },
            "overload": self.governor.snapshot(),
            "retry_budget": self.retry_budget.snapshot(),
            "load": self.load.stats_snapshot(),
            "graphs": self.context.graphs.stats(),
        }


__all__ = ["TransferManager"]
