"""A minimal deterministic discrete-event engine with coroutine processes.

The engine follows the SimPy execution model (generator-based processes that
``yield`` events) but is purpose-built and dependency-free:

* :class:`Event` — one-shot occurrence carrying a value or an exception;
* :class:`Timeout` — an event scheduled at ``now + delay``;
* :class:`Process` — a generator driven by the engine; itself an event that
  triggers when the generator returns, so processes can wait on each other;
* :class:`AllOf` — the barrier combinator;
* :class:`Engine` — the event heap and clock.

Determinism: events scheduled for the same timestamp fire in scheduling
order (a monotonically increasing sequence number breaks ties), so repeated
runs of the same program produce identical timelines.

Event core layout
-----------------

A heap entry is the scheduled record itself: a list ``[time, seq, fn,
arg]`` ordered by ``(time, seq)``.  ``seq`` is unique, so a comparison
never reaches ``fn``.  There is one entry kind:

* :meth:`Engine.schedule_fn` schedules a bare ``fn(arg)`` call with *no*
  :class:`Event` allocation, no callback list and no closure — the fluid
  fabric uses it for every admission timer and bandwidth wakeup, and a
  stream uses it for every fixed-cost delay.  It returns the entry as
  its handle; :meth:`Engine.cancel_handle` tombstones it in O(1) by
  clearing its ``fn`` without touching the heap.
* A scheduled :class:`Event` (:class:`Timeout`, :meth:`Engine.call_at`)
  is the same entry holding the event's fire method and value.
* :meth:`Engine.run` drains the heap **one timestamp at a time**: all
  entries sharing the front timestamp execute back-to-back, then the
  engine's *flush hooks* run once before the clock moves.  Subscribers
  (:meth:`add_flush_hook`) use this to coalesce per-event recomputation
  into per-timestamp recomputation — see ``Fabric``'s deferred max-min
  solve.  ``run(until=<Event>)`` still stops at the exact triggering
  event, leaving the rest of its timestamp batch queued, so the
  single-step semantics callers rely on are unchanged.

An entry's ``fn`` is cleared when it fires or is cancelled, so cancelling
a fired handle is a no-op.  Cancellation is lazy: the stale entry is
skipped — without advancing the clock — when popped; once tombstones
dominate the heap it is compacted in place, in one pass, so a running
:meth:`Engine.run` keeps popping the same list.
"""

from __future__ import annotations

from collections.abc import Generator, Iterable
from heapq import heapify, heappop, heappush
from typing import Any

_PENDING = object()


class SimError(RuntimeError):
    """Raised for illegal engine operations (double-trigger, deadlock...)."""


class Event:
    """A one-shot occurrence in simulated time.

    Processes wait on events by yielding them.  An event is *triggered* once
    :meth:`succeed` or :meth:`fail` is called; callbacks run when the engine
    processes it (immediately upon triggering, in this implementation —
    triggering is always initiated from engine context).
    """

    __slots__ = (
        "engine",
        "callbacks",
        "_value",
        "_exception",
        "triggered",
        "cancelled",
        "_entry",
    )

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: list = []
        self._value: Any = _PENDING
        self._exception: BaseException | None = None
        self.triggered = False
        self.cancelled = False
        self._entry: list | None = None  # heap entry once scheduled

    # ------------------------------------------------------------------
    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimError("event value not yet available")
        return self._value

    @property
    def ok(self) -> bool:
        return self.triggered and self._exception is None

    def succeed(self, value: Any = None) -> "Event":
        if self.triggered:
            raise SimError("event already triggered")
        if self.cancelled:
            raise SimError("event was cancelled")
        self.triggered = True
        self._value = value
        self._dispatch()
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self.triggered:
            raise SimError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self.triggered = True
        self._value = None
        self._exception = exception
        self._dispatch()
        return self

    def _fire(self, value: Any) -> None:
        """Heap-entry callback of a scheduled event (see ``Engine._schedule``)."""
        if not self.triggered:
            self.succeed(value)

    def _dispatch(self) -> None:
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)

    def add_callback(self, callback) -> None:
        """Run ``callback(event)`` when triggered (immediately if already).

        Registering on a *cancelled* event is an error: the event can never
        trigger, so the callback would silently never run (the classic
        symptom was a process yielding a cancelled event and deadlocking).
        """
        if self.triggered:
            callback(self)
        elif self.cancelled:
            raise SimError(
                "add_callback on a cancelled event: it will never trigger"
            )
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at t={self.engine.now:.3e}>"


class Timeout(Event):
    """An event that succeeds ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(engine)
        self.delay = float(delay)
        engine._schedule(engine.now + self.delay, self, value)


class AllOf(Event):
    """Succeeds when all child events have succeeded; value = list of values.

    Fails fast with the first child failure.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine)
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for ev in self._children:
            ev.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event._exception)  # type: ignore[arg-type]
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([ev.value for ev in self._children])


class Process(Event):
    """A generator-based coroutine driven by the engine.

    The generator yields :class:`Event` instances (including other
    processes); it is resumed with the event's value, or the event's
    exception is thrown into it.  When the generator returns, the process —
    itself an event — succeeds with the return value.
    """

    __slots__ = ("generator", "name", "_waiting_on")

    def __init__(
        self, engine: "Engine", generator: Generator, name: str = ""
    ) -> None:
        super().__init__(engine)
        if not isinstance(generator, Generator):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__} "
                "(did you forget a yield in the process function?)"
            )
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Event | None = None
        # Kick off on the next engine step at the current time.
        engine.schedule_fn(engine.now, self._start, None)

    def _start(self, _arg: Any) -> None:
        if not self.triggered:  # not failed/aborted before starting
            self._step(None, None)

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        self._step(event._value, event._exception)

    def _step(self, value: Any, exception: BaseException | None) -> None:
        try:
            if exception is None:
                target = self.generator.send(value)
            else:
                target = self.generator.throw(exception)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate into waiters
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(exc)
            return
        if not isinstance(target, Event):
            self.generator.close()
            self.fail(
                SimError(
                    f"process {self.name!r} yielded {target!r}; "
                    "processes must yield Event instances"
                )
            )
            return
        if target.cancelled and not target.triggered:
            # A cancelled event never triggers; registering would deadlock
            # the process silently.  Fail loudly instead, inside the
            # generator first so it can release resources via try/finally.
            self.generator.close()
            self.fail(
                SimError(
                    f"process {self.name!r} yielded a cancelled event; "
                    "it would never resume"
                )
            )
            return
        self._waiting_on = target
        target.add_callback(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "running"
        return f"<Process {self.name} {state}>"


class Engine:
    """The simulation clock and the event heap."""

    #: Tombstone compaction policy: rebuild the heap once cancelled entries
    #: are numerous in absolute terms *and* make up at least half of it.
    _COMPACT_MIN_TOMBSTONES = 64

    def __init__(self) -> None:
        self.now: float = 0.0
        #: Binary heap of ``[time, seq, fn, arg]`` entries; seq breaks
        #: same-time ties in scheduling order, and ``fn`` is None once the
        #: entry fired or was cancelled (a tombstone while still queued).
        self._heap: list[list] = []
        self._seq = 0
        self._running = False
        self._tombstones = 0  # cancelled entries still on the heap
        self._live = 0  # non-tombstoned heap entries
        self._flush_hooks: list = []
        self.events_processed = 0
        self.events_cancelled = 0
        self.heap_compactions = 0
        self.peak_queued = 0

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _schedule(self, at: float, event: Event, value: Any) -> None:
        """Schedule ``event`` to succeed with ``value`` at time ``at``."""
        if at < self.now:
            raise SimError(f"cannot schedule in the past ({at} < {self.now})")
        self._seq += 1
        entry = [at, self._seq, event._fire, value]
        event._entry = entry
        heappush(self._heap, entry)
        self._live += 1
        if self._live > self.peak_queued:
            self.peak_queued = self._live

    def schedule_fn(self, at: float, fn, arg: Any = None) -> list:
        """Schedule a bare ``fn(arg)`` call at time ``at`` (>= now).

        The fast scheduling path: no :class:`Event` is allocated and no
        callback list is built.  Returns the heap entry, the handle
        :meth:`cancel_handle` accepts.
        """
        if at < self.now:
            raise SimError(f"cannot schedule in the past ({at} < {self.now})")
        self._seq += 1
        entry = [at, self._seq, fn, arg]
        heappush(self._heap, entry)
        self._live += 1
        if self._live > self.peak_queued:
            self.peak_queued = self._live
        return entry

    def call_at(self, at: float) -> Event:
        """An event succeeding at absolute time ``at`` (>= now)."""
        ev = Event(self)
        self._schedule(at, ev, None)
        return ev

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def cancel(self, event: Event) -> bool:
        """Lazily cancel a pending scheduled event (tombstone it).

        The heap entry is cleared immediately; it is skipped — without
        advancing the clock — when popped.  Once tombstones dominate the
        heap it is compacted in one pass.  Returns False (a no-op) for
        events already triggered or cancelled.
        """
        if event.triggered or event.cancelled:
            return False
        event.cancelled = True
        entry = event._entry
        if entry is not None and entry[2] is not None:
            entry[2] = entry[3] = None
            self._tombstone()
        self.events_cancelled += 1
        return True

    def cancel_handle(self, handle: list) -> bool:
        """Cancel a pending :meth:`schedule_fn` entry by its handle.

        O(1): clears the entry; the heap drops it lazily.  Returns False
        if the entry already fired or was already cancelled.
        """
        if handle[2] is None:
            return False
        handle[2] = handle[3] = None
        self._tombstone()
        self.events_cancelled += 1
        return True

    def _tombstone(self) -> None:
        self._live -= 1
        self._tombstones += 1
        heap = self._heap
        if (
            self._tombstones >= self._COMPACT_MIN_TOMBSTONES
            and 2 * self._tombstones >= len(heap)
        ):
            # In place: run() holds this list and keeps popping it.
            heap[:] = [entry for entry in heap if entry[2] is not None]
            heapify(heap)
            self._tombstones = 0
            self.heap_compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def add_flush_hook(self, hook) -> None:
        """Register ``hook()`` to run after each drained timestamp batch.

        :meth:`run` executes every heap entry sharing the front timestamp,
        then calls the hooks once before the clock can advance — letting
        subscribers coalesce per-event work (e.g. fluid-rate recomputation)
        into per-timestamp work.  Hooks also run when ``run`` returns
        mid-batch (``until=<Event>`` triggering), so observers always see
        flushed state.  Hooks must be cheap no-ops when there is nothing
        pending.
        """
        self._flush_hooks.append(hook)

    def _exec(self, entry: list) -> bool:
        """Execute one popped heap entry; False for a tombstone.

        The clock only advances for live entries: a tombstone's timestamp
        was cancelled and must never become ``now`` (previously the final
        clock could reflect a cancelled wakeup that never fired).
        """
        fn = entry[2]
        if fn is None:
            self._tombstones -= 1
            return False
        entry[2] = None
        self.now = entry[0]
        self._live -= 1
        self.events_processed += 1
        fn(entry[3])
        return True

    def step(self) -> None:
        """Pop and execute a single heap entry (tombstones are skipped
        without advancing the clock).  Prefer :meth:`run`, which batches
        same-timestamp entries and runs the flush hooks."""
        self._exec(heappop(self._heap))
        for hook in self._flush_hooks:
            hook()

    def _flush(self) -> None:
        for hook in self._flush_hooks:
            hook()

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the heap drains, a deadline passes, or an event fires.

        * ``until=None`` — drain all scheduled events.
        * ``until=<float>`` — advance the clock to that time.
        * ``until=<Event>`` — run until the event triggers and return its
          value (raising its exception on failure).  Raises :class:`SimError`
          if the simulation deadlocks before the event triggers.
        """
        if self._running:
            raise SimError("engine is not reentrant")
        self._running = True
        heap = self._heap
        hooks = self._flush_hooks
        try:
            if isinstance(until, Event):
                while not until.triggered:
                    if not heap:
                        self._flush()
                        if until.triggered:  # a hook completed it
                            break
                        if heap:  # a hook scheduled new work
                            continue
                        raise SimError(
                            "deadlock: event heap empty before target event "
                            "triggered"
                        )
                    # Drain the front timestamp batch, but stop at the exact
                    # entry that triggers `until`: the rest of its batch
                    # stays queued, preserving single-step semantics for
                    # callers that interleave run() with direct state reads.
                    entry = heappop(heap)
                    at = entry[0]
                    ran = self._exec(entry)
                    while (
                        not until.triggered
                        and heap
                        and heap[0][0] == at
                    ):
                        ran = self._exec(heappop(heap)) or ran
                    if ran and hooks:
                        self._flush()
                if until._exception is not None:
                    raise until._exception
                return until.value
            if until is None:
                while heap:
                    entry = heappop(heap)
                    at = entry[0]
                    ran = self._exec(entry)
                    while heap and heap[0][0] == at:
                        ran = self._exec(heappop(heap)) or ran
                    if ran and hooks:
                        self._flush()
                return None
            deadline = float(until)
            while heap and heap[0][0] <= deadline:
                entry = heappop(heap)
                at = entry[0]
                ran = self._exec(entry)
                while heap and heap[0][0] == at:
                    ran = self._exec(heappop(heap)) or ran
                if ran and hooks:
                    self._flush()
            self.now = max(self.now, deadline)
            return None
        finally:
            self._running = False

    @property
    def queued(self) -> int:
        return len(self._heap)

    def stats_snapshot(self) -> dict:
        """Cheap always-on counters, pulled by a metrics collector.

        ``peak_queued`` counts *live* entries only: tombstoned (cancelled)
        entries awaiting lazy removal are queue residue, not backlog.
        ``queued`` is the heap's length, which the books ``live`` and
        ``tombstones`` should sum to.
        """
        return {
            "now": self.now,
            "events_processed": self.events_processed,
            "events_cancelled": self.events_cancelled,
            "heap_compactions": self.heap_compactions,
            "queued": len(self._heap),
            "live": self._live,
            "tombstones": self._tombstones,
            "peak_queued": self.peak_queued,
        }


__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "SimError",
]
