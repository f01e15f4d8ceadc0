"""Causal transfer-lifecycle tracing: the always-on flight recorder.

Every transfer admitted to the system gets a **trace id**, and every layer
it crosses emits a parent-linked span into a :class:`FlightRecorder` — a
fixed-capacity ring of slab columns (``sid``, ``trace_id``, ``parent``,
``kind_id``, ``t0``, ``t1``, ``attrs``).  The numeric columns are typed
``array.array`` slabs, so a resident span is a handful of machine-word
writes and holds no allocation beyond its optional attrs tuple.  That
makes the recorder cheap enough to be **on by default**, so a production
run always carries the evidence needed to answer "where did this
transfer's time go?" after the fact:

``transfer`` (root, submit → settle)
  └─ ``admission.queue``   — waiting for an in-flight cap (only if queued)
  └─ ``plan`` / ``plan.cache_hit``   — Algorithm-1 invocation (Δsim = 0)
  └─ ``pipeline.path[i]``  — one per executed path
       └─ ``pipeline.path[i].chunk[j]``   — staged-path chunk completions
  └─ ``recovery.retry[k]`` — one per replan round after a path fault
       └─ ``pipeline.path[i]`` …          — the retry's path spans
  └─ ``settle``            — completion marker carrying the result attrs

Span identity is a monotonically increasing **span id** (sid); the ring
slot is ``sid % capacity``, so a slot's current occupant is recognised by
``sid`` match and eviction is implicit — old spans fall off the ring and
are counted in :attr:`FlightRecorder.dropped`, never reallocated.  Parent
links are by sid, which keeps them valid (or detectably evicted) across
wraps.

The recorder is **journalled**: recording appends one small tuple to a
write-ahead log (sids are reserved eagerly, so ids stay chronological),
and the slab ring + per-stage latency aggregates are materialised in
batches — on any query, or when the journal reaches its bound
(``capacity/64`` entries, at least 256).  A span on the transfer critical
path therefore costs a method call and a list append; the scattered slab
writes happen later in one cache-friendly pass that the simulation's hot
loop never sees.

Attributes are captured **by value**, when a span is recorded, as one
packed tuple ``(keys, *values)``; the recorder never keeps the caller's
dict.  Every span of one schema shares its ``keys`` tuple, so a resident
span's attributes cost one tuple of value pointers, not a dict: 80 bytes
for four values where the dict took 184, and 104 for a settled root's
seven where it took 272.  The four spans every put records build their
tuples themselves from the key schemas below (``TRANSFER_KEYS`` at
submit, ``SETTLE_KEYS`` at its settle, ``PLAN_KEYS`` for the ``plan*``
span and ``PATH_KEYS`` for each ``pipeline.path[i]``); packing those four
dicts inside the recorder instead cost p2p_cold about 2 % of its puts per
CPU-second.  Any other caller passes a dict, packed on entry with its key
tuple interned per recorder.  A merge (``finish`` with attrs, or a
``settle`` onto its root) follows ``dict.update``: keys the span lacks
follow its own, and a key it already has keeps its position and takes the
later value.  The merged schema is resolved once per pair of schemas;
disjoint ones concatenate.  :attr:`SpanView.attrs` rebuilds a fresh dict,
so every reader sees what a dict column held.  DESIGN §5f has the
measured table.

Timestamps come from the simulation clock.  Per-stage latency aggregates
(queue-wait, planning, execution, recovery) are fed at materialisation:
the stage a span kind feeds is resolved once when the kind string is
interned (``pipeline.path[3]`` → the ``execution`` stage, per-path), so
no string inspection happens per span.  Planning cost is wall-clock, not
simulated time, and rides along explicitly as a ``stage_value``.

The recorder never schedules events and never mutates simulation state, so
timelines with the recorder on are bit-identical to recorder-off runs
(certified by ``tests/test_timeline_invariance.py``).

On top of the ring sits :class:`TraceTree`, the query API the CLI renders:
``slowest(n)``, ``breakdown(trace_id)``, ``by_pair(src, dst)``.
"""

from __future__ import annotations

import re
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

#: Default ring capacity (spans). ~65k spans at ~20 spans per traced
#: transfer keeps the last ~3k transfers' complete stories resident.
DEFAULT_CAPACITY = 65_536

#: Sentinel for "span still open" in the t1 array.
_OPEN = -1.0

#: Key schemas of the four spans every put records.  Their recording sites
#: build the packed ``(keys, *values)`` attrs tuple from these, so no dict
#: is built or kept for them.
TRANSFER_KEYS = ("src", "dst", "nbytes", "tag")  # the transfer root
SETTLE_KEYS = ("ok", "retries", "rerouted_bytes")  # a successful settle
PLAN_KEYS = ("mode", "paths", "predicted", "wall_time_s")  # plan*
PLAN_LOAD_KEYS = (*PLAN_KEYS, "load_bucket")  # plan* priced against load
PATH_KEYS = ("path", "nbytes", "chunks", "theta")  # pipeline.path[i]
PATH_FAILED_KEYS = (*PATH_KEYS, "ok")  # a faulted path (ok=False)

#: The latency stages aggregated per recorder (`stage_stats`).
STAGES = ("queue_wait", "planning", "execution", "recovery")

#: Normalised span kind (``[...]`` indices stripped) → the latency stage
#: its duration feeds when the span materialises.  ``execution`` is fed
#: per executed path; ``planning`` spans are instantaneous in simulated
#: time and carry their wall-clock cost as an explicit ``stage_value``.
_KIND_STAGE = {
    "admission.queue": "queue_wait",
    "recovery.retry": "recovery",
    "pipeline.path": "execution",
    "plan": "planning",
    "plan.cache_hit": "planning",
    "plan.graph_hit": "planning",
}

_INDEX_RE = re.compile(r"\[\d+\]")

# Journal opcodes (first element of each logged tuple); attrs are packed.
_OP_SPAN = 0  # (op, sid, kind, trace, parent, t0, t1, attrs, stage_value)
_OP_FIN = 1  # (op, sid, t1, attrs)
_OP_PATH = 2  # (op, sid, kind, trace, parent, t0, t1, attrs, ckinds, ct0s)
_OP_SETTLE = 3  # (op, sid, trace, root_sid, t, attrs)


class _StageStat:
    """Lean latency aggregate: exact count/mean/min/max plus percentiles
    over the 4096 most recent observations.

    The one latency aggregate in the package: queue wait, planning wall
    time, per-path execution and recovery all land here.  Observe is a few
    attribute writes and a bounded deque append, cheap enough for span
    materialisation under the 3 % tracing budget; percentiles come from
    the retained window (the most recent values), which is the right bias
    for a flight recorder anyway.
    """

    __slots__ = ("count", "total", "min", "max", "values")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0
        self.values: deque = deque(maxlen=4096)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.values.append(value)

    def snapshot(self) -> dict:
        """count/mean/min/max plus p50/p90/p99 over the window."""
        if not self.count:
            return {
                "count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                "p50": 0.0, "p90": 0.0, "p99": 0.0,
            }
        vals = sorted(self.values)
        last = len(vals) - 1

        def q(p: float) -> float:
            return vals[min(last, int(p * last + 0.5))]

        return {
            "count": self.count,
            "mean": self.total / self.count,
            "min": self.min,
            "max": self.max,
            "p50": q(0.50),
            "p90": q(0.90),
            "p99": q(0.99),
        }


@dataclass(frozen=True)
class SpanView:
    """One recorded span, materialised out of the ring for queries."""

    sid: int
    trace_id: int
    parent: int  # parent sid; -1 for roots
    kind: str
    t0: float
    t1: float  # == t0 for markers; -1.0 while still open
    attrs: dict = field(default_factory=dict)

    @property
    def open(self) -> bool:
        return self.t1 == _OPEN

    @property
    def duration(self) -> float:
        return 0.0 if self.open else self.t1 - self.t0


class FlightRecorder:
    """Fixed-capacity, slab-backed ring of parent-linked spans."""

    def __init__(
        self,
        engine: "Engine",
        *,
        capacity: int = DEFAULT_CAPACITY,
        enabled: bool = True,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.enabled = enabled
        # The ring: parallel slab columns, slot = sid % capacity.  _sid
        # holds the occupant's span id (-1 = never used), which
        # disambiguates a slot across wraps without a free list: eviction
        # is overwrite.  The six numeric columns are typed arrays (8 bytes
        # a slot, 4 for the kind id), not lists of boxed ints and floats;
        # only _attrs holds objects, each None or a packed (keys, *values)
        # tuple.  Allocation is deferred to the first materialisation —
        # sweeps and searches build thousands of short-lived contexts
        # whose journals never drain, and a fresh recorder must cost
        # microseconds, not a capacity-sized allocation.
        self._sid: array | None = None
        self._trace: array | None = None
        self._parent: array | None = None
        self._kind: array | None = None
        self._t0: array | None = None
        self._t1: array | None = None
        self._attrs: list | None = None
        # Interned kind strings: span records carry small ints.  The
        # latency stage a kind feeds (or None) is resolved at intern time,
        # so finish() never inspects the kind string.
        self._kind_ids: dict[str, int] = {}
        self._kind_names: list[str] = []
        self._kind_stage: list[str | None] = []
        # Packed attrs: each key tuple packed from a dict, interned so the
        # spans of one schema share it, and per pair of key tuples the
        # merged keys and whether the pair shares no key.
        self._schemas: dict[tuple, tuple] = {}
        self._merged: dict[tuple[tuple, tuple], tuple[tuple, bool]] = {}
        self._next_sid = 0
        self._next_trace = 0
        # The write-ahead journal: recording appends here; the ring and
        # stage aggregates materialise in batches (`_drain`).  Sids are
        # reserved at append time, so span ids stay chronological.  The
        # bound is a small share of the ring: undrained entries (and the
        # landed copy events a path entry holds) sit on top of a full
        # ring, and a batch of ~1k entries already amortises the drain.
        self._log: list[tuple] = []
        self.journal_limit = max(256, capacity // 64)
        # Exact running totals (ring eviction never loses the aggregates).
        self.dropped = 0  # finished spans evicted by ring wrap
        self.dropped_open = 0  # spans evicted before being finished
        self.traces_started = 0
        self._stage_hist = {s: _StageStat() for s in STAGES}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _intern(self, kind: str) -> int:
        """Slow path: first sight of a kind string.

        Strips the per-instance ``[i]`` indices (``pipeline.path[3]`` →
        ``pipeline.path``) to resolve the latency stage the kind feeds,
        once, so materialisation never inspects the string again.
        """
        kid = self._kind_ids[kind] = len(self._kind_names)
        self._kind_names.append(kind)
        self._kind_stage.append(_KIND_STAGE.get(_INDEX_RE.sub("", kind)))
        return kid

    def _packed(self, attrs: dict | tuple | None) -> tuple | None:
        """``attrs`` as the ring stores them: a dict's items by value, as
        ``(keys, *values)`` with the key tuple interned so each schema's
        spans share one (None if empty); a packed tuple or None as is."""
        if not isinstance(attrs, dict):
            return attrs
        if not attrs:
            return None
        keys = tuple(attrs)
        return (self._schemas.setdefault(keys, keys), *attrs.values())

    def _merge(self, old: tuple | None, new: tuple) -> tuple:
        """``dict.update`` on packed attrs: ``new``'s other keys follow
        ``old``'s, and a key in both keeps its place with ``new``'s value.
        The merged schema is resolved once per pair of key tuples."""
        if old is None:
            return new
        pair = (old[0], new[0])
        merged = self._merged.get(pair)
        if merged is None:
            keys = tuple(dict.fromkeys((*old[0], *new[0])))
            merged = self._merged[pair] = (
                self._schemas.setdefault(keys, keys),
                len(keys) == len(old[0]) + len(new[0]),
            )
        keys, disjoint = merged
        if disjoint:
            return (keys, *old[1:], *new[1:])
        values = dict(zip(old[0], old[1:]))
        values.update(zip(new[0], new[1:]))
        return (keys, *values.values())

    def begin_trace(
        self, kind: str, attrs: dict | tuple | None = None
    ) -> tuple[int, int]:
        """Mint a trace and open its root span in one call.

        Returns ``(trace_id, root_sid)``, both -1 when disabled.  This is
        the per-transfer admission fast path; it also polices the journal
        bound, so every transfer pays exactly one length check.  Every
        recording call takes ``attrs`` as a dict, copied on entry, or as a
        packed ``(keys, *values)`` tuple, kept as it is.
        """
        if not self.enabled:
            return -1, -1
        attrs = self._packed(attrs)
        log = self._log
        if len(log) >= self.journal_limit:
            self._drain()
            log = self._log
        tid = self._next_trace
        self._next_trace = tid + 1
        self.traces_started += 1
        sid = self._next_sid
        self._next_sid = sid + 1
        log.append((_OP_SPAN, sid, kind, tid, -1, self.engine.now, _OPEN, attrs, None))
        return tid, sid

    def begin(
        self,
        kind: str,
        trace_id: int,
        parent: int = -1,
        t0: float | None = None,
        attrs: dict | tuple | None = None,
    ) -> int:
        """Open a span; returns its sid (pass to :meth:`finish`).

        Returns -1 when disabled.
        """
        if not self.enabled:
            return -1
        attrs = self._packed(attrs)
        if len(self._log) >= self.journal_limit:
            self._drain()
        sid = self._next_sid
        self._next_sid = sid + 1
        self._log.append((
            _OP_SPAN, sid, kind, trace_id, parent,
            self.engine.now if t0 is None else t0, _OPEN, attrs, None,
        ))
        return sid

    def finish(
        self,
        sid: int,
        t1: float | None = None,
        attrs: dict | tuple | None = None,
        **kw,
    ) -> bool:
        """Close a span opened with :meth:`begin`/:meth:`begin_trace`.

        Result attributes merge into the span's, as ``dict.update`` would:
        pass them via ``attrs`` or as ad-hoc keywords (``ok=False``), or
        both (keywords win).  Returns False when disabled or the sid is
        invalid; a close that arrives after the span was evicted is
        dropped at materialisation.
        """
        if sid < 0 or not self.enabled:
            return False
        attrs = self._packed(attrs)
        if kw:
            attrs = self._merge(attrs, self._packed(kw))
        self._log.append((_OP_FIN, sid, self.engine.now if t1 is None else t1, attrs))
        return True

    def record(
        self,
        kind: str,
        trace_id: int,
        parent: int = -1,
        t0: float | None = None,
        t1: float | None = None,
        attrs: dict | tuple | None = None,
        stage_value: float | None = None,
    ) -> int:
        """Record an already-bounded span in one shot; returns its sid.

        The single-call path for every span whose end is known when it is
        reported (queue waits, markers, plan invocations).  ``t1`` defaults
        to ``t0`` (an instantaneous marker).  ``stage_value`` overrides the
        observation fed to the kind's latency stage — planning spans are
        instantaneous in simulated time but carry real wall-clock cost.
        """
        if not self.enabled:
            return -1
        attrs = self._packed(attrs)
        if len(self._log) >= self.journal_limit:
            self._drain()
        sid = self._next_sid
        self._next_sid = sid + 1
        if t0 is None:
            t0 = self.engine.now
        self._log.append((
            _OP_SPAN, sid, kind, trace_id, parent, t0,
            t0 if t1 is None else t1, attrs, stage_value,
        ))
        return sid

    def record_path(
        self,
        kind: str,
        trace_id: int,
        parent: int,
        t0: float,
        t1: float,
        attrs: dict | tuple | None,
        chunk_kinds=(),
        chunk_events=(),
    ) -> int:
        """Record a path-execution span and its chunk markers in one call.

        The pipeline fast path: the span plus ``len(chunk_kinds)`` child
        markers cost one journal append.  ``chunk_events`` are completed
        copy events whose ``value.end`` is each chunk's delivery time —
        extraction is deferred to materialisation, so the critical path
        never walks the chunk list.  Returns the path span's sid; chunk
        sids follow it.
        """
        if not self.enabled:
            return -1
        attrs = self._packed(attrs)
        sid = self._next_sid
        self._next_sid = sid + 1 + len(chunk_kinds)
        self._log.append((
            _OP_PATH, sid, kind, trace_id, parent, t0, t1, attrs,
            chunk_kinds, chunk_events,
        ))
        return sid

    def settle(
        self, trace_id: int, root_sid: int, attrs: dict | tuple | None
    ) -> None:
        """Record the ``settle`` marker and close the root span, one call.

        The completion fast path: every traced transfer ends here (or in
        an equivalent ``record`` + ``finish`` pair from a cold path).  The
        marker's attrs merge into the root's.
        """
        if root_sid < 0 or not self.enabled:
            return
        attrs = self._packed(attrs)
        sid = self._next_sid
        self._next_sid = sid + 1
        self._log.append((_OP_SETTLE, sid, trace_id, root_sid, self.engine.now, attrs))

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def _write(self, sid, kind, trace_id, parent, t0, t1, attrs, stage_value):
        """Materialise one span into its ring slot (eviction included)."""
        slot = sid % self.capacity
        if self._sid[slot] >= 0:  # evicting the wrapped-over occupant
            if self._t1[slot] == _OPEN:
                self.dropped_open += 1
            else:
                self.dropped += 1
        kid = self._kind_ids.get(kind)
        if kid is None:
            kid = self._intern(kind)
        self._sid[slot] = sid
        self._trace[slot] = trace_id
        self._parent[slot] = parent
        self._kind[slot] = kid
        self._t0[slot] = t0
        self._t1[slot] = t1
        self._attrs[slot] = attrs
        if t1 != _OPEN:
            stage = self._kind_stage[kid]
            if stage is not None:
                self._stage_hist[stage].observe(
                    t1 - t0 if stage_value is None else stage_value
                )

    def _drain(self) -> None:
        """Replay the journal into the slab ring and stage aggregates.

        Runs on any query and when the journal hits its bound, so the
        scattered slab writes happen in one cache-friendly batch off the
        transfer critical path.  Entry order is chronological and sids
        were reserved at append time, so materialisation is a pure replay:
        ring state, eviction counts, and stage stats end up exactly as if
        every span had been written eagerly.
        """
        log = self._log
        if not log:
            return
        self._log = []
        if self._sid is None:
            cap = self.capacity
            self._sid = array("q", (-1,)) * cap
            self._trace = array("q", (0,)) * cap
            self._parent = array("q", (0,)) * cap
            self._kind = array("i", (0,)) * cap
            self._t0 = array("d", (0.0,)) * cap
            self._t1 = array("d", (0.0,)) * cap
            self._attrs = [None] * cap
        write = self._write
        for e in log:
            op = e[0]
            if op == _OP_SPAN:
                write(e[1], e[2], e[3], e[4], e[5], e[6], e[7], e[8])
            elif op == _OP_PATH:
                _op, sid, kind, tid, parent, t0, t1, attrs, ckinds, cevs = e
                psid = sid
                write(sid, kind, tid, parent, t0, t1, attrs, None)
                for j, ev in enumerate(cevs):
                    sid += 1
                    ct0 = ev.value.end
                    write(sid, ckinds[j], tid, psid, ct0, ct0, None, None)
            elif op == _OP_FIN:
                _op, sid, t1, attrs = e
                slot = sid % self.capacity
                if self._sid[slot] != sid:
                    continue  # evicted while open
                self._t1[slot] = t1
                if attrs:
                    self._attrs[slot] = self._merge(self._attrs[slot], attrs)
                stage = self._kind_stage[self._kind[slot]]
                if stage is not None:
                    self._stage_hist[stage].observe(t1 - self._t0[slot])
            else:  # _OP_SETTLE
                _op, sid, tid, root_sid, t, attrs = e
                write(sid, "settle", tid, root_sid, t, t, attrs, None)
                slot = root_sid % self.capacity
                if self._sid[slot] == root_sid:
                    self._t1[slot] = t
                    if attrs:
                        self._attrs[slot] = self._merge(self._attrs[slot], attrs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Spans currently resident in the ring."""
        return min(self._next_sid, self.capacity)

    @property
    def spans_recorded(self) -> int:
        """Every span ever begun, evicted ones included."""
        return self._next_sid

    def get(self, sid: int) -> SpanView | None:
        """The span with this sid, or None if evicted / never recorded."""
        if not 0 <= sid < self._next_sid:
            return None
        self._drain()
        slot = sid % self.capacity
        if self._sid[slot] != sid:
            return None
        return self._view(slot)

    def _view(self, slot: int) -> SpanView:
        attrs = self._attrs[slot]
        return SpanView(
            sid=self._sid[slot],
            trace_id=self._trace[slot],
            parent=self._parent[slot],
            kind=self._kind_names[self._kind[slot]],
            t0=self._t0[slot],
            t1=self._t1[slot],
            attrs=dict(zip(attrs[0], attrs[1:])) if attrs else {},
        )

    def iter_spans(self):
        """Resident spans in sid (recording) order."""
        self._drain()
        first = max(0, self._next_sid - self.capacity)
        for sid in range(first, self._next_sid):
            slot = sid % self.capacity
            if self._sid[slot] == sid:
                yield self._view(slot)

    def stage_stats(self) -> dict:
        """Per-stage latency snapshots (count/mean/p50/p90/p99)."""
        self._drain()
        return {s: h.snapshot() for s, h in self._stage_hist.items()}

    def summary(self) -> dict:
        """Structured recorder statistics, pulled by a metrics collector."""
        self._drain()
        return {
            "capacity": self.capacity,
            "enabled": self.enabled,
            "spans_recorded": self.spans_recorded,
            "resident": len(self),
            "dropped": self.dropped,
            "dropped_open": self.dropped_open,
            "traces_started": self.traces_started,
            "stages": self.stage_stats(),
        }

    def clear(self) -> None:
        self._sid = None
        self._trace = None
        self._parent = None
        self._kind = None
        self._t0 = None
        self._t1 = None
        self._attrs = None
        self._log = []
        self._next_sid = 0
        self._next_trace = 0
        self.dropped = 0
        self.dropped_open = 0
        self.traces_started = 0
        self._stage_hist = {s: _StageStat() for s in STAGES}


# ----------------------------------------------------------------------
# Query API
# ----------------------------------------------------------------------

#: Span-kind prefix → breakdown stage, for per-trace stage accounting.
_BREAKDOWN_STAGE = (
    ("admission.queue", "queue"),
    ("plan", "plan"),
    ("recovery.retry", "recovery"),
    ("pipeline.path", "execute"),
)


@dataclass(frozen=True)
class TraceBreakdown:
    """One trace's reconstructed story: the root plus nested children."""

    trace_id: int
    root: SpanView
    spans: tuple[SpanView, ...]  # every resident span of the trace, by sid
    children: dict  # sid -> tuple of child SpanViews, in sid order
    stages: dict  # stage name -> seconds (see TraceTree.breakdown)

    def walk(self):
        """Yield ``(depth, span)`` depth-first from the root."""

        def rec(span: SpanView, depth: int):
            yield depth, span
            for child in self.children.get(span.sid, ()):
                yield from rec(child, depth + 1)

        yield from rec(self.root, 0)


class TraceTree:
    """Query layer over a recorder's resident spans.

    Materialises an index once at construction (cheap: one pass over the
    ring); build a fresh tree after more spans land.
    """

    def __init__(self, recorder: FlightRecorder) -> None:
        self.recorder = recorder
        self._by_trace: dict[int, list[SpanView]] = {}
        self._roots: dict[int, SpanView] = {}
        for span in recorder.iter_spans():
            self._by_trace.setdefault(span.trace_id, []).append(span)
            if span.parent < 0 and span.trace_id not in self._roots:
                self._roots[span.trace_id] = span

    # ------------------------------------------------------------------
    def trace_ids(self) -> list[int]:
        return sorted(self._by_trace)

    def roots(self) -> list[SpanView]:
        """Root spans of complete resident traces, in trace order."""
        return [self._roots[t] for t in sorted(self._roots)]

    def slowest(self, n: int = 10) -> list[SpanView]:
        """The ``n`` slowest *finished* transfers, slowest first."""
        closed = [r for r in self.roots() if not r.open]
        closed.sort(key=lambda s: (-s.duration, s.trace_id))
        return closed[:n]

    def by_pair(self, src: int, dst: int) -> list[SpanView]:
        """Root spans of traces moving bytes src → dst, in trace order."""
        return [
            r
            for r in self.roots()
            if r.attrs.get("src") == src and r.attrs.get("dst") == dst
        ]

    def breakdown(self, trace_id: int) -> TraceBreakdown:
        """Reconstruct one trace's parent-linked stage breakdown.

        ``queue`` and ``recovery`` sum their spans' simulated durations and
        ``plan`` the planners' wall time.  ``execute`` is the interval
        from the first start to the last end of the root's direct
        ``pipeline.path[i]`` spans, faulted or not: concurrent paths count
        once, and retry rounds (whose paths hang under their
        ``recovery.retry[k]`` span) count only in ``recovery``.  So
        queue + execute + recovery never exceeds the root's duration.

        Raises :class:`KeyError` when the trace has no resident root
        (never recorded, or evicted from the ring).
        """
        root = self._roots.get(trace_id)
        if root is None:
            raise KeyError(
                f"trace {trace_id}: no resident root span "
                "(unknown trace id, or evicted from the flight recorder)"
            )
        spans = sorted(self._by_trace[trace_id], key=lambda s: s.sid)
        children: dict[int, list[SpanView]] = {}
        for span in spans:
            if span.parent >= 0:
                children.setdefault(span.parent, []).append(span)
        stages = dict.fromkeys(
            [stage for _prefix, stage in _BREAKDOWN_STAGE], 0.0
        )
        first_round: list[SpanView] = []
        for span in spans:
            for prefix, stage in _BREAKDOWN_STAGE:
                if span.kind.startswith(prefix):
                    if stage == "plan":
                        # planning is instantaneous in simulated time; its
                        # cost lives in the wall_time_s attribute
                        stages[stage] += span.attrs.get("wall_time_s", 0.0)
                    elif stage == "execute":
                        # chunk markers parent to their path span, retry
                        # rounds' paths to their recovery.retry[k] span
                        if span.parent == root.sid:
                            first_round.append(span)
                    else:
                        stages[stage] += span.duration
                    break
        if first_round:
            stages["execute"] = max(s.t1 for s in first_round) - min(
                s.t0 for s in first_round
            )
        return TraceBreakdown(
            trace_id=trace_id,
            root=root,
            spans=tuple(spans),
            children={
                sid: tuple(kids) for sid, kids in children.items()
            },
            stages=stages,
        )


__all__ = [
    "FlightRecorder",
    "SpanView",
    "TraceTree",
    "TraceBreakdown",
    "STAGES",
    "DEFAULT_CAPACITY",
    "TRANSFER_KEYS",
    "SETTLE_KEYS",
    "PLAN_KEYS",
    "PLAN_LOAD_KEYS",
    "PATH_KEYS",
    "PATH_FAILED_KEYS",
]
