"""Multi-resource transfer fabric with max-min fair bandwidth allocation.

A single DMA copy (e.g. a host-staged hop on Narval) occupies several
physical resources *concurrently*: the source GPU's PCIe lanes, the UPI
socket interconnect and the destination NUMA node's memory channel.  Its
throughput is set by the bottleneck resource, and that bottleneck's capacity
is shared with whatever other copies cross it.

:class:`Fabric` models this with the classical **progressive-filling
(max-min fairness)** algorithm: all active flows' rates grow equally until
some channel saturates; flows crossing a saturated channel are frozen at
their current rate; repeat.  Rates are recomputed whenever a flow starts or
finishes (or a channel's capacity changes), giving a piecewise-linear fluid
simulation that is exact and deterministic.

This is deliberately richer than the paper's analytical model (which assumes
isolated paths with fixed per-link bandwidth): the gap between the two is
precisely the prediction error the paper reports in §5.

Solver performance
------------------

Four layers keep the hot paths flat:

* **Struct-of-arrays flow state.**  An admitted flow is a *slot* into
  parallel arrays (``rate``, ``remaining``, completion epsilon, solve mark,
  channel-index tuple), allocated from a free list.  Progress integration
  (:meth:`Fabric._sync`), progressive filling (:meth:`Fabric._max_min_rates`)
  and wakeup arming read and write flat floats indexed by slot and by
  integer channel id — no dataclass attribute chasing in the inner loops.
  The slotted :class:`FabricFlow` survives as the API facade (tags,
  completion events, failure predicates, channel ids); its
  ``rate``/``remaining`` mirrors are refreshed on exposure via
  :meth:`Fabric.flows_on`.  Each hop is resolved once, on its first copy,
  into its names, channel ids, Σα and jitter callables: channels are only
  ever added and their α and jitter never change, so the table needs no
  invalidation (β does change, and is read live).
  Per-channel byte attribution is *lazy*: ``_sync`` accumulates progress
  in a per-flow cell and the channel fan-out happens once at flow removal
  (or a ``stats_snapshot`` query), with ``busy_time`` driven by a
  maintained set of rate>0 channels instead of a per-interval scan.
* **Incremental membership.**  The per-channel member index and live-flow
  counts are maintained on admit/finish instead of rebuilt per recompute,
  and a full progressive-filling pass is skipped entirely when a change is
  provably local — a flow whose channels carry no other live flow cannot
  perturb anyone else's max-min rate, so its rate is simply the minimum β
  over its channels.
* **Per-timestamp batched recomputation.**  Shared-channel admits arriving
  at the same simulated timestamp no longer trigger one solve each: the
  admit marks its channels dirty and the engine's end-of-timestamp flush hook
  (see :meth:`~repro.sim.engine.Engine.add_flush_hook`) runs a single solve
  once the batch has drained.  Intermediate solves were unobservable — no
  simulated time passes inside a batch and every intermediate wakeup was
  invalidated — so the final rates, and therefore every timestamp, are
  unchanged.  A wakeup due at the batch's own instant is the exception: an
  admit that cancels it re-arms it at once, so the flow finishing then
  leaves before the flush, as under the reference's eager solve.  Stale
  bandwidth-phase wakeups are cancelled out of the engine heap in O(1) by
  their entry handle.
* **Component-local solves.**  A solve fills only the flow components
  (channels linked by the flows that share them) holding a *dirty*
  channel, one whose flow set, capacity or stall state changed since the
  last solve: a deferred admit marks its channels, a removal marks each
  channel that keeps live flows, and ``set_beta`` and stalls mark theirs.
  Max-min rates in one component never read another's channels, so every
  other flow keeps its rate.  On the e2e ring_contended workload a solve
  covers 1.2 channels where the global pass covered all ~14 active ones
  (``solver_channels`` / ``rate_recomputes``), and 95 % of solves are a
  single dirty channel whose flows cross no other channel.  Those take a
  closed form: every flow gets β/n (0 on a stalled channel), the very
  float progressive filling's only round computes, ``cap / live`` with
  ``cap = β`` and ``live = n``.  Progress integration
  (``_sync``) and wakeup arming stay global scans: integrating progress
  lazily per flow would change float rounding.

None of this changes a single simulated timestamp: the pre-optimisation
full-recompute path is kept behind the ``full_recompute`` debug flag (see
:data:`FULL_RECOMPUTE_DEFAULT`) — eager per-admit solves of every channel,
full membership scans — and regression tests assert
bit-identical completion times and tracer records between the two across
randomized contention and fault scenarios.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from repro.sim.engine import Engine, Event
from repro.sim.faults import LinkFailure
from repro.sim.trace import Tracer

_EPS_BYTES = 1e-6

#: Debug switch: when True, fabrics built without an explicit
#: ``full_recompute`` argument run the original O(flows×channels)
#: full-recompute solver on every admit/finish.  Timeline-invariance tests
#: flip this to prove the incremental solver changes no timestamps.
FULL_RECOMPUTE_DEFAULT = False


class TransferResult(NamedTuple):
    """Value carried by a completed copy event (immutable)."""

    nbytes: int
    start: float
    end: float
    tag: str

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def bandwidth(self) -> float:
        """Mean bandwidth; 0.0 for zero-duration (and zero-byte) transfers.

        A zero-duration result means nothing actually moved in measurable
        time; reporting 0.0 instead of inf keeps downstream aggregation
        (means, JSON dumps) finite.
        """
        return self.nbytes / self.duration if self.duration > 0 else 0.0


@dataclass
class FabricChannel:
    """A physical resource: a wire direction or a shared memory channel.

    ``alpha`` and ``jitter`` are fixed once the channel is added (the
    fabric resolves each hop's Σα and jitter callables once); ``beta``
    changes only through :meth:`Fabric.set_beta`.
    """

    name: str
    alpha: float  # startup latency contribution in seconds
    beta: float  # capacity in bytes/second
    jitter: Callable[[int], float] | None = None
    # statistics
    total_bytes: float = 0.0
    total_flows: int = 0
    busy_time: float = 0.0
    max_concurrency: int = 0
    # Completion accounting attributed to the *primary* (first) channel of
    # each flow, mirroring how the Tracer records transfers — so
    # ``completed_bytes`` equals ``Tracer.total_bytes(name)`` exactly,
    # unlike ``total_bytes`` which integrates jitter-inflated fluid demand
    # over every crossed channel.
    completed_bytes: float = 0.0
    completed_flows: int = 0

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError(f"channel {self.name}: alpha must be >= 0")
        if self.beta <= 0:
            raise ValueError(f"channel {self.name}: beta must be > 0")


class FabricFlow:
    """API facade over one copy's solver state.

    For admitted flows the authoritative ``rate``/``remaining`` live in the
    fabric's slot arrays; the fields here are mirrors refreshed when the
    flow is exposed through :meth:`Fabric.flows_on`.
    """

    __slots__ = (
        "flow_id",
        "channels",
        "cis",
        "remaining",
        "total_demand",
        "nbytes",
        "event",
        "tag",
        "start_time",
        "rate",
        "admitted",
        "done_eps",
        "slot",
    )

    def __init__(
        self,
        flow_id: int,
        channels: tuple[str, ...],
        cis: tuple[int, ...],
        demand: float,
        nbytes: int,
        event: Event,
        tag: str,
        start_time: float,
    ) -> None:
        self.flow_id = flow_id
        self.channels = channels
        #: channel ids, parallel to ``channels``
        self.cis = cis
        self.remaining = demand
        self.total_demand = demand
        self.nbytes = nbytes
        self.event = event
        self.tag = tag
        self.start_time = start_time
        self.rate = 0.0
        self.admitted = False
        # Completion threshold, precomputed once (see Fabric._wake). It is
        # size-relative: accumulated float error over many rate
        # recomputations scales with demand.
        self.done_eps = max(_EPS_BYTES, 1e-9 * demand)
        # Slot into the fabric's struct-of-arrays while admitted; -1 otherwise.
        self.slot = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FabricFlow {self.flow_id} {self.tag!r} on {self.channels}>"


class Fabric:
    """The set of channels plus the global fluid-rate solver."""

    def __init__(
        self,
        engine: Engine,
        tracer: Tracer | None = None,
        *,
        full_recompute: bool | None = None,
    ) -> None:
        self.engine = engine
        self.tracer = tracer
        self.channels: dict[str, FabricChannel] = {}
        #: hop -> (names, channel ids, Σα, jitter callables), resolved on
        #: a hop's first copy; never invalidated, because channels are only
        #: added and their α and jitter are fixed (see FabricChannel)
        self._hops: dict = {}
        # ----- channel struct-of-arrays (indexed by integer channel id)
        self._ch_index: dict[str, int] = {}
        self._ch_objs: list[FabricChannel] = []
        #: per-channel {flow slot: None} of live flows, in admit order
        self._ch_members: list[dict[int, None]] = []
        #: channel ids with at least one live flow, in first-use order
        self._act_ch: dict[int, None] = {}
        # solver scratch, one cell per channel
        self._ch_cap: list[float] = []
        self._ch_live: list[int] = []
        #: channel ids crossed by at least one live flow at rate > 0 — the
        #: channels accruing ``busy_time``; rebuilt wherever rates are
        #: assigned (progressive filling, fast admit) so membership always
        #: reflects the current allocation
        self._busy_ci: set[int] = set()
        # ----- flow struct-of-arrays (indexed by free-listed slot)
        self._f_rate: list[float] = []
        self._f_rem: list[float] = []
        #: bytes progressed but not yet attributed to channel stats — the
        #: per-channel fan-out is deferred to flow removal (or a stats
        #: query), so ``_sync``'s inner loop is one add per flow
        self._f_acc: list[float] = []
        self._f_eps: list[float] = []
        self._f_mark: list[int] = []
        self._f_chans: list[tuple[int, ...] | None] = []
        self._f_obj: list[FabricFlow | None] = []
        self._free_slots: list[int] = []
        #: live (admitted) slots in admit order — the solver's flow set
        self._live_slots: dict[int, None] = {}
        self._next_flow_id = 0
        # Flows issued (latency phase) but not yet admitted to the solver,
        # so aborts can reach copies still in their startup-latency window.
        self._issued: dict[int, FabricFlow] = {}
        # Fault state (see repro.sim.faults): channels currently hard-down
        # and channels whose flows are frozen at zero progress.
        self._down: set[str] = set()
        self._stalled: set[str] = set()
        self._stalled_ci: set[int] = set()
        self._last_sync = 0.0
        self._wakeup_generation = 0
        self._solve_mark = 0
        self._pending_wakeup: list | None = None
        #: channel ids whose flow set, capacity or stall state changed since
        #: the last solve, in marking order: the next solve covers exactly
        #: the flow components holding one of them
        self._dirty: dict[int, None] = {}
        self.full_recompute = (
            FULL_RECOMPUTE_DEFAULT if full_recompute is None else full_recompute
        )
        engine.add_flush_hook(self._flush)
        # run-level counters (always on: one int add per flow / recompute)
        self.flows_admitted = 0
        self.flows_completed = 0
        self.flows_failed = 0
        self.zero_byte_copies = 0
        self.rate_recomputes = 0
        #: channels progressive filling covered, summed over solves
        self.solver_channels = 0
        self.solver_fast_admits = 0
        self.solver_fast_finishes = 0
        self.channel_failures = 0
        self.channel_stalls = 0

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def add_channel(
        self,
        name: str,
        alpha: float,
        beta: float,
        jitter: Callable[[int], float] | None = None,
    ) -> FabricChannel:
        if name in self.channels:
            raise ValueError(f"duplicate channel {name!r}")
        ch = FabricChannel(name=name, alpha=alpha, beta=beta, jitter=jitter)
        self.channels[name] = ch
        self._ch_index[name] = len(self._ch_objs)
        self._ch_objs.append(ch)
        self._ch_members.append({})
        self._ch_cap.append(0.0)
        self._ch_live.append(0)
        return ch

    def set_beta(self, name: str, beta: float) -> None:
        """Change a channel's capacity at the current time."""
        if beta <= 0:
            raise ValueError("beta must remain > 0")
        self._sync()
        self.channels[name].beta = float(beta)
        self._dirty[self._ch_index[name]] = None
        self._recompute()

    def channel(self, name: str) -> FabricChannel:
        return self.channels[name]

    def _resolve_hop(self, channel_names: Sequence[str] | str) -> tuple:
        """A hop's names, channel ids, Σα and jitter callables, in hop order."""
        if isinstance(channel_names, str):
            channel_names = (channel_names,)
        names = tuple(channel_names)
        if not names:
            raise ValueError("copy requires at least one channel")
        chans = [self.channels[n] for n in names]  # KeyError on unknown
        return (
            names,
            tuple(self._ch_index[n] for n in names),
            sum(c.alpha for c in chans),
            tuple(c.jitter for c in chans if c.jitter is not None),
        )

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def copy(
        self,
        channel_names: Sequence[str] | str,
        nbytes: int,
        *,
        tag: str = "",
    ) -> Event:
        """Start a copy occupying all named channels concurrently.

        Latency is the sum of the channels' alphas, charged once up front;
        then the flow enters the bandwidth phase where its rate is the
        max-min fair allocation across its channels.  The returned event
        succeeds with a :class:`TransferResult`.
        """
        hops = self._hops
        try:
            spec = hops.get(channel_names)
        except TypeError:  # an unhashable sequence is resolved per copy
            spec = self._resolve_hop(channel_names)
        if spec is None:
            spec = hops[channel_names] = self._resolve_hop(channel_names)
        names, cis, alpha, jitters = spec
        if nbytes < 0:
            raise ValueError(f"negative copy size {nbytes}")

        engine = self.engine
        done = Event(engine)
        start = engine.now
        # Per-channel jitter multipliers compose *additively* in their
        # overhead part: each channel contributes (jitter-1)·n extra service
        # demand.  Multiplicative composition would square small-message
        # overheads for multi-channel hops (k1·k2/n blow-up for tiny n).
        demand = float(nbytes)
        if nbytes > 0 and jitters:
            extra = 0.0
            for jitter in jitters:
                extra += (float(jitter(nbytes)) - 1.0) * nbytes
            if demand + extra < 0:
                raise ValueError("jitter produced negative demand")
            demand += extra
        flow_id = self._next_flow_id
        self._next_flow_id = flow_id + 1
        flow = FabricFlow(flow_id, names, cis, demand, nbytes, done, tag, start)
        self._issued[flow_id] = flow
        if nbytes == 0:
            self.zero_byte_copies += 1
            engine.schedule_fn(start + alpha, self._finish, flow)
            return done
        engine.schedule_fn(start + alpha, self._admit, flow)
        return done

    # ------------------------------------------------------------------
    # Fault injection (see repro.sim.faults)
    # ------------------------------------------------------------------
    def is_down(self, name: str) -> bool:
        return name in self._down

    def is_stalled(self, name: str) -> bool:
        return name in self._stalled

    def fail_channel(self, name: str) -> int:
        """Hard-fail a channel: mark it down and kill every crossing flow.

        Live flows on the channel fail their events with
        :class:`~repro.sim.faults.LinkFailure` (synchronously — waiters
        resume within this call); copies reaching :meth:`_admit` while the
        channel stays down fail the same way.  Flows still in their
        startup-latency window are *not* killed here: they fail at admit if
        the channel is still down then (a restored link lets them through,
        matching a retrain completing before the DMA engages).  Returns the
        number of flows killed.
        """
        if name not in self.channels:
            raise KeyError(name)
        if name in self._down:
            return 0
        self._down.add(name)
        self.channel_failures += 1
        members = self._ch_members[self._ch_index[name]]
        victims = [self._f_obj[s] for s in members]
        return self._fail_flows(
            victims,
            lambda f: LinkFailure(name, tag=f.tag, nbytes=f.nbytes),
        )

    def restore_channel(self, name: str) -> None:
        """Bring a downed channel back up (no-op if it is not down)."""
        if name not in self.channels:
            raise KeyError(name)
        self._down.discard(name)

    def stall_channel(self, name: str) -> None:
        """Freeze every flow crossing the channel at zero progress."""
        if name not in self.channels:
            raise KeyError(name)
        if name in self._stalled:
            return
        self._sync()
        ci = self._ch_index[name]
        self._stalled.add(name)
        self._stalled_ci.add(ci)
        self.channel_stalls += 1
        self._dirty[ci] = None
        self._recompute()

    def unstall_channel(self, name: str) -> None:
        if name not in self.channels:
            raise KeyError(name)
        if name not in self._stalled:
            return
        self._sync()
        ci = self._ch_index[name]
        self._stalled.discard(name)
        self._stalled_ci.discard(ci)
        self._dirty[ci] = None
        self._recompute()

    def fail_flows_matching(
        self,
        predicate: Callable[[FabricFlow], bool],
        make_exc: Callable[[FabricFlow], BaseException],
    ) -> int:
        """Abort live flows (admitted *or* still in the latency phase).

        Used by deadline watchdogs to kill the in-flight copies their path
        issued.  Returns the number of flows failed.
        """
        admitted = [
            f for s in self._live_slots if predicate(f := self._f_obj[s])
        ]
        latent = [f for f in self._issued.values() if predicate(f)]
        n = self._fail_flows(admitted, make_exc)
        for flow in latent:
            if not flow.event.triggered:
                self.flows_failed += 1
                flow.event.fail(make_exc(flow))
                n += 1
        return n

    def _remove_slot(self, flow: FabricFlow) -> bool:
        """Drop an admitted flow from the slot arrays and member index.

        Each channel that keeps live flows is marked dirty.  Returns True
        when the removal is provably local (no channel of the flow keeps
        another live flow, so nothing was marked).
        """
        slot = flow.slot
        local = True
        del self._live_slots[slot]
        acc = self._f_acc[slot]
        if acc > 0.0:
            # Lazy attribution: the flow's whole-lifetime progress lands on
            # its channels here, once, instead of per sync interval.
            ch_objs = self._ch_objs
            for ci in self._f_chans[slot]:
                ch_objs[ci].total_bytes += acc
            self._f_acc[slot] = 0.0
        for ci in self._f_chans[slot]:
            members = self._ch_members[ci]
            members.pop(slot, None)
            if members:
                local = False
                self._dirty[ci] = None
            else:
                self._act_ch.pop(ci, None)
                self._busy_ci.discard(ci)
        self._f_chans[slot] = None
        self._f_obj[slot] = None
        self._free_slots.append(slot)
        flow.slot = -1
        return local

    def _fail_flows(
        self,
        victims: list[FabricFlow],
        make_exc: Callable[[FabricFlow], BaseException],
    ) -> int:
        """Remove admitted flows from the solver, then fail their events.

        State is fully consistent (rates recomputed for survivors) before
        any event fails, because waiters resume synchronously and may issue
        new copies from inside their failure handlers.
        """
        if not victims:
            return 0
        self._sync()
        for flow in victims:
            if flow.slot >= 0:
                self._remove_slot(flow)
        self._recompute()
        for flow in victims:
            self.flows_failed += 1
            if not flow.event.triggered:
                flow.event.fail(make_exc(flow))
        return len(victims)

    # ------------------------------------------------------------------
    # Fluid solver
    # ------------------------------------------------------------------
    def _admit(self, flow: FabricFlow) -> None:
        self._issued.pop(flow.flow_id, None)
        if flow.event.triggered:
            return  # aborted while still in the latency phase
        if self._down:
            for name in flow.channels:
                if name in self._down:
                    self.flows_failed += 1
                    flow.event.fail(
                        LinkFailure(name, tag=flow.tag, nbytes=flow.nbytes)
                    )
                    return
        self._sync()
        flow.admitted = True
        self.flows_admitted += 1
        # allocate a slot in the flow arrays
        free = self._free_slots
        if free:
            slot = free.pop()
            self._f_rate[slot] = 0.0
            self._f_rem[slot] = flow.remaining
            self._f_acc[slot] = 0.0
            self._f_eps[slot] = flow.done_eps
            self._f_mark[slot] = -1
        else:
            slot = len(self._f_rate)
            self._f_rate.append(0.0)
            self._f_rem.append(flow.remaining)
            self._f_acc.append(0.0)
            self._f_eps.append(flow.done_eps)
            self._f_mark.append(-1)
            self._f_chans.append(None)
            self._f_obj.append(None)
        cis = flow.cis
        self._f_chans[slot] = cis
        self._f_obj[slot] = flow
        flow.slot = slot
        self._live_slots[slot] = None
        disjoint = True
        ch_objs = self._ch_objs
        ch_members = self._ch_members
        for ci in cis:
            ch = ch_objs[ci]
            ch.total_flows += 1
            members = ch_members[ci]
            if not members:
                self._act_ch[ci] = None
            members[slot] = None
            live = len(members)
            if live > 1:
                disjoint = False
            if live > ch.max_concurrency:
                ch.max_concurrency = live
        if self.full_recompute:
            self._update_concurrency_stats()
            self._recompute()
            return
        if disjoint and not self._dirty:
            # Provably local change: no other live flow crosses any of this
            # flow's channels, so progressive filling would leave everyone
            # else's rate untouched and freeze this flow at the minimum β
            # over its (otherwise idle) channels.
            self.solver_fast_admits += 1
            if self._stalled_ci and not self._stalled_ci.isdisjoint(cis):
                self._f_rate[slot] = 0.0
            else:
                self._f_rate[slot] = min(ch_objs[ci].beta for ci in cis)
                self._busy_ci.update(cis)
            self._invalidate_wakeup()
            self._arm_wakeup()
        else:
            # Defer the solve to the engine's end-of-timestamp flush: every
            # same-timestamp admit folds into one progressive-filling pass.
            # No simulated time can pass while dirty (the flush runs before
            # the clock moves), so intermediate rates are unobservable.
            # A cancelled wakeup that is due now is re-armed at once, as
            # the reference's eager solve does: a flow finishing at this
            # instant must leave within this timestamp, before the flush.
            pending = self._pending_wakeup
            self._invalidate_wakeup()
            if pending is not None and pending[0] <= self.engine.now:
                self._arm_wakeup()
            dirty = self._dirty
            for ci in cis:
                dirty[ci] = None

    def _flush(self) -> None:
        """Engine end-of-timestamp hook: run the deferred batched solve."""
        if self._dirty:
            self._recompute()

    def _sync(self) -> None:
        """Integrate all flows' progress at their current rates.

        Byte attribution is *lazy*: progress accumulates in the per-flow
        ``_f_acc`` cell and fans out to the crossed channels only at flow
        removal or a stats query (:meth:`_flush_attribution`), so the hot
        loop here is one multiply-add per live flow regardless of how many
        channels each flow crosses.
        """
        now = self.engine.now
        elapsed = now - self._last_sync
        if elapsed > 0 and self._live_slots:
            f_rate, f_rem, f_acc = self._f_rate, self._f_rem, self._f_acc
            for s in self._live_slots:
                progressed = f_rate[s] * elapsed
                if progressed <= 0:
                    continue
                remaining = f_rem[s] - progressed
                f_rem[s] = remaining if remaining > 0.0 else 0.0
                f_acc[s] += progressed
            # A channel is busy only while it moves bytes: ``_busy_ci``
            # holds exactly the channels with a rate>0 crossing flow, so
            # flows frozen at rate 0 by progressive filling occupy their
            # channels nominally but never inflate utilisation reports.
            ch_objs = self._ch_objs
            for ci in self._busy_ci:
                ch_objs[ci].busy_time += elapsed
        self._last_sync = now

    def _max_min_rates(self) -> None:
        """Progressive filling: assign max-min rates in the dirty components.

        A component is a set of channels linked by the flows that share
        them.  Max-min rates in one component never read another's
        channels, so the solve walks ``_ch_members``/``_f_chans`` out from
        the dirty channels and fills only what it reaches; every other
        flow keeps its rate.  The ``full_recompute`` reference solves every
        channel instead.  The result is the same floats either way: freeze
        levels never fall within a solve, so every share compared is at
        least the first level (β/flows, far above 1e-18), the tie tolerance
        joins only exactly equal shares, and each component sees the same
        shares, in the same ``_act_ch`` order, with the same subtractions
        as in the global pass.

        One pass over flat arrays: per-channel residual capacity and
        unfrozen counts live in preallocated scratch cells indexed by
        channel id, flows are slots into the rate/mark arrays.  Each round
        costs O(component channels + frozen flows' channels).
        """
        f_rate, f_mark, f_chans = self._f_rate, self._f_mark, self._f_chans
        ch_members = self._ch_members
        cap, live = self._ch_cap, self._ch_live
        busy = self._busy_ci
        if self.full_recompute:
            # Reference path: rebuild the membership domain from scratch
            # (same content as the maintained index, kept for parity with
            # the pre-optimisation solver) and solve every channel.
            active = []
            seen = set()
            for s in self._live_slots:
                for ci in f_chans[s]:
                    if ci not in seen:
                        seen.add(ci)
                        active.append(ci)
            unfrozen = len(self._live_slots)
            busy.clear()
        else:
            dirty = self._dirty
            if len(dirty) == 1:
                # One dirty channel whose members cross no other channel:
                # progressive filling's only round gives every member
                # cap/live = β/n (0 if the channel is stalled), so that is
                # the rate, without the fill's scratch and marks.
                (ci,) = dirty
                members = ch_members[ci]
                if members:
                    for s in members:
                        if len(f_chans[s]) != 1:
                            break
                    else:
                        self.solver_channels += 1
                        if ci in self._stalled_ci:
                            rate = 0.0
                        else:
                            rate = self._ch_objs[ci].beta / len(members)
                        for s in members:
                            f_rate[s] = rate
                        if rate > 0.0:
                            busy.add(ci)
                        else:
                            busy.discard(ci)
                        return
            comp = {ci for ci in dirty if ch_members[ci]}
            stack = list(comp)
            flows: set[int] = set()
            while stack:
                for s in ch_members[stack.pop()]:
                    if s not in flows:
                        flows.add(s)
                        for c2 in f_chans[s]:
                            if c2 not in comp:
                                comp.add(c2)
                                stack.append(c2)
            active = [ci for ci in self._act_ch if ci in comp]
            unfrozen = len(flows)
            busy.difference_update(active)
        self.solver_channels += len(active)
        ch_objs = self._ch_objs
        for ci in active:
            cap[ci] = ch_objs[ci].beta
            live[ci] = len(ch_members[ci])
        self._solve_mark += 1
        mark = self._solve_mark
        if self._stalled_ci:
            # Flows crossing a stalled channel are pre-frozen at rate 0 and
            # release their claim on every channel they cross: a stalled
            # flow occupies the wire nominally but moves nothing, so the
            # survivors' progressive filling must not see it.
            for ci in self._stalled_ci.intersection(active):
                for s in ch_members[ci]:
                    if f_mark[s] == mark:
                        continue
                    f_mark[s] = mark
                    f_rate[s] = 0.0
                    for c2 in f_chans[s]:
                        live[c2] -= 1
                    unfrozen -= 1
        while unfrozen > 0:
            # Rate increment that saturates the tightest channel.
            limit = float("inf")
            tight: list[int] = []
            for ci in active:
                n = live[ci]
                if n <= 0:
                    continue
                share = cap[ci] / n
                if share < limit - 1e-18:
                    limit = share
                    tight = [ci]
                elif abs(share - limit) <= 1e-18:
                    tight.append(ci)
            if not tight:  # pragma: no cover - defensive
                break
            to_freeze: list[int] = []
            for ci in tight:
                for s in ch_members[ci]:
                    if f_mark[s] != mark:
                        f_mark[s] = mark
                        to_freeze.append(s)
            for s in to_freeze:
                f_rate[s] = limit
                for ci in f_chans[s]:
                    c = cap[ci] - limit
                    cap[ci] = c if c > 0.0 else 0.0
                    live[ci] -= 1
            if limit > 0.0:
                # these flows will move bytes: their channels accrue
                # busy_time until the next rate assignment
                for s in to_freeze:
                    busy.update(f_chans[s])
            unfrozen -= len(to_freeze)

    def _invalidate_wakeup(self) -> None:
        """Invalidate any scheduled wakeup: bump the generation guard and
        tombstone the stale heap entry in O(1), so a superseded wakeup can
        never fire and move the final clock past the last real event."""
        self._wakeup_generation += 1
        pending = self._pending_wakeup
        if pending is not None:
            self._pending_wakeup = None
            self.engine.cancel_handle(pending)

    def _arm_wakeup(self) -> None:
        """Schedule the next completion wakeup at the soonest flow horizon."""
        soonest = float("inf")
        f_rate, f_rem = self._f_rate, self._f_rem
        for s in self._live_slots:
            rate = f_rate[s]
            if rate > 0:
                horizon = f_rem[s] / rate
                if horizon < soonest:
                    soonest = horizon
        if soonest == float("inf"):
            return  # every live flow is stalled: nothing to wake for
        self._pending_wakeup = self.engine.schedule_fn(
            self.engine.now + soonest, self._wake, self._wakeup_generation
        )

    def _recompute(self) -> None:
        self._invalidate_wakeup()
        if self._live_slots:
            self.rate_recomputes += 1
            self._max_min_rates()
            self._arm_wakeup()
        else:
            self._busy_ci.clear()
        self._dirty.clear()

    def _wake(self, generation: int) -> None:
        if generation != self._wakeup_generation:
            return
        self._pending_wakeup = None
        self._sync()
        f_rem, f_eps = self._f_rem, self._f_eps
        live_slots = self._live_slots
        finished = [s for s in live_slots if f_rem[s] <= f_eps[s]]
        if not finished and live_slots:
            # Guard: if the nearest completion horizon is below the clock's
            # float resolution, time cannot advance — force-complete the
            # flows at that horizon instead of spinning.
            now = self.engine.now
            f_rate = self._f_rate
            horizons = [
                (f_rem[s] / f_rate[s], s)
                for s in live_slots
                if f_rate[s] > 0
            ]
            if horizons:
                min_h = min(h for h, _ in horizons)
                if now + min_h <= now:
                    finished = [
                        s for h, s in horizons if h <= min_h * (1 + 1e-9)
                    ]
        # Removal is provably local when every channel of every finished
        # flow is left with no other live flow: the survivors' progressive
        # filling never saw those channels, so their rates are unchanged and
        # the full solve can be skipped (the wakeup is simply re-armed).
        local = True
        for s in finished:
            flow = self._f_obj[s]
            if not self._remove_slot(flow):
                local = False
            self._finish(flow)
        if not self.full_recompute and finished and local and self._live_slots:
            self.solver_fast_finishes += 1
            self._invalidate_wakeup()
            self._arm_wakeup()
        else:
            self._recompute()

    def _finish(self, flow: FabricFlow) -> None:
        self._issued.pop(flow.flow_id, None)
        if flow.event.triggered:
            return  # zero-byte copy aborted during its latency window
        now = self.engine.now
        self.flows_completed += 1
        ch = self._ch_objs[flow.cis[0]]
        ch.completed_bytes += flow.nbytes
        ch.completed_flows += 1
        if self.tracer is not None:
            self.tracer.record(
                flow.channels[0], flow.tag, flow.start_time, now, flow.nbytes
            )
        flow.event.succeed(
            TransferResult(flow.nbytes, flow.start_time, now, flow.tag)
        )

    def _update_concurrency_stats(self) -> None:
        """Full O(flows×channels) concurrency scan.

        Only used by the ``full_recompute`` debug path: the incremental
        solver updates ``max_concurrency`` from the membership index during
        :meth:`_admit` (O(channels-of-flow)), which provably reaches the
        same maxima — a channel's live count only grows at admits of flows
        crossing it.
        """
        counts: dict[int, int] = {}
        for s in self._live_slots:
            for ci in self._f_chans[s]:
                counts[ci] = counts.get(ci, 0) + 1
        for ci, n in counts.items():
            ch = self._ch_objs[ci]
            ch.max_concurrency = max(ch.max_concurrency, n)

    # ------------------------------------------------------------------
    @property
    def active_flows(self) -> int:
        return len(self._live_slots)

    def flows_on(self, channel_name: str) -> list[FabricFlow]:
        """Live flows crossing a channel, in admit order.

        Served from the maintained membership index — O(flows-on-channel)
        instead of scanning every active flow's channel tuple.  The
        returned facade objects have their ``rate``/``remaining`` mirrors
        refreshed from the slot arrays.
        """
        ci = self._ch_index.get(channel_name)
        if ci is None or not self._ch_members[ci]:
            return []
        flows = []
        for s in self._ch_members[ci]:
            flow = self._f_obj[s]
            flow.rate = self._f_rate[s]
            flow.remaining = self._f_rem[s]
            flows.append(flow)
        return flows

    def _flush_attribution(self) -> None:
        """Attribute live flows' accumulated progress to their channels.

        Run before exposing channel totals so ``stats_snapshot`` stays
        exact under the lazy per-flow accounting; flushed cells reset to
        zero, so the eventual removal flush never double-counts.
        """
        f_acc, f_chans = self._f_acc, self._f_chans
        ch_objs = self._ch_objs
        for s in self._live_slots:
            acc = f_acc[s]
            if acc > 0.0:
                for ci in f_chans[s]:
                    ch_objs[ci].total_bytes += acc
                f_acc[s] = 0.0

    def reset_stats(self) -> None:
        self.flows_admitted = 0
        self.flows_completed = 0
        self.flows_failed = 0
        self.zero_byte_copies = 0
        self.rate_recomputes = 0
        self.solver_channels = 0
        self.solver_fast_admits = 0
        self.solver_fast_finishes = 0
        self.channel_failures = 0
        self.channel_stalls = 0
        for ch in self.channels.values():
            ch.total_bytes = 0.0
            ch.total_flows = 0
            ch.busy_time = 0.0
            ch.max_concurrency = 0
            ch.completed_bytes = 0.0
            ch.completed_flows = 0
        # drop pre-reset progress still pending lazy attribution
        for s in self._live_slots:
            self._f_acc[s] = 0.0

    def stats_snapshot(self) -> dict:
        """Structured run statistics, pulled by a metrics collector."""
        self._flush_attribution()  # make live flows' totals exact
        return {
            "flows_admitted": self.flows_admitted,
            "flows_completed": self.flows_completed,
            "flows_failed": self.flows_failed,
            "zero_byte_copies": self.zero_byte_copies,
            "rate_recomputes": self.rate_recomputes,
            "solver_channels": self.solver_channels,
            "solver_fast_admits": self.solver_fast_admits,
            "solver_fast_finishes": self.solver_fast_finishes,
            "channel_failures": self.channel_failures,
            "channel_stalls": self.channel_stalls,
            "channels_down": sorted(self._down),
            "channels_stalled": sorted(self._stalled),
            "events_cancelled": self.engine.events_cancelled,
            "active_flows": len(self._live_slots),
            "channels": {
                name: {
                    "total_bytes": ch.total_bytes,
                    "completed_bytes": ch.completed_bytes,
                    "completed_flows": ch.completed_flows,
                    "total_flows": ch.total_flows,
                    "busy_time": ch.busy_time,
                    "max_concurrency": ch.max_concurrency,
                }
                for name, ch in sorted(self.channels.items())
            },
        }


__all__ = [
    "Fabric",
    "FabricChannel",
    "FabricFlow",
    "FULL_RECOMPUTE_DEFAULT",
    "TransferResult",
]
