"""OVERLOAD — the transfer service under sustained pressure plus faults.

The chaos experiment asks "does one transfer survive a fault?"; this one
asks the production question: what happens when transfers arrive *faster
than the fabric can serve them* — 4x offered load — while a link dies
mid-run?  The overload layer (DESIGN.md §5h) must keep the
admission queue bounded (shed policies), fast-fail work whose deadline is
provably unreachable, meter recovery retries through the shared budget,
and account for every byte exactly.

The scenario:

1. measure the fault-free single-put duration T₀ (same anchoring idea as
   chaos scenarios — all timing scales with message size);
2. in a fresh simulation with ``max_inflight_per_pair=1`` (so the pair's
   service rate is ~1/T₀), submit ``n`` puts at intervals of
   ``T₀ / LOAD_FACTOR`` with per-put deadlines of ``DEADLINE_SLACK * T₀``,
   an admission-queue limit of ``QUEUE_LIMIT``, overload thresholds, and
   retry budgets;
3. hard-fail the pair's direct channel mid-run (anchored on T₀) and bring
   it back after a few T₀, so recovery and the budget both engage;
4. drain the engine, classify every submission (delivered / failed /
   shed / expired / rejected), and run the invariant sanitizer.

Everything derives from measured durations and fixed constants, so a
(system, size, n) tuple reproduces bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.bench.baselines import dynamic_config
from repro.bench.runner import SystemSetup, get_setup
from repro.gpu.errors import DeadlineUnsatisfiable, TransferShed
from repro.runtime.sanitizer import SanitizerReport, check_invariants
from repro.sim.faults import FaultSchedule, FaultWindow, LinkDown
from repro.units import MiB

#: The shed policies a scenario can exercise (mirrors TransportConfig).
SHED_POLICIES = ("reject-newest", "reject-cheapest", "tenant-fair")

#: Offered load over the serialized pair's service rate.
LOAD_FACTOR = 4.0
#: Admission-queue limit.
QUEUE_LIMIT = 8
#: Each put's relative deadline, in units of T₀.
DEADLINE_SLACK = 12.0
#: The admitted-p99 bound, in units of T₀: deadline admission plus one
#: recovery's worth of execution headroom.
P99_BOUND_FACTOR = DEADLINE_SLACK + 4.0


@dataclass(frozen=True)
class OverloadResult:
    """One overload scenario's complete accounting."""

    system: str
    nbytes: int
    n_offered: int
    load_factor: float
    t0: float  # fault-free single-put duration
    interval: float  # submission interval (t0 / load_factor)
    queue_limit: int
    deadline: float  # per-put relative deadline (timeout)
    p99_bound: float  # admitted-latency bound the scenario asserts
    shed_policy: str
    channel: str  # faulted channel
    fault_at: float
    fault_duration: float
    # outcome counts (from the manager's exact counters)
    completed: int
    failed: int
    shed: int
    expired: int
    rejected: int
    cancelled: int
    # latency stats over *delivered* transfers (submit -> completion)
    admitted_p50: float
    admitted_p99: float
    admitted_max: float
    peak_queue_depth: int
    submits_during_fault: int
    duration: float  # simulated end-to-end scenario time
    overload: dict  # governor snapshot
    retry_budget: dict  # budget snapshot
    recovery: dict  # cuda_ipc recovery stats
    sanitizer: SanitizerReport
    bytes_ledger: dict = field(default_factory=dict)
    windows: tuple[FaultWindow, ...] = ()  # for the Chrome-trace fault rows

    @property
    def shed_fraction(self) -> float:
        """Exact fraction of offered work not admitted to completion
        (shed + expired + rejected over offered)."""
        return (self.shed + self.expired + self.rejected) / self.n_offered

    @property
    def goodput_fraction(self) -> float:
        return self.completed / self.n_offered

    @property
    def queue_bounded(self) -> bool:
        return self.peak_queue_depth <= self.queue_limit

    @property
    def p99_within_bound(self) -> bool:
        return self.admitted_p99 <= self.p99_bound

    @property
    def conserved(self) -> bool:
        return self.sanitizer.ok

    def describe(self) -> str:
        lines = [
            f"OVERLOAD {self.system}: {self.n_offered} x {self.nbytes} B "
            f"at {self.load_factor:g}x offered load "
            f"(interval {self.interval * 1e6:.1f}us, T0 {self.t0 * 1e6:.1f}us)",
            f"  fault: {self.channel} down [{self.fault_at * 1e6:.1f}us, "
            f"+{self.fault_duration * 1e6:.1f}us); "
            f"{self.submits_during_fault} submissions raced it",
            f"  outcomes: {self.completed} delivered, {self.shed} shed, "
            f"{self.expired} expired, {self.rejected} rejected, "
            f"{self.failed} failed"
            + (f", {self.cancelled} cancelled" if self.cancelled else ""),
            f"  shed fraction: {self.shed_fraction:.4f} exactly "
            f"(goodput {self.goodput_fraction:.4f})",
            f"  admitted latency: p50 {self.admitted_p50 * 1e6:.1f}us, "
            f"p99 {self.admitted_p99 * 1e6:.1f}us "
            f"(bound {self.p99_bound * 1e6:.1f}us: "
            f"{'OK' if self.p99_within_bound else 'VIOLATED'})",
            f"  queue: peak {self.peak_queue_depth} / limit {self.queue_limit} "
            f"({'bounded' if self.queue_bounded else 'UNBOUNDED'}); "
            f"governor {self.overload.get('transitions', 0)} transition(s), "
            f"final state {self.overload.get('state', 'n/a')}",
            f"  retry budget: {self.retry_budget.get('consumed', 0)} consumed, "
            f"{self.retry_budget.get('denied', 0)} denied "
            f"(capacity {self.retry_budget.get('total_capacity')})",
            f"  {self.sanitizer.describe()}",
        ]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "nbytes": self.nbytes,
            "n_offered": self.n_offered,
            "load_factor": self.load_factor,
            "t0": self.t0,
            "interval": self.interval,
            "queue_limit": self.queue_limit,
            "deadline": self.deadline,
            "p99_bound": self.p99_bound,
            "shed_policy": self.shed_policy,
            "channel": self.channel,
            "fault_at": self.fault_at,
            "fault_duration": self.fault_duration,
            "outcomes": {
                "completed": self.completed,
                "failed": self.failed,
                "shed": self.shed,
                "expired": self.expired,
                "rejected": self.rejected,
                "cancelled": self.cancelled,
            },
            "shed_fraction": self.shed_fraction,
            "goodput_fraction": self.goodput_fraction,
            "admitted_p50": self.admitted_p50,
            "admitted_p99": self.admitted_p99,
            "admitted_max": self.admitted_max,
            "peak_queue_depth": self.peak_queue_depth,
            "queue_bounded": self.queue_bounded,
            "p99_within_bound": self.p99_within_bound,
            "submits_during_fault": self.submits_during_fault,
            "duration": self.duration,
            "overload": self.overload,
            "retry_budget": self.retry_budget,
            "recovery": self.recovery,
            "bytes": self.bytes_ledger,
            "sanitizer": {
                "ok": self.sanitizer.ok,
                "violations": self.sanitizer.violations,
            },
        }


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not sorted_values:
        return math.inf
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def overload_config(shed_policy: str):
    """The scenario's transport config: serialized pair + overload layer."""
    return dynamic_config().with_(
        max_inflight_per_pair=1,
        admission_queue_limit=QUEUE_LIMIT,
        shed_policy=shed_policy,
        overload_pressured_depth=3,
        overload_shedding_depth=6,
        retry_budget_total=8,
        retry_budget_per_pair=4,
    )


def run_overload(
    system: str = "beluga",
    *,
    nbytes: int = 8 * MiB,
    n: int = 48,
    src: int = 0,
    dst: int = 1,
    shed_policy: str = "reject-newest",
    fault: bool = True,
    keep_context: bool = False,
) -> OverloadResult:
    """Run the chaos+overload scenario; see module docstring.

    With ``fault=False`` the link stays up (pure-overload ablation).
    """
    if n < 2:
        raise ValueError("need at least 2 offered transfers")
    setup: SystemSetup = get_setup(system)
    channel = setup.topology.direct_hop(src, dst)[0]
    config = overload_config(shed_policy)

    # Step 1: fault-free baseline with the same config (so T₀ prices the
    # serialized pair exactly as the scenario will run it).
    env = setup.env(config, observe=True)
    engine, ctx, _comm = env.fresh()
    baseline = engine.run(until=ctx.put(src, dst, nbytes, tag="ov-base"))
    t0 = baseline.duration
    if t0 <= 0 or not math.isfinite(t0):
        raise ValueError("degenerate baseline duration")

    interval = t0 / LOAD_FACTOR
    deadline = DEADLINE_SLACK * t0
    p99_bound = P99_BOUND_FACTOR * t0
    fault_at = 0.3 * n * interval
    fault_duration = 6.0 * t0

    # Step 2: the overloaded run.
    env = setup.env(config, observe=True)
    engine, ctx, _comm = env.fresh()
    schedule = FaultSchedule()
    if fault:
        schedule.add(LinkDown(channel, at=fault_at, duration=fault_duration))
        schedule.attach(ctx.runtime.fabric)

    submissions: list[tuple[int, float]] = []  # (index, submit time)
    events: list = []

    def submit(i: int) -> None:
        submissions.append((i, engine.now))
        events.append(
            ctx.put(src, dst, nbytes, tag=f"ov{i}", timeout=deadline)
        )

    for i in range(n):
        engine.schedule_fn(i * interval, submit, i)
    engine.run()

    # Step 3: classify.  Manager counters are authoritative (exact); the
    # per-event pass extracts admitted latencies and cross-checks types.
    durations: list[float] = []
    failed_exec = 0
    for (i, at), ev in zip(submissions, events):
        if not ev.triggered:
            raise RuntimeError(f"submission {i} never settled")
        if ev.ok:
            durations.append(ev.value.end - at)
        elif not isinstance(ev._exception, (TransferShed, DeadlineUnsatisfiable)):
            failed_exec += 1
    durations.sort()

    manager = ctx.transfers
    stats = manager.stats_snapshot()
    sanitizer = check_invariants(ctx, raise_on_violation=False)
    during_fault = sum(
        1 for _i, at in submissions if schedule.active_at(at)
    ) if fault else 0

    result = OverloadResult(
        system=system,
        nbytes=nbytes,
        n_offered=n,
        load_factor=LOAD_FACTOR,
        t0=t0,
        interval=interval,
        queue_limit=QUEUE_LIMIT,
        deadline=deadline,
        p99_bound=p99_bound,
        shed_policy=shed_policy,
        channel=channel,
        fault_at=fault_at if fault else math.nan,
        fault_duration=fault_duration if fault else 0.0,
        completed=stats["completed"],
        failed=stats["failed"],
        shed=stats["shed"],
        expired=stats["expired"],
        rejected=stats["rejected"],
        cancelled=stats["cancelled"],
        admitted_p50=_percentile(durations, 0.50),
        admitted_p99=_percentile(durations, 0.99),
        admitted_max=durations[-1] if durations else math.inf,
        peak_queue_depth=stats["peak_queue_depth"],
        submits_during_fault=during_fault,
        duration=engine.now,
        overload=stats["overload"],
        retry_budget=stats["retry_budget"],
        recovery=ctx.cuda_ipc.stats_snapshot()["recovery"],
        sanitizer=sanitizer,
        bytes_ledger=stats["bytes"],
        windows=schedule.windows(),
    )
    if keep_context:
        object.__setattr__(result, "_context", ctx)
    return result


__all__ = ["OverloadResult", "SHED_POLICIES", "overload_config", "run_overload"]
