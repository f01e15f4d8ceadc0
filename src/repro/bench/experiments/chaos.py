"""CHAOS — resilient multi-path transfers under injected link faults.

The paper's model assumes every planned path stays alive for the whole
transfer.  This experiment drops that assumption: a scripted
:class:`~repro.sim.faults.FaultSchedule` takes channels down (hard outage),
flaps them, or stalls them mid-put, and the transport's recovery machinery
(settled execution → health demotion → replan over survivors, see DESIGN.md
§5d) must still deliver every byte.

Each scenario runs the *same* put twice in fresh simulations:

* **fault-free** — no schedule attached; measures the baseline duration
  the fault anchors (fractions of T₀) and the recovery-overhead ratio
  refer to;
* **chaotic** — the schedule armed on the fabric; the put must complete
  (possibly after retries) with exact byte accounting, or fail fast with
  :class:`~repro.gpu.errors.PathUnavailable` when the scenario kills every
  path.

Determinism: schedules are built from the measured baseline duration and a
caller seed only, so a (system, scenario, size, seed) tuple is bit-identical
across repeats — the property ``tests/test_faults.py`` locks in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.bench.baselines import dynamic_config
from repro.bench.runner import SystemSetup, get_setup
from repro.sim.faults import (
    FaultSchedule,
    FaultWindow,
    FlappingLink,
    LinkDown,
    StallInjector,
)
from repro.ucx.cuda_ipc import PutResult
from repro.units import MiB


@dataclass(frozen=True)
class ChaosResult:
    """One scenario's fault-free vs chaotic contrast."""

    system: str
    scenario: str
    nbytes: int
    seed: int
    channel: str
    windows: tuple[FaultWindow, ...]
    fault_free: PutResult
    chaotic: PutResult
    delivered_bytes: int  # final-hop bytes observed by the tracer
    recovery: dict  # cuda_ipc stats_snapshot()["recovery"]
    health: dict  # PathHealthRegistry.snapshot()

    @property
    def overhead_ratio(self) -> float:
        """Chaotic duration as a multiple of the fault-free duration."""
        return self.chaotic.duration / self.fault_free.duration

    @property
    def recovered(self) -> bool:
        """Did the put need (and survive) at least one failover?"""
        return self.chaotic.retries > 0 or self.recovery["path_failovers"] > 0


SCENARIOS = ("linkdown", "flap", "stall")


def build_schedule(
    scenario: str, channel: str, t0: float, *, seed: int = 0
) -> FaultSchedule:
    """Scripted schedule for ``scenario``, anchored on the fault-free
    duration ``t0`` so fault timing scales with message size.

    * ``linkdown`` — the channel hard-fails at 50 % of T₀ and stays down
      past any plausible completion (the classic mid-transfer outage);
    * ``flap`` — seeded Markov up/down from 25 % of T₀ with mean holding
      times of 15 % (down) / 35 % (up) of T₀, until 4 T₀;
    * ``stall`` — zero progress on the channel from 40 % of T₀ for 3 T₀;
      only a deadline watchdog can unstick this one, so the chaotic run
      must set :attr:`TransportConfig.deadline_factor`.
    """
    if t0 <= 0 or not math.isfinite(t0):
        raise ValueError("need a positive finite baseline duration")
    if scenario == "linkdown":
        return FaultSchedule(LinkDown(channel, at=0.5 * t0, duration=1e6 * t0))
    if scenario == "flap":
        return FaultSchedule(
            FlappingLink(
                channel,
                first_down=0.25 * t0,
                mean_down=0.15 * t0,
                mean_up=0.35 * t0,
                until=4.0 * t0,
                seed=seed,
            )
        )
    if scenario == "stall":
        return FaultSchedule(StallInjector(channel, at=0.4 * t0, duration=3.0 * t0))
    raise ValueError(f"unknown chaos scenario {scenario!r} (have {SCENARIOS})")


def _measure_put(
    setup: SystemSetup,
    config,
    *,
    nbytes: int,
    src: int,
    dst: int,
    schedule: FaultSchedule | None,
    tag: str,
):
    """One put in a fresh observed simulation; returns (ctx, PutResult)."""
    env = setup.env(config, observe=True)
    engine, ctx, _comm = env.fresh()
    if schedule is not None:
        schedule.attach(ctx.runtime.fabric)
    result = engine.run(until=ctx.put(src, dst, nbytes, tag=tag))
    return ctx, result


def _delivered_bytes(ctx, label: str) -> int:
    """Final-hop byte accounting for a put and all its retries."""
    return sum(
        r.nbytes
        for r in ctx.tracer.records
        if r.tag.startswith(f"{label}/") or r.tag.startswith(f"{label}:r")
        if ":direct" in r.tag or ":h2:" in r.tag
    )


def run_chaos(
    system: str = "beluga",
    *,
    scenario: str = "linkdown",
    nbytes: int = 64 * MiB,
    seed: int = 0,
    src: int = 0,
    dst: int = 1,
    keep_context: bool = False,
) -> ChaosResult:
    """Run one chaos scenario and contrast it with the fault-free put.

    The fault hits the first channel of the pair's direct hop — the path
    carrying the largest θ share, so its loss hurts most.  The ``stall``
    scenario enables the deadline watchdog (``deadline_factor=1.5``).
    With ``keep_context`` the chaotic run's live context is attached to
    the result as ``_context`` for report/CLI consumers (trace export).
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown chaos scenario {scenario!r} (have {SCENARIOS})")
    setup = get_setup(system)
    channel = setup.topology.direct_hop(src, dst)[0]
    config = dynamic_config()
    if scenario == "stall":
        config = config.with_(deadline_factor=1.5)

    _base_ctx, fault_free = _measure_put(
        setup, config, nbytes=nbytes, src=src, dst=dst, schedule=None, tag="chaos"
    )
    schedule = build_schedule(scenario, channel, fault_free.duration, seed=seed)
    ctx, chaotic = _measure_put(
        setup, config, nbytes=nbytes, src=src, dst=dst, schedule=schedule, tag="chaos"
    )
    result = ChaosResult(
        system=system,
        scenario=scenario,
        nbytes=nbytes,
        seed=seed,
        channel=channel,
        windows=schedule.windows(),
        fault_free=fault_free,
        chaotic=chaotic,
        delivered_bytes=_delivered_bytes(ctx, "chaos"),
        recovery=ctx.cuda_ipc.stats_snapshot()["recovery"],
        health=ctx.health.snapshot(),
    )
    if keep_context:
        object.__setattr__(result, "_context", ctx)
    return result


@dataclass(frozen=True)
class TracedScenario:
    """A deterministic chaos workload whose flight traces tell the whole
    queue → plan → execute → recovery story (see ``cli slowest``)."""

    system: str
    nbytes: int
    channel: str
    results: tuple[PutResult, ...]
    trace_id: int  # the transfer that hit the fault and recovered
    windows: tuple[FaultWindow, ...]  # for the Chrome-trace fault rows

    @property
    def context(self):
        return self._context  # set via object.__setattr__


def run_traced_scenario(
    system: str = "beluga",
    *,
    nbytes: int = 16 * MiB,
    src: int = 0,
    dst: int = 1,
    puts: int = 3,
) -> TracedScenario:
    """Run a deterministic multi-put chaos workload and keep its context.

    ``puts`` same-pair transfers are submitted together under a
    ``max_inflight_per_pair=1`` admission cap, so all but the first wait in
    the TransferManager queue (an ``admission.queue`` span).  The direct
    channel hard-fails while the *second* put is mid-execution (anchored at
    1.45 T₀, with T₀ the fault-free single-put duration), so its trace
    carries ``recovery.retry`` spans parented to the original transfer root
    — a complete causal story across every stage.  Everything is anchored
    on measured durations and fixed constants, so repeated invocations
    yield identical timelines and trace ids.
    """
    if puts < 2:
        raise ValueError("need at least 2 puts (one must queue)")
    setup = get_setup(system)
    channel = setup.topology.direct_hop(src, dst)[0]
    config = dynamic_config().with_(max_inflight_per_pair=1)

    _ctx, fault_free = _measure_put(
        setup, config, nbytes=nbytes, src=src, dst=dst, schedule=None, tag="t"
    )
    t0 = fault_free.duration

    env = setup.env(config, observe=True)
    engine, ctx, _comm = env.fresh()
    schedule = FaultSchedule(LinkDown(channel, at=1.45 * t0, duration=1e6 * t0))
    schedule.attach(ctx.runtime.fabric)
    events = [ctx.put(src, dst, nbytes, tag=f"t{i}") for i in range(puts)]
    results = tuple(engine.run(until=ev) for ev in events)

    # the fault victim: the one trace whose root settled with retries
    from repro.obs.tracing import TraceTree

    tree = TraceTree(ctx.flight)
    recovered = [
        r for r in tree.roots() if r.attrs.get("retries", 0) > 0
    ]
    trace_id = recovered[0].trace_id if recovered else tree.slowest(1)[0].trace_id
    scenario = TracedScenario(
        system=system,
        nbytes=nbytes,
        channel=channel,
        results=results,
        trace_id=trace_id,
        windows=schedule.windows(),
    )
    object.__setattr__(scenario, "_context", ctx)
    return scenario


__all__ = [
    "ChaosResult",
    "SCENARIOS",
    "TracedScenario",
    "build_schedule",
    "run_chaos",
    "run_traced_scenario",
]
