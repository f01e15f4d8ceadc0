"""Randomized timeline-invariance certification for the simulator core.

A seeded scenario generator mixes the contention patterns the CONTEND
experiment stresses (``bench/experiments/contention.py``) with fault
schedules from :mod:`repro.sim.faults`, then replays the *same* scenario
on the incremental solver and on the ``full_recompute=True``
reference path.  Every tracer record, the final clock, and the flow/byte
accounting must be bit-identical — the optimized core may only be faster,
never different.

A second generator draws independent channel groups, with some copies
bridging two groups so that flow components merge and split again, for
the solver's per-component work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import pytest

from repro.bench.experiments.contention import CONTENTION_PATTERNS
from repro.sim import Engine, Fabric, Tracer
from repro.sim.faults import (
    FaultSchedule,
    FlappingLink,
    LinkDown,
    StallInjector,
)
from repro.units import MiB, gbps
from tests.golden import assert_golden, timeline_digest


@dataclass(frozen=True)
class Scenario:
    """A fully materialized workload: identical inputs for both runs."""

    channels: tuple[tuple[str, float, float], ...]  # (name, alpha, beta)
    copies: tuple[tuple[float, tuple[str, ...], int, str], ...]
    faults: tuple[tuple, ...] = field(default=())  # ("down"|"stall"|"flap", ...)


def generate_scenario(seed: int) -> Scenario:
    """Draw one scenario; all randomness happens here, never during a run."""
    rng = random.Random(seed)
    nshared = rng.randint(3, 5)
    ndisjoint = rng.randint(2, 4)
    channels = [
        (f"g{i}", rng.choice([0.0, 1e-6, 2e-6]), gbps(rng.randint(5, 25)))
        for i in range(nshared)
    ] + [
        (f"pv{i}", 5e-7, gbps(rng.randint(15, 30)))
        for i in range(ndisjoint)
    ]

    copies: list[tuple[float, tuple[str, ...], int, str]] = []
    tag = 0
    # contention phases: each CONTEND pattern's (src, dst) pairs become
    # concurrent flows crossing the endpoints' channels
    for wave in range(rng.randint(2, 4)):
        t0 = wave * rng.choice([1e-3, 2e-3, 3e-3])
        pattern = rng.choice(sorted(CONTENTION_PATTERNS))
        for src, dst in CONTENTION_PATTERNS[pattern]:
            names = (f"g{src % nshared}", f"g{dst % nshared}")
            if names[0] == names[1]:
                names = (names[0],)
            nbytes = rng.choice([0, MiB, 2 * MiB, 5 * MiB])
            jitter = rng.randrange(0, 20) * 1e-6
            copies.append((t0 + jitter, names, nbytes, f"c{tag}"))
            tag += 1
    # disjoint trains: the incremental solver's fast-admit/finish regime
    for i in range(ndisjoint):
        t = rng.randrange(0, 50) * 1e-5
        for hop in range(rng.randint(3, 8)):
            copies.append((t, (f"pv{i}",), rng.choice([MiB, 3 * MiB]), f"t{tag}"))
            tag += 1
            t += rng.randrange(1, 30) * 1e-4

    faults: list[tuple] = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["down", "stall", "flap"])
        victim = rng.choice([c[0] for c in channels])
        at = rng.randrange(1, 40) * 1e-4
        if kind == "down":
            faults.append(("down", victim, at, rng.choice([5e-4, 2e-3])))
        elif kind == "stall":
            faults.append(("stall", victim, at, rng.choice([3e-4, 1e-3])))
        else:
            faults.append(("flap", victim, at, 4e-4, 8e-4, at + 6e-3, seed))

    return Scenario(tuple(channels), tuple(copies), tuple(faults))


def run_scenario(scn: Scenario, *, full_recompute: bool):
    eng = Engine()
    tracer = Tracer()
    fab = Fabric(eng, tracer=tracer, full_recompute=full_recompute)
    for name, alpha, beta in scn.channels:
        fab.add_channel(name, alpha=alpha, beta=beta)

    outcomes: list[tuple[str, float, bool]] = []

    def issue(names, nbytes, tag):
        fab.copy(names, nbytes, tag=tag).add_callback(
            lambda ev: outcomes.append((tag, eng.now, ev.ok))
        )

    for at, names, nbytes, tag in scn.copies:
        eng.call_at(at).add_callback(
            lambda _ev, n=names, b=nbytes, t=tag: issue(n, b, t)
        )

    schedule = FaultSchedule()
    for f in scn.faults:
        if f[0] == "down":
            schedule.add(LinkDown(f[1], at=f[2], duration=f[3]))
        elif f[0] == "stall":
            schedule.add(StallInjector(f[1], at=f[2], duration=f[3]))
        else:
            schedule.add(
                FlappingLink(
                    f[1], first_down=f[2], mean_down=f[3], mean_up=f[4],
                    until=f[5], seed=f[6],
                )
            )
    schedule.attach(fab)

    eng.run()
    return eng, fab, tracer, outcomes


def generate_grouped_scenario(seed: int) -> Scenario:
    """Draw 2–5 independent channel groups of 1–3 channels each and 10–40
    copies issued at a few shared instants.  About 15 % of the copies
    bridge two groups, joining their flow components until they finish;
    0–2 stall or link-down windows hit random channels."""
    rng = random.Random(seed)
    groups = [
        [f"k{g}.{c}" for c in range(rng.randint(1, 3))]
        for g in range(rng.randint(2, 5))
    ]
    channels = tuple(
        (name, rng.choice([0.0, 0.0, 1e-6]), gbps(rng.randint(5, 25)))
        for group in groups
        for name in group
    )
    instants = [rng.randrange(0, 20) * 1e-4 for _ in range(rng.randint(2, 6))]
    copies = []
    for i in range(rng.randint(10, 40)):
        home = rng.randrange(len(groups))
        names = rng.sample(groups[home], rng.randint(1, len(groups[home])))
        if rng.random() < 0.15:
            other = rng.choice([g for k, g in enumerate(groups) if k != home])
            names.append(rng.choice(other))
        nbytes = rng.choice([0, MiB // 4, MiB, 2 * MiB, 5 * MiB])
        copies.append((rng.choice(instants), tuple(names), nbytes, f"m{i}"))
    faults = tuple(
        (
            rng.choice(["down", "stall"]),
            rng.choice(channels)[0],
            rng.randrange(1, 30) * 1e-4,
            rng.choice([2e-4, 1e-3]),
        )
        for _ in range(rng.randint(0, 2))
    )
    return Scenario(channels, tuple(copies), faults)


def assert_runs_identical(scn: Scenario):
    """Run ``scn`` on both solvers and compare everything observable;
    returns the incremental and reference fabrics."""
    eng_i, fab_i, tr_i, out_i = run_scenario(scn, full_recompute=False)
    eng_f, fab_f, tr_f, out_f = run_scenario(scn, full_recompute=True)

    # the whole observable timeline, bit for bit (records are exact
    # float tuples, and their order is part of the contract)
    assert tr_i.records == tr_f.records
    assert eng_i.now == eng_f.now
    assert out_i == out_f

    # accounting parity: completions, failures, per-channel bytes/busy
    assert fab_i.flows_admitted == fab_f.flows_admitted
    assert fab_i.flows_completed == fab_f.flows_completed
    assert fab_i.flows_failed == fab_f.flows_failed
    for name, _alpha, _beta in scn.channels:
        ci, cf = fab_i.channel(name), fab_f.channel(name)
        assert ci.total_bytes == cf.total_bytes
        assert ci.busy_time == cf.busy_time
        assert ci.completed_bytes == cf.completed_bytes
    return fab_i, fab_f


@pytest.mark.parametrize("seed", range(8))
def test_randomized_scenarios_bit_identical(seed):
    fab_i, fab_f = assert_runs_identical(generate_scenario(seed))
    # and the incremental run actually took its fast paths (the test
    # would prove nothing if it silently fell back to full solves)
    assert fab_i.rate_recomputes < fab_f.rate_recomputes


# 24 of the 1000 seeds this generator passed with when it was written
@pytest.mark.parametrize("seed", range(24))
def test_grouped_scenarios_bit_identical(seed):
    assert_runs_identical(generate_grouped_scenario(seed))


def _ucx_workload(*, flight_recorder: bool, fault_at: float | None = None):
    """A transport-level workload (queueing, multi-path puts, recovery when
    ``fault_at`` arms a link-down) with the flight recorder on or off."""
    from repro.sim.faults import FaultSchedule as Schedule
    from repro.topology import systems
    from repro.ucx import TransportConfig, UCXContext

    eng = Engine()
    tracer = Tracer()
    topo = systems.beluga()
    ctx = UCXContext(
        eng,
        topo,
        config=TransportConfig(max_inflight_per_pair=1),
        tracer=tracer,
    )
    ctx.flight.enabled = flight_recorder
    if fault_at is not None:
        Schedule(
            LinkDown(topo.direct_hop(0, 1)[0], at=fault_at, duration=1e3)
        ).attach(ctx.runtime.fabric)
    events = [
        ctx.put(0, 1, nbytes, tag=f"t{i}")
        for i, nbytes in enumerate((MiB, 8 * MiB, 2 * MiB))
    ]
    events.append(ctx.put(2, 3, 4 * MiB, tag="x"))
    results = tuple(eng.run(until=ev) for ev in events)
    return eng, tracer, results


def test_flight_recorder_off_bit_identical():
    """The recorder never schedules events or mutates simulation state, so
    a recorder-on run's observable timeline is bit-identical to recorder-off
    (the tentpole's always-on claim: tracing is pure observation)."""
    eng_on, tr_on, res_on = _ucx_workload(flight_recorder=True)
    eng_off, tr_off, res_off = _ucx_workload(flight_recorder=False)
    assert tr_on.records == tr_off.records
    assert eng_on.now == eng_off.now
    assert res_on == res_off


def test_flight_recorder_off_bit_identical_across_recovery():
    """Same property through the retry/replan machinery, whose hot paths
    carry the densest tracing touchpoints."""
    # anchor the fault mid-way through the second (8 MiB, queued) put
    eng0, _tr0, res0 = _ucx_workload(flight_recorder=False)
    fault_at = res0[0].duration + 0.45 * res0[1].duration
    eng_on, tr_on, res_on = _ucx_workload(
        flight_recorder=True, fault_at=fault_at
    )
    eng_off, tr_off, res_off = _ucx_workload(
        flight_recorder=False, fault_at=fault_at
    )
    assert any(r.retries > 0 for r in res_on)  # the fault actually bit
    assert tr_on.records == tr_off.records
    assert eng_on.now == eng_off.now
    assert res_on == res_off
    assert eng_on.now != eng0.now  # and it changed the timeline it traced


def _graph_workload(*, fault_at: float | None = None, flight_recorder: bool = True):
    """A transport workload with *repeated same-shape puts*, so compiled
    graph replay actually fires (the first put of each shape compiles, the
    repeats replay).  Returns the run's golden digest and its context."""
    from repro.sim.faults import FaultSchedule as Schedule
    from repro.topology import systems
    from repro.ucx import TransportConfig, UCXContext

    eng = Engine()
    tracer = Tracer()
    topo = systems.beluga()
    ctx = UCXContext(
        eng,
        topo,
        config=TransportConfig(max_inflight_per_pair=1),
        tracer=tracer,
    )
    ctx.flight.enabled = flight_recorder
    if fault_at is not None:
        Schedule(
            LinkDown(topo.direct_hop(0, 1)[0], at=fault_at, duration=1e3)
        ).attach(ctx.runtime.fabric)
    sizes = (8 * MiB, 8 * MiB, 2 * MiB, 8 * MiB, 2 * MiB, MiB, MiB)
    events = [ctx.put(0, 1, n, tag=f"t{i}") for i, n in enumerate(sizes)]
    events.append(ctx.put(2, 3, 4 * MiB, tag="x"))
    results = tuple(eng.run(until=ev) for ev in events)
    digest = timeline_digest(eng, tracer, results, ctx.runtime.fabric)
    return digest, results, ctx


# The golden digests below were recorded from cold, uncompiled execution:
# replay must reproduce that timeline (tracer records, clock, results,
# per-channel byte accounting) bit for bit.


def test_graph_replay_bit_identical():
    """A replayed transfer's observable timeline is bit-identical to
    cold-path execution, with the flight recorder on."""
    digest, _results, ctx = _graph_workload()
    # replay genuinely fired (the certification would prove nothing if
    # every put silently compiled fresh)
    stats = ctx.graphs.stats()
    assert stats["hits"] > 0 and stats["compiles"] > 0
    assert ctx.pipeline.transfers_replayed > 0
    assert_golden("graph_workload", digest)


def test_graph_replay_bit_identical_recorder_off():
    """Same certification with the flight recorder disabled — replay must
    not depend on the recorder's span bookkeeping."""
    digest, _results, ctx = _graph_workload(flight_recorder=False)
    assert ctx.graphs.stats()["hits"] > 0
    assert_golden("graph_workload_recorder_off", digest)


def test_graph_replay_bit_identical_across_recovery():
    """Replay through the retry/replan machinery: recovery replans compile
    one-shot, and the timeline still matches cold execution bit for bit."""
    _digest, res0, _ctx = _graph_workload()
    fault_at = res0[0].duration + 0.45 * res0[1].duration
    digest, results, ctx = _graph_workload(fault_at=fault_at)
    assert any(r.retries > 0 for r in results)  # the fault actually bit
    assert_golden("graph_workload_recovery", digest)


def _overload_workload(extra: dict, *, fault_at: float | None = None):
    """The `_ucx_workload` mix with overload-layer knobs layered on top."""
    from repro.sim.faults import FaultSchedule as Schedule
    from repro.topology import systems
    from repro.ucx import TransportConfig, UCXContext

    eng = Engine()
    tracer = Tracer()
    topo = systems.beluga()
    ctx = UCXContext(
        eng,
        topo,
        config=TransportConfig(max_inflight_per_pair=1, **extra),
        tracer=tracer,
    )
    if fault_at is not None:
        Schedule(
            LinkDown(topo.direct_hop(0, 1)[0], at=fault_at, duration=1e3)
        ).attach(ctx.runtime.fabric)
    events = [
        ctx.put(0, 1, nbytes, tag=f"t{i}")
        for i, nbytes in enumerate((MiB, 8 * MiB, 2 * MiB))
    ]
    events.append(ctx.put(2, 3, 4 * MiB, tag="x"))
    results = tuple(eng.run(until=ev) for ev in events)
    return eng, tracer, results


_ARMED_IDLE = dict(
    admission_queue_limit=10**6,
    overload_pressured_depth=10**6,
    overload_shedding_depth=10**6,
    overload_wait_pressured=1e9,
    retry_budget_total=10**6,
    retry_budget_per_pair=10**6,
)


def test_overload_armed_but_idle_bit_identical():
    """ISSUE 9 acceptance: the overload layer fully *armed* but never
    triggered (huge thresholds and budgets) must leave the observable
    timeline bit-identical to the default configuration."""
    eng_a, tr_a, res_a = _overload_workload({})
    eng_b, tr_b, res_b = _overload_workload(_ARMED_IDLE)
    assert tr_a.records == tr_b.records
    assert eng_a.now == eng_b.now
    assert res_a == res_b


def test_overload_armed_but_idle_bit_identical_across_recovery():
    """Same certification through retry/replan: armed budgets must grant
    every token and a lone backoff must see collective scale 1."""
    _eng0, _tr0, res0 = _overload_workload({})
    fault_at = res0[0].duration + 0.45 * res0[1].duration
    eng_a, tr_a, res_a = _overload_workload({}, fault_at=fault_at)
    eng_b, tr_b, res_b = _overload_workload(_ARMED_IDLE, fault_at=fault_at)
    assert any(r.retries > 0 for r in res_a)  # the fault actually bit
    assert tr_a.records == tr_b.records
    assert eng_a.now == eng_b.now
    assert res_a == res_b


def test_generator_produces_contention_and_faults():
    """The scenarios genuinely contain what they claim to mix."""
    kinds = set()
    shared_flows = 0
    for seed in range(8):
        scn = generate_scenario(seed)
        kinds.update(f[0] for f in scn.faults)
        shared_flows += sum(1 for _t, names, _b, _tag in scn.copies
                            if len(names) > 1)
    assert shared_flows > 0
    assert len(kinds) >= 2  # at least two distinct fault types across seeds


def test_grouped_generator_merges_groups():
    """The grouped scenarios bridge groups, share instants and fault."""
    bridges = same_instant = faulted = 0
    for seed in range(24):
        scn = generate_grouped_scenario(seed)
        bridges += sum(
            1 for _t, names, _b, _tag in scn.copies
            if len({name.split(".")[0] for name in names}) > 1
        )
        instants = [t for t, _names, _b, _tag in scn.copies]
        same_instant += len(instants) - len(set(instants))
        faulted += bool(scn.faults)
    assert bridges > 0 and same_instant > 0 and faulted > 0
