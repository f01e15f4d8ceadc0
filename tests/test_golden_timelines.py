"""Golden digests of transport scenarios the older digests do not reach.

The digests in ``tests/golden/timelines.json`` that the other suites check
all run on beluga, with jitter off and at most one copy starting on a
channel at any instant.  The scenarios here add narval, lognormal jitter
(each channel draws from its own RNG stream in ``fabric.copy`` call
order), same-timestamp copies on one channel, contention-aware planning,
MPI collectives, an outage under armed queue and retry budgets, and a
stall while many independent flow components share the fabric.  A
change that reorders same-timestamp work moves these digests even where
the older ones stay put.  Each scenario also asserts that the mechanism
it exists for actually fired.

The ``copy_order_*`` digests pin the order in which four staged-path
scenarios call ``fabric.copy`` — an OSU window, a link outage, a stall
the deadline watchdog breaks and a path that cycles through every
circuit-breaker state twice — not only when each copy ran.

The ``overload_quick`` and ``drift_quick`` digests pin the two experiments
``cli overload --quick`` and ``cli drift --quick`` run: every outcome
count, latency and ledger the overload report prints, and every
prediction error and drift event of both drift loops.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np
import pytest

from repro.bench.env import REDUCE_BANDWIDTH, default_jitter_factory
from repro.bench.experiments.chaos import run_chaos
from repro.bench.experiments.drift_recovery import run_drift_recovery
from repro.bench.experiments.overload import run_overload
from repro.bench.runner import get_setup
from repro.mpi import Communicator, collectives
from repro.core.path_health import PathHealth
from repro.sim import Engine, FaultSchedule, LinkDown, StallInjector, Tracer
from repro.topology import systems
from repro.ucx import TransportConfig, UCXContext
from repro.units import MiB, us
from tests.golden import (
    assert_golden,
    copy_calls,
    copy_order_digest,
    table_digest,
    timeline_digest,
)

#: The e2e benchmark's P2P pairs: two disjoint pairs, then two that share
#: a GPU with them, so concurrent puts meet on channels.
PAIRS = ((0, 1), (2, 3), (1, 2), (0, 3))


def _context(topology, config=None):
    """A traced context with lognormal jitter (σ = 0.01, seed 0)."""
    eng = Engine()
    ctx = UCXContext(
        eng,
        topology,
        config=config,
        tracer=Tracer(),
        jitter_factory=default_jitter_factory(0, 0.01),
    )
    return eng, ctx


def _outcomes(events):
    return tuple(
        ev.value if ev.ok else type(ev._exception).__name__ for ev in events
    )


def _digest(ctx, results):
    return timeline_digest(ctx.engine, ctx.tracer, results, ctx.runtime.fabric)


def _shared_starts(tracer) -> int:
    """Copies that started on a channel at the same instant as another."""
    starts = Counter((r.channel, r.start) for r in tracer.records)
    return sum(n for n in starts.values() if n > 1)


def test_golden_narval_jittered_window():
    """16 concurrent 4 MiB puts, four per directed pair, jittered."""
    eng, ctx = _context(systems.narval())
    events = [
        ctx.put(src, dst, 4 * MiB, tag=f"w{i}:{src}{dst}")
        for i in range(4)
        for src, dst in PAIRS
    ]
    eng.run()
    results = _outcomes(events)
    assert all(ev.ok for ev in events)
    assert all(ch.jitter is not None for ch in ctx.runtime.fabric.channels.values())
    assert _shared_starts(ctx.tracer) > 0  # same-instant copies on a channel
    assert_golden("narval_jittered_window", _digest(ctx, results))


#: Both directions of the 4-GPU ring: one put per directed neighbour pair.
RING = [(g, (g + 1) % 4) for g in range(4)] + [((g + 1) % 4, g) for g in range(4)]


def test_golden_contended_ring():
    """Contention-aware planning: 6 rounds of 8 concurrent 32 MiB puts on
    a bidirectional beluga ring, jittered."""
    eng, ctx = _context(systems.beluga(), TransportConfig(contention_aware=True))
    results = []
    for r in range(6):
        order = RING[r:] + RING[:r]
        events = [
            ctx.put(src, dst, 32 * MiB, tag=f"r{r}:{src}{dst}") for src, dst in order
        ]
        results.extend(eng.run(until=eng.all_of(events)))
    # plans were priced against live load, not an idle fabric
    assert ctx.transfers.load.peak_channel_flows >= 2
    assert any(key[4] for key in ctx.graphs.cache._data)
    assert_golden("contended_ring", _digest(ctx, tuple(results)))


def test_golden_narval_contended_ring_stall():
    """3 rounds of 8 concurrent 32 MiB ring puts on narval, contention-aware
    and jittered, while ``nvl:1->2`` stalls at 300 µs for 200 µs.  Nearly
    every solve here sees several independent flow components, most hold
    one spanning several channels, and some run during the stall."""
    eng, ctx = _context(systems.narval(), TransportConfig(contention_aware=True))
    fabric = ctx.runtime.fabric
    FaultSchedule(StallInjector("nvl:1->2", at=300 * us, duration=200 * us)).attach(
        fabric
    )
    events = []
    for r in range(3):
        round_events = [
            ctx.put(src, dst, 32 * MiB, tag=f"r{r}:{src}{dst}") for src, dst in RING
        ]
        eng.run(until=eng.all_of(round_events))
        events.extend(round_events)
    assert all(ev.ok for ev in events)
    assert fabric.channel_stalls == 1 and not fabric.is_stalled("nvl:1->2")
    assert_golden("narval_contended_ring_stall", _digest(ctx, _outcomes(events)))


def test_golden_collectives():
    """Allreduce then Bruck Alltoall, 1 MiB per rank, host paths off."""
    eng, ctx = _context(systems.beluga(), TransportConfig(include_host=False))
    comm = Communicator(ctx, reduce_bandwidth=REDUCE_BANDWIDTH["beluga"])
    words = MiB // 8
    rng = np.random.default_rng(7)
    reduce_in = rng.integers(-(2**20), 2**20, (4, words))
    a2a_in = rng.integers(-(2**20), 2**20, (4, words))
    block = words // comm.size
    reduced = eng.run(
        until=comm.run_ranks(
            lambda v: collectives.allreduce(v, reduce_in[v.rank])
        )
    )
    exchanged = eng.run(
        until=comm.run_ranks(
            lambda v: collectives.alltoall(
                v,
                [a2a_in[v.rank][j * block:(j + 1) * block] for j in range(comm.size)],
            )
        )
    )
    expected = reduce_in.sum(axis=0)
    for rank in range(comm.size):
        assert np.array_equal(reduced[rank], expected)
        for j in range(comm.size):
            assert np.array_equal(
                exchanged[rank][j], a2a_in[j][rank * block:(rank + 1) * block]
            )
    assert comm.messages_matched > 0 and comm.unmatched == (0, 0)
    # host paths off: no copy touched a host channel
    assert all(r.channel.startswith("nvl:") for r in ctx.tracer.records)
    payload = hashlib.sha256(
        b"".join(np.ascontiguousarray(a).tobytes() for a in reduced)
        + b"".join(
            np.ascontiguousarray(b).tobytes() for row in exchanged for b in row
        )
    ).hexdigest()
    assert_golden("collectives", _digest(ctx, (payload,)))


def test_golden_narval_linkdown_budgets():
    """The (0,1) NVLink goes down at 0.1 ms for 0.15 ms under 20 jittered
    8 MiB puts, with the admission queue and retry budgets armed."""
    topo = systems.narval()
    config = TransportConfig(
        max_inflight_per_pair=1,
        admission_queue_limit=16,
        retry_budget_total=8,
        retry_budget_per_pair=4,
    )
    eng, ctx = _context(topo, config)
    FaultSchedule(
        LinkDown(topo.direct_hop(0, 1)[0], at=100 * us, duration=150 * us)
    ).attach(ctx.runtime.fabric)
    events = [
        ctx.put(src, dst, 8 * MiB, tag=f"q{i}:{src}{dst}")
        for i in range(5)
        for src, dst in PAIRS
    ]
    eng.run()
    results = _outcomes(events)
    retries = ctx.cuda_ipc.retries_total
    assert retries >= 1  # the outage bit
    assert ctx.pipeline.streams_reset >= 1
    assert ctx.transfers.peak_queue_depth > 0  # puts queued behind the cap
    assert ctx.transfers.retry_budget.snapshot()["consumed"] == retries
    assert_golden("narval_linkdown_budgets", _digest(ctx, results))


def test_golden_copy_order_osu_window():
    """An OSU window: 16 concurrent 16 MiB puts 0->1, so each path's staged
    copies queue back to back on its two pooled streams."""
    eng = Engine()
    ctx = UCXContext(eng, systems.beluga())
    with copy_calls() as calls:
        events = [ctx.put(0, 1, 16 * MiB, tag=f"w{i}") for i in range(16)]
        eng.run()
    assert all(ev.ok for ev in events)
    # one stream per direct path and two per staged one, shared by all 16
    assert ctx.pipeline.stats_snapshot()["stream_pool_size"] == 7
    assert len({c[0] for c in calls}) < len(calls)  # same-instant issues
    assert_golden("copy_order_osu_window", copy_order_digest(calls))


@pytest.mark.parametrize("scenario", ["linkdown", "stall"])
def test_golden_copy_order_chaos(scenario):
    """The chaos ``linkdown`` put, and the ``stall`` put that only its
    deadline watchdog can unstick, each after its fault-free twin."""
    get_setup("beluga")  # calibration copies stay out of the record
    with copy_calls() as calls:
        r = run_chaos("beluga", scenario=scenario, keep_context=True)
    assert r.chaotic.retries >= 1
    if scenario == "stall":
        assert r._context.pipeline.watchdog_timeouts >= 1
    assert_golden(f"copy_order_chaos_{scenario}", copy_order_digest(calls))


def test_golden_copy_order_health_cycle():
    """60 sequential 8 MiB puts 0->1, 50 µs apart, while ``nvl:0->1`` goes
    down at 300 µs for 400 µs and at 6 ms for 300 µs: the direct path goes
    healthy -> suspect -> quarantined -> probing -> healthy twice.  A
    compiled graph is dropped only when its plan is (the quarantine), so
    the suspect and readmitted paths replay the graphs compiled before."""
    eng = Engine()
    ctx = UCXContext(eng, systems.beluga())
    FaultSchedule(
        LinkDown("nvl:0->1", at=300 * us, duration=400 * us),
        LinkDown("nvl:0->1", at=6000 * us, duration=300 * us),
    ).attach(ctx.runtime.fabric)
    with copy_calls() as calls:
        for i in range(60):
            eng.run(until=ctx.put(0, 1, 8 * MiB, tag=f"h{i}"))
            eng.run(until=eng.now + 50 * us)
    H, S, Q, P = (
        PathHealth.HEALTHY, PathHealth.SUSPECT,
        PathHealth.QUARANTINED, PathHealth.PROBING,
    )
    assert [(t.path_id, t.old, t.new) for t in ctx.health.transitions] == [
        ("direct", H, S), ("direct", S, Q), ("direct", Q, P), ("direct", P, H),
    ] * 2
    assert ctx.graphs.stats()["compiles"] == 4
    assert_golden("copy_order_health_cycle", copy_order_digest(calls))


def test_golden_overload_quick():
    """``cli overload --quick``'s scenario: 24 beluga 4 MiB puts 0->1 at 4x
    offered load while ``nvl:0->1`` goes down mid-run."""
    r = run_overload("beluga", nbytes=4 * MiB, n=24, keep_context=True)
    ctx = r._context
    assert r.shed + r.expired > 0 and r.retry_budget["consumed"] >= 1
    assert r.queue_bounded and r.p99_within_bound and r.conserved
    assert_golden(
        "overload_quick", table_digest([r.to_dict(), _digest(ctx, ())])
    )


def test_golden_drift_quick():
    """``cli drift --quick``'s scenario: 40 beluga 64 MiB puts 0->1 with
    the direct channel's β degraded 30 % after put 10, closed loop then
    open loop."""
    r = run_drift_recovery(
        "beluga", total_puts=40, warmup_puts=10, ramp_puts=5, keep_contexts=True
    )
    assert r.closed.drift_events >= 1 and r.recovered
    rows = []
    for ctx in r._contexts:
        drift = ctx.obs.drift.summary() if ctx.obs.drift is not None else None
        rows.append((
            tuple(ctx.obs.errors.records),
            ctx.obs.errors.summary(),
            drift,
            _digest(ctx, ()),
        ))
    assert_golden("drift_quick", table_digest(rows))
