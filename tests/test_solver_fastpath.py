"""Incremental fluid-solver fast paths: invariance, counters, heap hygiene.

The incremental solver (membership index + disjoint-flow fast paths + lazy
wakeup cancellation) must be *timeline-invariant*: every simulated
timestamp and tracer record is bit-identical to the full progressive-
filling recompute path (``full_recompute=True``), which is kept as the
reference implementation.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.sim.fabric as fabric_mod
from repro.bench.baselines import dynamic_config
from repro.bench.collectives import COLLECTIVES
from repro.bench.omb import osu_bw, osu_collective_latency
from repro.bench.runner import clear_caches, get_setup
from repro.sim import Engine
from repro.sim.fabric import Fabric
from repro.sim.faults import FaultSchedule, LinkDown, LinkFailure
from repro.sim.trace import Tracer
from repro.units import KiB, MiB, gbps


def _mixed_workload(full_recompute: bool):
    """Contended waves + disjoint chains, the solver's two regimes."""
    eng = Engine()
    tracer = Tracer()
    fab = Fabric(eng, tracer=tracer, full_recompute=full_recompute)
    for i in range(4):
        fab.add_channel(f"sh{i}", alpha=1e-6, beta=gbps(8 + 2 * i))
        fab.add_channel(f"pv{i}", alpha=5e-7, beta=gbps(20))

    for wave in range(3):
        for f in range(10):
            a, b = f % 4, (f * 3 + wave) % 4
            names = (f"sh{a}",) if a == b else (f"sh{a}", f"sh{b}")
            nbytes = (1 + f % 4) * MiB
            eng.call_at(wave * 1e-3 + f * 1e-6).add_callback(
                lambda _ev, names=names, nbytes=nbytes, t=f"w{wave}.{f}":
                fab.copy(names, nbytes, tag=t)
            )

    def chain(name: str, remaining: int) -> None:
        if remaining <= 0:
            return
        fab.copy(name, 2 * MiB, tag=f"{name}.{remaining}").add_callback(
            lambda _ev: chain(name, remaining - 1)
        )

    for i in range(4):
        chain(f"pv{i}", 20)

    eng.run()
    return eng, fab, tracer


class TestTimelineInvariance:
    def test_mixed_workload_bit_identical(self):
        eng_full, fab_full, tr_full = _mixed_workload(full_recompute=True)
        eng_incr, fab_incr, tr_incr = _mixed_workload(full_recompute=False)
        # exact equality, not approx: the fast paths must not perturb a
        # single timestamp or byte count
        assert eng_incr.now == eng_full.now
        assert tr_incr.records == tr_full.records
        assert fab_incr.flows_completed == fab_full.flows_completed
        # and the fast paths actually engaged (chains are disjoint)
        assert fab_incr.solver_fast_admits > 0
        assert fab_incr.solver_fast_finishes > 0
        assert fab_incr.rate_recomputes < fab_full.rate_recomputes
        assert fab_full.solver_fast_admits == 0

    def test_stack_p2p_and_collective_identical(self, monkeypatch):
        """Full stack (UCX pipeline + MPI collective) sees no difference."""
        observed = {}
        for mode in (True, False):
            monkeypatch.setattr(fabric_mod, "FULL_RECOMPUTE_DEFAULT", mode)
            clear_caches()  # recalibrate under this solver mode too
            setup = get_setup("beluga")
            env = setup.env(dynamic_config(), observe=True)
            bw = osu_bw(env, 16 * MiB, window=4, iterations=2, warmup=1)
            bw_records = tuple(env.last_context.tracer.records)
            env2 = setup.env(dynamic_config(), observe=True)
            coll = osu_collective_latency(
                env2, COLLECTIVES["allreduce"], 4 * MiB, iterations=1, warmup=1
            )
            coll_records = tuple(env2.last_context.tracer.records)
            observed[mode] = (
                bw.elapsed, bw.bandwidth, bw_records, coll.latency, coll_records
            )
        clear_caches()
        assert observed[True] == observed[False]

    @pytest.mark.parametrize("full_recompute", [False, True])
    def test_killed_flow_wakeup_never_fires(self, full_recompute):
        """A link-down kills the only flow; its completion wakeup is
        superseded and must not fire later and move the final clock."""
        eng = Engine()
        fab = Fabric(eng, full_recompute=full_recompute)
        fab.add_channel("c", alpha=0.0, beta=gbps(8))
        done = fab.copy("c", 8 * MiB)
        FaultSchedule(LinkDown("c", at=2e-4, duration=1e-4)).attach(fab)
        eng.run()
        assert isinstance(done._exception, LinkFailure)
        # admit, link down, link up: the wakeup at 8 MiB / 8 GB/s is gone
        assert eng.events_processed == 3
        assert eng.now == pytest.approx(3e-4)


_TICK = 20e-6  # admit / stall times are drawn on this grid, so they collide


def _hub_run(sc, full_recompute: bool):
    """Flows on one channel ("hub") beside another component ("side").

    Returns the tracer records, the hub and side rates after every
    flushed timestamp (as bit patterns), every channel's busy time and
    the final clock.
    """
    eng = Engine()
    tracer = Tracer()
    fab = Fabric(eng, tracer=tracer, full_recompute=full_recompute)
    fab.add_channel("hub", alpha=1e-6, beta=sc["beta"])
    fab.add_channel("side", alpha=1e-6, beta=gbps(12))
    # narrower than any hub share: a crossing member is bottlenecked here
    fab.add_channel("x", alpha=1e-6, beta=sc["beta"] / 16)
    flows = [("hub", n, t) for n, t in sc["hub"]]
    flows += [("side", n, t) for n, t in sc["side"]]
    if sc["cross"] is not None:
        flows.append((("hub", "x"), *sc["cross"]))
    for i, (hop, nbytes, tick) in enumerate(flows):
        eng.call_at(tick * _TICK).add_callback(
            lambda _e, hop=hop, nbytes=nbytes, i=i: fab.copy(
                hop, nbytes, tag=f"f{i}"
            )
        )
    if sc["stall"] is not None:
        stall, length = sc["stall"]
        eng.call_at(stall * _TICK).add_callback(
            lambda _e: fab.stall_channel("hub")
        )
        eng.call_at((stall + length) * _TICK).add_callback(
            lambda _e: fab.unstall_channel("hub")
        )
    rates = []
    eng.add_flush_hook(
        lambda: rates.append((
            eng.now,
            tuple(float(f.rate).hex() for f in fab.flows_on("hub")),
            tuple(float(f.rate).hex() for f in fab.flows_on("side")),
        ))
    )
    eng.run()
    busy = {name: ch.busy_time for name, ch in fab.channels.items()}
    return tracer.records, rates, busy, eng.now


_sizes = st.integers(64 * KiB, 8 * MiB)
_hub_scenarios = st.fixed_dictionaries({
    "beta": st.floats(gbps(4), gbps(64)),
    "hub": st.one_of(
        # one size for every flow, or a size each
        st.tuples(
            _sizes, st.lists(st.integers(0, 8), min_size=1, max_size=6)
        ).map(lambda t: [(t[0], tick) for tick in t[1]]),
        st.lists(st.tuples(_sizes, st.integers(0, 8)), min_size=1, max_size=6),
    ),
    "side": st.lists(st.tuples(_sizes, st.integers(0, 8)), max_size=3),
    "stall": st.none() | st.tuples(st.integers(0, 10), st.integers(1, 10)),
    "cross": st.none() | st.tuples(_sizes, st.integers(0, 8)),
})


class TestOneChannelClosedForm:
    """A one-channel solve assigns β/n: the same floats progressive
    filling computes, on the incremental fabric and the reference."""

    @settings(max_examples=200, deadline=None)
    @given(_hub_scenarios)
    # A side flow finishes at the instant a hub flow is admitted beside
    # the hub's stalled flow: the admit cancels the wakeup due now, which
    # must fire within this timestamp, as the reference's does.
    @example({
        "beta": 4e9,
        "hub": [(65536, 0), (65536, 8)],
        "side": [(160000, 0), (760000, 0), (1000000, 0)],
        "stall": (0, 8),
        "cross": None,
    })
    def test_matches_progressive_filling(self, sc):
        records, rates, busy, now = _hub_run(sc, full_recompute=False)
        assert (records, rates, busy, now) == _hub_run(sc, full_recompute=True)
        assert len(records) == len(sc["hub"]) + len(sc["side"]) + (
            sc["cross"] is not None
        )

    def test_member_crossing_another_channel_takes_the_general_fill(self):
        eng = Engine()
        fab = Fabric(eng)
        fab.add_channel("hub", alpha=0.0, beta=gbps(8))
        fab.add_channel("x", alpha=0.0, beta=gbps(2))
        fab.copy(("hub", "x"), 8 * MiB, tag="cross")
        fab.copy("hub", 8 * MiB, tag="solo")
        eng.run(until=1e-4)
        # one dirty channel, but its first member also crosses x: β/2
        # each would be wrong, the fill gives the max-min split
        rates = {f.tag: f.rate for f in fab.flows_on("hub")}
        assert rates == {"cross": gbps(2), "solo": gbps(8) - gbps(2)}
        assert (fab.rate_recomputes, fab.solver_channels) == (1, 2)


class TestFastPathCounters:
    def test_disjoint_copies_skip_recomputes(self):
        eng = Engine()
        fab = Fabric(eng)
        for i in range(6):
            fab.add_channel(f"c{i}", alpha=0.0, beta=gbps(5))
        events = [fab.copy(f"c{i}", 4 * MiB) for i in range(6)]
        eng.run(until=eng.all_of(events))
        assert fab.solver_fast_admits == 6
        assert fab.rate_recomputes == 0
        for ev in events:
            assert ev.value.duration == pytest.approx(4 * MiB / gbps(5))

    def test_shared_channel_still_recomputes(self):
        eng = Engine()
        fab = Fabric(eng)
        fab.add_channel("hub", alpha=0.0, beta=gbps(4))
        done = [fab.copy("hub", 4 * MiB), fab.copy("hub", 4 * MiB)]
        eng.run(until=eng.all_of(done))
        # second admit shares the hub: no fast path for it
        assert fab.solver_fast_admits == 1
        assert fab.rate_recomputes > 0
        assert eng.now == pytest.approx(8 * MiB / gbps(4))

    def test_stats_snapshot_reports_fast_paths(self):
        eng = Engine()
        fab = Fabric(eng)
        fab.add_channel("c", alpha=0.0, beta=gbps(1))
        fab.copy("c", MiB)
        eng.run()
        snap = fab.stats_snapshot()
        assert snap["solver_fast_admits"] == 1
        assert snap["solver_fast_finishes"] == 0  # last flow out: recompute
        assert snap["solver_channels"] == 0  # no progressive filling ran
        assert "events_cancelled" in snap

    def test_solver_channels_counts_filled_channels(self):
        eng = Engine()
        fab = Fabric(eng)
        fab.add_channel("a", alpha=0.0, beta=gbps(2))
        fab.add_channel("b", alpha=0.0, beta=gbps(2))
        fab.copy(("a", "b"), MiB)
        fab.copy("a", MiB)
        eng.run()
        # one solve, at the second admit, fills both channels; the two
        # flows then finish together and leave nothing to solve
        assert fab.rate_recomputes == 1
        assert fab.stats_snapshot()["solver_channels"] == 2
        fab.reset_stats()
        assert fab.solver_channels == 0

    def test_solve_covers_only_the_changed_component(self):
        eng = Engine()
        fab = Fabric(eng)
        for hub in ("hub0", "hub1"):
            fab.add_channel(hub, alpha=0.0, beta=gbps(4))
            fab.copy(hub, 4 * MiB)
            fab.copy(hub, 4 * MiB)
        eng.run(until=1e-4)
        # the four same-instant admits batch into one solve of both hubs
        assert (fab.rate_recomputes, fab.solver_channels) == (1, 2)
        fab.copy("hub0", MiB)
        eng.run(until=2e-4)
        # a third flow on hub0 re-solves hub0 alone
        assert (fab.rate_recomputes, fab.solver_channels) == (2, 3)
        assert [f.rate for f in fab.flows_on("hub0")] == [gbps(4) / 3] * 3
        assert [f.rate for f in fab.flows_on("hub1")] == [gbps(4) / 2] * 2

    def test_flows_on_uses_membership_index(self):
        eng = Engine()
        fab = Fabric(eng)
        fab.add_channel("a", alpha=0.0, beta=gbps(2))
        fab.add_channel("b", alpha=0.0, beta=gbps(2))
        fab.copy(("a", "b"), 8 * MiB, tag="both")
        fab.copy("a", 8 * MiB, tag="solo")
        eng.run(until=1e-4)
        tags_a = [f.tag for f in fab.flows_on("a")]
        assert tags_a == ["both", "solo"]  # admit order preserved
        assert [f.tag for f in fab.flows_on("b")] == ["both"]
        assert fab.flows_on("nonexistent") == []
        eng.run()
        assert fab.flows_on("a") == []


class TestHeapHygiene:
    def test_windowed_bw_cancels_stale_wakeups(self):
        clear_caches()
        setup = get_setup("beluga")
        env = setup.env(dynamic_config())
        osu_bw(env, 8 * MiB, window=16, iterations=4, warmup=1)
        snap = env.last_context.engine.stats_snapshot()
        assert snap["events_cancelled"] > 0
        assert snap["queued"] == 0  # drained: no leaked wakeups
        # the heap stays a small fraction of total event traffic
        assert snap["peak_queued"] < snap["events_processed"] / 10

    def test_long_chain_keeps_heap_bounded(self):
        eng = Engine()
        fab = Fabric(eng)
        fab.add_channel("hub", alpha=0.0, beta=gbps(8))
        fab.add_channel("edge", alpha=0.0, beta=gbps(16))

        def chain(remaining: int) -> None:
            if remaining <= 0:
                return
            fab.copy(("edge", "hub"), MiB).add_callback(
                lambda _ev: chain(remaining - 1)
            )

        chain(300)
        # a competing stream so every admit/finish perturbs rates
        for k in range(50):
            eng.call_at(k * 1e-4).add_callback(
                lambda _ev: fab.copy("hub", 2 * MiB)
            )
        eng.run()
        snap = eng.stats_snapshot()
        assert fab.flows_completed == 350
        assert snap["queued"] == 0
        assert snap["peak_queued"] < 100  # not O(total flows)
        assert snap["events_cancelled"] > 0
