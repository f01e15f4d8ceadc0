"""Tests for the transfer service: TransferManager + LoadTracker.

Covers the bit-identity guarantee (default config == bare dispatch),
admission control (per-pair and global caps, no cross-pair head-of-line
blocking), load accounting, cancellation and expiry, and the re-routed
entry points (context.put, endpoints, MPI traffic).
"""

import numpy as np
import pytest

from repro.runtime import (
    IDLE_SNAPSHOT,
    LoadSnapshot,
    LoadTracker,
    load_bucket,
)
from repro.sim import Engine, Tracer
from repro.topology import systems
from repro.ucx import TransportConfig, UCXContext
from repro.units import KiB, MiB


def make_ctx(topology=None, **kw):
    eng = Engine()
    ctx = UCXContext(eng, topology or systems.beluga(), **kw)
    return eng, ctx


class TestLoadBucket:
    def test_small_counts_exact(self):
        assert [load_bucket(i) for i in (0, 1, 2)] == [0, 1, 2]

    def test_powers_of_two_above_two(self):
        assert load_bucket(3) == 4
        assert load_bucket(4) == 4
        assert load_bucket(5) == 8
        assert load_bucket(9) == 16

    def test_capped(self):
        assert load_bucket(500) == 16

    def test_negative_clamps_to_zero(self):
        assert load_bucket(-3) == 0


class TestLoadTracker:
    def _plan(self, ctx, nbytes=8 * MiB):
        return ctx.planner.plan(0, 1, nbytes)

    def test_acquire_release_roundtrip(self):
        _, ctx = make_ctx()
        tracker = LoadTracker()
        plan = self._plan(ctx)
        hold = tracker.acquire(plan)
        assert not tracker.is_idle
        snap = tracker.snapshot()
        assert not snap.is_idle
        # every channel of every active hop is loaded by exactly this plan
        for a in plan.active_assignments:
            for hop in a.path.hops:
                for channel in hop:
                    assert tracker.flows_on(channel) >= 1
                    assert snap.flows_on(channel) >= 1
        tracker.release(hold)
        assert tracker.is_idle
        assert tracker.snapshot() is IDLE_SNAPSHOT

    def test_release_is_idempotent(self):
        _, ctx = make_ctx()
        tracker = LoadTracker()
        hold = tracker.acquire(self._plan(ctx))
        tracker.release(hold)
        tracker.release(hold)  # no-op, must not go negative
        assert tracker.is_idle
        assert tracker.releases == 1

    def test_overlapping_holds_stack(self):
        _, ctx = make_ctx()
        tracker = LoadTracker()
        plan = self._plan(ctx)
        h1, h2 = tracker.acquire(plan), tracker.acquire(plan)
        channel = plan.active_assignments[0].path.hops[0][0]
        assert tracker.flows_on(channel) == 2
        tracker.release(h1)
        assert tracker.flows_on(channel) == 1
        tracker.release(h2)
        assert tracker.is_idle
        assert tracker.peak_channel_flows >= 2

    def test_snapshot_is_frozen(self):
        _, ctx = make_ctx()
        tracker = LoadTracker()
        hold = tracker.acquire(self._plan(ctx))
        snap = tracker.snapshot()
        before = snap.bucket_key()
        tracker.release(hold)
        assert snap.bucket_key() == before  # not a live view

    def test_hop_load_uses_busiest_channel(self):
        snap = LoadSnapshot({"a": 1, "b": 5})
        assert snap.hop_load(("a", "b")) == load_bucket(5)
        assert snap.hop_load(("a",)) == 1
        assert snap.hop_load(("c",)) == 0

    def test_bucket_key_canonical(self):
        assert LoadSnapshot({"b": 3, "a": 1}).bucket_key() == (
            ("a", 1),
            ("b", 4),
        )
        # zero-flow channels are dropped: idle keys like load=None
        assert LoadSnapshot({"a": 0}).bucket_key() == ()


class TestBitIdentity:
    """Default config through the manager == a bare ``start_put``."""

    @pytest.mark.parametrize("nbytes", [64 * KiB, 8 * MiB, 64 * MiB])
    def test_single_put_timeline_identical(self, nbytes):
        t_direct, t_managed = Tracer(), Tracer()
        eng1, ctx1 = make_ctx(tracer=t_direct)
        eng2, ctx2 = make_ctx(tracer=t_managed)
        r1 = eng1.run(until=ctx1.cuda_ipc.start_put(0, 1, nbytes, tag="t"))
        r2 = eng2.run(until=ctx2.put(0, 1, nbytes, tag="t"))
        assert r1 == r2  # PutResult is a frozen dataclass: field-exact
        assert eng1.now == eng2.now
        assert t_direct.records == t_managed.records

    def test_window_of_puts_identical(self):
        t_direct, t_managed = Tracer(), Tracer()
        eng1, ctx1 = make_ctx(tracer=t_direct)
        eng2, ctx2 = make_ctx(tracer=t_managed)
        evs1 = [
            ctx1.cuda_ipc.start_put(0, 1, 4 * MiB, tag=f"w{i}") for i in range(4)
        ]
        evs2 = [ctx2.put(0, 1, 4 * MiB, tag=f"w{i}") for i in range(4)]
        eng1.run(until=eng1.all_of(evs1))
        eng2.run(until=eng2.all_of(evs2))
        assert eng1.now == eng2.now
        assert t_direct.records == t_managed.records

    def test_contention_aware_idle_put_identical(self):
        """A lone put plans at idle load: awareness must change nothing."""
        cfg = TransportConfig(contention_aware=True)
        t_blind, t_aware = Tracer(), Tracer()
        eng1, ctx1 = make_ctx(tracer=t_blind)
        eng2, ctx2 = make_ctx(tracer=t_aware, config=cfg)
        r1 = eng1.run(until=ctx1.put(0, 1, 32 * MiB, tag="t"))
        r2 = eng2.run(until=ctx2.put(0, 1, 32 * MiB, tag="t"))
        assert r1 == r2
        assert t_blind.records == t_aware.records


class TestAdmissionControl:
    def test_per_pair_cap_serializes(self):
        cfg = TransportConfig(max_inflight_per_pair=1)
        eng, ctx = make_ctx(config=cfg)
        evs = [ctx.put(0, 1, 4 * MiB, tag=f"s{i}") for i in range(3)]
        assert ctx.transfers.queue_depth == 2  # first admitted, rest queued
        eng.run(until=eng.all_of(evs))
        results = [e.value for e in evs]
        # strictly serialized: each put starts after the previous ended
        for prev, nxt in zip(results, results[1:]):
            assert nxt.start >= prev.end
        stats = ctx.transfers.stats_snapshot()
        assert stats["queue_depth"] == 0
        assert stats["completed"] == 3
        assert stats["peak_inflight"] == 1
        assert stats["peak_queue_depth"] == 2

    def test_serialized_pair_is_slower_than_concurrent(self):
        eng1, ctx1 = make_ctx()
        evs = [ctx1.put(0, 1, 16 * MiB, tag=f"c{i}") for i in range(3)]
        eng1.run(until=eng1.all_of(evs))
        concurrent = eng1.now
        cfg = TransportConfig(max_inflight_per_pair=1)
        eng2, ctx2 = make_ctx(config=cfg)
        evs = [ctx2.put(0, 1, 16 * MiB, tag=f"c{i}") for i in range(3)]
        eng2.run(until=eng2.all_of(evs))
        assert eng2.now > concurrent

    def test_blocked_pair_does_not_block_others(self):
        cfg = TransportConfig(max_inflight_per_pair=1)
        eng, ctx = make_ctx(config=cfg)
        # two puts on (0,1): the second queues; (2,3) submitted after it
        # must still dispatch immediately.
        first = ctx.put(0, 1, 64 * MiB, tag="a0")
        second = ctx.put(0, 1, 64 * MiB, tag="a1")
        other = ctx.put(2, 3, 4 * MiB, tag="b0")
        eng.run(until=eng.all_of([first, second, other]))
        assert other.value.end < second.value.start

    def test_global_cap(self):
        cfg = TransportConfig(max_inflight_total=1)
        eng, ctx = make_ctx(config=cfg)
        evs = [
            ctx.put(0, 1, 4 * MiB, tag="g0"),
            ctx.put(2, 3, 4 * MiB, tag="g1"),
        ]
        assert ctx.transfers.inflight == 1
        assert ctx.transfers.queue_depth == 1
        eng.run(until=eng.all_of(evs))
        assert evs[1].value.start >= evs[0].value.end
        assert ctx.transfers.stats_snapshot()["peak_inflight"] == 1

    def test_failed_transfer_unblocks_queue(self):
        cfg = TransportConfig(max_inflight_per_pair=1)
        eng, ctx = make_ctx(config=cfg)
        bad = ctx.put(0, 99, 4 * MiB, tag="bad")  # invalid device
        queued = ctx.put(0, 99, 4 * MiB, tag="q")
        with pytest.raises(Exception, match="out of range"):
            eng.run(until=eng.all_of([bad, queued]))
        assert not bad.ok
        stats = ctx.transfers.stats_snapshot()
        assert stats["failed"] >= 1
        assert stats["queue_depth"] == 0  # failure still pumps the queue

    def test_negative_size_rejected_at_submit(self):
        _, ctx = make_ctx()
        with pytest.raises(ValueError):
            ctx.put(0, 1, -1)

    def test_non_integer_size_rejected_at_submit(self):
        """A float size would replay the graph compiled for its
        truncation and book the fraction as delivered."""
        eng, ctx = make_ctx()
        eng.run(until=ctx.put(0, 1, 4 * MiB))
        done = ctx.transfers.submitted
        for size in (4 * MiB + 0.5, 4.0 * MiB, "4194304"):
            with pytest.raises(TypeError):
                ctx.put(0, 1, size)
        assert ctx.transfers.submitted == done
        assert ctx.transfers.bytes_submitted == 4 * MiB

    def test_numpy_integer_size_completes(self):
        eng, ctx = make_ctx()
        result = eng.run(until=ctx.put(0, 1, np.int64(4 * MiB)))
        assert result.nbytes == 4 * MiB
        assert ctx.transfers.completed == 1


class TestEntryPoints:
    def test_context_put_routes_through_manager(self):
        eng, ctx = make_ctx()
        eng.run(until=ctx.put(0, 1, 4 * MiB))
        assert ctx.transfers.submitted == 1
        assert ctx.transfers.completed == 1

    def test_endpoint_routes_through_manager(self):
        eng, ctx = make_ctx()
        ep = ctx.endpoint(0, 1)
        eng.run(until=ep.put(4 * MiB))
        eng.run(until=ep.get(4 * MiB))
        assert ctx.transfers.submitted == 2

    def test_mpi_traffic_routes_through_manager(self):
        from repro.mpi.comm import Communicator

        eng, ctx = make_ctx()
        comm = Communicator(ctx)

        def program(view):
            if view.rank == 0:
                yield from view.send(1, nbytes=4 * MiB)
            elif view.rank == 1:
                yield from view.recv(0)

        eng.run(until=comm.run_ranks(program))
        assert ctx.transfers.submitted == 1
        assert ctx.transfers.completed == 1

    def test_load_settles_to_idle_after_traffic(self):
        eng, ctx = make_ctx()
        evs = [ctx.put(0, 1, 8 * MiB, tag=f"p{i}") for i in range(3)]
        eng.run(until=eng.all_of(evs))
        assert ctx.transfers.load.is_idle
        load = ctx.transfers.stats_snapshot()["load"]
        assert load["acquires"] == load["releases"] == 3
        assert load["inflight_flows"] == 0
        assert load["peak_channel_flows"] >= 1


class TestObservabilityWiring:
    def test_queue_metrics_and_spans(self):
        from repro.obs import Observability

        cfg = TransportConfig(max_inflight_per_pair=1)
        obs = Observability()
        eng, ctx = make_ctx(config=cfg, tracer=Tracer(), obs=obs)
        evs = [ctx.put(0, 1, 4 * MiB, tag=f"q{i}") for i in range(2)]
        eng.run(until=eng.all_of(evs))
        snap = obs.metrics.snapshot()
        assert snap["transfer_manager"]["queued"] == 1
        queue_spans = [
            s for s in ctx.flight.iter_spans() if s.kind == "admission.queue"
        ]
        assert len(queue_spans) == 1
        (span,) = queue_spans
        assert span.t1 > span.t0  # real time spent waiting
        assert ctx.flight.get(span.parent).attrs["tag"] == "q1"
        assert snap["transfer_manager"]["queue_depth"] == 0
        # the wait itself is the flight recorder's queue_wait stage
        wait = snap["tracing"]["stages"]["queue_wait"]
        assert wait["count"] == 1 and wait["max"] == span.t1 - span.t0

    def test_zero_byte_put_via_manager(self):
        eng, ctx = make_ctx()
        result = eng.run(until=ctx.put(0, 1, 0))
        assert result.nbytes == 0
        assert result.bandwidth == 0.0


class TestCancellation:
    """Satellite: queued transfers are cancellable and expirable without
    stranding siblings or leaking load accounting."""

    def test_cancel_queued_frees_slot_and_fails_event(self):
        from repro.gpu.errors import TransferCancelled

        cfg = TransportConfig(max_inflight_per_pair=1)
        eng, ctx = make_ctx(config=cfg)
        first = ctx.put(0, 1, 4 * MiB, tag="a")
        victim = ctx.put(0, 1, 4 * MiB, tag="b")
        third = ctx.put(0, 1, 4 * MiB, tag="c")
        assert ctx.transfers.cancel(victim) is True
        assert victim.triggered and not victim.ok
        assert isinstance(victim._exception, TransferCancelled)
        eng.run(until=eng.all_of([first, third]))
        stats = ctx.transfers.stats_snapshot()
        assert stats["cancelled"] == 1
        assert stats["completed"] == 2
        assert stats["queue_depth"] == 0
        # the cancelled slot was freed: c ran right after a, not after b
        assert third.value.start >= first.value.end

    def test_cancel_dispatched_or_unknown_returns_false(self):
        eng, ctx = make_ctx()
        ev = ctx.put(0, 1, 4 * MiB, tag="d")  # dispatches immediately
        assert ctx.transfers.cancel(ev) is False
        eng.run(until=ev)
        assert ctx.transfers.cancel(ev) is False  # completed: still False
        assert ctx.transfers.cancelled == 0

    def test_expiry_does_not_strand_queued_siblings(self):
        from repro.gpu.errors import DeadlineUnsatisfiable

        cfg = TransportConfig(max_inflight_per_pair=1)
        eng, ctx = make_ctx(config=cfg)
        big = ctx.put(0, 1, 8 * MiB, tag="big")
        # A deadline generous enough to pass admission (predicted service
        # time fits) but far shorter than the big head transfer it queues
        # behind — so it expires in the queue, via the flush-hook sweep.
        short = 3 * ctx.planner.predict_time(0, 1, 16 * KiB)
        doomed = ctx.put(0, 1, 16 * KiB, tag="s0", timeout=short)
        siblings = [
            ctx.put(0, 1, 16 * KiB, tag=f"s{i}") for i in range(1, 4)
        ]
        eng.run()
        assert big.ok
        assert not doomed.ok
        assert isinstance(doomed._exception, DeadlineUnsatisfiable)
        for ev in siblings:
            assert ev.ok
            assert ev.value.nbytes == 16 * KiB
        # the sweep's rebuilt queue kept the survivors in FIFO order
        for before, after in zip(siblings, siblings[1:]):
            assert after.value.start >= before.value.end
        stats = ctx.transfers.stats_snapshot()
        assert stats["expired"] == 1
        assert stats["completed"] == 4  # big + the three siblings
        assert stats["queue_depth"] == 0
        assert ctx.cuda_ipc.puts_issued == 4  # one put per dispatched request

    def test_load_idle_after_mass_cancellation(self):
        from repro.runtime import check_invariants

        cfg = TransportConfig(max_inflight_per_pair=1)
        eng, ctx = make_ctx(config=cfg)
        head = ctx.put(0, 1, 4 * MiB, tag="head")
        queued = [ctx.put(0, 1, 4 * MiB, tag=f"q{i}") for i in range(5)]
        for ev in queued:
            assert ctx.transfers.cancel(ev) is True
        eng.run(until=head)
        eng.run()
        assert ctx.transfers.load.is_idle
        assert ctx.transfers.cancelled == 5
        report = check_invariants(ctx)
        assert report.ok

    def test_cancelled_bytes_ledger_balances(self):
        cfg = TransportConfig(max_inflight_per_pair=1)
        eng, ctx = make_ctx(config=cfg)
        ctx.put(0, 1, 4 * MiB, tag="h")
        victim = ctx.put(0, 1, 2 * MiB, tag="v")
        ctx.transfers.cancel(victim)
        eng.run()
        b = ctx.transfers.stats_snapshot()["bytes"]
        assert b["submitted"] == 6 * MiB
        assert b["delivered"] == 4 * MiB
        assert b["cancelled"] == 2 * MiB
        assert b["inflight"] == 0


class TestZeroBandwidthRegression:
    """Satellite: zero-duration/zero-byte transfers report 0.0, never inf."""

    def test_transfer_result_zero_duration(self):
        from repro.sim.fabric import TransferResult

        r = TransferResult(nbytes=0, start=1.0, end=1.0, tag="z")
        assert r.bandwidth == 0.0

    def test_transfer_result_zero_bytes_nonzero_duration(self):
        from repro.sim.fabric import TransferResult

        r = TransferResult(nbytes=0, start=0.0, end=1.0, tag="z")
        assert r.bandwidth == 0.0

    def test_put_result_zero_duration(self):
        from repro.ucx.cuda_ipc import PutResult

        r = PutResult(
            src=0, dst=1, nbytes=0, protocol="eager", mode="single",
            start=2.0, end=2.0,
        )
        assert r.bandwidth == 0.0

    def test_planner_predict_bandwidth_zero_bytes(self):
        _, ctx = make_ctx()
        bw = ctx.planner.predict_bandwidth(0, 1, 0)
        assert bw == 0.0  # zero bytes over positive predicted time

    def test_plan_zero_predicted_time_bandwidth(self):
        from repro.core.planner import TransferPlan

        plan = TransferPlan(
            src=0, dst=1, nbytes=4, assignments=(), predicted_time=0.0
        )
        assert plan.predicted_bandwidth == 0.0
