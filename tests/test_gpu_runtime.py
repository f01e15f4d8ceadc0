"""Tests for the simulated GPU runtime (streams, events, copies, IPC)."""

import pytest

from repro.gpu import GPURuntime, IpcHandleCache, InvalidDevice, StreamError
from repro.gpu.errors import LinkFailure
from repro.sim import Engine, Tracer
from repro.topology import systems
from repro.units import MiB, gbps, us


@pytest.fixture()
def rt():
    eng = Engine()
    return eng, GPURuntime(eng, systems.beluga())


class TestStreamOrdering:
    def test_fifo_within_stream(self, rt):
        eng, runtime = rt
        s = runtime.create_stream(0)
        order = []
        s.delay(3.0).add_callback(lambda ev: order.append(("a", eng.now)))
        copy = runtime.peer_copy_async(0, 1, 46 * MiB, s)
        copy.add_callback(lambda ev: order.append(("b", eng.now)))
        done = s.delay(1.0)
        done.add_callback(lambda ev: order.append(("c", eng.now)))
        eng.run(until=done)
        hop = runtime.topology.direct_hop(0, 1)
        one = runtime.topology.hop_alpha(hop) + 46 * MiB / gbps(46)
        # FIFO: the copy waits for the longer delay, the last delay for it
        assert [tag for tag, _ in order] == ["a", "b", "c"]
        assert order[0][1] == pytest.approx(3.0)
        assert order[1][1] == pytest.approx(3.0 + one, rel=1e-9)
        assert eng.now == pytest.approx(4.0 + one, rel=1e-9)
        assert copy.value.nbytes == 46 * MiB

    def test_streams_run_concurrently(self, rt):
        eng, runtime = rt
        s1 = runtime.create_stream(0)
        s2 = runtime.create_stream(1)
        d1 = s1.delay(2.0)
        d2 = s2.delay(2.0)
        eng.run(until=eng.all_of([d1, d2]))
        assert eng.now == pytest.approx(2.0)  # parallel, not 4.0

    def test_enqueue_after_destroy(self, rt):
        eng, runtime = rt
        s = runtime.create_stream(0)
        s.destroy()
        with pytest.raises(StreamError):
            s.delay(1.0)

    def test_failure_poisons_stream(self, rt):
        eng, runtime = rt
        runtime.fabric.fail_channel(runtime.topology.direct_hop(0, 1)[0])
        s = runtime.create_stream(0)
        first = s.delay(1.0)
        copy = runtime.peer_copy_async(0, 1, MiB, s)
        later = s.delay(1.0)
        after = runtime.peer_copy_async(0, 2, MiB, s)  # a healthy link
        with pytest.raises(LinkFailure):
            eng.run(until=later)
        assert first.ok
        # sticky: every later op fails with the copy's own exception
        assert later._exception is copy._exception
        assert after._exception is copy._exception
        assert s.idle
        with pytest.raises(LinkFailure):
            eng.run(until=s.delay(1.0))

    def test_failed_start_poisons_stream(self, rt):
        eng, runtime = rt
        s = runtime.create_stream(0)
        s.delay(1.0)
        bad = runtime.copy_on_hop_async(("no-such-channel",), MiB, s)
        later = s.delay(1.0)
        with pytest.raises(KeyError):
            eng.run(until=later)
        # the copy's start raised when it reached the head, at t=1
        assert later._exception is bad._exception
        assert eng.now == pytest.approx(1.0)

    def test_stream_ops_spawn_no_process(self, rt, monkeypatch):
        """One staged chunk (copy, record, wait, ε delay, copy) runs on
        completion callbacks alone, with the timing of the processes it
        replaced."""
        eng, runtime = rt
        spawned = []
        process = eng.process
        monkeypatch.setattr(
            eng,
            "process",
            lambda gen, name="": spawned.append(name) or process(gen, name),
        )
        s1, s2 = runtime.create_stream(0), runtime.create_stream(1)
        hop1 = runtime.topology.direct_hop(0, 1)
        hop2 = runtime.topology.direct_hop(1, 2)
        first = runtime.copy_on_hop_async(hop1, 46 * MiB, s1)
        arrived = runtime.create_event("c0").record(s1)
        s2.wait_event(arrived)
        s2.delay(5 * us)
        final = runtime.copy_on_hop_async(hop2, 46 * MiB, s2)
        eng.run(until=final)
        assert spawned == []
        one = runtime.topology.hop_alpha(hop1) + 46 * MiB / gbps(46)
        assert first.value.end == pytest.approx(one, rel=1e-12)
        assert arrived.complete_time == first.value.end
        assert final.value.start == first.value.end + 5 * us
        assert eng.now == pytest.approx(2 * one + 5 * us, rel=1e-12)

    def test_synchronize_idle_stream(self, rt):
        eng, runtime = rt
        s = runtime.create_stream(0)
        assert s.idle
        ev = s.synchronize()
        assert ev.triggered

    def test_negative_delay_rejected(self, rt):
        _, runtime = rt
        with pytest.raises(ValueError):
            runtime.create_stream(0).delay(-1)


class TestGpuEvents:
    def test_record_and_cross_stream_wait(self, rt):
        eng, runtime = rt
        s1 = runtime.create_stream(0)
        s2 = runtime.create_stream(1)
        s1.delay(3.0)
        ev = runtime.create_event("sync")
        ev.record(s1)
        s2.wait_event(ev)
        done = s2.delay(1.0)
        eng.run(until=done)
        # s2's delay could only start after s1's 3s of work
        assert eng.now == pytest.approx(4.0)

    def test_record_on_poisoned_stream_fails_cross_stream_waiters(self, rt):
        eng, runtime = rt
        runtime.fabric.fail_channel(runtime.topology.direct_hop(0, 1)[0])
        s1 = runtime.create_stream(0)
        s2 = runtime.create_stream(1)
        copy = runtime.peer_copy_async(0, 1, MiB, s1)
        ev = runtime.create_event("arrived")
        ev.record(s1)
        s2.wait_event(ev)
        done = s2.delay(1.0)
        with pytest.raises(LinkFailure) as failure:
            eng.run(until=done)
        # the copy's own exception reaches the other stream, unchanged
        assert failure.value is copy._exception
        assert ev.wait()._exception is copy._exception
        assert ev.complete_time is None

    def test_wait_before_record_rejected(self, rt):
        _, runtime = rt
        ev = runtime.create_event()
        with pytest.raises(StreamError):
            ev.wait()

    def test_re_record_while_pending_rejected(self, rt):
        eng, runtime = rt
        s = runtime.create_stream(0)
        s.delay(5.0)
        ev = runtime.create_event()
        ev.record(s)
        with pytest.raises(StreamError):
            ev.record(s)

    def test_elapsed_between_events(self, rt):
        eng, runtime = rt
        s = runtime.create_stream(0)
        e1 = runtime.create_event("start")
        e1.record(s)
        s.delay(2.5)
        e2 = runtime.create_event("stop")
        e2.record(s)
        eng.run(until=e2.wait())
        assert e2.elapsed_since(e1) == pytest.approx(2.5)

    def test_elapsed_requires_completion(self, rt):
        _, runtime = rt
        e1 = runtime.create_event()
        e2 = runtime.create_event()
        with pytest.raises(StreamError):
            e2.elapsed_since(e1)


class TestCopies:
    def test_peer_copy_time(self, rt):
        eng, runtime = rt
        s = runtime.create_stream(0)
        done = runtime.peer_copy_async(0, 1, 46 * MiB, s)
        eng.run(until=done)
        hop = runtime.topology.direct_hop(0, 1)
        expected = runtime.topology.hop_alpha(hop) + 46 * MiB / gbps(46)
        assert eng.now == pytest.approx(expected, rel=1e-9)

    def test_d2h_h2d_roundtrip(self, rt):
        eng, runtime = rt
        s = runtime.create_stream(0)
        runtime.d2h_copy_async(0, 0, 11 * MiB, s)
        done = runtime.h2d_copy_async(1, 0, 11 * MiB, s)
        eng.run(until=done)
        assert eng.now > 0

    def test_copies_on_same_stream_serialize(self, rt):
        eng, runtime = rt
        s = runtime.create_stream(0)
        runtime.peer_copy_async(0, 1, 46 * MiB, s)
        done = runtime.peer_copy_async(0, 1, 46 * MiB, s)
        eng.run(until=done)
        hop = runtime.topology.direct_hop(0, 1)
        one = runtime.topology.hop_alpha(hop) + 46 * MiB / gbps(46)
        assert eng.now == pytest.approx(2 * one, rel=1e-9)

    def test_copies_on_distinct_links_parallel(self, rt):
        eng, runtime = rt
        s1 = runtime.create_stream(0)
        s2 = runtime.create_stream(0)
        d1 = runtime.peer_copy_async(0, 1, 46 * MiB, s1)
        d2 = runtime.peer_copy_async(0, 2, 46 * MiB, s2)
        eng.run(until=eng.all_of([d1, d2]))
        hop = runtime.topology.direct_hop(0, 1)
        one = runtime.topology.hop_alpha(hop) + 46 * MiB / gbps(46)
        assert eng.now == pytest.approx(one, rel=1e-9)  # no contention

    def test_tracer_sees_copies(self):
        eng = Engine()
        tracer = Tracer()
        runtime = GPURuntime(eng, systems.beluga(), tracer=tracer)
        s = runtime.create_stream(0)
        eng.run(until=runtime.peer_copy_async(0, 1, 1 * MiB, s, tag="probe"))
        assert any(r.tag == "probe" for r in tracer.records)

    def test_invalid_device(self, rt):
        _, runtime = rt
        with pytest.raises(InvalidDevice):
            runtime.create_stream(9)
        with pytest.raises(InvalidDevice):
            runtime.device(-1)

    def test_synchronize_all(self, rt):
        eng, runtime = rt
        s1 = runtime.create_stream(0)
        s2 = runtime.create_stream(1)
        s1.delay(1.0)
        s2.delay(3.0)
        eng.run(until=runtime.synchronize_all())
        assert eng.now == pytest.approx(3.0)


class TestIpcCache:
    def test_miss_then_hit(self):
        eng = Engine()
        ipc = IpcHandleCache(eng, open_cost=20 * us)
        first = ipc.open(0, 1)
        eng.run(until=first)
        assert first.value == "miss"
        assert eng.now == pytest.approx(20 * us)
        second = ipc.open(0, 1)
        assert second.triggered and second.value == "hit"

    def test_distinct_pairs_are_distinct_entries(self):
        eng = Engine()
        ipc = IpcHandleCache(eng, open_cost=10 * us)
        eng.run(until=ipc.open(0, 1))
        ev = ipc.open(1, 0)  # reverse direction is a different mapping
        eng.run(until=ev)
        assert ev.value == "miss"

    def test_invalidate_owner(self):
        eng = Engine()
        ipc = IpcHandleCache(eng, open_cost=10 * us)
        eng.run(until=ipc.open(0, 1))
        eng.run(until=ipc.open(2, 3))
        ipc.invalidate(owner_device=0)
        ev01 = ipc.open(0, 1)
        ev23 = ipc.open(2, 3)
        eng.run(until=eng.all_of([ev01, ev23]))
        assert ev01.value == "miss"  # dropped
        assert ev23.value == "hit"  # untouched

    def test_invalidate_all(self):
        eng = Engine()
        ipc = IpcHandleCache(eng, open_cost=10 * us)
        eng.run(until=ipc.open(0, 1))
        ipc.invalidate()
        ev = ipc.open(0, 1)
        eng.run(until=ev)
        assert ev.value == "miss"

    def test_zero_cost_open(self):
        eng = Engine()
        ipc = IpcHandleCache(eng, open_cost=0.0)
        ev = ipc.open(0, 1)
        eng.run(until=ev)
        assert eng.now == 0.0

    def test_runtime_open_ipc_validates_devices(self):
        eng = Engine()
        runtime = GPURuntime(eng, systems.beluga())
        with pytest.raises(InvalidDevice):
            runtime.open_ipc(0, 99)
