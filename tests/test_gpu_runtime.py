"""Tests for the simulated GPU runtime (streams, events, copies, IPC)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import GPURuntime, IpcHandleCache, InvalidDevice, StreamError
from repro.gpu.errors import LinkFailure
from repro.gpu.event import GpuEvent
from repro.sim import Engine, Fabric, Tracer
from repro.sim.faults import FaultSchedule, LinkDown
from repro.topology import systems
from repro.ucx.context import UCXContext
from repro.units import KiB, MiB, gbps, us


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

    def test_push_from_last_op_callback_starts_at_once(self, rt):
        """A stream whose last op completes is idle inside that op's
        completion callbacks: an op they push starts inside the push,
        ahead of work they issue on another stream afterwards."""
        eng, runtime = rt
        s1, s2 = runtime.create_stream(0), runtime.create_stream(1)
        started = []

        def issue(_ev):
            s1.push(lambda: started.append("s1"))
            s2.push(lambda: started.append("s2"))

        s1.delay(1.0).add_callback(issue)
        eng.run()
        assert started == ["s1", "s2"]
        assert s1.idle and s2.idle

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


def _suffixes(n):
    """Per-chunk copy tag suffixes of an ``n``-chunk staged copy."""
    return (
        tuple(f":h1:{c}" for c in range(n)), tuple(f":h2:{c}" for c in range(n))
    )


def _staged_run(
    schedules, beta1, beta2, eps, *, oracle, fail_at=None, raise_tag=None,
    poison=None,
):
    """Staged copies of ``schedules`` (chunk-size lists), queued back to
    back on one pair of streams over two test channels.

    Without ``oracle`` each is one ``GPURuntime.staged_copy_async``; with
    it, each chunk is the GpuEvent sequence the staged copy replaces: a
    copy on s1, a record on s1, a wait on s2, an ε delay and a copy on
    s2.  ``fail_at`` takes hop 1's channel down then, ``raise_tag`` makes
    the copy with that tag raise ``RuntimeError`` at its start, and
    ``poison`` poisons s1 before the staged copies run: "idle" by an op
    whose start raises, "busy" by a 64 MiB hop-1 copy queued ahead of
    them that a LinkDown at 100 µs kills.  Returns the engine, the tracer,
    ``(done, landed finals)`` per staged copy, both streams and the
    raised exception, with the engine's list of ``schedule_fn`` times in
    call order.
    """
    eng = Engine()
    scheduled = []
    schedule_fn = eng.schedule_fn
    eng.schedule_fn = lambda at, fn, arg=None: (
        scheduled.append(at) or schedule_fn(at, fn, arg)
    )
    tracer = Tracer()
    runtime = GPURuntime(eng, systems.beluga())
    fab = Fabric(eng, tracer=tracer)
    fab.add_channel("h1", alpha=1 * us, beta=beta1)
    fab.add_channel("h2", alpha=2 * us, beta=beta2)
    runtime.fabric = fab  # copies run on the two test channels
    boom = RuntimeError("boom")
    if raise_tag is not None:
        copy = fab.copy

        def raising_copy(hop, nbytes, *, tag=""):
            if tag == raise_tag:
                raise boom
            return copy(hop, nbytes, tag=tag)

        fab.copy = raising_copy
    s1, s2 = runtime.create_stream(0), runtime.create_stream(1)
    if poison == "idle":
        def start():
            raise boom

        s1.push(start)
    elif poison == "busy":
        runtime.copy_on_hop_async("h1", 64 * MiB, s1, tag="ahead")
        fail_at = 100 * us
    runs = []
    for k, chunks in enumerate(schedules):
        tag = f"x{k}"
        h1s, h2s = _suffixes(len(chunks))
        if not oracle:
            runs.append(runtime.staged_copy_async(
                "h1", "h2", chunks, s1, s2, eps, tag=tag, suffixes=(h1s, h2s)
            ))
            continue
        finals = []
        for c, n in enumerate(chunks):
            runtime.copy_on_hop_async("h1", n, s1, tag=tag + h1s[c])
            s2.wait_event(GpuEvent(eng, f"{tag}{c}").record(s1))
            s2.delay(eps)
            finals.append(
                runtime.copy_on_hop_async("h2", n, s2, tag=tag + h2s[c])
            )
        runs.append((finals[-1], finals))
    if fail_at is not None:
        FaultSchedule(LinkDown("h1", at=fail_at)).attach(fab)
    eng.run()
    # an oracle's landed finals are known once the run is over
    runs = [(done, [ev for ev in landed if ev.ok]) for done, landed in runs]
    return eng, tracer, runs, (s1, s2), boom, scheduled


def _outcome(ev):
    return ev.value.end.hex() if ev.ok else type(ev._exception).__name__


def _same_run(new, oracle):
    """The staged copies and their oracle made the same copies at the same
    instants, with the same outcomes, in the same engine steps: each ε
    timer is scheduled where the oracle's delay was, among the fabric's
    own timers."""
    (eng, tracer, runs, _, _, sched), (eng_o, tracer_o, runs_o, _, _, sched_o) = (
        new, oracle
    )
    assert sched == sched_o
    assert tracer.records == tracer_o.records
    for (done, landed), (done_o, landed_o) in zip(runs, runs_o):
        assert _outcome(done) == _outcome(done_o)
        assert [_outcome(ev) for ev in landed] == [_outcome(ev) for ev in landed_o]
    assert (eng.now, eng.events_processed, eng._seq) == (
        eng_o.now, eng_o.events_processed, eng_o._seq
    )


_chunk_lists = st.lists(st.integers(4 * KiB, 4 * MiB), min_size=1, max_size=8)
_chunk_schedules = st.fixed_dictionaries({
    "chunks": _chunk_lists,
    # hop 2 both slower and faster than hop 1: s2 sometimes waits for the
    # chunk, sometimes finds its copy already done
    "beta1": st.floats(gbps(2), gbps(64)),
    "beta2": st.floats(gbps(2), gbps(64)),
    "eps": st.sampled_from([0.0, 1 * us, 5 * us, 40 * us]),
})


def _both(sched, **kw):
    """``(staged copy run, GpuEvent oracle run)`` of one schedule dict."""
    sched = dict(sched)
    schedules = [sched.pop("chunks")] + sched.pop("more", [])
    return [_staged_run(schedules, **sched, **kw, oracle=flag) for flag in (False, True)]


class TestStagingSync:
    """``GPURuntime.staged_copy_async`` equals the per-chunk record + wait
    + delay sequence it replaced (the GpuEvent oracle)."""

    @settings(max_examples=150, deadline=None)
    @given(_chunk_schedules)
    def test_one_op_sync_matches_gpu_event_oracle(self, sched):
        new, oracle = _both(sched)
        _same_run(new, oracle)
        (done, landed), = new[2]
        assert done.ok and len(landed) == len(sched["chunks"])
        assert done.value is landed[-1].value

    @settings(max_examples=100, deadline=None)
    @given(_chunk_schedules, st.floats(0.05, 0.95))
    def test_hop1_failure_poisons_like_the_oracle(self, sched, frac):
        # the link dies while hop 1 still has chunks to move
        fail_at = frac * sum(sched["chunks"]) / sched["beta1"]
        runs = _both(sched, fail_at=fail_at)
        for eng, _, ((done, landed),), streams, _, _ in runs:
            exc = done._exception
            assert isinstance(exc, LinkFailure)
            assert len(landed) < len(sched["chunks"])
            # both streams end poisoned with hop 1's own exception
            assert all(s._error is exc for s in streams)
            assert eng.queued == 0
        _same_run(*runs)

    @pytest.mark.parametrize("poison", ["idle", "busy"])
    @settings(max_examples=40, deadline=None)
    @given(sched=_chunk_schedules)
    def test_poisoned_first_stream_fails_both_like_the_oracle(self, poison, sched):
        """Stream 1 is poisoned before the staged copy's op runs: either
        when it is pushed, or by a failing copy ahead of it while stream
        2 already waits for chunk 0.  Both ops fail with stream 1's error,
        and no chunk is copied."""
        runs = _both(sched, poison=poison)
        for _, tracer, ((done, landed),), (s1, s2), boom, _ in runs:
            exc = s1._error
            if poison == "idle":
                assert exc is boom
            else:
                assert isinstance(exc, LinkFailure)
            assert done._exception is exc and s2._error is exc
            assert landed == []
            assert not any(r.tag.startswith("x0") for r in tracer.records)
        _same_run(*runs)

    @settings(max_examples=60, deadline=None)
    @given(
        _chunk_schedules, _chunk_lists,
        st.one_of(st.none(), st.floats(0.05, 1.5)),
    )
    def test_back_to_back_copies_match_the_oracle(self, sched, second, frac):
        """Two staged copies queued on the same two streams (an OSU
        window): the second's ops wait behind the first's on both streams,
        and a hop-1 outage poisons both alike."""
        fail_at = None
        if frac is not None:
            fail_at = frac * sum(sched["chunks"]) / sched["beta1"]
        new, oracle = _both({**sched, "more": [second]}, fail_at=fail_at)
        _same_run(new, oracle)
        if fail_at is None:
            assert all(done.ok for done, _ in new[2])

    @settings(max_examples=60, deadline=None)
    @given(
        _chunk_schedules.filter(lambda d: len(d["chunks"]) >= 2),
        st.sampled_from(["h1", "h2"]), st.data(),
    )
    def test_raising_copy_poisons_like_a_failing_copy(self, sched, hop, data):
        """A copy of chunk >= 1 whose start raises (from a completion
        callback, in the staged copy) fails its stream's op with that very
        exception and poisons the stream; nothing escapes ``engine.run``.
        A second staged copy queued behind fails with it too."""
        c = data.draw(st.integers(1, len(sched["chunks"]) - 1))
        runs = _both(
            {**sched, "more": [sched["chunks"]]}, raise_tag=f"x0:{hop}:{c}"
        )
        for _, _, ((done, landed), (done2, landed2)), (s1, s2), boom, _ in runs:
            assert done._exception is boom and done2._exception is boom
            assert len(landed) == c and landed2 == []
            assert s2._error is boom
            assert s1._error is (boom if hop == "h1" else None)
        _same_run(*runs)

    def test_rejects_no_chunks_and_negative_epsilon(self, rt):
        _, runtime = rt
        s1, s2 = runtime.create_stream(0), runtime.create_stream(1)
        hop1 = runtime.topology.direct_hop(0, 2)
        hop2 = runtime.topology.direct_hop(2, 1)
        with pytest.raises(ValueError):
            runtime.staged_copy_async(
                hop1, hop2, (), s1, s2, 0.0, tag="x", suffixes=((), ())
            )
        with pytest.raises(ValueError):
            runtime.staged_copy_async(
                hop1, hop2, (MiB,), s1, s2, -1.0, tag="x", suffixes=_suffixes(1)
            )
        assert runtime.copies_issued == 0 and s1.idle and s2.idle

    def test_every_copy_goes_through_a_wrapped_fabric_copy(self):
        # A layer tracer wraps fabric.copy on the built context's instance;
        # the runtime must look it up per copy, not cache the bound method.
        eng = Engine()
        ctx = UCXContext(eng, systems.beluga())
        fabric = ctx.runtime.fabric
        copy, calls = fabric.copy, []

        def wrapped(*args, **kwargs):
            calls.append(args[0])
            return copy(*args, **kwargs)

        fabric.copy = wrapped
        plan = ctx.planner.plan(0, 1, 64 * MiB)
        assert len(plan.active_assignments) == 4
        eng.run(until=ctx.put(0, 1, 64 * MiB))
        assert len(calls) == ctx.runtime.copies_issued > 4
        assert len(calls) == fabric.flows_completed


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
        assert ipc.cache.invalidations == 1
        ev = ipc.open(0, 1)
        eng.run(until=ev)
        assert ev.value == "miss"

    def test_partial_invalidate_keeps_statistics(self):
        """A free drops handles, not the lookups that already happened."""
        eng = Engine()
        ipc = IpcHandleCache(eng, open_cost=10 * us)
        for _ in range(2):
            eng.run(until=ipc.open(0, 1))
            eng.run(until=ipc.open(2, 3))
        ipc.invalidate(owner_device=0)
        stats = ipc.cache.stats()
        assert (stats["hits"], stats["misses"]) == (2, 2)
        assert stats["invalidations"] == 1 and stats["size"] == 1

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
