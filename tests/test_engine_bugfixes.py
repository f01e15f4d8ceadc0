"""Dedicated regression tests for the three ISSUE-6 engine bugfixes.

Each test fails on the pre-slab engine (tuple-heap ``step()``):

1. ``step`` advanced ``self.now`` to a popped entry's timestamp *before*
   checking ``event.cancelled``, so the final clock after ``run()`` could
   reflect a cancelled wakeup that never fired.
2. ``Process._step`` registered ``add_callback`` on a yielded event that
   was already cancelled — the callback can never fire, so the process
   deadlocked silently (and ``run()`` reported a bogus deadlock only if
   nothing else was queued).
3. ``peak_queued`` counted tombstoned heap entries, overstating the peak
   backlog after heavy ``cancel()`` traffic.
"""

import pytest

from repro.sim import Engine, SimError


class TestClockSkipsTombstones:
    def test_trailing_tombstone_does_not_set_final_clock(self):
        # The cancelled wakeup at t=3 is the last heap entry; popping it
        # must not move the clock past the last *live* event at t=1.
        eng = Engine()
        eng.call_at(1.0)
        eng.cancel(eng.call_at(3.0))
        eng.run()
        assert eng.now == 1.0
        assert eng.stats_snapshot()["now"] == 1.0

    def test_step_over_tombstone_keeps_clock(self):
        eng = Engine()
        eng.cancel(eng.call_at(2.0))
        live = eng.call_at(5.0)
        eng.step()  # consumes the tombstone only
        assert eng.now == 0.0
        assert not live.triggered
        eng.step()
        assert eng.now == 5.0 and live.triggered

    def test_interleaved_tombstones_invisible_to_timeline(self):
        eng = Engine()
        seen = []
        for t in (1.0, 2.0, 3.0, 4.0):
            ev = eng.call_at(t)
            if t in (2.0, 4.0):
                eng.cancel(ev)
            else:
                ev.add_callback(lambda _e: seen.append(eng.now))
        eng.run()
        assert seen == [1.0, 3.0]
        assert eng.now == 3.0  # not 4.0: that entry was a tombstone


class TestCancelledYieldFailsProcess:
    def test_yielding_cancelled_event_raises_descriptive_error(self):
        eng = Engine()
        doomed = eng.call_at(4.0)
        eng.cancel(doomed)

        def proc():
            yield eng.timeout(1.0)
            yield doomed  # would never resume: must fail, not hang

        with pytest.raises(SimError, match="cancelled event"):
            eng.run(until=eng.process(proc()))
        assert eng.now == 1.0

    def test_waiting_parent_sees_the_failure(self):
        eng = Engine()
        doomed = eng.call_at(4.0)
        eng.cancel(doomed)

        def child():
            yield doomed

        def parent():
            try:
                yield eng.process(child())
            except SimError as exc:
                return f"caught: {exc}"

        result = eng.run(until=eng.process(parent()))
        assert result.startswith("caught:")
        assert "cancelled event" in result

    def test_add_callback_on_cancelled_event_is_an_error(self):
        eng = Engine()
        ev = eng.call_at(1.0)
        eng.cancel(ev)
        with pytest.raises(SimError, match="cancelled"):
            ev.add_callback(lambda _e: None)

    def test_first_yield_already_cancelled(self):
        # The very first target a process waits on is cancelled: the
        # failure must surface at process start, not hang the run.
        eng = Engine()
        doomed = eng.call_at(2.0)
        eng.cancel(doomed)

        def proc():
            yield doomed

        with pytest.raises(SimError, match="cancelled event"):
            eng.run(until=eng.process(proc()))


class TestPeakQueuedCountsLiveOnly:
    def test_lazy_cancellation_does_not_inflate_peak(self):
        eng = Engine()
        # 10 live + 40 cancelled-in-place: stays below the compaction
        # threshold (64 tombstones), so the tombstones sit in the heap —
        # but the reported peak must only ever count live entries.
        live = [eng.call_at(100.0 + i) for i in range(10)]
        for i in range(40):
            eng.cancel(eng.call_at(1.0 + i))
        assert eng.queued == 50  # tombstones really are still queued
        # each churn event was live for an instant before its cancel, so
        # the true high-water mark is 10 + 1 — nowhere near the 50 heap
        # entries the tombstone-counting implementation reported
        assert eng.peak_queued == 11
        eng.run()
        assert all(ev.triggered for ev in live)
        assert eng.peak_queued == 11

    def test_peak_tracks_high_water_mark_of_live_entries(self):
        eng = Engine()
        first = eng.call_at(1.0)
        second = eng.call_at(2.0)
        assert eng.peak_queued == 2
        eng.cancel(second)
        third = eng.call_at(3.0)  # live again at 2: no new peak
        assert eng.peak_queued == 2
        eng.call_at(4.0)
        assert eng.peak_queued == 3
        eng.run()
        assert first.triggered and third.triggered


class TestCompactionInsideRun:
    def test_compaction_from_a_callback_keeps_the_timeline(self):
        # A callback cancels most of the heap, which compacts it while
        # run() is draining; the loop must keep popping the live heap.
        eng = Engine()
        late = [eng.call_at(10.0 + i) for i in range(100)]
        fired: list[tuple[str, float]] = []
        for ev in late:
            ev.add_callback(lambda _e: fired.append(("late", eng.now)))

        def cancel_most(_arg):
            for ev in late[:80]:
                eng.cancel(ev)
            assert eng.heap_compactions == 1
            eng.schedule_fn(5.0, lambda _a: fired.append(("f", eng.now)))

        eng.schedule_fn(1.0, cancel_most)
        eng.run()
        assert fired[0] == ("f", 5.0)
        assert fired[1:] == [("late", 90.0 + i) for i in range(20)]
        assert eng.queued == 0
        assert eng.now == 109.0


class TestCancelFiredHandle:
    def test_cancelling_a_fired_handle_is_a_no_op(self):
        eng = Engine()
        ran = []
        h = eng.schedule_fn(1.0, lambda _a: ran.append("f"))
        eng.run()
        eng.schedule_fn(2.0, lambda _a: ran.append("g"))
        assert eng.cancel_handle(h) is False
        eng.run()
        assert ran == ["f", "g"]
        assert eng.events_cancelled == 0
