"""Regression tests for the engine's lazy cancellation.

Each of the first two failed on the pre-slab engine (tuple-heap
``step()``):

1. ``step`` advanced ``self.now`` to a popped entry's timestamp *before*
   checking whether the entry was cancelled, so the final clock after
   ``run()`` could reflect a cancelled wakeup that never fired.
2. ``peak_queued`` counted tombstoned heap entries, overstating the peak
   backlog after heavy cancellation traffic.

The others pin compaction from inside a running ``run()`` and cancelling
an entry that already fired.
"""

from repro.sim import Engine


def _noop(_arg) -> None:
    pass


class TestClockSkipsTombstones:
    def test_trailing_tombstone_does_not_set_final_clock(self):
        # The cancelled wakeup at t=3 is the last heap entry; popping it
        # must not move the clock past the last *live* event at t=1.
        eng = Engine()
        eng.call_at(1.0)
        eng.cancel_handle(eng.schedule_fn(3.0, _noop))
        eng.run()
        assert eng.now == 1.0
        assert eng.stats_snapshot()["now"] == 1.0

    def test_step_over_tombstone_keeps_clock(self):
        eng = Engine()
        eng.cancel_handle(eng.schedule_fn(2.0, _noop))
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
            handle = eng.schedule_fn(t, lambda _arg: seen.append(eng.now))
            if t in (2.0, 4.0):
                eng.cancel_handle(handle)
        eng.run()
        assert seen == [1.0, 3.0]
        assert eng.now == 3.0  # not 4.0: that entry was a tombstone


class TestPeakQueuedCountsLiveOnly:
    def test_lazy_cancellation_does_not_inflate_peak(self):
        eng = Engine()
        # 10 live + 40 cancelled-in-place: stays below the compaction
        # threshold (64 tombstones), so the tombstones sit in the heap —
        # but the reported peak must only ever count live entries.
        live = [eng.call_at(100.0 + i) for i in range(10)]
        for i in range(40):
            eng.cancel_handle(eng.schedule_fn(1.0 + i, _noop))
        assert eng.queued == 50  # tombstones really are still queued
        # each churn entry was live for an instant before its cancel, so
        # the true high-water mark is 10 + 1 — nowhere near the 50 heap
        # entries the tombstone-counting implementation reported
        assert eng.peak_queued == 11
        eng.run()
        assert all(ev.triggered for ev in live)
        assert eng.peak_queued == 11

    def test_peak_tracks_high_water_mark_of_live_entries(self):
        eng = Engine()
        first = eng.call_at(1.0)
        second = eng.schedule_fn(2.0, _noop)
        assert eng.peak_queued == 2
        eng.cancel_handle(second)
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
        fired: list[tuple[str, float]] = []
        late = [
            eng.schedule_fn(10.0 + i, lambda _arg: fired.append(("late", eng.now)))
            for i in range(100)
        ]

        def cancel_most(_arg):
            for handle in late[:80]:
                eng.cancel_handle(handle)
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
