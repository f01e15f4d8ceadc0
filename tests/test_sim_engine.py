"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Engine, SimError


class TestEventBasics:
    def test_succeed_carries_value(self):
        eng = Engine()
        ev = eng.event()
        ev.succeed(42)
        assert ev.triggered and ev.ok
        assert ev.value == 42

    def test_double_trigger_rejected(self):
        eng = Engine()
        ev = eng.event()
        ev.succeed()
        with pytest.raises(SimError):
            ev.succeed()

    def test_fail_requires_exception(self):
        eng = Engine()
        with pytest.raises(TypeError):
            eng.event().fail("not an exception")

    def test_value_before_trigger_raises(self):
        eng = Engine()
        with pytest.raises(SimError):
            _ = eng.event().value

    def test_callback_after_trigger_runs_immediately(self):
        eng = Engine()
        ev = eng.event()
        ev.succeed(7)
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == [7]


class TestTimeoutAndClock:
    def test_timeout_advances_clock(self):
        eng = Engine()
        t = eng.timeout(2.5)
        eng.run(until=t)
        assert eng.now == 2.5

    def test_negative_delay_rejected(self):
        eng = Engine()
        with pytest.raises(ValueError):
            eng.timeout(-1)

    def test_run_until_time(self):
        eng = Engine()
        fired = []
        eng.timeout(1.0).add_callback(lambda e: fired.append(1))
        eng.timeout(3.0).add_callback(lambda e: fired.append(3))
        eng.run(until=2.0)
        assert fired == [1]
        assert eng.now == 2.0

    def test_same_time_fifo_order(self):
        eng = Engine()
        order = []
        for i in range(5):
            eng.timeout(1.0).add_callback(lambda e, i=i: order.append(i))
        eng.run()
        assert order == [0, 1, 2, 3, 4]

    def test_schedule_in_past_rejected(self):
        eng = Engine()
        eng.run(until=5.0)
        with pytest.raises(SimError):
            eng.call_at(1.0)


class TestProcess:
    def test_simple_process_returns_value(self):
        eng = Engine()

        def proc():
            yield eng.timeout(1.0)
            yield eng.timeout(2.0)
            return "done"

        p = eng.process(proc())
        assert eng.run(until=p) == "done"
        assert eng.now == 3.0

    def test_process_receives_event_value(self):
        eng = Engine()
        ev = eng.event()

        def proc():
            got = yield ev
            return got * 2

        p = eng.process(proc())
        eng.timeout(1.0).add_callback(lambda e: ev.succeed(21))
        assert eng.run(until=p) == 42

    def test_process_waits_on_process(self):
        eng = Engine()

        def child():
            yield eng.timeout(5.0)
            return "child-result"

        def parent():
            result = yield eng.process(child())
            return f"got:{result}"

        assert eng.run(until=eng.process(parent())) == "got:child-result"
        assert eng.now == 5.0

    def test_failure_propagates_to_waiter(self):
        eng = Engine()

        def child():
            yield eng.timeout(1.0)
            raise ValueError("boom")

        def parent():
            try:
                yield eng.process(child())
            except ValueError as exc:
                return f"caught:{exc}"

        assert eng.run(until=eng.process(parent())) == "caught:boom"

    def test_uncaught_failure_raised_by_run(self):
        eng = Engine()

        def proc():
            yield eng.timeout(1.0)
            raise RuntimeError("unhandled")

        with pytest.raises(RuntimeError, match="unhandled"):
            eng.run(until=eng.process(proc()))

    def test_yield_non_event_fails_process(self):
        eng = Engine()

        def proc():
            yield 123

        with pytest.raises(SimError, match="must yield Event"):
            eng.run(until=eng.process(proc()))

    def test_non_generator_rejected(self):
        eng = Engine()
        with pytest.raises(TypeError):
            eng.process(lambda: None)

    def test_deadlock_detected(self):
        eng = Engine()
        ev = eng.event()  # never triggered

        def proc():
            yield ev

        with pytest.raises(SimError, match="deadlock"):
            eng.run(until=eng.process(proc()))


class TestCombinators:
    def test_all_of_waits_for_all(self):
        eng = Engine()
        barrier = eng.all_of([eng.timeout(1.0, "a"), eng.timeout(3.0, "b")])
        assert eng.run(until=barrier) == ["a", "b"]
        assert eng.now == 3.0

    def test_all_of_empty_succeeds_immediately(self):
        eng = Engine()
        assert eng.all_of([]).triggered

    def test_all_of_fails_fast(self):
        eng = Engine()

        def failing():
            yield eng.timeout(1.0)
            raise ValueError("x")

        barrier = eng.all_of([eng.process(failing()), eng.timeout(10.0)])
        with pytest.raises(ValueError):
            eng.run(until=barrier)
        assert eng.now == 1.0

    def test_all_of_child_failure_propagates_to_waiting_process(self):
        # A process waiting on the barrier must see the child's exception
        # (not hang until the surviving children finish).
        eng = Engine()

        def failing():
            yield eng.timeout(1.0)
            raise RuntimeError("child died")

        def waiter():
            try:
                yield eng.all_of([eng.process(failing()), eng.timeout(10.0)])
            except RuntimeError as exc:
                return f"caught: {exc}"
            return "not raised"

        assert eng.run(until=eng.process(waiter())) == "caught: child died"
        assert eng.now == 1.0

    def test_all_of_sibling_failures_keep_first_error(self):
        eng = Engine()

        def failing(delay, msg):
            yield eng.timeout(delay)
            raise RuntimeError(msg)

        barrier = eng.all_of(
            [eng.process(failing(1.0, "first")), eng.process(failing(2.0, "second"))]
        )
        with pytest.raises(RuntimeError, match="first"):
            eng.run(until=barrier)


class TestDeterminism:
    def test_identical_runs_produce_identical_timelines(self):
        def build_and_run():
            eng = Engine()
            log = []

            def worker(n, delay):
                for i in range(n):
                    yield eng.timeout(delay)
                    log.append((eng.now, delay, i))

            procs = [eng.process(worker(4, d)) for d in (0.3, 0.7, 1.1)]
            eng.run(until=eng.all_of(procs))
            return log

        assert build_and_run() == build_and_run()


class TestCancellation:
    def test_cancelled_event_never_fires(self):
        eng = Engine()
        fired = []
        ev = eng.call_at(1.0)
        ev.add_callback(lambda e: fired.append(eng.now))
        assert eng.cancel(ev) is True
        eng.run()
        assert fired == []
        assert not ev.triggered and ev.cancelled
        assert eng.events_cancelled == 1

    def test_cancelled_pop_does_not_touch_clock(self):
        # lazy cancellation must be fully unobservable: popping a tombstone
        # neither fires the callback nor moves `now` — only live events
        # advance the clock
        eng = Engine()
        ev = eng.call_at(2.0)
        eng.cancel(ev)
        eng.call_at(5.0)
        eng.run()
        assert eng.now == 5.0
        assert eng.events_processed == 1  # tombstone not counted

    def test_cancel_is_idempotent_and_rejects_triggered(self):
        eng = Engine()
        ev = eng.call_at(0.0)
        assert eng.cancel(ev) is True
        assert eng.cancel(ev) is False
        done = eng.call_at(0.0)
        eng.run()
        assert done.triggered
        assert eng.cancel(done) is False
        assert eng.events_cancelled == 1

    def test_succeed_after_cancel_rejected(self):
        eng = Engine()
        ev = eng.call_at(1.0)
        eng.cancel(ev)
        with pytest.raises(SimError):
            ev.succeed()

    def test_tombstone_compaction_shrinks_heap(self):
        eng = Engine()
        events = [eng.call_at(float(i + 1)) for i in range(200)]
        assert eng.queued == 200
        for ev in events[:150]:
            eng.cancel(ev)
        # compaction fires at the 100th cancel (>=64 tombstones and half
        # the heap); the trailing 50 tombstones stay below the threshold
        assert eng.heap_compactions == 1
        assert eng.queued == 100
        eng.run()
        assert eng.events_processed == 50  # live events only
        assert eng.queued == 0

    def test_stats_snapshot_reports_cancellations(self):
        eng = Engine()
        eng.cancel(eng.call_at(1.0))
        keep = eng.call_at(2.0)
        snap = eng.stats_snapshot()
        assert snap["events_cancelled"] == 1
        assert snap["queued"] == 2  # tombstone still queued pre-compaction
        assert snap["peak_queued"] == 1  # live entries only: no tombstones
        eng.run()
        assert keep.triggered
        assert eng.stats_snapshot()["queued"] == 0
