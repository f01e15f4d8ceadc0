"""Tests for the trace sink's query helpers."""

import pytest

from repro.sim.trace import TraceRecord, Tracer


def make_tracer():
    t = Tracer()
    t.record("linkA", "x:h1:0", 0.0, 2.0, 100)
    t.record("linkA", "x:h1:1", 2.0, 4.0, 100)
    t.record("linkB", "x:h2:0", 2.5, 5.0, 100)
    return t


class TestTracer:
    def test_for_channel(self):
        t = make_tracer()
        assert len(t.for_channel("linkA")) == 2
        assert len(t.for_channel("nope")) == 0

    def test_for_tag_prefix(self):
        t = make_tracer()
        assert len(t.for_tag_prefix("x:h1")) == 2

    def test_total_bytes(self):
        t = make_tracer()
        assert t.total_bytes() == 300
        assert t.total_bytes("linkB") == 100

    def test_makespan(self):
        t = make_tracer()
        assert t.makespan() == pytest.approx(5.0)
        assert Tracer().makespan() == 0.0

    def test_overlap(self):
        a = TraceRecord("l", "a", 0.0, 2.0, 1)
        b = TraceRecord("l", "b", 1.0, 3.0, 1)
        c = TraceRecord("l", "c", 2.5, 3.0, 1)
        assert Tracer.overlap(a, b) == pytest.approx(1.0)
        assert Tracer.overlap(a, c) == 0.0

    def test_concurrency_profile(self):
        t = make_tracer()
        profile = t.concurrency_profile()
        peak = max(active for _, active in profile)
        assert peak == 2  # h1:1 overlaps h2:0 between 2.5 and 4.0
        assert profile[-1][1] == 0  # everything drains

    def test_concurrency_profile_zero_duration_never_negative(self):
        """Regression: a zero-duration record's -1 edge sorted before its
        +1 edge, so the running count transiently went negative."""
        t = Tracer()
        t.record("l", "instant", 1.0, 1.0, 0)  # zero-byte, zero-latency
        profile = t.concurrency_profile()
        assert all(active >= 0 for _, active in profile)
        assert profile == [(1.0, 0)]

    def test_concurrency_profile_aggregates_same_timestamp(self):
        """Back-to-back records (one ends exactly when the next starts)
        must not dip: deltas at one timestamp net out before accumulating."""
        t = Tracer()
        t.record("l", "a", 0.0, 1.0, 10)
        t.record("l", "b", 1.0, 2.0, 10)
        assert t.concurrency_profile() == [(0.0, 1), (1.0, 1), (2.0, 0)]

    def test_clear(self):
        t = make_tracer()
        t.clear()
        assert t.records == []
        assert t.makespan() == 0.0

    def test_duration_property(self):
        r = TraceRecord("l", "t", 1.0, 3.5, 10)
        assert r.duration == pytest.approx(2.5)
