"""Unit and property tests for a single fair-share link: a one-channel
fabric, where every flow gets an equal share of the link's bandwidth."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine, Fabric, Tracer
from repro.sim.noise import SizeDependentEfficiency
from repro.units import MiB, gbps, us


def make_link(eng, alpha=1 * us, beta=gbps(10)):
    fab = Fabric(eng)
    fab.add_channel("test", alpha, beta)
    return fab


class TestSingleTransfer:
    def test_hockney_time(self):
        eng = Engine()
        fab = make_link(eng, alpha=2 * us, beta=gbps(10))
        result = eng.run(until=fab.copy("test", 10 * MiB))
        expected = 2 * us + 10 * MiB / gbps(10)
        assert eng.now == pytest.approx(expected, rel=1e-9)
        assert result.nbytes == 10 * MiB
        assert result.duration == pytest.approx(expected)

    def test_zero_bytes_is_latency_only(self):
        eng = Engine()
        fab = make_link(eng, alpha=5 * us)
        result = eng.run(until=fab.copy("test", 0))
        assert eng.now == pytest.approx(5 * us)
        assert result.nbytes == 0

    def test_negative_size_rejected(self):
        eng = Engine()
        with pytest.raises(ValueError):
            make_link(eng).copy("test", -1)

    def test_invalid_params_rejected(self):
        eng = Engine()
        with pytest.raises(ValueError):
            make_link(eng, alpha=-1.0, beta=1.0)
        with pytest.raises(ValueError):
            make_link(eng, alpha=0.0, beta=0.0)


class TestFairShare:
    def test_two_equal_flows_halve_bandwidth(self):
        eng = Engine()
        fab = make_link(eng, alpha=0.0, beta=gbps(10))
        d1 = fab.copy("test", 10 * MiB)
        d2 = fab.copy("test", 10 * MiB)
        eng.run(until=eng.all_of([d1, d2]))
        # Both flows share: each effectively gets 5 GB/s -> 2x single time.
        assert eng.now == pytest.approx(2 * 10 * MiB / gbps(10), rel=1e-6)

    def test_staggered_flows_progressive_filling(self):
        # Flow A starts alone, then B joins; A finishes first having had a
        # solo head start, then B runs alone again.
        eng = Engine()
        fab = make_link(eng, alpha=0.0, beta=gbps(1))
        results = {}

        def start_b():
            yield eng.timeout(0.5)
            results["b"] = yield fab.copy("test", int(gbps(1)))  # 1 s of bytes

        def start_a():
            results["a"] = yield fab.copy("test", int(gbps(1)))

        eng.process(start_a())
        eng.process(start_b())
        eng.run()
        # A: 0.5s solo (0.5 of work) + shared until done: remaining 0.5 work
        # at rate 0.5 -> 1.0s more => ends at 1.5s.
        assert results["a"].end == pytest.approx(1.5, rel=1e-6)
        # B: from 0.5 to 1.5 shared (0.5 work done), then solo 0.5 work
        # at full rate -> ends at 2.0s.
        assert results["b"].end == pytest.approx(2.0, rel=1e-6)

    def test_conservation_of_bytes(self):
        eng = Engine()
        fab = make_link(eng)
        sizes = [1 * MiB, 3 * MiB, 7 * MiB, 2 * MiB]
        eng.run(until=eng.all_of([fab.copy("test", s) for s in sizes]))
        ch = fab.channel("test")
        assert ch.total_bytes == pytest.approx(sum(sizes))
        assert ch.completed_flows == len(sizes)

    def test_max_concurrency_tracked(self):
        eng = Engine()
        fab = make_link(eng, alpha=0.0)
        for _ in range(5):
            fab.copy("test", 10 * MiB)
        eng.run()
        assert fab.channel("test").max_concurrency == 5


class TestDynamicBandwidth:
    def test_set_beta_mid_flight(self):
        eng = Engine()
        beta = gbps(1)
        fab = make_link(eng, alpha=0.0, beta=beta)
        done = fab.copy("test", int(2 * beta))  # 2 seconds at full rate

        def degrade():
            yield eng.timeout(1.0)
            fab.set_beta("test", beta / 2)  # halve bandwidth halfway through

        eng.process(degrade())
        eng.run(until=done)
        # 1s at full rate (half done) + remaining half at half rate = 2s more.
        assert eng.now == pytest.approx(3.0, rel=1e-6)

    def test_set_beta_invalid(self):
        eng = Engine()
        with pytest.raises(ValueError):
            make_link(eng).set_beta("test", 0)


class TestJitterAndTrace:
    def test_size_dependent_efficiency_slows_small_messages(self):
        eng = Engine()
        knee = 256 * 1024
        fab = Fabric(eng)
        fab.add_channel("test", 0.0, gbps(1), jitter=SizeDependentEfficiency(knee))
        eng.run(until=fab.copy("test", knee))
        # demand doubled: knee bytes * (1 + knee/knee) = 2*knee
        assert eng.now == pytest.approx(2 * knee / gbps(1), rel=1e-6)

    def test_tracer_records(self):
        eng = Engine()
        tracer = Tracer()
        fab = Fabric(eng, tracer=tracer)
        fab.add_channel("nvlink", 1 * us, gbps(10))
        eng.run(until=fab.copy("nvlink", 1 * MiB, tag="chunk0"))
        assert len(tracer.records) == 1
        rec = tracer.records[0]
        assert rec.channel == "nvlink"
        assert rec.tag == "chunk0"
        assert rec.nbytes == 1 * MiB
        assert rec.duration > 0

    def test_utilization(self):
        eng = Engine()
        fab = make_link(eng, alpha=0.0, beta=gbps(1))
        done = fab.copy("test", int(gbps(1)))  # exactly 1 second busy

        def idle_tail():
            yield done
            yield eng.timeout(1.0)

        eng.run(until=eng.process(idle_tail()))
        assert fab.channel("test").busy_time / eng.now == pytest.approx(
            0.5, rel=1e-6
        )


class TestFairShareProperties:
    @given(
        sizes=st.lists(
            st.integers(min_value=1 * MiB, max_value=64 * MiB), min_size=1, max_size=6
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_concurrent_completion_bounded_by_serial_and_ideal(self, sizes):
        """max(sizes)/beta <= makespan <= sum(sizes)/beta for alpha=0."""
        eng = Engine()
        beta = gbps(10)
        fab = make_link(eng, alpha=0.0, beta=beta)
        eng.run(until=eng.all_of([fab.copy("test", s) for s in sizes]))
        lower = max(sizes) / beta
        upper = sum(sizes) / beta
        assert lower * (1 - 1e-9) <= eng.now <= upper * (1 + 1e-9)

    @given(
        sizes=st.lists(
            st.integers(min_value=1 * MiB, max_value=64 * MiB), min_size=2, max_size=6
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_work_conservation(self, sizes):
        """With all flows started at t=0, makespan == total work / beta."""
        eng = Engine()
        beta = gbps(10)
        fab = make_link(eng, alpha=0.0, beta=beta)
        eng.run(until=eng.all_of([fab.copy("test", s) for s in sizes]))
        # The link is never idle until everything finishes.
        assert eng.now == pytest.approx(sum(sizes) / beta, rel=1e-6)

    @given(
        sizes=st.lists(
            st.integers(min_value=1 * MiB, max_value=32 * MiB), min_size=2, max_size=5
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_smaller_flows_finish_no_later(self, sizes):
        """Under equal-share, completion order follows size order."""
        eng = Engine()
        fab = make_link(eng, alpha=0.0, beta=gbps(10))
        events = [fab.copy("test", s) for s in sizes]
        eng.run(until=eng.all_of(events))
        ends = [ev.value.end for ev in events]
        order = sorted(range(len(sizes)), key=lambda i: sizes[i])
        for earlier, later in zip(order, order[1:]):
            assert ends[earlier] <= ends[later] + 1e-12
