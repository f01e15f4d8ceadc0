"""Tests for the observability layer: metrics, decisions, exporters."""

import json

import pytest

from repro.bench.baselines import dynamic_config
from repro.bench.omb import osu_bw
from repro.bench.runner import dump_artifacts, get_setup
from repro.obs import (
    MetricsRegistry,
    FlightRecorder,
    Observability,
    chrome_trace,
    dump_chrome_trace,
)
from repro.obs.metrics import NULL_INSTRUMENT
from repro.core.planner import PathPlanner
from repro.obs.tracing import TraceTree
from repro.sim.engine import Engine
from repro.sim.trace import Tracer
from repro.units import MiB


class TestMetricsRegistry:
    def test_counter_gauge_roundtrip(self):
        m = MetricsRegistry()
        m.counter("c").inc()
        m.counter("c").inc(2)
        m.gauge("g").set(7)
        snap = m.snapshot()
        assert snap["counters"]["c"] == 3
        assert snap["gauges"]["g"] == 7

    def test_instruments_are_interned(self):
        m = MetricsRegistry()
        assert m.counter("x") is m.counter("x")
        assert m.timer("t") is m.timer("t")

    def test_timer_observe_and_context(self):
        m = MetricsRegistry()
        t = m.timer("t")
        t.observe(0.5)
        with t.time():
            pass
        snap = t.snapshot()
        assert snap["count"] == 2
        assert snap["max_s"] >= 0.5

    def test_histogram_buckets(self):
        m = MetricsRegistry()
        h = m.histogram("sizes")
        for v in (1, 2, 3, 1024):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["min"] == 1 and snap["max"] == 1024
        assert snap["buckets"]["2^10"] == 1

    def test_disabled_registry_is_inert(self):
        m = MetricsRegistry(enabled=False)
        c = m.counter("c")
        assert c is NULL_INSTRUMENT
        c.inc()
        m.register_collector("x", lambda: {"v": 1})
        assert m.snapshot() == {}

    def test_collectors_pull_at_snapshot_time(self):
        m = MetricsRegistry()
        state = {"v": 1}
        m.register_collector("comp", lambda: dict(state))
        state["v"] = 42
        assert m.snapshot()["comp"]["v"] == 42

    def test_to_json(self):
        m = MetricsRegistry()
        m.counter("c").inc()
        assert json.loads(m.to_json())["counters"]["c"] == 1


class TestChromeTrace:
    def make_sources(self):
        tracer = Tracer()
        tracer.record("nvl:0->1", "x/direct", 0.0, 2e-3, 1024)
        tracer.record("nvl:0->2", "x/gpu:2:h1:0", 0.0, 1e-3, 512)
        flight = FlightRecorder(Engine())
        _trace, root = flight.begin_trace("transfer", {"nbytes": 1536})
        flight.finish(root, t1=2e-3)
        return tracer, flight

    def test_events_have_required_fields(self):
        tracer, flight = self.make_sources()
        trace = chrome_trace(tracer, flight)
        events = trace["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 3
        for e in complete:
            assert {"name", "cat", "pid", "tid", "ts", "dur"} <= set(e)
        # one thread-name metadata row per distinct channel/trace
        names = [e for e in events if e["ph"] == "M" and e["name"] == "thread_name"]
        assert {m["args"]["name"] for m in names} == {
            "nvl:0->1",
            "nvl:0->2",
            "trace 0",
        }

    def test_fault_windows_get_their_own_rows(self):
        from repro.sim.faults import FaultWindow

        tracer, _ = self.make_sources()
        windows = (
            FaultWindow("down", "nvl:0->1", 1e-3, 3e-3),
            FaultWindow("stall", "nvl:0->2", 5e-4, float("inf")),
        )
        events = chrome_trace(tracer, faults=windows)["traceEvents"]
        faults = [e for e in events if e["ph"] == "X" and e["cat"] == "fault"]
        assert [e["name"] for e in faults] == ["stall:nvl:0->2", "down:nvl:0->1"]
        assert faults[1]["dur"] == pytest.approx(2e3)
        # an unbounded window is clipped to the last exported event (2 ms)
        assert faults[0]["ts"] + faults[0]["dur"] == pytest.approx(2e3)
        rows = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {rows[(e["pid"], e["tid"])] for e in faults} == {
            "fault:nvl:0->1",
            "fault:nvl:0->2",
        }

    def test_sim_seconds_become_microseconds(self):
        tracer, _ = self.make_sources()
        events = chrome_trace(tracer)["traceEvents"]
        e = next(ev for ev in events if ev["ph"] == "X")
        assert e["ts"] == pytest.approx(0.0)
        assert e["dur"] == pytest.approx(2e3)  # 2 ms -> 2000 us

    def test_dump_is_loadable_json(self, tmp_path):
        tracer, flight = self.make_sources()
        path = dump_chrome_trace(tmp_path / "t.json", tracer, flight)
        loaded = json.loads(path.read_text())
        assert isinstance(loaded["traceEvents"], list)
        assert loaded["traceEvents"]

    def test_empty_sources(self):
        assert chrome_trace()["traceEvents"] == []


class TestChromeTraceInvariants:
    """Export invariants on a real instrumented run (viewer correctness)."""

    @pytest.fixture(scope="class")
    def trace(self):
        setup = get_setup("beluga")
        env = setup.env(dynamic_config(), observe=True)
        osu_bw(env, 16 * MiB, window=2, iterations=2)
        ctx = env.last_context
        return chrome_trace(
            ctx.tracer, ctx.flight, metadata={"system": "beluga"}
        )

    def test_complete_events_sorted_by_timestamp(self, trace):
        ts = [e["ts"] for e in trace["traceEvents"] if e["ph"] == "X"]
        assert ts == sorted(ts)
        assert len(ts) > 10

    def test_metadata_events_lead(self, trace):
        events = trace["traceEvents"]
        kinds = [e["ph"] for e in events]
        assert "M" not in kinds[kinds.index("X"):]

    def test_stable_pid_tid_mapping(self, trace):
        events = trace["traceEvents"]
        # pid 0 = fabric, pid 2 = flight recorder; every X event's
        # (pid, tid) must be declared by exactly one thread_name event.
        declared = {}
        for e in events:
            if e["ph"] == "M" and e["name"] == "thread_name":
                key = (e["pid"], e["tid"])
                assert key not in declared, f"duplicate row {key}"
                declared[key] = e["args"]["name"]
        for e in events:
            if e["ph"] == "X":
                key = (e["pid"], e["tid"])
                assert key in declared
                if e["pid"] == 0:  # fabric rows are named by channel
                    assert declared[key] == e["args"]["channel"]
        assert {pid for pid, _ in declared} == {0, 2}

    def test_json_roundtrip(self, trace):
        loaded = json.loads(json.dumps(trace))
        assert loaded == trace
        assert loaded["otherData"]["system"] == "beluga"


class TestHistogramQuantiles:
    def test_exact_below_reservoir_capacity(self):
        h = MetricsRegistry().histogram("h")
        for v in range(1, 101):  # 1..100, fits the reservoir
            h.observe(v)
        assert h.quantile(0.5) == 50
        assert h.quantile(0.9) == 90
        assert h.quantile(0.0) == 1
        assert h.quantile(1.0) == 100
        snap = h.snapshot()
        assert snap["p50"] == 50 and snap["p90"] == 90 and snap["p99"] == 99

    def test_reservoir_is_bounded_and_deterministic(self):
        from repro.obs.metrics import Histogram

        a, b = Histogram("same"), Histogram("same")
        for v in range(10_000):
            a.observe(v)
            b.observe(v)
        assert len(a.reservoir) == a.reservoir_size == 256
        assert a.reservoir == b.reservoir  # seeded from the name
        # The sampled p50 lands near the true median.
        assert abs(a.quantile(0.5) - 5000) < 1500

    def test_empty_and_invalid(self):
        h = MetricsRegistry().histogram("h")
        assert h.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_quantiles_surface_in_stats_snapshot(self):
        setup = get_setup("beluga")
        env = setup.env(dynamic_config(), observe=True)
        osu_bw(env, 16 * MiB, window=2, iterations=1)
        snap = env.last_context.obs.metrics.snapshot()
        put_sizes = snap["histograms"]["cuda_ipc.put_nbytes"]
        assert put_sizes["p50"] == 16 * MiB
        assert put_sizes["p99"] == 16 * MiB


class TestPlannerDecisionLog:
    def test_decisions_recorded_with_cache_flags(self):
        setup = get_setup("beluga")
        obs = Observability()
        planner = PathPlanner(setup.topology, setup.store, obs=obs)
        planner.plan(0, 1, 64 * MiB)
        planner.plan(0, 1, 64 * MiB)
        assert len(obs.decisions) == 2
        cold, hot = obs.decisions.records
        assert not cold.cache_hit and hot.cache_hit
        assert cold.nbytes == 64 * MiB
        assert cold.path_ids == hot.path_ids
        assert sum(cold.thetas) == pytest.approx(1.0)
        assert obs.decisions.cache_hit_rate == pytest.approx(0.5)
        # metrics mirror the log
        counters = obs.metrics.snapshot()["counters"]
        assert counters["planner.plans"] == 2
        assert counters["planner.cache_hits"] == 1
        assert counters["planner.plans_computed"] == 1

    def test_jsonl_roundtrip(self):
        setup = get_setup("beluga")
        obs = Observability()
        planner = PathPlanner(setup.topology, setup.store, obs=obs)
        planner.plan(0, 1, 8 * MiB)
        lines = obs.decisions.to_jsonl().splitlines()
        rec = json.loads(lines[0])
        assert rec["src"] == 0 and rec["dst"] == 1
        assert rec["wall_time_s"] >= 0

    def test_planner_without_obs_logs_nothing(self):
        setup = get_setup("beluga")
        planner = PathPlanner(setup.topology, setup.store)
        plan = planner.plan(0, 1, 8 * MiB)
        assert plan.num_active_paths >= 1
        assert planner.obs is None


class TestDecisionLogRing:
    """The decision log is a bounded ring with exact running totals."""

    def _log_and_plan(self, capacity):
        from repro.obs.decision_log import PlannerDecisionLog

        setup = get_setup("beluga")
        planner = PathPlanner(setup.topology, setup.store)
        plan = planner.plan(0, 1, 8 * MiB)
        return PlannerDecisionLog(capacity=capacity), plan

    def test_default_capacity(self):
        from repro.obs.decision_log import DEFAULT_CAPACITY, PlannerDecisionLog

        log = PlannerDecisionLog()
        assert log.capacity == DEFAULT_CAPACITY == 10_000

    def test_eviction_counts_dropped(self):
        log, plan = self._log_and_plan(capacity=5)
        for _ in range(12):
            log.log_plan(plan, cache_hit=False, wall_time_s=1e-5)
        assert len(log) == 5  # ring never exceeds capacity
        assert log.dropped == 7
        assert log.total_decisions == 12
        # the retained window is the *most recent* decisions
        assert [r.seq for r in log.records] == [7, 8, 9, 10, 11]

    def test_totals_exact_after_eviction(self):
        log, plan = self._log_and_plan(capacity=3)
        for i in range(10):
            log.log_plan(plan, cache_hit=(i % 2 == 0), wall_time_s=0.5)
        assert log.cache_hits == 5  # hits from evicted entries still counted
        assert log.cache_hit_rate == pytest.approx(0.5)
        assert log.total_wall_time() == pytest.approx(5.0)
        s = log.summary()
        assert s["decisions"] == 10
        assert s["retained"] == 3
        assert s["dropped"] == 7
        assert s["cache_hits"] == 5

    def test_unbounded_when_capacity_none(self):
        log, plan = self._log_and_plan(capacity=None)
        for _ in range(50):
            log.log_plan(plan, cache_hit=False, wall_time_s=0.0)
        assert len(log) == 50
        assert log.dropped == 0

    def test_invalid_capacity_rejected(self):
        from repro.obs.decision_log import PlannerDecisionLog

        with pytest.raises(ValueError):
            PlannerDecisionLog(capacity=0)

    def test_load_bucket_field_serialized(self):
        log, plan = self._log_and_plan(capacity=5)
        log.log_plan(plan, cache_hit=False, wall_time_s=0.0, load_bucket=4)
        rec = json.loads(log.to_jsonl().splitlines()[-1])
        assert rec["load_bucket"] == 4

    def test_clear_resets_everything(self):
        log, plan = self._log_and_plan(capacity=2)
        for _ in range(5):
            log.log_plan(plan, cache_hit=True, wall_time_s=1.0)
        log.clear()
        assert len(log) == 0
        assert log.total_decisions == log.dropped == log.cache_hits == 0
        assert log.summary()["total_wall_time_s"] == 0.0

    def test_dropped_surfaces_in_context_collector(self):
        """The planner collector exposes the ring-buffer drop count."""
        setup = get_setup("beluga")
        env = setup.env(dynamic_config(), observe=True)
        _, ctx, _ = env.fresh()
        snap = ctx.obs.metrics.snapshot()
        planner_stats = snap["planner"]
        assert "dropped" in planner_stats
        assert planner_stats["dropped"] == 0


class TestInstrumentedRun:
    """Acceptance criteria: snapshot contents after an osu_bw run."""

    @pytest.fixture(scope="class")
    def run(self):
        setup = get_setup("beluga")
        env = setup.env(dynamic_config(), observe=True)
        result = osu_bw(env, 64 * MiB, window=2, iterations=2)
        return env.last_context, result

    def test_snapshot_core_counters(self, run):
        ctx, result = run
        snap = ctx.obs.metrics.snapshot()
        assert snap["planner"]["cache_hits"] > 0
        assert snap["fabric"]["flows_admitted"] > 0
        assert snap["counters"]["planner.cache_hits"] > 0
        assert snap["cuda_ipc"]["bytes_put"] >= result.bytes_moved
        assert snap["engine"]["events_processed"] > 0
        assert snap["mpi"]["messages_matched"] > 0

    def test_per_channel_bytes_match_tracer(self, run):
        ctx, _ = run
        channels = ctx.obs.metrics.snapshot()["fabric"]["channels"]
        for name, ch in channels.items():
            assert ch["completed_bytes"] == pytest.approx(
                ctx.tracer.total_bytes(name)
            ), name
        total = sum(ch["completed_bytes"] for ch in channels.values())
        assert total == pytest.approx(ctx.tracer.total_bytes())

    def test_spans_cover_puts_and_paths(self, run):
        ctx, _ = run
        tree = TraceTree(ctx.flight)
        roots = tree.roots()
        assert roots and all(r.kind == "transfer" for r in roots)
        root = roots[0]
        assert root.duration > 0
        assert root.attrs["nbytes"] > 0
        paths = [
            s
            for s in tree.breakdown(root.trace_id).children[root.sid]
            if s.kind.startswith("pipeline.path")
        ]
        assert paths
        assert sum(s.attrs["nbytes"] for s in paths) == root.attrs["nbytes"]

    def test_chrome_trace_exports_run(self, run):
        ctx, _ = run
        events = chrome_trace(ctx.tracer, ctx.flight)["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert complete
        assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in complete)

    def test_dump_artifacts(self, run, tmp_path):
        ctx, _ = run
        written = dump_artifacts(tmp_path / "osu_bw", ctx)
        names = {p.name for p in written}
        assert names == {
            "osu_bw.metrics.json",
            "osu_bw.trace.json",
            "osu_bw.decisions.jsonl",
        }
        for p in written:
            assert p.exists() and p.stat().st_size > 0
        metrics = json.loads((tmp_path / "osu_bw.metrics.json").read_text())
        assert metrics["fabric"]["flows_admitted"] > 0

    def test_uninstrumented_env_has_no_obs(self):
        setup = get_setup("beluga")
        env = setup.env(dynamic_config())
        osu_bw(env, 4 * MiB, window=1, iterations=1)
        ctx = env.last_context
        assert ctx.obs is None
        assert ctx.planner.obs is None


class TestCliSubcommands:
    def test_stats_command_prints_json(self, capsys):
        from repro.cli import main

        main(["stats", "--system", "beluga", "--quick", "--size", "16M"])
        out = capsys.readouterr().out
        snap = json.loads(out)
        assert snap["planner"]["cache_hits"] > 0
        assert snap["run"]["system"] == "beluga"

    def test_trace_command_writes_valid_trace(self, tmp_path, capsys):
        from repro.cli import main

        out_file = tmp_path / "trace.json"
        main(
            [
                "trace",
                "--system",
                "beluga",
                "--quick",
                "--size",
                "16M",
                "-o",
                str(out_file),
            ]
        )
        trace = json.loads(out_file.read_text())
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert complete
        for e in complete:
            assert {"pid", "tid", "ts", "dur"} <= set(e)
