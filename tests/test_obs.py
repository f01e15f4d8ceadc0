"""Tests for the observability layer: pull metrics, decisions, exporters."""

import json

import pytest

from repro.bench.baselines import dynamic_config
from repro.bench.omb import osu_bw
from repro.bench.runner import dump_artifacts, get_setup
from repro.obs import (
    MetricsRegistry,
    FlightRecorder,
    chrome_trace,
    dump_chrome_trace,
)
from repro.obs.tracing import TraceTree
from repro.sim.engine import Engine
from repro.sim.trace import Tracer
from repro.units import MiB


class TestMetricsRegistry:
    def test_collectors_pull_at_snapshot_time(self):
        m = MetricsRegistry()
        state = {"v": 1}
        m.register_collector("comp", lambda: dict(state))
        state["v"] = 42
        assert m.snapshot()["comp"]["v"] == 42

    def test_to_json(self):
        m = MetricsRegistry()
        m.register_collector("comp", lambda: {"c": 1})
        assert json.loads(m.to_json())["comp"]["c"] == 1


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


class TestPlannerDecisionLog:
    def test_decisions_recorded_with_cache_flags(self):
        """A put's decision is its ``plan*`` span: the kind carries the
        cache flag, the attrs the choice, and the path spans beside it
        the split."""
        setup = get_setup("beluga")
        env = setup.env(dynamic_config())
        engine, ctx, _ = env.fresh()
        engine.run(until=ctx.put(0, 1, 64 * MiB))  # cold: plan + compile
        engine.run(until=ctx.put(0, 1, 64 * MiB))  # graph replay
        ctx.graphs.invalidate(lambda plan: True)
        engine.run(until=ctx.put(0, 1, 64 * MiB))  # plan-cache hit
        tree = TraceTree(ctx.flight)
        plans = [
            s for s in ctx.flight.iter_spans() if s.kind.startswith("plan")
        ]
        assert [s.kind for s in plans] == [
            "plan", "plan.graph_hit", "plan.cache_hit",
        ]
        assert [s.trace_id for s in plans] == [0, 1, 2]
        cold = plans[0]
        for span in plans:
            assert span.attrs["mode"] == "dynamic"
            assert span.attrs["paths"] == cold.attrs["paths"] >= 2
            assert span.attrs["predicted"] == cold.attrs["predicted"]
            assert span.attrs["wall_time_s"] >= 0.0
            assert "load_bucket" not in span.attrs  # contention-blind
            bd = tree.breakdown(span.trace_id)
            paths = [
                s for s in bd.children[bd.root.sid]
                if s.kind.startswith("pipeline.path")
            ]
            assert len(paths) == span.attrs["paths"]
            assert sum(s.attrs["theta"] for s in paths) == pytest.approx(1.0)
            assert sum(s.attrs["nbytes"] for s in paths) == 64 * MiB
            assert all(s.attrs["chunks"] >= 1 for s in paths)
        # the pull views count the same three decisions
        assert ctx.planner.cache.stats()["misses"] == 1
        assert ctx.planner.cache.stats()["hits"] == 1
        assert ctx.graphs.stats()["hits"] == 1


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
        assert snap["transfer_graph"]["hits"] > 0
        assert snap["fabric"]["flows_admitted"] > 0
        assert "counters" not in snap and "histograms" not in snap
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
        assert names == {"osu_bw.metrics.json", "osu_bw.trace.json"}
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


class TestCliSubcommands:
    def test_stats_command_prints_json(self, capsys):
        from repro.cli import main

        main(["stats", "--system", "beluga", "--quick", "--size", "16M"])
        out = capsys.readouterr().out
        snap = json.loads(out)
        assert snap["transfer_graph"]["hits"] > 0
        assert snap["planner"] == {"cache": snap["planner"]["cache"]}
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
