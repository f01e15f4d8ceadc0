"""Tests for the flight recorder: ring semantics, journal, and queries.

Covers the slab ring's eviction accounting (bounded memory, exact dropped
counters), the write-ahead journal (spans materialise on query or when the
journal hits its bound, and replay is equivalent to eager writes), the
per-stage latency aggregates, the :class:`TraceTree` query API, causal
span parenting across recovery replans (the ISSUE-7 acceptance story), and
the chrome-trace export's flight process.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.obs.chrome_trace import FLIGHT_PID, trace_events
from repro.obs.tracing import (
    DEFAULT_CAPACITY,
    FlightRecorder,
    TraceTree,
    _StageStat,
)
from repro.sim import Engine
from repro.topology import systems
from repro.ucx import TransportConfig, UCXContext
from repro.units import MiB


def make_recorder(capacity=64, **kw):
    eng = Engine()
    return eng, FlightRecorder(eng, capacity=capacity, **kw)


def make_ctx(**cfg):
    eng = Engine()
    ctx = UCXContext(eng, systems.beluga(), config=TransportConfig(**cfg))
    return eng, ctx


def fake_chunk_event(end):
    """Stands in for a completed copy event (record_path reads .value.end)."""
    return SimpleNamespace(value=SimpleNamespace(end=end))


class TestRingSemantics:
    def test_spans_materialise_on_query(self):
        _, rec = make_recorder()
        tid, root = rec.begin_trace("transfer", {"src": 0, "dst": 1})
        assert (tid, root) == (0, 0)
        # journalled, not yet in the ring — but the sid is reserved
        assert rec.spans_recorded == 1
        span = rec.get(root)  # query drains the journal
        assert span is not None
        assert span.kind == "transfer"
        assert span.open
        assert span.attrs == {"src": 0, "dst": 1}

    def test_finish_closes_and_merges_attrs(self):
        eng, rec = make_recorder()
        sid = rec.begin("pipeline.path[0]", trace_id=0, parent=-1, t0=1.0)
        eng.now = 3.0
        assert rec.finish(sid, attrs={"path": "direct"}, ok=True)
        span = rec.get(sid)
        assert not span.open
        assert span.duration == 2.0
        assert span.attrs == {"path": "direct", "ok": True}

    def test_eviction_counts_exact(self):
        _, rec = make_recorder(capacity=8)
        for i in range(20):
            rec.record("marker", trace_id=0, t0=float(i))
        assert len(rec) == 8
        summary = rec.summary()  # drains
        assert summary["dropped"] == 12
        assert summary["dropped_open"] == 0
        assert rec.spans_recorded == 20
        # the ring holds exactly the newest 8 sids
        assert [s.sid for s in rec.iter_spans()] == list(range(12, 20))

    def test_open_span_eviction_counted_separately(self):
        _, rec = make_recorder(capacity=4)
        sid = rec.begin("transfer", trace_id=0)
        for i in range(4):  # wraps over the open root
            rec.record("marker", trace_id=0, t0=float(i))
        assert rec.summary()["dropped_open"] == 1
        assert rec.get(sid) is None

    def test_finish_after_eviction_is_noop(self):
        eng, rec = make_recorder(capacity=4)
        sid = rec.begin("transfer", trace_id=0)
        rec._drain()
        for i in range(4):
            rec.record("marker", trace_id=0, t0=float(i))
        rec._drain()
        eng.now = 5.0
        rec.finish(sid, ok=True)  # arrives after the wrap
        rec._drain()
        # the close was dropped, not applied to the slot's new occupant
        assert rec.get(sid) is None
        assert all(s.attrs == {} for s in rec.iter_spans())

    def test_disabled_recorder_records_nothing(self):
        _, rec = make_recorder(enabled=False)
        assert rec.begin_trace("transfer") == (-1, -1)
        assert rec.begin("x", trace_id=0) == -1
        assert rec.record("x", trace_id=0) == -1
        assert not rec.finish(0)
        rec.settle(0, 0, {"ok": True})
        assert rec.spans_recorded == 0
        assert list(rec.iter_spans()) == []

    def test_capacity_validation(self):
        eng = Engine()
        with pytest.raises(ValueError):
            FlightRecorder(eng, capacity=0)

    def test_clear_resets_everything(self):
        _, rec = make_recorder(capacity=4)
        for i in range(6):
            rec.record("marker", trace_id=0, t0=float(i))
        rec.summary()
        rec.clear()
        assert rec.spans_recorded == 0
        assert rec.dropped == 0
        assert list(rec.iter_spans()) == []
        assert rec.stage_stats()["execution"]["count"] == 0


class TestJournal:
    def test_journal_drains_at_bound(self):
        _, rec = make_recorder(capacity=4096)
        assert rec.journal_limit == max(256, 4096 // 8)
        for i in range(rec.journal_limit):
            rec.record("marker", trace_id=0, t0=float(i))
        assert len(rec._log) == rec.journal_limit
        # the next begin_trace polices the bound and drains first
        rec.begin_trace("transfer")
        assert len(rec._log) == 1

    def test_replay_equivalent_to_eager_writes(self):
        """Draining after every append == draining once at the end."""

        def workload(rec, eager):
            tid, root = rec.begin_trace("transfer", {"src": 0, "dst": 1})
            for i in range(10):
                rec.record("plan", tid, root, t0=float(i), attrs={"i": i})
                if eager:
                    rec._drain()
                rec.record_path(
                    f"pipeline.path[{i % 3}]", tid, root, float(i),
                    float(i) + 0.5, {"path": i},
                    chunk_kinds=(f"pipeline.path[{i % 3}].chunk[0]",),
                    chunk_events=(fake_chunk_event(float(i) + 0.5),),
                )
                if eager:
                    rec._drain()
            rec.settle(tid, root, {"ok": True})
            return [
                (s.sid, s.trace_id, s.parent, s.kind, s.t0, s.t1, s.attrs)
                for s in rec.iter_spans()
            ], rec.summary()

        _, rec_lazy = make_recorder(capacity=16)
        _, rec_eager = make_recorder(capacity=16)
        assert workload(rec_lazy, False) == workload(rec_eager, True)

    def test_record_path_defers_chunk_extraction(self):
        _, rec = make_recorder()
        sid = rec.record_path(
            "pipeline.path[0]", 0, -1, 1.0, 4.0, {"path": "direct"},
            chunk_kinds=("pipeline.path[0].chunk[0]", "pipeline.path[0].chunk[1]"),
            chunk_events=(fake_chunk_event(2.0), fake_chunk_event(4.0)),
        )
        spans = list(rec.iter_spans())
        assert [s.kind for s in spans] == [
            "pipeline.path[0]",
            "pipeline.path[0].chunk[0]",
            "pipeline.path[0].chunk[1]",
        ]
        chunks = spans[1:]
        assert all(c.parent == sid for c in chunks)
        assert [c.t0 for c in chunks] == [2.0, 4.0]
        assert all(c.t0 == c.t1 for c in chunks)  # markers

    def test_settle_closes_root_with_attrs(self):
        eng, rec = make_recorder()
        tid, root = rec.begin_trace("transfer", {"src": 0, "dst": 1})
        eng.now = 2.5
        rec.settle(tid, root, {"ok": True, "retries": 0})
        root_span = rec.get(root)
        assert root_span.t1 == 2.5
        assert root_span.attrs == {
            "src": 0, "dst": 1, "ok": True, "retries": 0,
        }
        settle = [s for s in rec.iter_spans() if s.kind == "settle"][0]
        assert settle.parent == root
        assert settle.t0 == settle.t1 == 2.5
        assert settle.attrs == {"ok": True, "retries": 0}


class TestStageStats:
    def test_stage_resolution_strips_indices(self):
        _, rec = make_recorder()
        rec.record("pipeline.path[7]", 0, t0=0.0, t1=2.0)
        rec.record("admission.queue", 0, t0=0.0, t1=1.0)
        rec.record("recovery.retry[3]", 0, t0=0.0, t1=4.0)
        rec.record("pipeline.path[7].chunk[2]", 0, t0=1.0)  # unmapped marker
        stats = rec.stage_stats()
        assert stats["execution"]["count"] == 1
        assert stats["execution"]["max"] == 2.0
        assert stats["queue_wait"]["count"] == 1
        assert stats["recovery"]["count"] == 1

    def test_planning_uses_stage_value_override(self):
        _, rec = make_recorder()
        rec.record("plan", 0, t0=1.0, stage_value=3.25e-5)
        stats = rec.stage_stats()
        assert stats["planning"]["count"] == 1
        assert stats["planning"]["max"] == 3.25e-5

    def test_stagestat_percentiles_nearest_rank(self):
        stat = _StageStat()
        for v in range(1, 101):
            stat.observe(float(v))
        snap = stat.snapshot()
        assert snap["count"] == 100
        assert snap["min"] == 1.0
        assert snap["max"] == 100.0
        assert snap["mean"] == pytest.approx(50.5)
        assert snap["p50"] == pytest.approx(50.0, abs=1.0)
        assert snap["p99"] == pytest.approx(99.0, abs=1.0)

    def test_stagestat_empty_snapshot(self):
        assert _StageStat().snapshot() == {
            "count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
            "p50": 0.0, "p90": 0.0, "p99": 0.0,
        }


class TestEndToEnd:
    """Whole-stack stories: real puts through UCXContext."""

    def test_put_emits_complete_trace(self):
        eng, ctx = make_ctx()
        eng.run(until=ctx.put(0, 1, 8 * MiB, tag="x"))
        tree = TraceTree(ctx.flight)
        bd = tree.breakdown(0)
        kinds = {s.kind for s in bd.spans}
        assert bd.root.kind == "transfer"
        assert not bd.root.open
        assert bd.root.attrs["ok"] is True
        assert any(k.startswith("plan") for k in kinds)
        assert any(k.startswith("pipeline.path[") for k in kinds)
        assert "settle" in kinds
        # every non-root span parent-links into the trace
        sids = {s.sid for s in bd.spans}
        assert all(s.parent in sids for s in bd.spans if s.parent >= 0)
        # stage accounting covers the transfer's duration drivers
        assert bd.stages["execute"] > 0

    def test_queue_span_under_admission_cap(self):
        eng, ctx = make_ctx(max_inflight_per_pair=1)
        events = [ctx.put(0, 1, 4 * MiB, tag=f"q{i}") for i in range(2)]
        for ev in events:
            eng.run(until=ev)
        tree = TraceTree(ctx.flight)
        waits = [
            s for s in tree.breakdown(1).spans if s.kind == "admission.queue"
        ]
        assert len(waits) == 1
        assert waits[0].duration > 0
        assert waits[0].parent == tree.breakdown(1).root.sid
        # the first put was admitted immediately: no queue span
        assert not any(
            s.kind == "admission.queue" for s in tree.breakdown(0).spans
        )

    def test_tracetree_slowest_and_by_pair(self):
        eng, ctx = make_ctx()
        eng.run(until=ctx.put(0, 1, 64 * MiB, tag="big"))
        eng.run(until=ctx.put(0, 1, MiB, tag="small"))
        eng.run(until=ctx.put(2, 3, 4 * MiB, tag="other"))
        tree = TraceTree(ctx.flight)
        slowest = tree.slowest(2)
        assert len(slowest) == 2
        assert slowest[0].attrs["nbytes"] == 64 * MiB
        assert slowest[0].duration >= slowest[1].duration
        pair = tree.by_pair(0, 1)
        assert [r.attrs["nbytes"] for r in pair] == [64 * MiB, MiB]
        assert tree.by_pair(3, 0) == []

    def test_breakdown_unknown_trace_raises(self):
        _, ctx = make_ctx()
        with pytest.raises(KeyError):
            TraceTree(ctx.flight).breakdown(99)

    def test_stage_stats_populated_by_real_workload(self):
        eng, ctx = make_ctx()
        for i in range(3):
            eng.run(until=ctx.put(0, 1, 8 * MiB, tag=f"s{i}"))
        stats = ctx.flight.stage_stats()
        assert stats["execution"]["count"] >= 3  # one per executed path
        assert stats["planning"]["count"] == 3
        assert stats["planning"]["p99"] > 0  # wall-clock, not simulated
        assert ctx.flight.summary()["traces_started"] == 3

    def test_default_config_records_by_default(self):
        _, ctx = make_ctx()
        assert ctx.flight.enabled
        assert ctx.flight.capacity == DEFAULT_CAPACITY


class TestRecoveryParenting:
    """Satellite 3: span parenting holds across recovery replans."""

    @pytest.fixture(scope="class")
    def scenario(self):
        from repro.bench.experiments.chaos import run_traced_scenario

        return run_traced_scenario(puts=3)

    def test_retry_spans_parent_to_original_root(self, scenario):
        tree = TraceTree(scenario.context.flight)
        bd = tree.breakdown(scenario.trace_id)
        retries = [s for s in bd.spans if s.kind.startswith("recovery.retry")]
        assert retries, "the fault victim must carry recovery spans"
        assert all(r.parent == bd.root.sid for r in retries)
        # the retry round owns its replan and its rescue paths
        for r in retries:
            kids = {k.kind for k in bd.children.get(r.sid, ())}
            assert any(k.startswith("plan") for k in kids)
            assert any(k.startswith("pipeline.path[") for k in kids)

    def test_root_attrs_match_put_result(self, scenario):
        tree = TraceTree(scenario.context.flight)
        root = tree.breakdown(scenario.trace_id).root
        result = scenario.results[scenario.trace_id]
        assert root.attrs["retries"] == result.retries > 0
        assert root.attrs["rerouted_bytes"] == result.rerouted_bytes > 0
        assert root.attrs["ok"] is True

    def test_faulted_path_span_closed_not_ok(self, scenario):
        tree = TraceTree(scenario.context.flight)
        bd = tree.breakdown(scenario.trace_id)
        faulted = [
            s for s in bd.spans
            if s.kind.startswith("pipeline.path[") and ".chunk" not in s.kind
            and s.attrs.get("ok") is False
        ]
        assert faulted, "the killed path must still close its span"
        assert all(not s.open for s in faulted)

    def test_stages_fit_inside_the_transfer(self, scenario):
        """Queue, first-round execution and recovery are disjoint parts of
        a transfer: concurrent paths count once, and a retry round's paths
        count only under recovery."""
        tree = TraceTree(scenario.context.flight)
        roots = tree.roots()
        assert len(roots) == 3
        for root in roots:
            stages = tree.breakdown(root.trace_id).stages
            assert stages["execute"] > 0
            assert (
                stages["queue"] + stages["execute"] + stages["recovery"]
                <= root.duration
            ), (root.trace_id, stages, root.duration)

    def test_recovery_stage_observed(self, scenario):
        stats = scenario.context.flight.stage_stats()
        assert stats["recovery"]["count"] >= 1
        assert stats["queue_wait"]["count"] >= 1  # puts 2+ waited for the cap


class TestChromeTraceExport:
    def test_flight_spans_nest_under_flight_pid(self):
        eng, ctx = make_ctx()
        eng.run(until=ctx.put(0, 1, 8 * MiB, tag="x"))
        events = trace_events(flight=ctx.flight)
        flight_events = [
            e for e in events if e.get("pid") == FLIGHT_PID and e["ph"] == "X"
        ]
        assert flight_events
        assert all(e["args"]["trace_id"] == 0 for e in flight_events)
        assert all(e["tid"] == 0 for e in flight_events)  # one row per trace
        names = {e["name"] for e in flight_events}
        assert "transfer" in names and "settle" in names
        # parent sids ride along for tooling that re-nests the story
        assert all("parent" in e["args"] for e in flight_events)

    def test_open_spans_excluded_from_export(self):
        _, rec = make_recorder()
        rec.begin("transfer", trace_id=0)
        rec.record("settle", trace_id=1, t0=1.0)
        events = trace_events(flight=rec)
        xs = [e for e in events if e["ph"] == "X"]
        assert [e["name"] for e in xs] == ["settle"]
