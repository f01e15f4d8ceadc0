"""Tests for the flight recorder: ring semantics, journal, and queries.

Covers the slab ring's eviction accounting (bounded memory, exact dropped
counters), the write-ahead journal (spans materialise on query or when the
journal hits its bound, and replay is equivalent to eager writes), the
per-stage latency aggregates, the :class:`TraceTree` query API, causal
span parenting across recovery replans, the packed attrs column (values
captured when a span is recorded, merges that follow ``dict.update``), and
the chrome-trace export's flight process.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.chrome_trace import FLIGHT_PID, trace_events
from repro.obs.tracing import (
    DEFAULT_CAPACITY,
    PATH_KEYS,
    PLAN_KEYS,
    SETTLE_KEYS,
    TRANSFER_KEYS,
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
        eng, rec = make_recorder(capacity=4096)
        assert rec.journal_limit == max(256, 4096 // 64) == 256
        assert FlightRecorder(eng).journal_limit == DEFAULT_CAPACITY // 64
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


class TestTypedColumns:
    def test_columns_round_trip_across_wrap(self):
        """Every numeric column reads back exactly what was recorded,
        after the ring wrapped: sids and trace ids past 2**31, parent -1,
        an open span's t1, and times such as 0.1 + 0.2 and the smallest
        subnormal."""
        eng, rec = make_recorder(capacity=8)
        rec._next_sid = rec._next_trace = 2**31 + 5
        times = (0.1 + 0.2, 5e-324, 1e300, 2.0**-1022 * 3)
        rows = []  # (sid, trace_id, parent, kind, t0, t1) per recorded span
        tid_a, root_a = rec.begin_trace("transfer")
        rows.append((root_a, tid_a, -1, "transfer", 0.0, -1.0))
        for i in range(10):
            t0, t1 = times[i % 4], times[(i + 1) % 4]
            sid = rec.record(f"mark[{i}]", tid_a, root_a, t0=t0, t1=t1)
            rows.append((sid, tid_a, root_a, f"mark[{i}]", t0, t1))
        eng.now = 0.1 + 0.2
        tid_b, root_b = rec.begin_trace("transfer")  # stays open
        rows.append((root_b, tid_b, -1, "transfer", 0.1 + 0.2, -1.0))
        psid = rec.record_path(
            "pipeline.path[0]", tid_b, root_b, 5e-324, 0.1 + 0.2, {"path": 1},
            chunk_kinds=("pipeline.path[0].chunk[0]",),
            chunk_events=(fake_chunk_event(0.1 + 0.2),),
        )
        rows.append((psid, tid_b, root_b, "pipeline.path[0]", 5e-324, 0.1 + 0.2))
        rows.append((
            psid + 1, tid_b, psid, "pipeline.path[0].chunk[0]", 0.1 + 0.2, 0.1 + 0.2,
        ))
        assert root_a > 2**31 and tid_b > 2**31

        def cols(span):
            return (span.sid, span.trace_id, span.parent, span.kind, span.t0, span.t1)

        resident = rows[-8:]
        spans = list(rec.iter_spans())
        assert [cols(s) for s in spans] == resident
        assert all(
            type(v) is int for s in spans for v in (s.sid, s.trace_id, s.parent)
        )
        assert all(type(v) is float for s in spans for v in (s.t0, s.t1))
        assert [cols(rec.get(row[0])) for row in resident] == resident
        assert rec.get(root_a) is None  # wrapped over
        assert (rec.dropped, rec.dropped_open) == (5, 1)
        tree = TraceTree(rec)
        assert [r.sid for r in tree.roots()] == [root_b]
        breakdown = tree.breakdown(tid_b)
        assert [cols(s) for s in breakdown.spans] == rows[-3:]
        assert breakdown.root.open and breakdown.root.t1 == -1.0
        assert breakdown.stages["execute"] == (0.1 + 0.2) - 5e-324


def items(attrs: dict) -> list:
    """A span's attrs as an ordered list, so key order is compared too."""
    return list(attrs.items())


class TestPackedAttrs:
    """Attrs are packed ``(keys, *values)`` tuples read back as dicts."""

    def record_every_entry_point(self, rec):
        """One trace through every recording call; returns ``(tid, sid ->
        expected attrs as an ordered item list)``."""
        tid, root = rec.begin_trace(
            "transfer", {"tag": "t", "src": 0, "dst": 1, "nbytes": 8}
        )
        retry = rec.begin(
            "recovery.retry[1]", tid, parent=root,
            attrs={"failed_paths": ["gpu:2"], "backoff": 0.5},
        )
        rec.finish(retry, faults=2, ok=True)
        plan = rec.record(
            "plan", tid, root, attrs={"wall_time_s": 1e-5, "mode": "dynamic"}
        )
        hit = rec.record(
            "plan.cache_hit", tid, root,
            attrs=(PLAN_KEYS, "replan", 2, 3e-4, 2e-6),
        )
        path = rec.record_path(
            "pipeline.path[0]", tid, root, 0.0, 1.0,
            {"theta": 0.5, "path": "direct", "nbytes": 4, "chunks": 1},
            chunk_kinds=("pipeline.path[0].chunk[0]",),
            chunk_events=(fake_chunk_event(1.0),),
        )
        rec.engine.now = 2.0
        rec.settle(tid, root, (SETTLE_KEYS, True, 1, 4))
        settled = [("ok", True), ("retries", 1), ("rerouted_bytes", 4)]
        return tid, {
            root: [("tag", "t"), ("src", 0), ("dst", 1), ("nbytes", 8)]
            + settled,
            retry: [
                ("failed_paths", ["gpu:2"]), ("backoff", 0.5),
                ("faults", 2), ("ok", True),
            ],
            plan: [("wall_time_s", 1e-5), ("mode", "dynamic")],
            hit: [
                ("mode", "replan"), ("paths", 2), ("predicted", 3e-4),
                ("wall_time_s", 2e-6),
            ],
            path: [
                ("theta", 0.5), ("path", "direct"), ("nbytes", 4),
                ("chunks", 1),
            ],
            path + 1: [],
            path + 2: settled,
        }

    def test_round_trip_from_every_entry_point(self):
        _, rec = make_recorder()
        tid, expected = self.record_every_entry_point(rec)
        assert {sid: items(rec.get(sid).attrs) for sid in expected} == expected
        assert {s.sid: items(s.attrs) for s in rec.iter_spans()} == expected
        spans = TraceTree(rec).breakdown(tid).spans
        assert {s.sid: items(s.attrs) for s in spans} == expected
        exported = {
            e["args"]["sid"]: list(e["args"].items())[3:]
            for e in trace_events(flight=rec)
            if e.get("pid") == FLIGHT_PID and e["ph"] == "X"
        }
        assert exported == expected

    def test_settle_appends_its_keys_to_the_root(self):
        _, rec = make_recorder()
        tid, root = rec.begin_trace("transfer", (TRANSFER_KEYS, 2, 3, 16, "x"))
        rec.settle(tid, root, {"ok": False, "outcome": "shed"})
        assert items(rec.get(root).attrs) == [
            ("src", 2), ("dst", 3), ("nbytes", 16), ("tag", "x"),
            ("ok", False), ("outcome", "shed"),
        ]

    def test_overlapping_key_keeps_its_place_takes_later_value(self):
        _, rec = make_recorder()
        sid = rec.begin("x", 0, attrs={"a": 1, "b": 2})
        rec.finish(sid, attrs={"c": 3, "a": 9}, b=7)
        assert items(rec.get(sid).attrs) == [("a", 9), ("b", 7), ("c", 3)]
        tid, root = rec.begin_trace("transfer", {"ok": None, "src": 0})
        rec.settle(tid, root, {"ok": True, "retries": 0})
        assert items(rec.get(root).attrs) == [
            ("ok", True), ("src", 0), ("retries", 0),
        ]
        # keywords win over attrs passed to the same finish, as {**a, **kw}
        sid = rec.begin("y", 0)
        rec.finish(sid, attrs={"b": 1, "a": 1}, a=2)
        assert items(rec.get(sid).attrs) == [("b", 1), ("a", 2)]

    def test_merge_onto_span_recorded_without_attrs(self):
        eng, rec = make_recorder()
        sid = rec.begin("x", 0)
        rec.finish(sid, ok=False)
        empty = rec.begin("y", 0, attrs={})
        rec.finish(empty, attrs=(SETTLE_KEYS, True, 0, 0))
        tid, root = rec.begin_trace("transfer")
        eng.now = 1.0
        rec.settle(tid, root, {"ok": True})
        assert rec.get(sid).attrs == {"ok": False}
        assert items(rec.get(empty).attrs) == [
            ("ok", True), ("retries", 0), ("rerouted_bytes", 0),
        ]
        root_span = rec.get(root)
        assert root_span.t1 == 1.0 and root_span.attrs == {"ok": True}

    def test_attrs_captured_by_value(self):
        """A caller's dict changed after the call leaves the span as
        recorded, and a merge never writes into the caller's dict."""
        _, rec = make_recorder()
        mine = {"a": 1}
        sid = rec.record("x", 0, attrs=mine)
        mine["a"] = 2
        mine["b"] = 3
        opened = {"c": 1}
        osid = rec.begin("y", 0, attrs=opened)
        rec.finish(osid, d=4)
        assert rec.get(sid).attrs == {"a": 1}
        assert opened == {"c": 1}
        assert rec.get(osid).attrs == {"c": 1, "d": 4}
        # each read is a fresh dict
        rec.get(sid).attrs["a"] = 5
        assert rec.get(sid).attrs == {"a": 1}

    def test_full_ring_holds_packed_tuples_one_keys_object_per_schema(self):
        eng, ctx = make_ctx(max_inflight_per_pair=1, contention_aware=True)
        rec = ctx.flight = ctx.pipeline.flight = FlightRecorder(eng, capacity=256)
        for i in range(12):  # waves of three puts; the second one queues
            wave = [
                ctx.put(src, dst, (1 + i % 3) * 4 * MiB, tag=f"p{i}")
                for src, dst in ((0, 1), (0, 1), (2, 3))
            ]
            for ev in wave:
                eng.run(until=ev)
        assert rec.spans_recorded > rec.capacity  # the ring wrapped
        rec._drain()
        column = rec._attrs
        assert not any(isinstance(a, dict) for a in column)
        packed = [a for a in column if a is not None]
        assert all(type(a) is tuple for a in packed)
        schemas = {a[0] for a in packed}
        assert len({id(a[0]) for a in packed}) == len(schemas)
        merged_root = (*TRANSFER_KEYS, *SETTLE_KEYS)
        assert {merged_root, SETTLE_KEYS, PATH_KEYS, ("nbytes",)} <= schemas
        assert all(
            a[0] is PATH_KEYS for a in packed if a[0] == PATH_KEYS
        ), "the pipeline's spans share the module's key tuple"


_KEYS = st.sampled_from("abcd")
_DICTS = st.dictionaries(_KEYS, st.integers(-3, 3), max_size=3)
_ATTRS = st.one_of(
    st.none(),
    _DICTS,
    _DICTS.filter(bool).map(lambda d: (tuple(d), *d.values())),
)
_OPS = st.one_of(
    st.tuples(st.just("begin_trace"), _ATTRS),
    st.tuples(st.just("begin"), _ATTRS),
    st.tuples(st.just("record"), _ATTRS),
    st.tuples(st.just("record_path"), _ATTRS, st.integers(0, 2)),
    st.tuples(st.just("finish"), st.integers(0, 63), _ATTRS, _DICTS),
    st.tuples(st.just("settle"), st.integers(0, 63), _ATTRS),
    st.tuples(
        st.just("query"), st.sampled_from(["get", "iter", "tree"]),
        st.integers(0, 63),
    ),
)


def as_dict(attrs) -> dict:
    if isinstance(attrs, tuple):
        return dict(zip(attrs[0], attrs[1:]))
    return dict(attrs or {})


class TestPackedAttrsProperty:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_OPS, max_size=60))
    def test_attrs_match_dict_reference(self, ops):
        """Random recording calls on a 16-span ring, interleaved with
        queries: every resident span's attrs equal, key order included, a
        reference that keeps a dict per span and applies each call in
        journal order, the way a dict column did (finish and settle update
        the span's dict if it is still resident)."""
        cap = 16
        _, rec = make_recorder(capacity=cap)
        ref: dict[int, dict] = {}
        roots: list[tuple[int, int]] = []
        sids: list[int] = []

        def resident(sid: int) -> bool:
            return sid >= rec.spans_recorded - cap

        for op in ops:
            name = op[0]
            if name == "begin_trace":
                tid, sid = rec.begin_trace("transfer", op[1])
                roots.append((tid, sid))
            elif name == "begin":
                sid = rec.begin("span", 0, attrs=op[1])
            elif name == "record":
                sid = rec.record("marker", 0, attrs=op[1])
            elif name == "record_path":
                n = op[2]
                sid = rec.record_path(
                    "pipeline.path[0]", 0, -1, 0.0, 1.0, op[1],
                    chunk_kinds=("pipeline.path[0].chunk[0]",) * n,
                    chunk_events=(fake_chunk_event(1.0),) * n,
                )
                for j in range(1, n + 1):
                    ref[sid + j] = {}
            elif name == "finish":
                if not sids:
                    continue
                target = sids[op[1] % len(sids)]
                rec.finish(target, attrs=op[2], **op[3])
                update = {**as_dict(op[2]), **op[3]}
                if resident(target):
                    ref[target].update(update)
                continue
            elif name == "settle":
                if not roots:
                    continue
                tid, root = roots[op[1] % len(roots)]
                rec.settle(tid, root, op[2])
                ref[rec.spans_recorded - 1] = as_dict(op[2])
                if resident(root):
                    ref[root].update(as_dict(op[2]))
                continue
            else:
                kind, pick = op[1], op[2]
                if kind == "get" and sids:
                    rec.get(sids[pick % len(sids)])
                elif kind == "iter":
                    list(rec.iter_spans())
                elif kind == "tree":
                    TraceTree(rec)
                continue
            ref[sid] = as_dict(op[1])
            sids.append(sid)

        first = max(0, rec.spans_recorded - cap)
        expected = {
            sid: items(ref[sid]) for sid in range(first, rec.spans_recorded)
        }
        assert {s.sid: items(s.attrs) for s in rec.iter_spans()} == expected
        assert {sid: items(rec.get(sid).attrs) for sid in expected} == expected


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
