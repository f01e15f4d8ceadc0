"""Compiled transfer graphs: compile/replay/invalidate lifecycle.

Invalidation coverage: drift refits, path quarantine and load-bucket
changes must each make the affected graphs unreachable and force
recompilation; a health transition that leaves the plan as it was (a
suspect path, a recovered fault) must not.  Bit-identity of replayed
timelines is certified separately in ``tests/test_timeline_invariance.py``.
"""

from __future__ import annotations

import pytest

from repro.core.path_health import PathHealth
from repro.core.transfer_graph import compile_plan
from repro.obs import Observability
from repro.sim.engine import Engine
from repro.topology import systems
from repro.ucx import TransportConfig, UCXContext
from repro.ucx.pipeline import PipelineEngine
from repro.units import MiB


def _context(config: TransportConfig | None = None, *, obs=None) -> tuple:
    eng = Engine()
    ctx = UCXContext(
        eng,
        systems.beluga(),
        config=config if config is not None else TransportConfig(),
        obs=obs,
    )
    return eng, ctx


def _run_puts(eng, ctx, shapes, pair=(0, 1)):
    events = [
        ctx.put(pair[0], pair[1], n, tag=f"g{i}") for i, n in enumerate(shapes)
    ]
    return [eng.run(until=ev) for ev in events]


class TestReplay:
    def test_repeated_shapes_compile_once_and_replay(self):
        eng, ctx = _context()
        _run_puts(eng, ctx, [8 * MiB] * 5)
        stats = ctx.graphs.stats()
        assert stats["compiles"] == 1
        assert stats["hits"] == 4
        assert ctx.pipeline.transfers_replayed == 5

    def test_distinct_shapes_compile_separately(self):
        eng, ctx = _context()
        _run_puts(eng, ctx, [8 * MiB, 2 * MiB, 8 * MiB, 2 * MiB])
        stats = ctx.graphs.stats()
        assert stats["compiles"] == 2
        assert stats["hits"] == 2

    def test_eager_puts_replay_too(self):
        eng, ctx = _context()
        nbytes = 64 * 1024  # below the rndv threshold: eager single-path
        results = _run_puts(eng, ctx, [nbytes] * 4)
        assert all(r.protocol == "eager" for r in results)
        assert ctx.graphs.stats()["hits"] == 3

    def test_amortized_setup_cost_drops_with_replays(self):
        eng, ctx = _context()
        _run_puts(eng, ctx, [8 * MiB] * 10)
        (row,) = ctx.graphs.report_rows()
        assert row["replays"] == 9
        assert row["amortized_us"] == pytest.approx(row["compile_us"] / 10)


class TestInvalidation:
    def test_drift_refit_evicts_all_graphs(self):
        eng, ctx = _context()
        _run_puts(eng, ctx, [8 * MiB] * 3)
        assert len(ctx.graphs) == 1
        ctx.planner.refresh_params()  # full refit forwards to the graphs
        assert len(ctx.graphs) == 0
        _run_puts(eng, ctx, [8 * MiB])
        assert ctx.graphs.stats()["compiles"] == 2  # forced recompilation

    def test_targeted_refit_evicts_only_crossing_graphs(self):
        eng, ctx = _context()
        _run_puts(eng, ctx, [8 * MiB], pair=(0, 1))
        _run_puts(eng, ctx, [8 * MiB], pair=(2, 3))
        assert len(ctx.graphs) == 2
        # refit a hop only the (0, 1) plan crosses
        hop = ctx.topology.direct_hop(0, 1)
        ctx.planner.refresh_params(hops=[hop])
        remaining = [g.plan for g in ctx.graphs.cache._data.values()]
        assert len(remaining) == 1
        assert (remaining[0].src, remaining[0].dst) == (2, 3)

    def test_quarantine_evicts_matching_graphs(self):
        eng, ctx = _context()
        (result,) = _run_puts(eng, ctx, [8 * MiB])
        assert len(ctx.graphs) == 1
        graph = next(iter(ctx.graphs.cache._data.values()))
        path_id = graph.plan.active_assignments[0].path.path_id
        # two consecutive failures quarantine the path; the registry's
        # on_quarantine callback forwards through the planner to the graphs
        ctx.health.record_failure(0, 1, path_id, now=eng.now)
        ctx.health.record_failure(0, 1, path_id, now=eng.now)
        assert len(ctx.graphs) == 0
        assert ctx.graphs.stats()["invalidations"] >= 1

    def test_suspect_path_keeps_its_graph(self):
        eng, ctx = _context()
        _run_puts(eng, ctx, [8 * MiB] * 2)
        assert ctx.graphs.stats()["compiles"] == 1
        # a single failure only demotes healthy -> suspect: a suspect path
        # is still planned over, so the plan, and the graph that froze it,
        # stay valid and the next put replays it
        graph = next(iter(ctx.graphs.cache._data.values()))
        path_id = graph.plan.active_assignments[0].path.path_id
        assert ctx.health.record_failure(0, 1, path_id, now=eng.now) is PathHealth.SUSPECT
        assert len(ctx.graphs) == 1
        hits = ctx.graphs.stats()["hits"]
        _run_puts(eng, ctx, [8 * MiB])
        stats = ctx.graphs.stats()
        assert stats["compiles"] == 1
        assert stats["hits"] == hits + 1
        assert graph.replays == 2

    def test_load_bucket_change_compiles_per_bucket(self):
        cfg = TransportConfig(contention_aware=True)
        eng, ctx = _context(cfg)
        # sequential puts plan at idle load; concurrent ones see each
        # other's holds, so their load buckets (and graph keys) differ
        for i in range(2):
            eng.run(until=ctx.put(0, 1, 8 * MiB, tag=f"s{i}"))
        assert ctx.graphs.stats()["compiles"] == 1
        evs = [ctx.put(0, 1, 8 * MiB, tag=f"c{i}") for i in range(2)]
        for ev in evs:
            eng.run(until=ev)
        # the second concurrent put planned against the first one's load:
        # a fresh bucket means a fresh key and a fresh compile
        assert ctx.graphs.stats()["compiles"] >= 2
        keys = list(ctx.graphs.cache._data)
        load_keys = {k[4] for k in keys}
        assert len(load_keys) >= 2


class TestRecoveryKeepsTheGraph:
    def test_next_put_replays_the_faulted_rounds_graph(self):
        """A faulted round leaves its graph cached: the recovery replans
        compile one-shot, and once the fault has left the path suspect
        the next same-shape put replays the first round's graph."""
        from repro.sim.faults import FaultSchedule, LinkDown

        eng, ctx = _context()
        topo = ctx.topology
        (r0,) = _run_puts(eng, ctx, [8 * MiB])
        (graph,) = ctx.graphs.cache._data.values()
        FaultSchedule(
            LinkDown(
                topo.direct_hop(0, 1)[0],
                at=eng.now + 0.4 * r0.duration,
                duration=0.2 * r0.duration,
            )
        ).attach(ctx.runtime.fabric)
        (r1,) = _run_puts(eng, ctx, [8 * MiB])
        assert r1.retries > 0
        assert ctx.health.state(0, 1, "direct") is PathHealth.SUSPECT
        before = ctx.graphs.stats()
        assert before["compiles"] == 1
        (r2,) = _run_puts(eng, ctx, [8 * MiB])
        after = ctx.graphs.stats()
        assert r2.retries == 0
        assert after["compiles"] == before["compiles"]
        assert after["hits"] == before["hits"] + 1
        assert graph.replays == 2
        assert ctx.health.state(0, 1, "direct") is PathHealth.HEALTHY


class TestObservability:
    def test_decision_log_marks_graph_hits(self):
        """A replay's decision is its ``plan.graph_hit`` span: the same
        choice as the cold plan it froze, served without the planner."""
        obs = Observability()
        eng, ctx = _context(obs=obs)
        _run_puts(eng, ctx, [8 * MiB] * 3)
        plans = [
            s for s in ctx.flight.iter_spans() if s.kind.startswith("plan")
        ]
        cold, *hits = plans
        assert cold.kind == "plan"
        assert [s.kind for s in hits] == ["plan.graph_hit"] * 2
        for s in hits:
            for key in ("mode", "paths", "predicted"):
                assert s.attrs[key] == cold.attrs[key]
        snap = obs.metrics.snapshot()
        assert snap["transfer_graph"]["hits"] == 2
        assert snap["planner"]["cache"]["hits"] == 0

    def test_flight_records_graph_hit_spans(self):
        eng, ctx = _context()
        _run_puts(eng, ctx, [8 * MiB] * 3)
        spans = list(ctx.flight.iter_spans())
        kinds = [s.kind for s in spans]
        assert kinds.count("plan.graph_hit") == 2
        hit = next(s for s in spans if s.kind == "plan.graph_hit")
        assert hit.attrs["wall_time_s"] >= 0.0

    def test_collector_exposes_graph_stats(self):
        obs = Observability()
        eng, ctx = _context(obs=obs)
        _run_puts(eng, ctx, [8 * MiB] * 3)
        snap = obs.metrics.snapshot()
        assert snap["transfer_graph"]["hits"] == 2


class TestConfig:
    def test_from_env_rejects_unknown_variables(self):
        # retired knobs and a typo are named, never silently ignored
        for var in (
            "UCX_MP_TRANSFER_GRAPHS",
            "UCX_MP_FLIGHT_RECORDER",
            "UCX_MP_FLIGHT_CAPACITY",
            "UCX_MP_GRAPH_CACHE",
            "UCX_MP_COALESCE",
            "UCX_MP_MAX_RETRY",
        ):
            with pytest.raises(ValueError, match=var):
                TransportConfig.from_env({var: "0", "UCX_MP_MAX_RETRIES": "2"})
        # variables outside the UCX_MP_ namespace are not the config's
        cfg = TransportConfig.from_env({"UCX_TLS": "cuda_ipc", "HOME": "/"})
        assert cfg == TransportConfig()


class TestChunkMemo:
    def test_chunk_sizes_contract_preserved(self):
        # the unbound static call style some callers rely on
        assert PipelineEngine._chunk_sizes(10, 3) == [4, 3, 3]
        assert PipelineEngine._chunk_sizes(7, 7) == [1] * 7
        with pytest.raises(ValueError):
            PipelineEngine._chunk_sizes(0, 4)


class TestCompilePlan:
    def test_compiled_schedule_matches_cold_derivation(self):
        eng, ctx = _context()
        plan = ctx.planner.plan(0, 1, 8 * MiB)
        compiled = compile_plan(plan, ctx.pipeline)
        assert len(compiled) == len(plan.active_assignments)
        for cp, a in zip(compiled, plan.active_assignments):
            assert cp.assignment is a
            if not a.path.is_staged:
                assert cp.stream_keys == ((0, 1, a.path.path_id, "direct"),)
                continue
            assert list(cp.chunk_sizes) == ctx.pipeline._chunk_sizes(
                a.nbytes, a.chunks
            )
            assert cp.epsilon == ctx.pipeline.runtime.sync_cost(
                via_gpu=a.path.via is not None
            )
            # label + suffix forms each executed copy tag
            assert cp.h1_suffixes[0] == ":h1:0"
            assert cp.h2_suffixes[-1] == f":h2:{len(cp.chunk_sizes) - 1}"
