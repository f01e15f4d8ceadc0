"""Tests for the UCX-like transport: config, registry, pipeline, cuda_ipc."""

import pytest

from repro.core.params import ParameterStore
from repro.sim import Engine, Tracer
from repro.topology import systems
from repro.ucx import ModelRegistry, TransportConfig, UCXContext
from repro.ucx.pipeline import PipelineEngine, SettledExecution
from repro.ucx.tuning import StaticShare
from repro.units import KiB, MiB, gbps


def make_ctx(topology=None, **kw):
    eng = Engine()
    ctx = UCXContext(eng, topology or systems.beluga(), **kw)
    return eng, ctx


class TestTransportConfig:
    def test_defaults(self):
        cfg = TransportConfig()
        assert cfg.multipath and cfg.include_host and cfg.pipelining

    def test_single_path_preset(self):
        cfg = TransportConfig.single_path()
        assert not cfg.multipath

    def test_with_update(self):
        cfg = TransportConfig().with_(max_chunks=8)
        assert cfg.max_chunks == 8

    def test_from_env(self):
        cfg = TransportConfig.from_env(
            {
                "UCX_MP_ENABLE": "y",
                "UCX_MP_INCLUDE_HOST": "n",
                "UCX_MP_EXCLUDE": "gpu:3, host",
                "UCX_MP_MAX_CHUNKS": "32",
                "UCX_RNDV_THRESH": "256K",
            }
        )
        assert cfg.multipath
        assert not cfg.include_host
        assert cfg.exclude_paths == ("gpu:3", "host")
        assert cfg.max_chunks == 32
        assert cfg.rndv_threshold == 256 * KiB

    def test_from_env_bad_flag(self):
        with pytest.raises(ValueError):
            TransportConfig.from_env({"UCX_MP_ENABLE": "maybe"})

    def test_static_shares_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TransportConfig(static_shares=(StaticShare("direct", 0.5),))

    def test_validation(self):
        with pytest.raises(ValueError):
            TransportConfig(rndv_threshold=-1)
        with pytest.raises(ValueError):
            TransportConfig(max_chunks=0)


class TestModelRegistry:
    def test_register_get(self):
        reg = ModelRegistry()
        store = ParameterStore.ground_truth(systems.beluga())
        reg.register("beluga", store)
        assert reg.get("beluga") is store
        assert "beluga" in reg

    def test_missing_raises(self):
        with pytest.raises(KeyError, match="calibrat"):
            ModelRegistry().get("nope")

    def test_persistence_roundtrip(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        store = ParameterStore.ground_truth(systems.narval())
        reg.register("narval", store)
        path = reg.save("narval")
        assert path.exists()
        fresh = ModelRegistry(tmp_path)
        assert "narval" in fresh
        assert fresh.names() == ["narval"]
        loaded = fresh.get("narval")
        hop = systems.narval().direct_hop(0, 1)
        assert loaded.link(hop).beta == store.link(hop).beta

    def test_save_without_directory(self):
        reg = ModelRegistry()
        reg.register("x", ParameterStore())
        with pytest.raises(ValueError):
            reg.save("x")


class TestPipelineEngine:
    def test_direct_only_plan_matches_link_time(self):
        eng, ctx = make_ctx()
        plan = ctx.planner.plan(0, 1, 46 * MiB, max_gpu_staged=0, include_host=False)
        t0 = eng.now
        settled = eng.run(until=ctx.pipeline.execute(plan))
        hop = ctx.topology.direct_hop(0, 1)
        expected = ctx.topology.hop_alpha(hop) + 46 * MiB / gbps(46)
        assert eng.now - t0 == pytest.approx(expected, rel=1e-9)
        assert settled.ok
        assert settled.executions[0].path_id == "direct"

    def test_multipath_beats_direct(self):
        eng1, ctx1 = make_ctx()
        plan_multi = ctx1.planner.plan(0, 1, 256 * MiB, include_host=False)
        eng1.run(until=ctx1.pipeline.execute(plan_multi))
        t_multi = eng1.now

        eng2, ctx2 = make_ctx()
        plan_direct = ctx2.planner.plan(
            0, 1, 256 * MiB, max_gpu_staged=0, include_host=False
        )
        eng2.run(until=ctx2.pipeline.execute(plan_direct))
        t_direct = eng2.now
        assert t_multi < t_direct
        # three near-equal NVLink paths: expect >2x
        assert t_direct / t_multi > 2.0

    def test_staged_pipelining_overlaps_hops(self):
        """Chunk c+1's first hop must overlap chunk c's second hop."""
        eng = Engine()
        tracer = Tracer()
        ctx = UCXContext(eng, systems.beluga(), tracer=tracer)
        plan = ctx.planner.plan(0, 1, 256 * MiB, include_host=False)
        staged = plan.assignment_for("gpu:2")
        assert staged.chunks >= 2
        eng.run(until=ctx.pipeline.execute(plan, tag="T"))
        h1 = sorted(tracer.for_tag_prefix("T/gpu:2:h1"), key=lambda r: r.start)
        h2 = sorted(tracer.for_tag_prefix("T/gpu:2:h2"), key=lambda r: r.start)
        assert len(h1) == staged.chunks and len(h2) == staged.chunks
        # Overlap between h1 of chunk 1 and h2 of chunk 0:
        assert tracer.overlap(h1[1], h2[0]) > 0

    def test_chunk_sizes_split(self):
        assert PipelineEngine._chunk_sizes(10, 3) == [4, 3, 3]
        assert PipelineEngine._chunk_sizes(9, 3) == [3, 3, 3]
        assert PipelineEngine._chunk_sizes(2, 5) == [1, 1]
        with pytest.raises(ValueError):
            PipelineEngine._chunk_sizes(0, 4)
        with pytest.raises(ValueError):
            PipelineEngine._chunk_sizes(-1, 2)

    def test_all_bytes_delivered(self):
        eng = Engine()
        tracer = Tracer()
        ctx = UCXContext(eng, systems.beluga(), tracer=tracer)
        n = 64 * MiB
        plan = ctx.planner.plan(0, 1, n)
        eng.run(until=ctx.pipeline.execute(plan, tag="X"))
        # bytes over final hops (direct + h2 of each staged path) == n
        delivered = sum(
            r.nbytes
            for r in tracer.records
            if ":direct" in r.tag or ":h2:" in r.tag
        )
        assert delivered == n

    def test_stream_pool_reuse(self):
        eng, ctx = make_ctx()
        plan = ctx.planner.plan(0, 1, 8 * MiB, include_host=False)
        eng.run(until=ctx.pipeline.execute(plan))
        first_pool = dict(ctx.pipeline._stream_pool)
        assert first_pool  # the run actually pooled streams
        created = ctx.runtime._stream_count
        eng.run(until=ctx.pipeline.execute(plan))
        second_pool = ctx.pipeline._stream_pool
        # Back-to-back execute() calls reuse the *same* Stream objects —
        # identical keys mapped to identical instances, no new streams made.
        assert set(second_pool) == set(first_pool)
        for key, stream in first_pool.items():
            assert second_pool[key] is stream
        assert ctx.runtime._stream_count == created

    def test_empty_plan(self):
        eng, ctx = make_ctx()
        plan = ctx.planner.plan(0, 1, 0)
        done = ctx.pipeline.execute(plan)
        assert eng.run(until=done) == SettledExecution()
        assert ctx.pipeline.transfers_executed == 0

    def test_direct_execute_compiles_one_shot(self):
        """Without a graph, execute compiles the plan for this run only:
        nothing enters the graph cache and nothing counts as a replay."""
        eng, ctx = make_ctx()
        plan = ctx.planner.plan(0, 1, 8 * MiB)
        eng.run(until=ctx.pipeline.execute(plan))
        assert ctx.pipeline.transfers_executed == 1
        assert ctx.pipeline.transfers_replayed == 0
        assert ctx.graphs.stats()["compiles"] == 0 and len(ctx.graphs) == 0


class TestCudaIpcPut:
    def test_eager_small_message(self):
        eng, ctx = make_ctx()
        result = eng.run(until=ctx.put(0, 1, 4 * KiB))
        assert result.protocol == "eager"
        assert result.mode == "single"
        assert result.duration > 0

    def test_rndv_large_message_dynamic(self):
        eng, ctx = make_ctx()
        result = eng.run(until=ctx.put(0, 1, 64 * MiB))
        assert result.protocol == "rndv"
        assert result.mode == "dynamic"

    def test_single_path_config(self):
        eng, ctx = make_ctx(config=TransportConfig.single_path())
        result = eng.run(until=ctx.put(0, 1, 64 * MiB))
        assert result.mode == "single"

    def test_static_shares(self):
        cfg = TransportConfig(
            static_shares=(
                StaticShare("direct", 0.5),
                StaticShare("gpu:2", 0.5, chunks=4),
            )
        )
        eng, ctx = make_ctx(config=cfg)
        result = eng.run(until=ctx.put(0, 1, 64 * MiB))
        assert result.mode == "static"

    def test_static_share_gpu_roles_resolved_per_pair(self):
        """gpu:* shares bind to the pair's staged candidates by role, so a
        distribution tuned on (0,1) applies to any pair."""
        cfg = TransportConfig(
            static_shares=(StaticShare("direct", 0.5), StaticShare("gpu:9", 0.5))
        )
        eng, ctx = make_ctx(config=cfg)
        result = eng.run(until=ctx.put(3, 0, 64 * MiB))
        assert result.mode == "static"

    def test_static_share_unknown_kind_rejected(self):
        cfg = TransportConfig(static_shares=(StaticShare("weird", 1.0),))
        eng, ctx = make_ctx(config=cfg)
        with pytest.raises(KeyError):
            eng.run(until=ctx.put(0, 1, 64 * MiB))

    def test_static_share_too_many_staged_rejected(self):
        cfg = TransportConfig(
            static_shares=tuple(
                StaticShare(f"gpu:{i}", 1.0 / 3) for i in range(3)
            )
        )
        eng, ctx = make_ctx(config=cfg)
        with pytest.raises(KeyError, match="no staged"):
            eng.run(until=ctx.put(0, 1, 64 * MiB))

    def test_multipath_put_faster_than_single(self):
        n = 256 * MiB
        eng1, ctx1 = make_ctx(config=TransportConfig(include_host=False))
        r_multi = eng1.run(until=ctx1.put(0, 1, n))
        eng2, ctx2 = make_ctx(config=TransportConfig.single_path())
        r_single = eng2.run(until=ctx2.put(0, 1, n))
        assert r_multi.duration < r_single.duration

    def test_pcie_only_falls_back_to_host_path(self):
        eng, ctx = make_ctx(topology=systems.pcie_only())
        result = eng.run(until=ctx.put(0, 1, 16 * MiB))
        assert result.duration > 0

    def test_negative_size_rejected(self):
        _, ctx = make_ctx()
        with pytest.raises(ValueError):
            ctx.put(0, 1, -5)

    def test_zero_byte_put_completes_immediately(self):
        eng, ctx = make_ctx(tracer=Tracer())
        result = eng.run(until=ctx.put(0, 1, 0))
        assert result.nbytes == 0
        assert result.duration == 0.0
        assert result.bandwidth == 0.0  # documented: 0.0, not a ZeroDivision
        assert result.protocol == "eager" and result.mode == "single"
        assert ctx.tracer.records == []  # nothing touched the fabric
        assert ctx.cuda_ipc.puts_completed == 1

    def test_ipc_cache_warm_after_first_put(self):
        eng, ctx = make_ctx()
        eng.run(until=ctx.put(0, 1, 1 * MiB))
        hits_before = ctx.runtime.ipc.cache.hits
        eng.run(until=ctx.put(0, 1, 1 * MiB))
        assert ctx.runtime.ipc.cache.hits == hits_before + 1


class TestEndpoint:
    def test_put_get_directions(self):
        eng, ctx = make_ctx()
        ep = ctx.endpoint(0, 1)
        r = eng.run(until=ep.put(8 * MiB))
        assert (r.src, r.dst) == (0, 1)
        r = eng.run(until=ep.get(8 * MiB))
        assert (r.src, r.dst) == (1, 0)

    def test_endpoint_cached(self):
        _, ctx = make_ctx()
        assert ctx.endpoint(0, 1) is ctx.endpoint(0, 1)
        assert ctx.endpoint(0, 1) is not ctx.endpoint(1, 0)

    def test_same_device_rejected(self):
        _, ctx = make_ctx()
        with pytest.raises(ValueError):
            ctx.endpoint(2, 2)

    def test_counters(self):
        eng, ctx = make_ctx()
        ep = ctx.endpoint(0, 1)
        eng.run(until=ep.put(4 * MiB))
        assert ep.puts == 1 and ep.bytes_put == 4 * MiB


class TestReconfigure:
    def test_reconfigure_swaps_planner(self):
        eng, ctx = make_ctx()
        old_planner = ctx.planner
        ctx.reconfigure(TransportConfig(pipelining=False))
        assert ctx.planner is not old_planner
        assert not ctx.planner.pipelining
