"""Tests for the UCX-like transport: config, pipeline, cuda_ipc."""

from dataclasses import fields

import pytest

from repro.gpu.errors import LinkFailure
from repro.sim import Engine, FaultSchedule, LinkDown, Tracer
from repro.topology import systems
from repro.ucx import TransportConfig, UCXContext
from repro.ucx.pipeline import PipelineEngine, SettledExecution
from repro.ucx.tuning import StaticShare
from repro.units import KiB, MiB, gbps, us


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

    # Every variable from_env reads: a spelling of a non-default value,
    # the field it sets and the value it parses to.
    ENV_CASES = {
        "UCX_MP_ENABLE": ("n", "multipath", False),
        "UCX_MP_INCLUDE_HOST": ("no", "include_host", False),
        "UCX_MP_MAX_GPU_STAGED": ("1", "max_gpu_staged", 1),
        "UCX_MP_EXCLUDE": ("gpu:3, host,", "exclude_paths", ("gpu:3", "host")),
        "UCX_MP_PIPELINE": ("off", "pipelining", False),
        "UCX_MP_MAX_CHUNKS": ("32", "max_chunks", 32),
        "UCX_MP_SEQ_INIT": (" FALSE ", "sequential_initiation", False),
        "UCX_RNDV_THRESH": ("256K", "rndv_threshold", 256 * KiB),
        "UCX_MP_MAX_RETRIES": ("0", "max_path_retries", 0),
        "UCX_MP_DEADLINE_FACTOR": ("2.5", "deadline_factor", 2.5),
        "UCX_MP_CONTENTION_AWARE": ("y", "contention_aware", True),
        "UCX_MP_MAX_INFLIGHT": ("4", "max_inflight_total", 4),
        "UCX_MP_MAX_INFLIGHT_PAIR": ("2", "max_inflight_per_pair", 2),
        "UCX_MP_QUEUE_LIMIT": ("16", "admission_queue_limit", 16),
        "UCX_MP_SHED_POLICY": (" tenant-fair", "shed_policy", "tenant-fair"),
        "UCX_MP_PRESSURED_DEPTH": ("4", "overload_pressured_depth", 4),
        "UCX_MP_SHEDDING_DEPTH": ("8", "overload_shedding_depth", 8),
        "UCX_MP_RETRY_BUDGET": ("32", "retry_budget_total", 32),
        "UCX_MP_RETRY_BUDGET_PAIR": ("0", "retry_budget_per_pair", 0),
        "UCX_MP_RETRY_BUDGET_REFILL": ("2.5", "retry_budget_refill", 2.5),
    }

    @pytest.mark.parametrize("var", sorted(ENV_CASES))
    def test_each_variable_sets_only_its_field(self, var):
        raw, name, value = self.ENV_CASES[var]
        cfg = TransportConfig.from_env({var: raw})
        assert getattr(cfg, name) == value
        default = TransportConfig()
        assert cfg.with_(**{name: getattr(default, name)}) == default

    def test_knob_table_has_one_row_per_field(self):
        from repro.ucx.tuning import _KNOBS

        assert list(_KNOBS) == [f.name for f in fields(TransportConfig)]
        variables = {var for var, _parse, _bound in _KNOBS.values() if var}
        assert variables == set(self.ENV_CASES)

    def test_static_shares_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TransportConfig(static_shares=(StaticShare("direct", 0.5),))

    def test_validation(self):
        with pytest.raises(ValueError):
            TransportConfig(rndv_threshold=-1)
        with pytest.raises(ValueError):
            TransportConfig(max_chunks=0)


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

    def _staged_down_run(self, fault_at=None):
        eng, tracer = Engine(), Tracer()
        ctx = UCXContext(eng, systems.beluga(), tracer=tracer)
        if fault_at is not None:
            FaultSchedule(LinkDown("nvl:2->1", at=fault_at)).attach(
                ctx.runtime.fabric
            )
        plan = ctx.planner.plan(0, 1, 256 * MiB, include_host=False)
        assert [a.path.path_id for a in plan.active_assignments] == [
            "direct", "gpu:2", "gpu:3"
        ]
        return eng, ctx, tracer, ctx.pipeline.execute(plan, tag="T")

    def test_outcomes_settle_in_path_order(self):
        """A later path that dies while path 0 still runs is settled when
        path 0 lands, in plan order, yet its fault keeps its own time."""
        eng, _, tracer, done = self._staged_down_run()
        eng.run(until=done)
        (chunk,) = tracer.for_tag_prefix("T/gpu:2:h2:8")
        t_down = (chunk.start + chunk.end) / 2  # mid hop-2 copy of chunk 8

        eng, ctx, tracer, done = self._staged_down_run(fault_at=t_down)
        pipeline = ctx.pipeline
        eng.run(until=t_down)
        # gpu:2 has failed, but path 0 still runs: nothing is settled yet
        assert not done.triggered
        assert pipeline.paths_failed == 0
        assert (0, 1, "gpu:2", "h2") in pipeline._stream_pool
        settled = eng.run(until=done)
        assert [e.path_id for e in settled.executions] == ["direct", "gpu:3"]
        assert eng.now == max(e.end for e in settled.executions)
        (fault,) = settled.faults
        assert fault.path_id == "gpu:2"
        assert isinstance(fault.error, LinkFailure)
        assert fault.start == 0.0 and fault.end == t_down < eng.now
        landed = tracer.for_tag_prefix("T/gpu:2:h2")
        assert len(landed) == 8
        assert fault.delivered == sum(r.nbytes for r in landed)
        assert pipeline.paths_failed == 1
        assert pipeline.streams_reset == 2
        assert not any(key[2] == "gpu:2" for key in pipeline._stream_pool)

    def test_non_transfer_error_fails_the_execution(self, monkeypatch):
        """A copy that raises a non-transfer error fails the execution with
        that same exception, once the paths before it have landed, and is
        not recorded as a path fault."""
        eng, tracer = Engine(), Tracer()
        ctx = UCXContext(eng, systems.beluga(), tracer=tracer)
        fabric = ctx.runtime.fabric
        boom = RuntimeError("boom")
        copy = fabric.copy

        def failing_copy(hop, nbytes, *, tag=""):
            if tag.startswith("T/gpu:3:"):
                raise boom
            return copy(hop, nbytes, tag=tag)

        monkeypatch.setattr(fabric, "copy", failing_copy)
        plan = ctx.planner.plan(0, 1, 64 * MiB, include_host=False)
        done = ctx.pipeline.execute(plan, tag="T")
        with pytest.raises(RuntimeError) as info:
            eng.run(until=done)
        assert info.value is boom
        assert eng.now == max(
            r.end for r in tracer.records if ":direct" in r.tag or ":h2:" in r.tag
        )
        assert ctx.pipeline.paths_executed == 2
        assert ctx.pipeline.paths_failed == 0
        assert ctx.pipeline.streams_reset == 2

    def _raising_execution(self, prefix, fault_at=None):
        """Start the 64 MiB 0->1 plan (direct, gpu:2, gpu:3) tagged "T"
        while ``fabric.copy`` raises ``RuntimeError`` for tags starting
        with ``prefix``, with ``nvl:3->1`` going down at ``fault_at``.
        Returns the engine, the context, the exception, the execution
        event and a function that restores ``fabric.copy``."""
        eng = Engine()
        ctx = UCXContext(eng, systems.beluga())
        fabric = ctx.runtime.fabric
        boom = RuntimeError("boom")
        copy = fabric.copy

        def failing_copy(hop, nbytes, *, tag=""):
            if tag.startswith(prefix):
                raise boom
            return copy(hop, nbytes, tag=tag)

        fabric.copy = failing_copy
        if fault_at is not None:
            FaultSchedule(LinkDown("nvl:3->1", at=fault_at)).attach(fabric)
        plan = ctx.planner.plan(0, 1, 64 * MiB, include_host=False)
        assert [a.path.path_id for a in plan.active_assignments] == [
            "direct", "gpu:2", "gpu:3"
        ]
        done = ctx.pipeline.execute(plan, tag="T")
        return eng, ctx, boom, done, lambda: setattr(fabric, "copy", copy)

    @pytest.mark.parametrize("prefix", ["T/gpu:3:h1:2", "T/gpu:3:h2:2"])
    def test_raising_chunk_copy_fails_the_execution(self, prefix):
        """Chunk 2's copy, started from a completion callback, raises: the
        path fails with that exception and the execution fails with it
        once path 0 lands, as when every copy was its own stream op."""
        eng, ctx, boom, done, _ = self._raising_execution(prefix)
        with pytest.raises(RuntimeError) as info:
            eng.run(until=done)
        assert info.value is boom
        assert eng.now == 0.0005633904347826087
        assert ctx.pipeline.streams_reset == 2

    def test_non_transfer_error_leaves_no_poisoned_stream(self):
        """Once the failed execution has dropped gpu:3's poisoned streams,
        the next put over the pair runs on fresh ones and succeeds."""
        eng, ctx, boom, done, restore = self._raising_execution("T/gpu:3:")
        with pytest.raises(RuntimeError) as info:
            eng.run(until=done)
        assert info.value is boom
        restore()
        result = eng.run(until=ctx.put(0, 1, 64 * MiB))
        assert result.retries == 0
        assert ctx.pipeline.leaked_streams() == []

    @pytest.mark.parametrize("prefix, reset", [("T/gpu:2:", 4), ("T/direct", 3)])
    def test_fault_after_a_non_transfer_error_drops_its_streams(self, prefix, reset):
        """gpu:3 dies on a LinkDown at 500 µs after another path raised.
        When gpu:2 raises, its error fails the execution once path 0 lands,
        after gpu:3's fault; when the direct path raises, the execution
        fails at once, before it.  Either way gpu:3's fault is not taken,
        yet its poisoned stream is dropped all the same."""
        eng, ctx, boom, done, _ = self._raising_execution(prefix, fault_at=500 * us)
        with pytest.raises(RuntimeError) as info:
            eng.run(until=done)
        assert info.value is boom
        eng.run()
        pipeline = ctx.pipeline
        assert pipeline.paths_failed == 0
        assert pipeline.streams_reset == reset
        assert pipeline.leaked_streams() == []

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

    @pytest.mark.parametrize(
        "size, paths, end",
        [
            (64, 4, 0.001094469565217391),
            (16, 4, 0.00034126191304347826),
            (2, 3, 9.258573913043479e-05),
        ],
    )
    def test_warm_put_spawns_one_process(self, size, paths, end, monkeypatch):
        """The put is the only engine process a warm transfer runs: its
        paths and their settlement run on completion callbacks.  The end
        times are pinned bit for bit."""
        eng, ctx = make_ctx()
        eng.run(until=ctx.put(0, 1, size * MiB))
        spawned = []
        process = eng.process
        monkeypatch.setattr(
            eng,
            "process",
            lambda gen, name="": spawned.append(name) or process(gen, name),
        )
        executed = ctx.pipeline.paths_executed
        result = eng.run(until=ctx.put(0, 1, size * MiB))
        assert spawned == ["put:0->1"]
        assert ctx.pipeline.paths_executed - executed == paths
        assert result.end == end


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
