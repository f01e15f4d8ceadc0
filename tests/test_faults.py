"""Fault injection and recovery: fabric outages, scripted schedules,
transport failover, path health, and graceful collective degradation."""

import math

import numpy as np
import pytest

from repro.core.path_health import PathHealth, PathHealthRegistry
from repro.gpu.errors import DeadlineUnsatisfiable
from repro.mpi import Communicator, collectives
from repro.runtime.sanitizer import check_invariants
from repro.sim import (
    Engine,
    Fabric,
    FaultSchedule,
    FlappingLink,
    LinkDown,
    LinkFailure,
    StallInjector,
    Tracer,
)
from repro.topology import systems
from repro.topology.routing import enumerate_paths
from repro.ucx import PathUnavailable, TransferTimeout, TransportConfig, UCXContext
from repro.units import MiB, gbps
from tests.golden import assert_golden, timeline_digest


def make_ctx(topology=None, config=None, tracer=None):
    eng = Engine()
    ctx = UCXContext(
        eng, topology or systems.beluga(), config=config, tracer=tracer
    )
    return eng, ctx


def delivered_bytes(tracer, label):
    """Final-hop bytes for a put and its retries (``label:rN`` tags)."""
    return sum(
        r.nbytes
        for r in tracer.records
        if r.tag.startswith(f"{label}/") or r.tag.startswith(f"{label}:r")
        if ":direct" in r.tag or ":h2:" in r.tag
    )


# ----------------------------------------------------------------------
# Fabric-level fault semantics
# ----------------------------------------------------------------------
class TestFabricFaults:
    def _fab(self, eng, **betas):
        fab = Fabric(eng)
        for name, beta in betas.items():
            fab.add_channel(name, alpha=0.0, beta=beta)
        return fab

    def test_fail_channel_kills_inflight_flow(self):
        eng = Engine()
        fab = self._fab(eng, a=gbps(10))
        ev = fab.copy("a", 10 * MiB, tag="victim")
        eng.call_at(1e-4).add_callback(lambda _e: fab.fail_channel("a"))
        with pytest.raises(LinkFailure) as exc:
            eng.run(until=ev)
        assert exc.value.channel == "a"
        assert exc.value.tag == "victim"
        assert eng.now == pytest.approx(1e-4)
        assert fab.flows_failed == 1 and fab.channel_failures == 1

    def test_admit_while_down_fails(self):
        eng = Engine()
        fab = self._fab(eng, a=gbps(10))
        fab.fail_channel("a")
        with pytest.raises(LinkFailure):
            eng.run(until=fab.copy("a", 1 * MiB))
        assert fab.is_down("a")

    def test_restore_channel_readmits(self):
        eng = Engine()
        fab = self._fab(eng, a=gbps(10))
        fab.fail_channel("a")
        fab.restore_channel("a")
        eng.run(until=fab.copy("a", 10 * MiB))
        assert eng.now == pytest.approx(10 * MiB / gbps(10), rel=1e-9)

    def test_failure_only_kills_crossing_flows(self):
        eng = Engine()
        fab = self._fab(eng, a=gbps(10), b=gbps(10))
        victim = fab.copy("a", 10 * MiB)
        survivor = fab.copy("b", 10 * MiB)
        eng.call_at(1e-4).add_callback(lambda _e: fab.fail_channel("a"))
        eng.run(until=survivor)
        assert survivor.ok
        assert victim.triggered and not victim.ok

    def test_stall_freezes_then_resumes(self):
        eng = Engine()
        fab = self._fab(eng, a=gbps(10))
        ev = fab.copy("a", 10 * MiB)  # 1 ms unstalled
        eng.call_at(0.5e-3).add_callback(lambda _e: fab.stall_channel("a"))
        eng.call_at(2.5e-3).add_callback(lambda _e: fab.unstall_channel("a"))
        eng.run(until=ev)
        # progress until the stall + 2 ms frozen + the remainder
        t_free = 10 * MiB / gbps(10)
        assert eng.now == pytest.approx(2.5e-3 + (t_free - 0.5e-3), rel=1e-9)
        assert fab.channel_stalls == 1

    def test_stalled_flow_releases_shared_capacity(self):
        eng = Engine()
        fab = Fabric(eng)
        fab.add_channel("a", alpha=0.0, beta=gbps(10))
        fab.add_channel("b", alpha=0.0, beta=gbps(10))
        wide = fab.copy(["a", "b"], 10 * MiB)  # holds both channels
        solo = fab.copy("a", 10 * MiB)
        fab.stall_channel("b")  # freezes `wide` entirely
        eng.run(until=solo)
        # `solo` must get the whole of channel a while `wide` is frozen.
        assert eng.now == pytest.approx(10 * MiB / gbps(10), rel=1e-6)
        assert not wide.triggered

    def test_fail_flows_matching_by_tag(self):
        eng = Engine()
        fab = self._fab(eng, a=gbps(10))
        doomed = fab.copy("a", 10 * MiB, tag="x:1")
        kept = fab.copy("a", 10 * MiB, tag="y:1")
        n = fab.fail_flows_matching(
            lambda f: f.tag.startswith("x:"),
            lambda f: LinkFailure("a", tag=f.tag),
        )
        assert n == 1
        eng.run(until=kept)
        assert kept.ok and doomed.triggered and not doomed.ok

    def test_stats_snapshot_lists_fault_state(self):
        eng = Engine()
        fab = self._fab(eng, a=gbps(1), b=gbps(1))
        fab.fail_channel("a")
        fab.stall_channel("b")
        snap = fab.stats_snapshot()
        assert snap["channels_down"] == ["a"]
        assert snap["channels_stalled"] == ["b"]


# ----------------------------------------------------------------------
# Injectors and schedules
# ----------------------------------------------------------------------
class TestFaultSchedule:
    def test_flapping_windows_deterministic(self):
        kw = dict(first_down=0.1, mean_down=0.05, mean_up=0.1, until=2.0)
        a = FlappingLink("c", seed=7, **kw)
        b = FlappingLink("c", seed=7, **kw)
        other = FlappingLink("c", seed=8, **kw)
        assert a.windows() == b.windows()
        assert a.windows() != other.windows()
        assert all(w.end <= 2.0 for w in a.windows())

    def test_schedule_merges_and_sorts_windows(self):
        sched = FaultSchedule(
            LinkDown("b", at=0.5, duration=0.1),
            StallInjector("a", at=0.2, duration=0.1),
        )
        starts = [w.start for w in sched.windows()]
        assert starts == sorted(starts)
        assert "stall" in sched.describe() and "down" in sched.describe()

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkDown("c", at=-1.0)
        with pytest.raises(ValueError):
            LinkDown("c", at=0.0, duration=0.0)
        with pytest.raises(ValueError):
            StallInjector("c", at=0.0, duration=math.inf)
        with pytest.raises(ValueError):
            FlappingLink("c", first_down=1.0, mean_down=0.1, mean_up=0.1, until=0.5)

    def test_past_window_rejected_at_arm_time(self):
        eng = Engine()
        fab = Fabric(eng)
        fab.add_channel("c", alpha=0.0, beta=gbps(1))
        eng.run(until=eng.timeout(1.0))
        with pytest.raises(Exception, match="clock"):
            FaultSchedule(LinkDown("c", at=0.5, duration=1.0)).attach(fab)

    @pytest.mark.parametrize(
        "injector, is_faulted",
        [(LinkDown, Fabric.is_down), (StallInjector, Fabric.is_stalled)],
    )
    def test_overlapping_windows_last_until_the_last_closes(
        self, injector, is_faulted
    ):
        eng = Engine()
        fab = Fabric(eng)
        fab.add_channel("a", alpha=0.0, beta=gbps(1))
        sched = FaultSchedule(
            injector("a", at=0.0, duration=10.0),
            injector("a", at=5.0, duration=10.0),
        )
        sched.attach(fab)
        eng.run(until=12.0)
        assert [w.start for w in sched.active_at(12.0)] == [5.0]
        assert is_faulted(fab, "a")  # the second window is still open
        eng.run()
        assert eng.now == 15.0 and not is_faulted(fab, "a")

    def test_scripted_run_bit_identical_across_repeats(self):
        def run_once():
            eng, ctx = make_ctx(tracer=Tracer())
            sched = FaultSchedule(
                FlappingLink(
                    "nvl:0->1",
                    first_down=1e-4,
                    mean_down=5e-5,
                    mean_up=2e-4,
                    until=2e-3,
                    seed=3,
                )
            )
            sched.attach(ctx.runtime.fabric)
            result = eng.run(until=ctx.put(0, 1, 32 * MiB, tag="rep"))
            records = [
                (r.channel, r.tag, r.start, r.end, r.nbytes)
                for r in ctx.tracer.records
            ]
            return result, records, eng.now

        r1, rec1, t1 = run_once()
        r2, rec2, t2 = run_once()
        assert t1 == t2 and r1 == r2
        assert rec1 == rec2  # bit-identical, not just approximately equal


# ----------------------------------------------------------------------
# Transport recovery
# ----------------------------------------------------------------------
class TestPutRecovery:
    def test_midtransfer_linkdown_delivers_every_byte(self):
        # Fault-free baseline fixes the fault anchor deterministically.
        eng0, ctx0 = make_ctx()
        t0 = eng0.run(until=ctx0.put(0, 1, 64 * MiB)).duration

        eng, ctx = make_ctx(tracer=Tracer())
        FaultSchedule(LinkDown("nvl:0->1", at=0.5 * t0)).attach(
            ctx.runtime.fabric
        )
        result = eng.run(until=ctx.put(0, 1, 64 * MiB, tag="hit"))
        assert result.retries >= 1
        assert result.rerouted_bytes > 0
        assert delivered_bytes(ctx.tracer, "hit") == 64 * MiB
        assert ctx.cuda_ipc.puts_recovered == 1
        assert ctx.cuda_ipc.path_failovers >= 1
        assert ctx.health.state(0, 1, "direct") is not PathHealth.HEALTHY

    def test_all_paths_failed_raises_fast(self):
        # pcie_only GPU0->GPU1 has exactly one path (host staging), and
        # every byte leaving GPU0 crosses pcie:0:d2h.
        eng, ctx = make_ctx(topology=systems.pcie_only())
        FaultSchedule(LinkDown("pcie:0:d2h", at=1e-5)).attach(
            ctx.runtime.fabric
        )
        with pytest.raises(PathUnavailable) as exc:
            eng.run(until=ctx.put(0, 1, 64 * MiB, tag="doomed"))
        assert "host" in exc.value.failed
        assert ctx.cuda_ipc.puts_failed == 1
        # Fail-fast, not a hang: bounded by the backoff sum, far under T.
        assert eng.now < 64 * MiB / gbps(1)

    def test_recovery_disabled_fails_typed_and_pair_heals(self):
        """max_path_retries=0 runs zero recovery rounds of the same loop:
        the put fails with a typed error naming the failed path, the
        faulted path's streams are dropped instead of left poisoned, and
        the pair serves a put again once the link heals."""
        eng, ctx = make_ctx(config=TransportConfig(max_path_retries=0))
        FaultSchedule(LinkDown("nvl:0->1", at=1e-5, duration=1e-3)).attach(
            ctx.runtime.fabric
        )
        with pytest.raises(PathUnavailable) as exc:
            eng.run(until=ctx.put(0, 1, 64 * MiB))
        assert exc.value.failed == ("direct",)
        check_invariants(ctx)  # raises on leaked stream-pool entries
        eng.run(until=eng.timeout(max(0.0, 2e-3 - eng.now)))  # link is back
        result = eng.run(until=ctx.put(0, 1, 64 * MiB))
        assert result.nbytes == 64 * MiB and result.retries == 0
        check_invariants(ctx)

    def test_fault_heal_cycles_release_reset_streams(self):
        """Streams dropped by ``reset_path_streams`` are destroyed and
        leave their devices: after repeated fault/heal cycles on (0,1)
        the devices hold exactly the pooled streams."""
        eng, ctx = make_ctx()
        fabric = ctx.runtime.fabric
        t0 = eng.run(until=ctx.put(0, 1, 8 * MiB)).duration
        for _ in range(8):
            put = ctx.put(0, 1, 8 * MiB)
            eng.run(until=eng.now + 0.3 * t0)
            fabric.fail_channel("nvl:0->1")
            eng.run(until=put)
            fabric.restore_channel("nvl:0->1")
            eng.run(until=eng.now + 10 * t0)
        assert ctx.pipeline.streams_reset >= 2
        held = [s for d in ctx.runtime.devices for s in d.streams]
        assert len(held) == len(ctx.pipeline._stream_pool)
        assert set(map(id, held)) == set(map(id, ctx.pipeline._stream_pool.values()))
        check_invariants(ctx)

    def test_stall_recovered_by_deadline_watchdog(self):
        eng0, ctx0 = make_ctx()
        t0 = eng0.run(until=ctx0.put(0, 1, 64 * MiB)).duration

        cfg = TransportConfig(deadline_factor=2.0)
        eng, ctx = make_ctx(config=cfg, tracer=Tracer())
        FaultSchedule(
            StallInjector("nvl:0->1", at=0.4 * t0, duration=50 * t0)
        ).attach(ctx.runtime.fabric)
        result = eng.run(until=ctx.put(0, 1, 64 * MiB, tag="stuck"))
        assert result.retries >= 1
        assert ctx.pipeline.watchdog_timeouts >= 1
        assert delivered_bytes(ctx.tracer, "stuck") == 64 * MiB
        # The watchdog fired long before the stall window ended.
        assert eng.now < 0.4 * t0 + 50 * t0

    def test_watchdog_spares_other_puts_with_the_same_tag(self):
        """A deadline watchdog aborts only the flows its own path issued.
        Put B (2->3) never touches the stalled link; giving it put A's
        tag, so its copies carry labels like A's (``x/direct:``), must not
        get them killed when A's watchdog fires."""
        eng0, ctx0 = make_ctx()
        t0 = eng0.run(until=ctx0.put(0, 1, 64 * MiB)).duration

        def run(tag_b):
            eng, ctx = make_ctx(config=TransportConfig(deadline_factor=2.0))
            FaultSchedule(
                StallInjector("nvl:0->1", at=0.4 * t0, duration=50 * t0)
            ).attach(ctx.runtime.fabric)
            a = ctx.put(0, 1, 64 * MiB, tag="x")
            eng.run(until=t0)
            b = eng.run(until=ctx.put(2, 3, 64 * MiB, tag=tag_b))
            assert eng.run(until=a).retries >= 1
            assert ctx.pipeline.watchdog_timeouts >= 1
            return b

        shared, own = run("x"), run("y")
        assert own.retries == 0
        assert shared.retries == 0
        assert shared.duration == own.duration

    def test_no_fault_timeline_invariant_vs_legacy(self):
        """Without faults, the recovery machinery must not perturb the
        simulated timeline: 3 windows of 4 concurrent 32 MiB puts match the
        golden digest recorded from the former fail-fast executor, with
        recovery armed (the default) and with zero retry rounds."""

        def run(config):
            eng, ctx = make_ctx(config=config, tracer=Tracer())
            results = []

            def workload():
                for i in range(3):
                    results.extend((yield eng.all_of(
                        [ctx.put(0, 1, 32 * MiB, tag=f"w{i}p{j}") for j in range(4)]
                    )))

            eng.run(until=eng.process(workload()))
            return timeline_digest(eng, ctx.tracer, results, ctx.runtime.fabric)

        assert_golden("fault_free_window_3x4", run(TransportConfig()))
        assert_golden("fault_free_window_3x4", run(TransportConfig(max_path_retries=0)))

    def test_expired_deadline_takes_no_retry_or_token(self):
        """A fault that lands after the put's deadline fails the put with
        TransferTimeout before a retry is counted or a budget token is
        taken: no replan would ever use them."""
        cfg = TransportConfig(
            include_host=False, max_gpu_staged=0, retry_budget_total=4
        )
        eng0, ctx0 = make_ctx(config=cfg)
        t = eng0.run(until=ctx0.put(0, 1, 64 * MiB)).duration

        eng, ctx = make_ctx(config=cfg)
        # The stall freezes the only path past the deadline (2T); the
        # outage at 3T is what finally faults it.
        FaultSchedule(
            StallInjector("nvl:0->1", at=0.1 * t, duration=5 * t),
            LinkDown("nvl:0->1", at=3 * t, duration=t),
        ).attach(ctx.runtime.fabric)
        with pytest.raises(TransferTimeout):
            eng.run(until=ctx.put(0, 1, 64 * MiB, timeout=2 * t))
        assert ctx.transfers.retry_budget.consumed == 0
        recovery = ctx.cuda_ipc.stats_snapshot()["recovery"]
        assert recovery["retries"] == 0
        assert recovery["puts_failed"] == 1
        check_invariants(ctx)


# ----------------------------------------------------------------------
# The one path-selection ladder: first plans, replans, admission
# ----------------------------------------------------------------------
def quarantine(ctx, *path_ids, src=0, dst=1):
    for path_id in path_ids:
        for _ in range(2):  # suspect, then quarantined
            ctx.health.record_failure(src, dst, path_id, now=0.0)
    assert set(ctx.health.unhealthy_paths(src, dst)) == set(path_ids)


class TestPathLadder:
    def test_all_quarantined_plans_over_configured_set(self):
        eng0, ctx0 = make_ctx()
        healthy = eng0.run(until=ctx0.put(0, 1, 64 * MiB))

        eng, ctx = make_ctx()
        quarantine(ctx, *(p.path_id for p in enumerate_paths(ctx.topology, 0, 1)))
        result = eng.run(until=ctx.put(0, 1, 64 * MiB))
        # the configured set, planned as if healthy: same plan, same time
        assert result.retries == 0
        assert result.duration == healthy.duration

    def test_admission_prices_surviving_paths(self):
        n = 64 * MiB
        _, ctx = make_ctx()
        full = ctx.planner.predict_time(0, 1, n)
        no_direct = ctx.planner.predict_time(0, 1, n, exclude=("direct",))
        assert full < no_direct
        timeout = (full + no_direct) / 2

        eng, ctx = make_ctx()
        quarantine(ctx, "direct")
        with pytest.raises(DeadlineUnsatisfiable):
            eng.run(until=ctx.put(0, 1, n, timeout=timeout))
        assert ctx.transfers.rejected == 1

        # every path unhealthy: admission prices the configured set, as
        # dispatch will plan it
        eng, ctx = make_ctx()
        quarantine(ctx, *(p.path_id for p in enumerate_paths(ctx.topology, 0, 1)))
        result = eng.run(until=ctx.put(0, 1, n, timeout=timeout))
        assert result.nbytes == n and ctx.transfers.rejected == 0

    def test_replan_forgives_the_only_configured_path(self):
        """With `direct` the only configured path, recovery's ladder falls
        through failed + quarantined to the configured set: it retries
        `direct` once the brief outage is over."""
        cfg = TransportConfig(exclude_paths=("host",), max_gpu_staged=0)
        eng0, ctx0 = make_ctx(config=cfg)
        t = eng0.run(until=ctx0.put(0, 1, 64 * MiB)).duration

        eng, ctx = make_ctx(config=cfg, tracer=Tracer())
        # down for 5 us: over before the first 25 us backoff ends
        FaultSchedule(LinkDown("nvl:0->1", at=0.5 * t, duration=5e-6)).attach(
            ctx.runtime.fabric
        )
        result = eng.run(until=ctx.put(0, 1, 64 * MiB, tag="brief"))
        assert result.retries == 1
        assert result.rerouted_bytes > 0
        assert delivered_bytes(ctx.tracer, "brief") == 64 * MiB
        assert {r.channel for r in ctx.tracer.records} == {"nvl:0->1"}


# ----------------------------------------------------------------------
# What a recovered put leaves in the flight recorder and metrics
# ----------------------------------------------------------------------
class TestChaosObservability:
    @pytest.fixture(scope="class")
    def linkdown(self):
        from repro.bench.experiments.chaos import run_chaos

        result = run_chaos("beluga", scenario="linkdown", nbytes=16 * MiB,
                           keep_context=True)
        assert result.chaotic.retries >= 1
        return result

    def test_recovery_counted_once_by_the_collector(self, linkdown):
        snap = linkdown._context.obs.metrics.snapshot()
        recovery = snap["cuda_ipc"]["recovery"]
        assert recovery["retries"] == linkdown.chaotic.retries
        assert recovery["puts_recovered"] == 1
        assert recovery["path_failovers"] >= 1
        assert recovery["rerouted_bytes"] == linkdown.chaotic.rerouted_bytes
        # the fault-type split is a pull field too; nothing is pushed
        assert recovery["link_failures"] == recovery["path_failovers"]
        assert recovery["timeouts"] == 0
        assert recovery["deadline_timeouts"] == recovery["budget_fallbacks"] == 0
        assert "counters" not in snap

    def test_replan_is_a_logged_decision(self, linkdown):
        """The replan goes through the planner like the first plan: both
        are ``plan`` spans of the put's trace, the replan's under its
        ``recovery.retry[1]`` round beside the paths it rerouted over."""
        from repro.obs.tracing import TraceTree

        tree = TraceTree(linkdown._context.flight)
        (root,) = tree.roots()
        bd = tree.breakdown(root.trace_id)
        kids = bd.children[root.sid]
        (retry,) = [s for s in kids if s.kind == "recovery.retry[1]"]
        (first,) = [s for s in kids if s.kind.startswith("plan")]
        (replan,) = [
            s for s in bd.children[retry.sid] if s.kind.startswith("plan")
        ]
        assert first.kind == replan.kind == "plan"  # cold, never cached
        assert replan.attrs["mode"] == "replan"
        assert first.attrs["mode"] == "dynamic"

        def paths(parent):
            return [
                s for s in bd.children[parent.sid]
                if s.kind.startswith("pipeline.path")
            ]

        rescue = paths(retry)
        assert len(rescue) == replan.attrs["paths"]
        rerouted = linkdown.chaotic.rerouted_bytes
        assert retry.attrs["rerouted_bytes"] == rerouted
        assert sum(s.attrs["nbytes"] for s in rescue) == rerouted
        first_paths = {s.attrs["path"] for s in paths(root)}
        assert len(first_paths) == first.attrs["paths"]
        assert "direct" in first_paths
        assert "direct" not in {s.attrs["path"] for s in rescue}
        # the faulted path keeps its planned split on its span
        (dead,) = [s for s in paths(root) if s.attrs.get("ok") is False]
        assert dead.attrs["path"] == "direct"
        assert dead.attrs["chunks"] == 1 and 0 < dead.attrs["theta"] < 1

    def test_dumped_trace_has_one_fault_row_per_window(self, linkdown, tmp_path):
        import json

        from repro.bench.runner import dump_artifacts

        written = dump_artifacts(
            tmp_path / "chaos", linkdown._context, faults=linkdown.windows
        )
        trace_path = tmp_path / "chaos.trace.json"
        assert trace_path in written
        events = json.loads(trace_path.read_text())["traceEvents"]
        faults = [e for e in events if e["ph"] == "X" and e["cat"] == "fault"]
        assert len(faults) == len(linkdown.windows) >= 1
        for e, w in zip(faults, linkdown.windows):
            assert e["args"] == {"kind": w.kind, "channel": w.channel}
            assert e["ts"] == pytest.approx(w.start * 1e6)

    def test_critical_path_of_a_recovered_put(self, linkdown):
        from repro.obs import CriticalPathAnalyzer, TraceTree

        tree = TraceTree(linkdown._context.flight)
        (t,) = CriticalPathAnalyzer(tree).transfers()
        (root,) = tree.roots()
        bd = tree.breakdown(root.trace_id)
        round0 = [
            s for s in bd.children[root.sid] if s.kind.startswith("pipeline.path")
        ]
        faulted = {s.attrs["path"] for s in round0 if s.attrs.get("ok") is False}
        survivors = {s.attrs["path"] for s in round0} - faulted
        assert faulted and survivors
        # only round 0's surviving paths: no faulted span, no retry paths
        assert {p.path_id for p in t.paths} == survivors
        assert sum(p.nbytes for p in t.paths) < t.nbytes
        # the retry round runs after round 0 settles, inside post_overhead
        (retry,) = [s for s in bd.spans if s.kind.startswith("recovery.retry")]
        assert t.post_overhead >= retry.duration > 0
        assert t.end == pytest.approx(root.t1)


# ----------------------------------------------------------------------
# Recovery timelines pinned by golden digests
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scenario", ["linkdown", "flap", "stall"])
def test_recovery_golden_chaos(scenario):
    """Every retry, backoff and replan of a chaos scenario, bit for bit."""
    from repro.bench.experiments.chaos import run_chaos

    r = run_chaos("beluga", scenario=scenario, keep_context=True)
    assert r.chaotic.retries >= 1  # the fault actually bit
    ctx = r._context
    digest = timeline_digest(ctx.engine, ctx.tracer, (r.chaotic,), ctx.runtime.fabric)
    assert_golden(f"chaos_{scenario}", digest)


def test_recovery_golden_traced_scenario():
    """Queued puts, one recovering from a LinkDown, bit for bit."""
    from repro.bench.experiments.chaos import run_traced_scenario

    s = run_traced_scenario()
    assert any(r.retries > 0 for r in s.results)
    ctx = s.context
    digest = timeline_digest(ctx.engine, ctx.tracer, s.results, ctx.runtime.fabric)
    assert_golden("traced_scenario", digest)


# ----------------------------------------------------------------------
# Path health circuit breaker
# ----------------------------------------------------------------------
class TestPathHealth:
    def test_suspect_then_quarantine_then_probe_then_readmit(self):
        reg = PathHealthRegistry()
        assert reg.record_failure(0, 1, "direct", now=0.0) is PathHealth.SUSPECT
        assert (
            reg.record_failure(0, 1, "direct", now=0.1)
            is PathHealth.QUARANTINED
        )
        assert reg.excluded(0, 1, now=0.1) == ("direct",)
        # Past the (2 ms, jittered <= +25%) probe delay the caller becomes
        # the probe: the path is released exactly once.
        assert reg.excluded(0, 1, now=0.1 + 2.5e-3) == ()
        assert reg.state(0, 1, "direct") is PathHealth.PROBING
        assert reg.excluded(0, 1, now=0.1 + 2.5e-3) == ("direct",)  # no stampede
        assert reg.record_success(0, 1, "direct", now=0.2) is PathHealth.HEALTHY
        assert reg.readmissions == 1 and reg.probes == 1

    def test_failed_probe_backs_off_exponentially(self):
        reg = PathHealthRegistry()
        reg.record_failure(0, 1, "direct", now=0.0)
        reg.record_failure(0, 1, "direct", now=0.0)
        e = reg._entries[(0, 1, "direct")]
        first_delay = e.probe_at
        reg.excluded(0, 1, now=first_delay)  # become probe
        reg.record_failure(0, 1, "direct", now=first_delay)  # probe fails
        assert reg.state(0, 1, "direct") is PathHealth.QUARANTINED
        assert e.backoff == pytest.approx(4e-3)  # 2 ms doubled
        assert reg.quarantines == 1  # re-quarantine is not a new quarantine

    def test_success_resets_consecutive_failures(self):
        reg = PathHealthRegistry()
        reg.record_failure(0, 1, "direct", now=0.0)
        reg.record_success(0, 1, "direct", now=0.1)
        assert reg.state(0, 1, "direct") is PathHealth.HEALTHY
        reg.record_failure(0, 1, "direct", now=0.2)
        assert reg.state(0, 1, "direct") is PathHealth.SUSPECT  # not quarantined

    def test_pairs_are_independent(self):
        reg = PathHealthRegistry()
        reg.record_failure(0, 1, "direct", now=0.0)
        reg.record_failure(0, 1, "direct", now=0.1)
        assert reg.excluded(2, 3, now=0.2) == ()

    def test_quarantine_invalidates_cached_plans(self):
        eng, ctx = make_ctx()
        plan = ctx.planner.plan(0, 1, 64 * MiB)
        assert not plan.from_cache
        assert ctx.planner.plan(0, 1, 64 * MiB).from_cache
        ctx.health.record_failure(0, 1, "direct", now=0.0)
        ctx.health.record_failure(0, 1, "direct", now=0.1)
        # on_quarantine purged every cached plan routing over `direct`.
        assert not ctx.planner.plan(0, 1, 64 * MiB).from_cache

    def test_planner_excludes_quarantined_paths(self):
        eng, ctx = make_ctx()
        ctx.health.record_failure(0, 1, "direct", now=0.0)
        ctx.health.record_failure(0, 1, "direct", now=0.0)
        result = eng.run(until=ctx.put(0, 1, 64 * MiB))
        assert result.retries == 0  # planned around the quarantine upfront
        snap = ctx.cuda_ipc.stats_snapshot()
        assert snap["recovery"]["path_failovers"] == 0


# ----------------------------------------------------------------------
# Collectives under mid-run link loss
# ----------------------------------------------------------------------
class TestCollectiveDegradation:
    def _run(self, fn, *, schedule=None, size=4):
        eng = Engine()
        ctx = UCXContext(eng, systems.beluga())
        if schedule is not None:
            schedule.attach(ctx.runtime.fabric)
        comm = Communicator(ctx, size=size)
        results = {}

        def program(view):
            out = yield from fn(view)
            results[view.rank] = out

        eng.run(until=comm.run_ranks(program))
        return results, eng.now, ctx

    def test_allreduce_survives_mid_collective_linkdown(self):
        elems = 1 << 20  # 8 MiB vectors -> rndv multipath puts
        rng = np.random.default_rng(0)
        inputs = [rng.normal(size=elems) for _ in range(4)]
        expected = np.sum(inputs, axis=0)

        def fn(view):
            out = yield from collectives.allreduce_ring(view, inputs[view.rank])
            return out

        _, t_clean, _ = self._run(fn)
        sched = FaultSchedule(LinkDown("nvl:0->1", at=0.4 * t_clean))
        results, t_faulted, ctx = self._run(fn, schedule=sched)
        for r in range(4):
            # recovery can reorder chunk arrivals -> one-ulp fp differences
            np.testing.assert_allclose(
                results[r], expected, rtol=1e-9, atol=1e-12
            )
        assert ctx.cuda_ipc.puts_recovered >= 1
        assert t_faulted > t_clean  # recovery is not free

    def test_alltoall_survives_mid_collective_linkdown(self):
        elems = 1 << 20  # 8 MiB blocks -> rndv multipath puts
        rng = np.random.default_rng(1)
        # matrix[src][dst] = block sent from src to dst
        matrix = [
            [rng.normal(size=elems) for _ in range(4)] for _ in range(4)
        ]

        def fn(view):
            out = yield from collectives.alltoall(view, matrix[view.rank])
            return out

        _, t_clean, _ = self._run(fn)
        sched = FaultSchedule(LinkDown("nvl:0->1", at=0.4 * t_clean))
        results, _, ctx = self._run(fn, schedule=sched)
        for dst in range(4):
            for src in range(4):
                np.testing.assert_allclose(
                    results[dst][src], matrix[src][dst], rtol=1e-12
                )
        assert ctx.cuda_ipc.puts_recovered >= 1
