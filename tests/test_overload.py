"""Overload resilience: deadlines, shedding, retry budgets, degradation.

Covers the token-bucket/retry-budget units, the hysteresis governor, the
deadline admission + expiry machinery, the three shed policies, the
retry-storm budget cap, planner degradation, the invariant sanitizer,
config validation (satellite: env parse errors name the variable), and
the overload experiment end to end.
"""

import math

import pytest

from repro.bench.experiments.overload import run_overload
from repro.gpu.errors import DeadlineUnsatisfiable, TransferShed
from repro.runtime import (
    InvariantViolation,
    OverloadGovernor,
    OverloadState,
    RetryBudget,
    TokenBucket,
    check_invariants,
)
from repro.sim import Engine, FaultSchedule, LinkDown, Tracer
from repro.topology import systems
from repro.ucx import TransportConfig, UCXContext
from repro.units import KiB, MiB


def make_ctx(topology=None, config=None, tracer=None, obs=None):
    eng = Engine()
    ctx = UCXContext(
        eng, topology or systems.beluga(), config=config, tracer=tracer, obs=obs
    )
    return eng, ctx


# ----------------------------------------------------------------------
# Token buckets and retry budgets
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_drains_and_denies(self):
        b = TokenBucket(capacity=2.0)
        assert b.try_take(0.0) and b.try_take(0.0)
        assert not b.try_take(0.0)

    def test_refills_with_elapsed_time(self):
        b = TokenBucket(capacity=2.0, refill_rate=1.0)  # 1 token / second
        assert b.try_take(0.0) and b.try_take(0.0)
        assert not b.try_take(0.5)  # only half a token back
        assert b.try_take(1.5)  # >= 1 token refilled by now
        assert b.peek(100.0) == pytest.approx(2.0)  # capped at capacity

    def test_no_refill_when_rate_zero(self):
        b = TokenBucket(capacity=1.0)
        assert b.try_take(0.0)
        assert not b.try_take(1e9)


class TestRetryBudget:
    def test_disabled_budget_always_grants(self):
        budget = RetryBudget()
        assert not budget.enabled
        for _ in range(100):
            assert budget.try_consume((0, 1), 0.0)

    def test_global_cap_shared_across_pairs(self):
        budget = RetryBudget(total=2)
        assert budget.try_consume((0, 1), 0.0)
        assert budget.try_consume((2, 3), 0.0)
        assert not budget.try_consume((4, 5), 0.0)
        assert budget.consumed == 2 and budget.denied == 1

    def test_pair_cap_isolated_per_pair(self):
        budget = RetryBudget(per_pair=1)
        assert budget.try_consume((0, 1), 0.0)
        assert not budget.try_consume((0, 1), 0.0)
        assert budget.try_consume((2, 3), 0.0)  # other pair unaffected

    def test_dry_pair_does_not_drain_global(self):
        budget = RetryBudget(total=2, per_pair=1)
        assert budget.try_consume((0, 1), 0.0)
        assert not budget.try_consume((0, 1), 0.0)  # pair dry
        # the denied attempt must not have consumed the global token
        assert budget.try_consume((2, 3), 0.0)

    def test_collective_backoff_scale(self):
        budget = RetryBudget(total=10)
        assert budget.begin_backoff() == 1
        assert budget.begin_backoff() == 2
        budget.end_backoff()
        assert budget.begin_backoff() == 2
        budget.end_backoff()
        budget.end_backoff()
        budget.end_backoff()
        budget.end_backoff()  # extra ends never go negative
        assert budget.begin_backoff() == 1


# ----------------------------------------------------------------------
# Hysteresis governor
# ----------------------------------------------------------------------
class TestOverloadGovernor:
    def test_inert_without_thresholds(self):
        g = OverloadGovernor()
        assert not g.enabled
        assert g.update(10_000) is OverloadState.NORMAL
        assert g.degrade_level == 0 and g.transitions == 0

    def test_escalates_through_ladder(self):
        g = OverloadGovernor(pressured_depth=4, shedding_depth=8)
        assert g.update(0) is OverloadState.NORMAL
        assert g.update(4) is OverloadState.PRESSURED
        assert g.degrade_level == 1
        assert g.update(8) is OverloadState.SHEDDING
        assert g.degrade_level == 2

    def test_burst_climbs_two_rungs_at_once(self):
        g = OverloadGovernor(pressured_depth=4, shedding_depth=8)
        assert g.update(9) is OverloadState.SHEDDING
        assert g.transitions == 1  # one recorded transition to the top

    def test_deescalates_one_rung_per_update(self):
        g = OverloadGovernor(pressured_depth=4, shedding_depth=8)
        g.update(9)
        # depth collapses to zero, but the drop takes two updates
        assert g.update(0) is OverloadState.PRESSURED
        assert g.update(0) is OverloadState.NORMAL

    def test_hysteresis_band_holds_state(self):
        g = OverloadGovernor(pressured_depth=4, shedding_depth=8)
        g.update(9)
        # above exit_fraction * shedding_depth: stays shedding
        assert g.update(5) is OverloadState.SHEDDING
        assert g.update(4) is OverloadState.PRESSURED
        # above exit_fraction * pressured_depth: stays pressured
        assert g.update(3) is OverloadState.PRESSURED
        assert g.update(2) is OverloadState.NORMAL

    def test_wait_signal_escalates(self):
        g = OverloadGovernor(wait_pressured=1.0, ewma_alpha=1.0)
        g.observe_wait(2.0)
        assert g.update(0) is OverloadState.PRESSURED
        g.observe_wait(0.0)  # alpha=1: EWMA snaps to the sample
        assert g.update(0) is OverloadState.NORMAL

    def test_observe_wait_folds_even_when_disabled(self):
        g = OverloadGovernor(ewma_alpha=1.0)
        g.observe_wait(3.0)
        assert g.ewma_wait == pytest.approx(3.0)


# ----------------------------------------------------------------------
# Deadline admission, expiry, cancellation
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_unsatisfiable_deadline_fast_fails_typed(self):
        eng, ctx = make_ctx()
        ev = ctx.put(0, 1, 64 * MiB, timeout=1e-12)
        assert ev.triggered and not ev.ok
        exc = ev._exception
        assert isinstance(exc, DeadlineUnsatisfiable)
        assert (exc.src, exc.dst) == (0, 1)
        assert exc.predicted is not None and exc.predicted > exc.deadline
        assert eng.now == 0.0  # rejected synchronously, no simulated time
        assert ctx.transfers.rejected == 1

    def test_satisfiable_deadline_completes_normally(self):
        eng, ctx = make_ctx()
        predicted = ctx.planner.predict_time(0, 1, 8 * MiB)
        result = eng.run(until=ctx.put(0, 1, 8 * MiB, timeout=10 * predicted))
        assert result.nbytes == 8 * MiB
        assert ctx.transfers.rejected == 0

    def test_absolute_deadline_accepted(self):
        eng, ctx = make_ctx()
        predicted = ctx.planner.predict_time(0, 1, 4 * MiB)
        result = eng.run(until=ctx.put(0, 1, 4 * MiB, deadline=10 * predicted))
        assert result.nbytes == 4 * MiB

    def test_deadline_and_timeout_mutually_exclusive(self):
        _, ctx = make_ctx()
        with pytest.raises(ValueError, match="not both"):
            ctx.put(0, 1, 4 * MiB, deadline=1.0, timeout=1.0)

    def test_queued_expiry_via_flush_sweep(self):
        cfg = TransportConfig(max_inflight_per_pair=1)
        eng, ctx = make_ctx(config=cfg)
        big = ctx.put(0, 1, 64 * MiB, tag="head")
        short = 3 * ctx.planner.predict_time(0, 1, 1 * MiB)
        doomed = ctx.put(0, 1, 1 * MiB, tag="doomed", timeout=short)
        eng.run()
        assert big.ok
        assert not doomed.ok
        assert isinstance(doomed._exception, DeadlineUnsatisfiable)
        assert "expired in queue" in str(doomed._exception)
        assert ctx.transfers.expired == 1

    def test_deadline_metrics_and_outcomes(self):
        from repro.obs import Observability

        obs = Observability()
        eng, ctx = make_ctx(config=TransportConfig(), obs=obs, tracer=Tracer())
        ctx.put(0, 1, 64 * MiB, timeout=1e-12)
        snap = obs.metrics.snapshot()
        assert snap["transfer_manager"]["rejected"] == 1
        assert snap["transfer_manager"]["bytes"]["rejected"] == 64 * MiB
        assert "counters" not in snap
        spans = [s for s in ctx.flight.iter_spans() if s.kind == "transfer"]
        assert any(s.attrs.get("outcome") == "rejected" for s in spans)


# ----------------------------------------------------------------------
# Backpressure and shed policies
# ----------------------------------------------------------------------
def _saturated_ctx(policy: str, limit: int = 2, **extra):
    cfg = TransportConfig(
        max_inflight_per_pair=1,
        admission_queue_limit=limit,
        shed_policy=policy,
        **extra,
    )
    eng, ctx = make_ctx(config=cfg)
    head = ctx.put(0, 1, 8 * MiB, tag="head")  # dispatches
    return eng, ctx, head


class TestBackpressure:
    def test_reject_newest_sheds_incoming(self):
        eng, ctx, head = _saturated_ctx("reject-newest")
        q = [ctx.put(0, 1, 4 * MiB, tag=f"q{i}") for i in range(2)]
        over = ctx.put(0, 1, 4 * MiB, tag="over")
        assert over.triggered and not over.ok
        exc = over._exception
        assert isinstance(exc, TransferShed)
        assert exc.policy == "reject-newest"
        assert ctx.transfers.queue_depth == 2  # queue untouched
        eng.run()
        assert all(e.ok for e in q)
        assert ctx.transfers.shed == 1

    def test_reject_cheapest_sheds_smallest_queued(self):
        eng, ctx, head = _saturated_ctx("reject-cheapest")
        big_q = ctx.put(0, 1, 4 * MiB, tag="bq")
        small_q = ctx.put(0, 1, 64 * KiB, tag="sq")
        incoming = ctx.put(0, 1, 8 * MiB, tag="in")  # dearer than small_q
        assert small_q.triggered and not small_q.ok  # victim: cheapest
        assert isinstance(small_q._exception, TransferShed)
        assert not incoming.triggered  # admitted to the queue
        eng.run()
        assert big_q.ok and incoming.ok

    def test_reject_cheapest_sheds_incoming_when_cheapest(self):
        eng, ctx, head = _saturated_ctx("reject-cheapest")
        q = [ctx.put(0, 1, 4 * MiB, tag=f"q{i}") for i in range(2)]
        tiny = ctx.put(0, 1, 16 * KiB, tag="tiny")
        assert tiny.triggered and not tiny.ok
        eng.run()
        assert all(e.ok for e in q)

    def test_tenant_fair_sheds_from_heaviest_pair(self):
        cfg = TransportConfig(
            max_inflight_total=1,
            admission_queue_limit=2,
            shed_policy="tenant-fair",
        )
        eng, ctx = make_ctx(config=cfg)
        ctx.put(0, 1, 8 * MiB, tag="head")
        hog = [ctx.put(0, 1, 4 * MiB, tag=f"h{i}") for i in range(2)]
        other = ctx.put(2, 3, 4 * MiB, tag="other")
        # the (0, 1) tenant holds the whole queue: one of its entries pays
        shed = [e for e in hog if e.triggered and not e.ok]
        assert len(shed) == 1
        assert isinstance(shed[0]._exception, TransferShed)
        assert not other.triggered  # the light tenant got the slot
        eng.run()
        assert other.ok

    def test_queue_depth_never_exceeds_limit(self):
        eng, ctx, head = _saturated_ctx("reject-newest", limit=3)
        for i in range(10):
            ctx.put(0, 1, 4 * MiB, tag=f"x{i}")
        assert ctx.transfers.peak_queue_depth <= 3
        eng.run()
        assert ctx.transfers.stats_snapshot()["queue_depth"] == 0

    def test_shed_bytes_ledger_balances(self):
        eng, ctx, head = _saturated_ctx("reject-newest", limit=1)
        ctx.put(0, 1, 4 * MiB, tag="q0")
        ctx.put(0, 1, 2 * MiB, tag="over")  # shed
        eng.run()
        b = ctx.transfers.stats_snapshot()["bytes"]
        assert b["submitted"] == b["delivered"] + b["shed"]
        assert b["shed"] == 2 * MiB

    def test_governor_escalates_under_queue_pressure(self):
        cfg = TransportConfig(
            max_inflight_per_pair=1,
            overload_pressured_depth=2,
            overload_shedding_depth=4,
        )
        eng, ctx = make_ctx(config=cfg)
        evs = [ctx.put(0, 1, 4 * MiB, tag=f"p{i}") for i in range(6)]
        snap = ctx.transfers.stats_snapshot()["overload"]
        assert snap["state"] == "shedding"
        assert ctx.transfers.degrade_level == 2
        eng.run(until=eng.all_of(evs))
        snap = ctx.transfers.stats_snapshot()["overload"]
        assert snap["state"] == "normal"  # drained back down the ladder
        assert snap["transitions"] >= 2

    def test_degrade_under_pressure_opt_out(self):
        cfg = TransportConfig(
            max_inflight_per_pair=1,
            overload_pressured_depth=1,
            overload_shedding_depth=2,
            degrade_under_pressure=False,
        )
        eng, ctx = make_ctx(config=cfg)
        evs = [ctx.put(0, 1, 4 * MiB, tag=f"p{i}") for i in range(4)]
        assert ctx.transfers.governor.state is not OverloadState.NORMAL
        assert ctx.transfers.degrade_level == 0  # state tracked, not acted on
        eng.run(until=eng.all_of(evs))


# ----------------------------------------------------------------------
# Planner degradation ladder
# ----------------------------------------------------------------------
class TestDegradation:
    def test_degrade_1_limits_paths_and_chunks(self):
        _, ctx = make_ctx()
        full = ctx.planner.plan(0, 1, 64 * MiB)
        d1 = ctx.planner.plan(0, 1, 64 * MiB, degrade=1)
        assert len(d1.active_assignments) <= 2
        assert len(d1.active_assignments) <= len(full.active_assignments)

    def test_degrade_2_single_path_single_chunk(self):
        _, ctx = make_ctx()
        d2 = ctx.planner.plan(0, 1, 64 * MiB, degrade=2)
        assert len(d2.active_assignments) == 1
        assert d2.active_assignments[0].chunks == 1

    def test_degrade_prefers_direct_path(self):
        _, ctx = make_ctx()
        d2 = ctx.planner.plan(0, 1, 64 * MiB, degrade=2)
        assert d2.active_assignments[0].path.path_id == "direct"

    def test_degrade_levels_cached_separately(self):
        _, ctx = make_ctx()
        a = ctx.planner.plan(0, 1, 64 * MiB, degrade=1)
        b = ctx.planner.plan(0, 1, 64 * MiB, degrade=2)
        c = ctx.planner.plan(0, 1, 64 * MiB, degrade=1)
        assert c.from_cache  # hit at the same level
        assert a.assignments == c.assignments
        assert a.assignments != b.assignments

    def test_degrade_clamped(self):
        _, ctx = make_ctx()
        hi = ctx.planner.plan(0, 1, 4 * MiB, degrade=99)
        d2 = ctx.planner.plan(0, 1, 4 * MiB, degrade=2)
        assert d2.from_cache  # 99 clamped to the same cache key as 2
        assert hi.assignments == d2.assignments


# ----------------------------------------------------------------------
# Retry budgets under a real fault (the retry-storm scenario)
# ----------------------------------------------------------------------
class TestRetryStorm:
    def test_storm_consumes_at_most_budget_and_survivors_complete(self):
        # Baseline anchors the fault mid-transfer.
        eng0, ctx0 = make_ctx()
        t0 = eng0.run(until=ctx0.put(0, 1, 32 * MiB)).duration

        cfg = TransportConfig(retry_budget_total=3, retry_budget_per_pair=3)
        eng, ctx = make_ctx(config=cfg)
        FaultSchedule(LinkDown("nvl:0->1", at=0.5 * t0)).attach(
            ctx.runtime.fabric
        )
        evs = [ctx.put(0, 1, 32 * MiB, tag=f"storm{i}") for i in range(4)]
        eng.run(until=eng.all_of(evs))
        # every transfer completed (failover / host staging), but the
        # aggregate retry spend respected the budget
        assert all(e.ok for e in evs)
        snap = ctx.transfers.retry_budget.snapshot()
        assert snap["consumed"] <= 3
        assert snap["consumed"] + snap["denied"] >= ctx.cuda_ipc.retries_total
        assert snap["inflight_backoffs"] == 0  # no leaked backoff slots
        assert check_invariants(ctx).ok

    def test_budget_off_by_default(self):
        _, ctx = make_ctx()
        assert not ctx.transfers.retry_budget.enabled

    def test_armed_budget_and_governor_reported_before_any_put(self):
        cfg = TransportConfig(retry_budget_total=8, overload_pressured_depth=2)
        _, ctx = make_ctx(config=cfg)
        snap = ctx.transfers.stats_snapshot()
        budget, overload = snap["retry_budget"], snap["overload"]
        assert budget["enabled"] and budget["total_capacity"] == 8
        assert overload["enabled"] and overload["pressured_depth"] == 2

    def test_single_retry_timeline_identical_with_huge_budget(self):
        """Armed-but-idle: a lone retrying transfer must see scale 1 and a
        bit-identical recovery timeline."""
        eng0, ctx0 = make_ctx()
        t0 = eng0.run(until=ctx0.put(0, 1, 32 * MiB)).duration

        def run_once(config):
            eng, ctx = make_ctx(config=config, tracer=Tracer())
            FaultSchedule(LinkDown("nvl:0->1", at=0.5 * t0)).attach(
                ctx.runtime.fabric
            )
            result = eng.run(until=ctx.put(0, 1, 32 * MiB, tag="solo"))
            return result, eng.now, ctx.tracer.records

        r1, t1, rec1 = run_once(TransportConfig())
        r2, t2, rec2 = run_once(
            TransportConfig(retry_budget_total=10**6, retry_budget_per_pair=10**6)
        )
        assert r1 == r2 and t1 == t2 and rec1 == rec2


# ----------------------------------------------------------------------
# Invariant sanitizer
# ----------------------------------------------------------------------
class TestSanitizer:
    def test_clean_run_passes(self):
        eng, ctx = make_ctx()
        eng.run(until=ctx.put(0, 1, 8 * MiB))
        report = check_invariants(ctx)
        assert report.ok and not report.violations
        assert "hold" in report.describe()

    @pytest.mark.no_sanitizer  # leaks a load hold on purpose
    def test_detects_leaked_load_hold(self):
        eng, ctx = make_ctx()
        eng.run(until=ctx.put(0, 1, 8 * MiB))
        plan = ctx.planner.plan(0, 1, 4 * MiB)
        ctx.transfers.load.acquire(plan)  # never released
        report = check_invariants(ctx, raise_on_violation=False)
        assert not report.ok
        assert any("load" in v for v in report.violations)
        with pytest.raises(InvariantViolation):
            check_invariants(ctx)

    def test_byte_conservation_across_mixed_outcomes(self):
        cfg = TransportConfig(
            max_inflight_per_pair=1, admission_queue_limit=1
        )
        eng, ctx = make_ctx(config=cfg)
        ctx.put(0, 1, 8 * MiB, tag="ok")
        q = ctx.put(0, 1, 4 * MiB, tag="q")
        ctx.put(0, 1, 2 * MiB, tag="shed")  # over the limit
        ctx.put(0, 1, 1 * MiB, timeout=1e-12)  # rejected
        ctx.transfers.cancel(q)
        eng.run()
        report = check_invariants(ctx)
        assert report.ok
        b = ctx.transfers.stats_snapshot()["bytes"]
        assert b["submitted"] == 15 * MiB
        assert b["delivered"] == 8 * MiB
        assert (b["cancelled"], b["shed"], b["rejected"]) == (
            4 * MiB,
            2 * MiB,
            1 * MiB,
        )


# ----------------------------------------------------------------------
# Config validation + env parsing (satellite 1)
# ----------------------------------------------------------------------
class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"admission_queue_limit": 0},
            {"shed_policy": "bogus"},
            {"overload_pressured_depth": 0},
            {"overload_pressured_depth": 4, "overload_shedding_depth": 2},
            {"overload_wait_pressured": 0.0},
            {"max_inflight_per_pair": 0},
            {"coalesce_threshold": -1},
            {"retry_budget_total": -1},
            {"retry_budget_refill": -0.5},
        ],
    )
    def test_invalid_knobs_rejected(self, kw):
        with pytest.raises(ValueError):
            TransportConfig(**kw)

    def test_overload_env_vars_parse(self):
        cfg = TransportConfig.from_env(
            {
                "UCX_MP_QUEUE_LIMIT": "16",
                "UCX_MP_SHED_POLICY": "tenant-fair",
                "UCX_MP_PRESSURED_DEPTH": "4",
                "UCX_MP_SHEDDING_DEPTH": "8",
                "UCX_MP_RETRY_BUDGET": "32",
                "UCX_MP_RETRY_BUDGET_PAIR": "8",
                "UCX_MP_RETRY_BUDGET_REFILL": "2.5",
            }
        )
        assert cfg.admission_queue_limit == 16
        assert cfg.shed_policy == "tenant-fair"
        assert cfg.overload_pressured_depth == 4
        assert cfg.overload_shedding_depth == 8
        assert cfg.retry_budget_total == 32
        assert cfg.retry_budget_per_pair == 8
        assert cfg.retry_budget_refill == 2.5

    @pytest.mark.parametrize(
        "var,value",
        [
            ("UCX_MP_QUEUE_LIMIT", "lots"),
            ("UCX_MP_RETRY_BUDGET", "3.5.7"),
            ("UCX_MP_RETRY_BUDGET_REFILL", "fast"),
            ("UCX_MP_MAX_CHUNKS", "zz"),
            ("UCX_MP_DEADLINE_FACTOR", "soon"),
        ],
    )
    def test_parse_error_names_offending_variable(self, var, value):
        with pytest.raises(ValueError, match=var):
            TransportConfig.from_env({var: value})


# ----------------------------------------------------------------------
# The overload experiment end to end
# ----------------------------------------------------------------------
class TestOverloadExperiment:
    def test_scenario_bounded_and_conserved(self):
        r = run_overload(n=16, nbytes=4 * MiB)
        assert r.queue_bounded
        assert r.p99_within_bound
        assert r.conserved
        # exact accounting: every offered transfer has exactly one outcome
        assert (
            r.completed + r.failed + r.shed + r.expired + r.rejected + r.cancelled
            == r.n_offered
        )
        assert 0.0 < r.shed_fraction < 1.0
        assert r.submits_during_fault > 0
        assert math.isfinite(r.admitted_p99)

    def test_scenario_deterministic(self):
        a = run_overload(n=12, nbytes=4 * MiB)
        b = run_overload(n=12, nbytes=4 * MiB)
        assert a.to_dict() == b.to_dict()

    def test_no_fault_ablation_sheds_less_or_equal(self):
        faulty = run_overload(n=16, nbytes=4 * MiB)
        calm = run_overload(n=16, nbytes=4 * MiB, fault=False)
        assert calm.conserved and calm.queue_bounded
        assert calm.goodput_fraction >= faulty.goodput_fraction

    def test_policy_variants_run_clean(self):
        for policy in ("reject-cheapest", "tenant-fair"):
            r = run_overload(n=12, nbytes=4 * MiB, shed_policy=policy)
            assert r.shed_policy == policy
            assert r.conserved and r.queue_bounded
