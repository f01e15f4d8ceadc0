"""Tests for the closed loop: error tracking, drift detection, refit,
cache invalidation, and critical-path attribution (Theorem 1 observable).
"""

import numpy as np
import pytest

from repro.bench.baselines import dynamic_config
from repro.bench.env import BenchEnvironment
from repro.bench.experiments.drift_recovery import run_drift_recovery
from repro.bench.runner import get_setup
from repro.core.params import LinkEstimate, ParameterStore
from repro.core.planner import PathPlanner
from repro.obs import CriticalPathAnalyzer, Observability
from repro.obs.drift import (
    OnlineRecalibrator,
    PageHinkley,
    PredictionErrorTracker,
    size_bucket,
)
from repro.sim.noise import LinearDrift
from repro.sim.trace import Tracer
from repro.topology import systems
from repro.units import MiB
from repro.util.cache import LRUCache


class TestSizeBucket:
    def test_powers_of_two(self):
        assert size_bucket(1) == 0
        assert size_bucket(4 * MiB) == 22
        assert size_bucket(4 * MiB + 1) == 22
        assert size_bucket(8 * MiB - 1) == 22
        assert size_bucket(8 * MiB) == 23

    def test_degenerate(self):
        assert size_bucket(0) == 0


def _plan(nbytes=64 * MiB, predicted=None):
    setup = get_setup("beluga")
    planner = PathPlanner(setup.topology, setup.store)
    plan = planner.plan(0, 1, nbytes)
    if predicted is not None:
        plan = type(plan)(
            src=plan.src,
            dst=plan.dst,
            nbytes=plan.nbytes,
            assignments=plan.assignments,
            predicted_time=predicted,
        )
    return plan


class TestPredictionErrorTracker:
    def test_record_signed_error(self):
        t = PredictionErrorTracker()
        plan = _plan(predicted=1.0)
        rec = t.record(plan, 1.25, now=2.0)
        assert rec is not None
        assert rec.signed_error == pytest.approx(0.25)
        assert rec.abs_error == pytest.approx(0.25)
        assert rec.time == 2.0

    def test_invalid_samples_skipped(self):
        t = PredictionErrorTracker()
        assert t.record(_plan(predicted=1.0), 0.0) is None

    def test_mean_abs_error_filters(self):
        t = PredictionErrorTracker()
        small = _plan(nbytes=2 * MiB, predicted=1.0)
        big = _plan(nbytes=64 * MiB, predicted=1.0)
        t.record(small, 2.0)  # 100% error below the size cut
        t.record(big, 1.1)
        t.record(big, 1.1)
        assert t.mean_abs_error() == pytest.approx((1.0 + 0.1 + 0.1) / 3)
        assert t.mean_abs_error(min_bytes=4 * MiB) == pytest.approx(0.1)
        assert t.mean_abs_error(min_bytes=4 * MiB, last=1) == pytest.approx(0.1)

    def test_summary_keys_readable(self):
        t = PredictionErrorTracker()
        t.record(_plan(nbytes=64 * MiB, predicted=1.0), 1.2)
        summary = t.summary()
        assert summary["samples"] == 1
        (key,) = summary["keys"]
        assert key.startswith("0->1/2^26/")
        stats = summary["keys"][key]
        assert stats["ewma_signed"] == pytest.approx(0.2)
        assert stats["p90_abs"] == pytest.approx(0.2)


class TestPageHinkley:
    def test_stationary_stream_stays_quiet(self):
        ph = PageHinkley()
        rng = np.random.default_rng(0)
        assert not any(
            ph.update(float(x)) for x in rng.normal(0.0, 0.01, size=500)
        )

    def test_fires_on_mean_shift_and_resets(self):
        ph = PageHinkley()
        for _ in range(20):
            assert not ph.update(0.0)
        fired_at = None
        for i in range(20):
            if ph.update(0.3):
                fired_at = i
                break
        assert fired_at is not None and fired_at < 10
        assert ph.fired_count == 1
        assert ph.n == 0  # reset: ready for the next change

    def test_fires_on_downward_shift(self):
        ph = PageHinkley()
        for _ in range(20):
            ph.update(0.0)
        assert any(ph.update(-0.3) for _ in range(20))


class TestLinearDrift:
    def test_ramp_shape(self):
        d = LinearDrift(factor=2.0, start=2, ramp=4)
        values = [d(1) for _ in range(8)]
        assert values[0] == values[1] == 1.0
        assert values[2] == pytest.approx(1.25)
        assert values[5] == pytest.approx(2.0)
        assert values[7] == 2.0

    def test_step_change(self):
        d = LinearDrift(factor=1.5, start=1, ramp=0)
        assert d(1) == 1.0
        assert d(1) == 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            LinearDrift(factor=0.0)
        with pytest.raises(ValueError):
            LinearDrift(factor=2.0, start=-1)


class TestOnlineRecalibrator:
    def _store_and_tracer(self, beta_true=100e9, alpha=2e-6):
        store = ParameterStore(system="t")
        hop = ("link:a",)
        store.set_link(hop, LinkEstimate(alpha=alpha, beta=200e9))
        tracer = Tracer()
        for i in range(12):
            n = 64 * MiB
            tracer.record("link:a", f"t{i}", i, i + alpha + n / beta_true, n)
        return store, tracer, hop

    def test_beta_only_refit_from_fixed_size_stream(self):
        store, tracer, hop = self._store_and_tracer()
        recal = OnlineRecalibrator(store, tracer)
        (result,) = recal.refit_hops([hop])
        assert result.method == "beta-only"
        assert result.new.beta == pytest.approx(100e9, rel=0.01)
        assert result.new.alpha == result.old.alpha  # kept
        assert store.link(hop).beta == result.new.beta

    def test_no_material_change_is_a_noop(self):
        store, tracer, hop = self._store_and_tracer(beta_true=200e9)
        recal = OnlineRecalibrator(store, tracer)
        assert recal.refit_hops([hop]) == []
        assert store.link(hop).beta == 200e9

    def test_insufficient_samples(self):
        store = ParameterStore(system="t")
        hop = ("link:a",)
        store.set_link(hop, LinkEstimate(alpha=0.0, beta=1e9))
        recal = OnlineRecalibrator(store, Tracer())
        assert recal.refit_hop(hop) is None

    def test_hockney_refit_with_size_spread(self):
        store = ParameterStore(system="t")
        hop = ("link:a",)
        alpha, beta = 5e-6, 50e9
        store.set_link(hop, LinkEstimate(alpha=alpha, beta=100e9))
        tracer = Tracer()
        for i, n in enumerate([1 * MiB, 4 * MiB, 16 * MiB, 64 * MiB] * 2):
            tracer.record("link:a", f"t{i}", i, i + alpha + n / beta, n)
        recal = OnlineRecalibrator(store, tracer)
        (result,) = recal.refit_hops([hop])
        assert result.method == "hockney"
        assert result.new.beta == pytest.approx(beta, rel=0.01)
        assert result.new.alpha == pytest.approx(alpha, rel=0.05)

    def test_unknown_hop_skipped(self):
        recal = OnlineRecalibrator(ParameterStore(), Tracer())
        assert recal.refit_hop(("nope",)) is None


class TestCacheInvalidate:
    def test_predicate_removal_and_stats(self):
        cache = LRUCache(8)
        for i in range(6):
            cache.put(i, i * 10)
        removed = cache.invalidate(lambda k, v: k % 2 == 0)
        assert removed == 3
        assert len(cache) == 3
        assert 1 in cache and 0 not in cache
        assert cache.stats()["invalidations"] == 3
        cache.reset_stats()
        assert cache.stats()["invalidations"] == 0


class TestRefreshParams:
    def test_targeted_invalidation_picks_up_store_change(self):
        setup = get_setup("beluga")
        store = ParameterStore.from_json(setup.store.to_json())
        planner = PathPlanner(setup.topology, store)
        before = planner.plan(0, 1, 64 * MiB)
        other = planner.plan(2, 3, 64 * MiB)
        assert len(planner.cache) == 2

        hop = setup.topology.direct_hop(0, 1)
        old = store.link(hop)
        store.set_link(
            hop, LinkEstimate(alpha=old.alpha, beta=old.beta * 0.7)
        )
        # Stale until refreshed: the cache still serves the old plan.
        assert planner.plan(0, 1, 64 * MiB).predicted_time == pytest.approx(
            before.predicted_time
        )
        dropped = planner.refresh_params([hop])
        assert dropped == 1  # the (2,3) plan does not cross this hop
        assert len(planner.cache) == 1

        after = planner.plan(0, 1, 64 * MiB)
        assert not after.from_cache
        assert after.predicted_time > before.predicted_time
        # Untouched pair still served from cache.
        assert planner.plan(2, 3, 64 * MiB).from_cache
        assert other.predicted_time > 0

    def test_refresh_all(self):
        setup = get_setup("beluga")
        planner = PathPlanner(setup.topology, setup.store)
        planner.plan(0, 1, 64 * MiB)
        planner.plan(2, 3, 64 * MiB)
        assert planner.refresh_params() == 2
        assert len(planner.cache) == 0
        assert planner.refresh_params([]) == 0


class TestFeedbackWiring:
    def test_observe_without_autotune_tracks_but_never_refits(self):
        setup = get_setup("beluga")
        env = setup.env(dynamic_config(), observe=True)
        engine, ctx, _ = env.fresh()
        engine.run(until=ctx.put(0, 1, 64 * MiB))
        assert ctx.obs.drift is None
        assert len(ctx.obs.errors.records) == 1
        rec = ctx.obs.errors.records[0]
        assert rec.src == 0 and rec.dst == 1 and rec.observed > 0

    def test_autotune_wires_controller_sharing_tracker(self):
        setup = get_setup("beluga")
        env = setup.env(dynamic_config(), observe=True, autotune=True)
        engine, ctx, _ = env.fresh()
        assert ctx.obs.drift is not None
        assert ctx.obs.drift.tracker is ctx.obs.errors
        engine.run(until=ctx.put(0, 1, 64 * MiB))
        assert len(ctx.obs.errors.records) == 1
        snap = ctx.obs.metrics.snapshot()
        assert snap["drift"]["events"] == 0  # healthy run: no firings
        assert snap["model_error"]["samples"] == 1

    def test_eager_and_single_path_puts_do_not_feed_back(self):
        setup = get_setup("beluga")
        env = setup.env(dynamic_config(), observe=True)
        engine, ctx, _ = env.fresh()
        engine.run(until=ctx.put(0, 1, 1024))  # eager: below rndv threshold
        assert len(ctx.obs.errors.records) == 0

    def test_uninstrumented_put_allocates_no_telemetry(self):
        setup = get_setup("beluga")
        env = setup.env(dynamic_config())
        engine, ctx, _ = env.fresh()
        engine.run(until=ctx.put(0, 1, 64 * MiB))
        assert ctx.obs is None


class TestDriftRecoveryLoop:
    """Small end-to-end: the bench asserts the paper-bound contrast."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_drift_recovery(
            "beluga", total_puts=40, warmup_puts=10, ramp_puts=5
        )

    def test_closed_loop_beats_open_loop(self, result):
        assert result.closed.drift_events >= 1
        assert result.closed.plans_invalidated >= 1
        assert result.recovered
        assert result.closed.tail_error < result.open.tail_error

    def test_open_loop_never_recalibrates(self, result):
        assert result.open.drift_events == 0
        assert result.open.plans_invalidated == 0


class TestCriticalPathTheorem1:
    """Equal-time theorem, observed live: optimal slack ≈ 0."""

    @pytest.fixture(scope="class")
    def breakdown(self):
        # Noise-free simulator + ground-truth parameters: the planner's
        # model matches the fabric exactly, so every active path of the
        # optimal split must finish (nearly) together.
        topo = systems.by_name("beluga")
        env = BenchEnvironment(
            topology=topo, config=dynamic_config(), observe=True
        )
        engine, ctx, _ = env.fresh()
        engine.run(until=ctx.put(0, 1, 64 * MiB, tag="thm1"))
        analyzer = CriticalPathAnalyzer(ctx.flight)
        (t,) = analyzer.transfers()
        return analyzer, t

    def test_multipath_slack_near_zero(self, breakdown):
        _, t = breakdown
        assert len(t.paths) >= 2
        assert t.max_relative_slack < 0.05

    def test_breakdown_joins_put_and_paths(self, breakdown):
        analyzer, t = breakdown
        assert t.name == "thm1"
        assert t.src == 0 and t.dst == 1
        assert t.nbytes == 64 * MiB
        assert sum(p.nbytes for p in t.paths) == t.nbytes
        assert sum(p.theta for p in t.paths) == pytest.approx(1.0)
        assert t.bottleneck in {p.path_id for p in t.paths}
        assert t.pre_overhead > 0  # request + IPC + rndv handshake
        assert t.post_overhead >= 0
        # the last chunk is a child marker of the bottleneck path's span
        # (the path span itself when the bottleneck is a direct path)
        (root,) = analyzer.tree.roots()
        children = analyzer.tree.breakdown(root.trace_id).children
        (bn,) = [
            s for s in children[root.sid]
            if s.attrs.get("path") == t.bottleneck
        ]
        chunk_kinds = {c.kind for c in children.get(bn.sid, ())}
        assert t.bottleneck_chunk in (chunk_kinds or {bn.kind})
        assert t.bottleneck_chunk.startswith(bn.kind)

    def test_summary_aggregates(self, breakdown):
        analyzer, t = breakdown
        summary = analyzer.summary()
        assert summary["transfers"] == 1
        assert summary["bottleneck_counts"][t.bottleneck] == 1
        assert summary["max_relative_slack"] == pytest.approx(
            t.max_relative_slack
        )

    def test_report_renders(self, breakdown):
        from repro.obs.report import critical_path_report

        analyzer, _ = breakdown
        text = critical_path_report(analyzer)
        assert "thm1" in text and "rel_slack" in text


class TestObservabilityFeedbackApi:
    def test_feedback_without_drift_records(self):
        obs = Observability()
        plan = _plan(predicted=1.0)
        assert obs.feedback(plan, 1.3, now=5.0) is None
        assert len(obs.errors.records) == 1
