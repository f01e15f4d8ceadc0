"""Load-aware planning: β/(1+load) derate + plan-cache key soundness.

Satellite coverage for the extended cache key
``(pair, size, include_host, max_gpu_staged, excluded-paths, load-bucket)``:
a plan computed at idle must never be served for a loaded snapshot (and
vice versa), and ``invalidate_path`` must purge entries across *all* load
buckets, not just the idle one.
"""

import pytest

from repro.core.planner import PathPlanner
from repro.runtime import IDLE_SNAPSHOT, LoadSnapshot
from repro.topology import systems
from repro.units import MiB


@pytest.fixture(scope="module")
def beluga():
    return systems.beluga()


def loaded_snapshot(planner, src=0, dst=1, nbytes=64 * MiB, flows=2):
    """A snapshot putting `flows` flows on every channel of the pair's plan."""
    plan = planner.plan(src, dst, nbytes, use_cache=False)
    counts = {}
    for a in plan.active_assignments:
        for hop in a.path.hops:
            for channel in hop:
                counts[channel] = flows
    return LoadSnapshot(counts)


class TestDerate:
    def test_loaded_plan_predicts_slower(self, beluga):
        planner = PathPlanner(beluga)
        idle = planner.plan(0, 1, 64 * MiB)
        load = loaded_snapshot(planner)
        loaded = planner.plan(0, 1, 64 * MiB, load=load)
        # every hop's β halves (load bucket 2 → /3 actually: 1+2)
        assert loaded.predicted_time > idle.predicted_time * 1.5

    def test_derate_scales_with_load(self, beluga):
        planner = PathPlanner(beluga)
        t1 = planner.plan(0, 1, 64 * MiB, load=loaded_snapshot(planner, flows=1))
        t2 = planner.plan(0, 1, 64 * MiB, load=loaded_snapshot(planner, flows=2))
        assert t2.predicted_time > t1.predicted_time

    def test_partial_load_shifts_split(self, beluga):
        """Loading only the direct channel moves bytes to staged paths."""
        planner = PathPlanner(beluga)
        idle = planner.plan(0, 1, 256 * MiB)
        direct = next(
            a for a in idle.active_assignments if a.path.path_id == "direct"
        )
        counts = {ch: 4 for hop in direct.path.hops for ch in hop}
        loaded = planner.plan(0, 1, 256 * MiB, load=LoadSnapshot(counts))
        ld = loaded.assignment_for("direct")
        assert ld is not None
        assert ld.nbytes < direct.nbytes  # congested path carries less

    def test_idle_snapshot_equivalent_to_none(self, beluga):
        planner = PathPlanner(beluga)
        a = planner.plan(0, 1, 64 * MiB)
        b = planner.plan(0, 1, 64 * MiB, load=IDLE_SNAPSHOT)
        c = planner.plan(0, 1, 64 * MiB, load=LoadSnapshot({}))
        # idle snapshots normalize to the plain key: b and c are cache hits
        assert b.from_cache and c.from_cache
        assert a.predicted_time == b.predicted_time == c.predicted_time

    def test_load_on_unrelated_channels_is_noop_split(self, beluga):
        planner = PathPlanner(beluga)
        idle = planner.plan(0, 1, 64 * MiB, use_cache=False)
        other = planner.plan(
            0, 1, 64 * MiB, use_cache=False, load=LoadSnapshot({"nosuch": 8})
        )
        assert other.predicted_time == pytest.approx(idle.predicted_time)


class TestCacheKeyWithLoad:
    def test_no_stale_idle_plan_under_load(self, beluga):
        planner = PathPlanner(beluga)
        idle = planner.plan(0, 1, 64 * MiB)  # populates idle-key entry
        load = loaded_snapshot(planner)
        loaded = planner.plan(0, 1, 64 * MiB, load=load)
        assert not loaded.from_cache  # must NOT reuse the idle plan
        assert loaded.predicted_time > idle.predicted_time

    def test_no_stale_loaded_plan_at_idle(self, beluga):
        planner = PathPlanner(beluga)
        load = loaded_snapshot(planner)
        planner.plan(0, 1, 64 * MiB, load=load)
        idle = planner.plan(0, 1, 64 * MiB)
        assert not idle.from_cache

    def test_same_bucket_key_hits_cache(self, beluga):
        planner = PathPlanner(beluga)
        load = loaded_snapshot(planner, flows=2)
        first = planner.plan(0, 1, 64 * MiB, load=load)
        # A *different* snapshot object with identical bucketed counts
        again = planner.plan(
            0, 1, 64 * MiB, load=LoadSnapshot(dict(load._flows))
        )
        assert not first.from_cache
        assert again.from_cache
        assert again.predicted_time == first.predicted_time

    def test_bucketing_collapses_nearby_loads(self, beluga):
        """Flows 3 and 4 share bucket 4: one cache entry serves both."""
        planner = PathPlanner(beluga)
        three = loaded_snapshot(planner, flows=3)
        four = loaded_snapshot(planner, flows=4)
        assert three.bucket_key() == four.bucket_key()
        a = planner.plan(0, 1, 64 * MiB, load=three)
        b = planner.plan(0, 1, 64 * MiB, load=four)
        assert b.from_cache and not a.from_cache

    def test_invalidate_path_purges_all_load_buckets(self, beluga):
        planner = PathPlanner(beluga)
        for flows in (0, 1, 2, 4):
            load = None if flows == 0 else loaded_snapshot(planner, flows=flows)
            planner.plan(0, 1, 64 * MiB, load=load)
        assert len(planner.cache) == 4
        removed = planner.invalidate_path(0, 1, "direct")
        assert removed == 4  # one entry per load bucket, all gone
        # nothing left to hit: both idle and loaded replan from scratch
        assert not planner.plan(0, 1, 64 * MiB).from_cache
        assert not planner.plan(
            0, 1, 64 * MiB, load=loaded_snapshot(planner, flows=2)
        ).from_cache

    def test_load_key_does_not_leak_across_sizes(self, beluga):
        planner = PathPlanner(beluga)
        load = loaded_snapshot(planner)
        planner.plan(0, 1, 64 * MiB, load=load)
        other = planner.plan(0, 1, 32 * MiB, load=load)
        assert not other.from_cache


class TestContentionMetrics:
    """A plan priced against load records its bucket on its plan span."""

    @staticmethod
    def _plan_spans(beluga, rounds, contention_aware=True):
        from repro.sim.engine import Engine
        from repro.ucx import TransportConfig, UCXContext

        engine = Engine()
        ctx = UCXContext(
            engine, beluga,
            config=TransportConfig(contention_aware=contention_aware),
        )
        for _ in range(rounds):
            events = [ctx.put(1, 0, 64 * MiB), ctx.put(2, 0, 64 * MiB)]
            engine.run(until=engine.all_of(events))
        return [
            (s.kind, s.attrs.get("load_bucket"))
            for s in ctx.flight.iter_spans()
            if s.kind.startswith("plan")
        ]

    def test_loaded_plan_metrics(self, beluga):
        # the second put of a round plans against the first one's hold;
        # the repeated round replays both graphs, loaded key included
        assert self._plan_spans(beluga, rounds=2) == [
            ("plan", 0),
            ("plan", 2),
            ("plan.graph_hit", 0),
            ("plan.graph_hit", 2),
        ]

    def test_idle_plan_logs_zero_bucket(self, beluga):
        spans = self._plan_spans(beluga, rounds=1)
        assert spans[0] == ("plan", 0)
        # a contention-blind plan was never priced against load
        blind = self._plan_spans(beluga, rounds=1, contention_aware=False)
        assert blind == [("plan", None), ("plan", None)]


class TestPlanForPathsLoad:
    def test_plan_for_paths_accepts_load(self, beluga):
        from repro.topology.routing import enumerate_paths

        planner = PathPlanner(beluga)
        paths = enumerate_paths(beluga, 0, 1)
        idle = planner.plan_for_paths(0, 1, 64 * MiB, paths)
        counts = {
            ch: 4 for p in paths for hop in p.hops for ch in hop
        }
        loaded = planner.plan_for_paths(
            0, 1, 64 * MiB, paths, load=LoadSnapshot(counts)
        )
        assert loaded.predicted_time > idle.predicted_time


class TestContentionReportColumns:
    def test_loaded_plans_and_load_buckets_pinned(self):
        """The decision-derived CONTEND columns on beluga's patterns.

        Puts of one pattern are submitted together, so every put after the
        first plans against the holds of the ones before it; the blind
        planner never prices a load.
        """
        from repro.bench.experiments.contention import run_contention

        report = run_contention("beluga")
        got = {
            p.pattern: (
                p.aware.loaded_plans, p.aware.max_load_bucket,
                p.blind.loaded_plans, p.blind.max_load_bucket,
            )
            for p in report.points
        }
        assert got == {
            "two_to_one": (1, 1, 0, 0),
            "all_to_one": (2, 2, 0, 0),
            "ring": (3, 1, 0, 0),
        }
