"""Tests for the OSU-style measurement loops and the baselines."""

import gc
import weakref

import numpy as np
import pytest

from repro.bench.baselines import (
    direct_config,
    dynamic_config,
    simplex_grid,
    static_config,
    static_search,
)
from repro.bench.collectives import COLLECTIVES
from repro.bench.env import BenchEnvironment, default_jitter_factory
from repro.bench.omb import osu_bibw, osu_bw, osu_collective_latency
from repro.topology import systems
from repro.units import MiB, gbps


@pytest.fixture(scope="module")
def beluga_env():
    topo = systems.beluga()
    return BenchEnvironment(topo, config=direct_config())


class TestOsuBw:
    def test_direct_bw_approaches_link_rate(self, beluga_env):
        r = osu_bw(beluga_env, 256 * MiB, window=1, iterations=2)
        assert 0.85 * gbps(46) < r.bandwidth < gbps(46)

    def test_small_message_bw_lower(self, beluga_env):
        small = osu_bw(beluga_env, 1 * MiB, iterations=2)
        large = osu_bw(beluga_env, 256 * MiB, iterations=2)
        assert small.bandwidth < large.bandwidth

    def test_window_amortizes_latency(self, beluga_env):
        w1 = osu_bw(beluga_env, 2 * MiB, window=1, iterations=3)
        w16 = osu_bw(beluga_env, 2 * MiB, window=16, iterations=3)
        assert w16.bandwidth > w1.bandwidth

    def test_multipath_beats_direct(self):
        topo = systems.beluga()
        multi = BenchEnvironment(topo, config=dynamic_config(include_host=False))
        single = BenchEnvironment(topo, config=direct_config())
        bm = osu_bw(multi, 256 * MiB, iterations=2)
        bs = osu_bw(single, 256 * MiB, iterations=2)
        assert bm.bandwidth / bs.bandwidth > 2.0

    def test_result_accounting(self, beluga_env):
        r = osu_bw(beluga_env, 4 * MiB, window=3, iterations=2)
        assert r.bytes_moved == 4 * MiB * 3 * 2
        assert r.latency == pytest.approx(r.elapsed / 6)

    def test_validation(self, beluga_env):
        with pytest.raises(ValueError):
            osu_bw(beluga_env, 0)
        with pytest.raises(ValueError):
            osu_bw(beluga_env, 1 * MiB, window=0)
        with pytest.raises(ValueError):
            osu_bibw(beluga_env, 1 * MiB, iterations=0)

    @pytest.mark.parametrize("loop", [osu_bw, osu_bibw], ids=["bw", "bibw"])
    def test_same_rank_pair_rejected(self, loop):
        # A rank paired with itself used to deadlock (bw) or report a
        # zero-time local copy as 0.0 GB/s (bibw).
        env = BenchEnvironment(systems.beluga(), config=direct_config())
        with pytest.raises(ValueError, match="two ranks"):
            loop(env, 1 * MiB, src=1, dst=1)
        assert env.last_context is None  # rejected before any context

    @pytest.mark.parametrize("loop", [osu_bw, osu_bibw], ids=["bw", "bibw"])
    @pytest.mark.parametrize("src,dst", [(-1, 1), (0, 7)])
    def test_out_of_range_rank_rejected(self, loop, src, dst):
        # bw with src=-1 used to deadlock: the receiver's irecv(-1) is
        # ANY_SOURCE and no rank sends; the other cases failed only after
        # a context and its rank processes existed.
        env = BenchEnvironment(systems.beluga(), config=direct_config())
        with pytest.raises(ValueError, match=r"ranks in \[0, 4\)"):
            loop(env, 1 * MiB, src=src, dst=dst)
        assert env.last_context is None

    def test_deterministic_repeats(self, beluga_env):
        r1 = osu_bw(beluga_env, 8 * MiB, iterations=2)
        r2 = osu_bw(beluga_env, 8 * MiB, iterations=2)
        assert r1.bandwidth == r2.bandwidth


class TestOsuBibw:
    def test_bibw_roughly_doubles_on_duplex_link(self, beluga_env):
        uni = osu_bw(beluga_env, 128 * MiB, iterations=2)
        bi = osu_bibw(beluga_env, 128 * MiB, iterations=2)
        # NVLink is full duplex: aggregate should approach 2x unidirectional.
        assert 1.7 < bi.bandwidth / uni.bandwidth <= 2.05

    def test_bibw_host_contention(self):
        """With host staging enabled, BIBW gains less than 2x (Obs 5)."""
        topo = systems.beluga()
        env = BenchEnvironment(
            topo,
            config=dynamic_config(include_host=True),
            jitter_factory=default_jitter_factory(0, 0.0),
        )
        uni = osu_bw(env, 256 * MiB, iterations=2)
        bi = osu_bibw(env, 256 * MiB, iterations=2)
        assert bi.bandwidth / uni.bandwidth < 2.0


class TestCollectiveLatency:
    @pytest.mark.parametrize("name", ["allreduce", "alltoall"])
    def test_latency_positive_and_scales(self, beluga_env, name):
        fn = COLLECTIVES[name]
        small = osu_collective_latency(beluga_env, fn, 1 * MiB, iterations=2)
        large = osu_collective_latency(beluga_env, fn, 16 * MiB, iterations=2)
        assert 0 < small.latency < large.latency

    def test_multipath_collective_speedup(self):
        topo = systems.beluga()
        fn = COLLECTIVES["alltoall"]
        single = BenchEnvironment(topo, config=direct_config())
        multi = BenchEnvironment(topo, config=dynamic_config(include_host=False))
        ls = osu_collective_latency(single, fn, 32 * MiB, iterations=2)
        lm = osu_collective_latency(multi, fn, 32 * MiB, iterations=2)
        assert lm.latency < ls.latency

    def test_validation(self, beluga_env):
        with pytest.raises(ValueError):
            osu_collective_latency(beluga_env, COLLECTIVES["allreduce"], 0)

    def test_previous_result_freed_before_next_call(self, beluga_env):
        """A rank holds one collective result at a time: the loop drops
        each call's result before the next call starts."""
        last: dict[int, weakref.ref] = {}
        survivors = []

        def collective(view, data):
            gc.collect()
            previous = last.get(view.rank)
            survivors.append(previous is not None and previous() is not None)
            yield from view.barrier()
            result = np.empty_like(data)
            last[view.rank] = weakref.ref(result)
            return result

        osu_collective_latency(beluga_env, collective, 1 * MiB, iterations=2)
        assert len(survivors) == 3 * 4  # warm-up plus 2 calls, 4 ranks
        assert not any(survivors)


class TestSimplexGrid:
    def test_counts(self):
        grid = list(simplex_grid(3, 4))
        # C(4+2, 2) = 15 compositions
        assert len(grid) == 15
        for combo in grid:
            assert sum(combo) == pytest.approx(1.0)

    def test_single_path(self):
        assert list(simplex_grid(1, 8)) == [(1.0,)]

    def test_contains_pure_and_uniform(self):
        grid = set(list(simplex_grid(2, 4)))
        assert (1.0, 0.0) in grid
        assert (0.5, 0.5) in grid


class TestStaticSearch:
    def test_beats_direct_for_large_messages(self):
        topo = systems.beluga()
        env = BenchEnvironment(topo, config=dynamic_config(include_host=False))
        res = static_search(
            env, 128 * MiB, include_host=False, grid_steps=4, chunk_menu=(1, 8)
        )
        # Pure direct candidate time:
        direct_time = 128 * MiB / gbps(46)
        assert res.simulated_time < direct_time
        assert len(res.shares) >= 2
        assert sum(s.fraction for s in res.shares) == pytest.approx(1.0)

    def test_small_message_prefers_direct(self):
        topo = systems.beluga()
        env = BenchEnvironment(topo, config=dynamic_config())
        res = static_search(
            env, 256 * 1024, include_host=True, grid_steps=4, chunk_menu=(1,)
        )
        assert res.shares[0].path_id == "direct"
        assert res.shares[0].fraction >= 0.75

    def test_candidate_count(self):
        topo = systems.beluga()
        env = BenchEnvironment(topo, config=dynamic_config(include_host=False))
        res = static_search(
            env, 8 * MiB, include_host=False, max_gpu_staged=1,
            grid_steps=4, chunk_menu=(1, 4),
        )
        # 2 paths, 4 steps -> 5 fraction vectors x 2 chunk options
        assert res.candidates_evaluated == 10

    def test_static_config_runs(self):
        topo = systems.beluga()
        env = BenchEnvironment(topo, config=dynamic_config(include_host=False))
        res = static_search(
            env, 64 * MiB, include_host=False, grid_steps=4, chunk_menu=(1, 8)
        )
        cfg = static_config(res.shares, include_host=False)
        r = osu_bw(env.with_config(cfg), 64 * MiB, iterations=2)
        assert r.bandwidth > gbps(46)  # beats the single link

    def test_validation(self):
        topo = systems.beluga()
        env = BenchEnvironment(topo)
        with pytest.raises(ValueError):
            static_search(env, 0)
