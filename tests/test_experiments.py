"""Integration tests for the per-figure experiment drivers (reduced grids).

These run the same code paths as the full harness with shrunken sweeps, and
assert the paper's qualitative results (who wins, error bands, the five
observations).  ``TestPaperDigests`` also pins the reduced tables exactly,
against committed ``tests/golden`` digests.
"""

import pytest

from repro.bench.experiments import (
    check_observations,
    headline_speedups,
    prediction_error_table,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
)
from repro.bench.experiments.concurrent_pairs import run_concurrent_pairs
from repro.bench.experiments.error_analysis import overall_mean_error
from repro.bench.runner import clear_caches, get_setup
from repro.units import MiB
from tests.golden import assert_golden, table_digest

QUICK = dict(iterations=2, warmup=1, grid_steps=4, chunk_menu=(1, 8))
SIZES = [2 * MiB, 16 * MiB, 128 * MiB, 512 * MiB]


@pytest.fixture(scope="module")
def fig5_table():
    return run_fig5(("beluga", "narval"), sizes=SIZES, windows=(1, 16), **QUICK)


@pytest.fixture(scope="module")
def fig6_table():
    return run_fig6(("beluga", "narval"), sizes=SIZES, windows=(1, 16), **QUICK)


@pytest.fixture(scope="module")
def fig7_table():
    return run_fig7(("beluga", "narval"), sizes=[8 * MiB, 32 * MiB], **QUICK)


class TestFig4:
    def test_theta_rows_cover_grid(self):
        table = run_fig4("beluga", sizes=[4 * MiB, 64 * MiB])
        assert len(table) > 0
        # fractions per (paths, size) sum to 1
        for (_, _), group in table.groupby("paths", "size_mib").items():
            assert sum(r["theta"] for r in group) == pytest.approx(1.0)

    def test_direct_share_shrinks_with_size(self):
        table = run_fig4("beluga", sizes=[4 * MiB, 512 * MiB])
        panel = table.where(paths="3_GPUs", path_id="direct")
        by_size = {r["size_mib"]: r["theta"] for r in panel}
        assert by_size[512] < by_size[4]

    def test_host_gets_smallest_share(self):
        table = run_fig4("beluga", sizes=[512 * MiB])
        panel = table.where(paths="3_GPUs_w_host", size_mib=512)
        shares = {r["path_id"]: r["theta"] for r in panel}
        assert shares["host"] < shares["direct"]
        assert shares["host"] < shares["gpu:2"]


class TestFig5:
    def test_dynamic_beats_direct_large_sizes(self, fig5_table):
        for r in fig5_table:
            if r["size_mib"] >= 128:
                assert r["dynamic_gbps"] > 1.5 * r["direct_gbps"]

    def test_headline_speedup_band(self, fig5_table):
        """Paper: up to 2.9x for P2P."""
        speedups = headline_speedups(fig5_table)
        best = max(r["best_speedup"] for r in speedups)
        assert 2.5 < best < 3.3

    def test_three_paths_beat_two(self, fig5_table):
        for system in ("beluga", "narval"):
            two = fig5_table.where(system=system, paths="2_GPUs", window=16, size_mib=512)
            three = fig5_table.where(system=system, paths="3_GPUs", window=16, size_mib=512)
            assert three.rows[0]["dynamic_gbps"] > two.rows[0]["dynamic_gbps"]

    def test_prediction_error_small_for_large_messages(self, fig5_table):
        err = prediction_error_table(fig5_table, thresholds_mib=(8,))
        non_host = err.select(lambda r: r["paths"] != "3_GPUs_w_host")
        mean = sum(r["mean_error_pct"] for r in non_host) / len(non_host)
        assert mean < 8.0  # paper: <6% band

    def test_overall_mean_error_sane(self, fig5_table):
        err = prediction_error_table(fig5_table)
        assert 0 < overall_mean_error(err, threshold_mib=4) < 25


class TestFig6:
    def test_bibw_roughly_double_unidirectional(self, fig5_table, fig6_table):
        uni = fig5_table.where(system="beluga", paths="3_GPUs", window=16, size_mib=512)
        bi = fig6_table.where(system="beluga", paths="3_GPUs", window=16, size_mib=512)
        ratio = bi.rows[0]["dynamic_gbps"] / uni.rows[0]["dynamic_gbps"]
        assert 1.6 < ratio <= 2.05

    def test_host_degrades_bibw(self, fig6_table):
        """Obs 5: the host path hurts BIBW."""
        for system in ("beluga", "narval"):
            host = fig6_table.where(system=system, paths="3_GPUs_w_host", window=16, size_mib=512)
            nohost = fig6_table.where(system=system, paths="3_GPUs", window=16, size_mib=512)
            assert host.rows[0]["dynamic_gbps"] <= nohost.rows[0]["dynamic_gbps"] * 1.02


class TestObservations:
    def test_all_five_observations_hold(self, fig5_table, fig6_table):
        results = check_observations(fig5_table, fig6_table)
        failed = [r for r in results if not r.holds]
        assert not failed, "\n".join(str(r) for r in failed)


class TestFig7:
    def test_multipath_speedups_above_one(self, fig7_table):
        for r in fig7_table:
            if r["size_mib"] >= 32:
                assert r["dynamic_speedup"] > 1.0

    def test_collective_speedup_band(self, fig7_table):
        """Paper: up to ~1.4x for collectives — well below the P2P 2.9x."""
        best = max(r["dynamic_speedup"] for r in fig7_table)
        assert 1.1 < best < 2.2

    def test_alltoall_gains_at_least_allreduce(self, fig7_table):
        """Obs 3 (§5.3): Alltoall benefits more (no compute in the way)."""
        for system in ("beluga", "narval"):
            a2a = max(
                r["dynamic_speedup"]
                for r in fig7_table.where(system=system, collective="alltoall")
            )
            ar = max(
                r["dynamic_speedup"]
                for r in fig7_table.where(system=system, collective="allreduce")
            )
            assert a2a >= ar * 0.95


class TestPaperDigests:
    """The reduced tables above, bit for bit (``repr`` round-trips floats).

    A change that moves one of these names the table and the rows that
    moved; the bands above say whether the paper's claims still hold.
    """

    def test_paper_digest_fig4(self):
        table = run_fig4("beluga", sizes=[2 * MiB, 4 * MiB, 64 * MiB, 512 * MiB])
        assert len(table) == 36
        assert_golden("paper_fig4", table_digest(table.rows))

    def test_paper_digest_fig5(self, fig5_table):
        assert len(fig5_table) == 48
        assert_golden("paper_fig5", table_digest(fig5_table.rows))

    def test_paper_digest_fig6(self, fig6_table):
        assert len(fig6_table) == 48
        assert_golden("paper_fig6", table_digest(fig6_table.rows))

    def test_paper_digest_fig7(self, fig7_table):
        assert len(fig7_table) == 16
        assert_golden("paper_fig7", table_digest(fig7_table.rows))

    def test_paper_digest_errors(self, fig5_table):
        err = prediction_error_table(fig5_table)
        assert len(err) == 24
        assert_golden("paper_errors", table_digest(err.rows))

    def test_paper_digest_speedups(self, fig5_table, fig7_table):
        speedups = headline_speedups(fig5_table, fig7_table)
        assert_golden("paper_speedups", table_digest(speedups.rows))

    def test_paper_digest_observations(self, fig5_table, fig6_table):
        results = check_observations(fig5_table, fig6_table)
        assert_golden("paper_observations", table_digest(results))

    def test_paper_digest_conc(self):
        table = run_concurrent_pairs(("beluga",), sizes=[64 * MiB])
        assert len(table) == 4
        assert_golden("paper_conc", table_digest(table.rows))


class TestSetupCache:
    def test_get_setup_memoised(self):
        s1 = get_setup("beluga")
        s2 = get_setup("beluga")
        assert s1 is s2
        clear_caches()
        s3 = get_setup("beluga")
        assert s3 is not s1
