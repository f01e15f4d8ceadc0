"""Parallel sweep runner + calibration cache: determinism and reuse.

A sweep fanned across worker processes must be byte-identical to the
serial run, and the calibration cache must return float-exact parameter
stores on both memo and disk hits.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.calibrate import (
    DEFAULT_PHI_WINDOW,
    DEFAULT_SWEEP,
    cache_stats,
    calibrate_cached,
    calibration_cache_key,
    clear_calibration_memo,
)
from repro.bench.experiments import run_fig5
from repro.bench.parallel import default_jobs, parallel_map
from repro.bench.runner import clear_caches, get_setup
from repro.topology import systems
from repro.units import MiB
from repro.util.rng import spawn_seed

QUICK = dict(
    systems=("beluga",),
    paths_labels=("2_GPUs", "3_GPUs"),
    windows=(1, 4),
    sizes=[4 * MiB, 16 * MiB],
    iterations=2,
    warmup=1,
    grid_steps=4,
    chunk_menu=(1, 8),
)


def _square(x: int) -> int:
    return x * x


def _pid_and_square(x: int) -> tuple[int, int]:
    return os.getpid(), x * x


class TestParallelMap:
    def test_serial_matches_inline_loop(self):
        xs = list(range(20))
        assert parallel_map(_square, xs) == [x * x for x in xs]
        assert parallel_map(_square, xs, jobs=1) == [x * x for x in xs]

    def test_parallel_preserves_task_order(self):
        xs = list(range(20))
        assert parallel_map(_square, xs, jobs=3) == [x * x for x in xs]

    def test_workers_are_separate_processes(self):
        import multiprocessing

        results = parallel_map(_pid_and_square, list(range(8)), jobs=2)
        assert [sq for _, sq in results] == [x * x for x in range(8)]
        try:
            multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - serial fallback platform
            return
        assert os.getpid() not in {pid for pid, _ in results}

    def test_empty_and_single_task(self):
        assert parallel_map(_square, [], jobs=4) == []
        assert parallel_map(_square, [7], jobs=4) == [49]

    def test_task_seed_stable_and_distinct(self):
        # A point's seed depends only on its identity, never on which
        # worker runs it or in what order.
        s1 = spawn_seed(0, "fig5", "beluga", 4 * MiB)
        assert s1 == spawn_seed(0, "fig5", "beluga", 4 * MiB)
        assert s1 != spawn_seed(0, "fig5", "beluga", 16 * MiB)
        assert s1 != spawn_seed(1, "fig5", "beluga", 4 * MiB)

    def test_default_jobs_positive(self):
        assert 1 <= default_jobs() <= 8


class TestSweepDeterminism:
    def test_fig5_serial_rerun_identical(self):
        clear_caches()
        first = run_fig5(**QUICK).render()
        clear_caches()
        second = run_fig5(**QUICK).render()
        assert first == second

    def test_fig5_parallel_identical_to_serial(self):
        clear_caches()
        serial = run_fig5(**QUICK).render()
        clear_caches()
        parallel = run_fig5(**QUICK, jobs=4).render()
        assert serial == parallel


class TestCalibrationCache:
    def test_memo_hit_is_float_exact(self):
        clear_caches()
        topo = systems.by_name("beluga")
        first = calibrate_cached(topo)
        assert cache_stats["misses"] == 1
        second = calibrate_cached(topo)
        assert cache_stats["memo_hits"] == 1
        assert second.to_json() == first.to_json()
        assert second is not first  # fresh copy: mutation-safe

    def test_disk_round_trip(self, tmp_path):
        clear_caches()
        topo = systems.by_name("beluga")
        first = calibrate_cached(topo, cache_dir=tmp_path)
        files = list(tmp_path.glob("cal_beluga_*.json"))
        assert len(files) == 1
        clear_calibration_memo()  # force the disk path
        second = calibrate_cached(topo, cache_dir=tmp_path)
        assert cache_stats["disk_hits"] == 1
        assert cache_stats["misses"] == 0
        assert second.to_json() == first.to_json()

    def test_corrupt_disk_entry_recalibrates(self, tmp_path):
        clear_caches()
        topo = systems.by_name("beluga")
        first = calibrate_cached(topo, cache_dir=tmp_path)
        path = next(tmp_path.glob("cal_beluga_*.json"))
        path.write_text("{not json")
        clear_calibration_memo()
        second = calibrate_cached(topo, cache_dir=tmp_path)
        assert cache_stats["misses"] == 1
        assert second.to_json() == first.to_json()

    def test_key_covers_all_inputs(self):
        payload, base = calibration_cache_key("beluga")
        assert base == calibration_cache_key("beluga")[1]
        assert base != calibration_cache_key("narval")[1]
        # both sweeps are in the key, so changing either invalidates
        assert payload["sizes"] == list(DEFAULT_SWEEP)
        assert payload["phi_window"] == list(DEFAULT_PHI_WINDOW)

    def test_mutating_a_cached_store_does_not_pollute(self):
        clear_caches()
        topo = systems.by_name("beluga")
        store = calibrate_cached(topo)
        baseline = store.to_json()
        store.default_phi = 0.999
        store.launch_overhead = 123.0
        assert calibrate_cached(topo).to_json() == baseline

    def test_get_setup_uses_shared_memo(self):
        clear_caches()
        setup = get_setup("beluga")
        clear_caches()
        again = get_setup("beluga")
        assert again.store.to_json() == setup.store.to_json()
        assert again is not setup


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
