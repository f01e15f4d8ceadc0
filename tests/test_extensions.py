"""Tests for the collective model."""

import math

import pytest

from repro.bench.baselines import dynamic_config
from repro.bench.collectives import COLLECTIVES
from repro.bench.env import BenchEnvironment
from repro.bench.omb import osu_collective_latency
from repro.core.collective_model import CollectiveModel
from repro.core.planner import PathPlanner
from repro.topology import systems
from repro.units import MiB


@pytest.fixture(scope="module")
def beluga():
    return systems.beluga()


@pytest.fixture(scope="module")
def planner(beluga):
    return PathPlanner(beluga)


class TestCollectiveModel:
    def test_allreduce_structure(self, planner):
        model = CollectiveModel(planner)
        pred = model.allreduce(4, 32 * MiB)
        assert pred.steps == 2 * int(math.log2(4))
        assert pred.predicted_time > 0
        assert pred.compute_time > 0

    def test_alltoall_structure(self, planner):
        model = CollectiveModel(planner)
        pred = model.alltoall(4, 32 * MiB)
        assert pred.steps == 2
        assert pred.compute_time == 0.0

    def test_validation(self, planner):
        model = CollectiveModel(planner)
        with pytest.raises(ValueError):
            model.allreduce(3, 1024)
        with pytest.raises(ValueError):
            model.alltoall(4, 0)
        with pytest.raises(ValueError):
            model.speedup_over_single_path("bcast", 4, 1024)
        with pytest.raises(ValueError):
            CollectiveModel(planner, reduce_bandwidth=0)

    @pytest.mark.parametrize("collective", ["allreduce", "alltoall"])
    def test_prediction_within_band_of_simulator(self, beluga, planner, collective):
        """Predicted latency within ~35% of the simulated collective
        (the model ignores cross-step pipelining and barrier costs)."""
        n = 16 * MiB
        model = CollectiveModel(planner, include_host=False)
        pred = model._predict(collective, 4, n)
        env = BenchEnvironment(beluga, config=dynamic_config(include_host=False))
        measured = osu_collective_latency(
            env, COLLECTIVES[collective], n, iterations=2
        ).latency
        assert pred.total == pytest.approx(measured, rel=0.35)

    def test_predicted_speedup_band_matches_paper(self, planner):
        """Predicted multi-path collective speedups land in the paper's
        1.1-1.7x band and Alltoall >= Allreduce."""
        model = CollectiveModel(planner, include_host=False)
        s_a2a = model.speedup_over_single_path("alltoall", 4, 32 * MiB)
        s_ar = model.speedup_over_single_path("allreduce", 4, 32 * MiB)
        assert 1.05 < s_ar < 2.0
        assert 1.05 < s_a2a < 2.2
        assert s_a2a >= s_ar * 0.95

    def test_compute_dampens_allreduce_speedup(self, planner):
        """Slower reduction kernels shrink Allreduce's multi-path gain —
        the mechanism behind §5.3 Observation 3."""
        fast = CollectiveModel(planner, reduce_bandwidth=1e12, include_host=False)
        slow = CollectiveModel(planner, reduce_bandwidth=50e9, include_host=False)
        s_fast = fast.speedup_over_single_path("allreduce", 4, 32 * MiB)
        s_slow = slow.speedup_over_single_path("allreduce", 4, 32 * MiB)
        assert s_slow < s_fast
