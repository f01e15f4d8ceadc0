"""Tests for Algorithm 1 (PathPlanner) and the numerical cross-check."""

import numpy as np
import pytest

from repro.core.numerical import grid_refine, solve_exact_fractions
from repro.core.params import ParameterStore, PathParams
from repro.core.planner import PathPlanner, plan_transfer
from repro.topology import systems
from repro.topology.routing import enumerate_paths
from repro.units import KiB, MiB


@pytest.fixture(scope="module")
def beluga():
    return systems.beluga()


@pytest.fixture(scope="module")
def narval():
    return systems.narval()


class TestPlannerBasics:
    def test_plan_covers_all_bytes(self, beluga):
        plan = plan_transfer(beluga, 0, 1, 64 * MiB)
        assert sum(a.nbytes for a in plan.assignments) == 64 * MiB
        assert plan.theta_vector().sum() == pytest.approx(1.0)

    def test_four_paths_on_beluga(self, beluga):
        plan = plan_transfer(beluga, 0, 1, 64 * MiB)
        assert [a.path.path_id for a in plan.assignments] == [
            "direct", "gpu:2", "gpu:3", "host",
        ]

    def test_alignment(self, beluga):
        planner = PathPlanner(beluga)
        plan = planner.plan(0, 1, 64 * MiB + 17)
        for a in plan.assignments:
            if a.path.path_id != "direct":
                assert a.nbytes % 256 == 0
        assert sum(a.nbytes for a in plan.assignments) == 64 * MiB + 17

    def test_direct_gets_leftover(self, beluga):
        planner = PathPlanner(beluga)
        n = 64 * MiB + 3
        plan = planner.plan(0, 1, n)
        assert sum(a.nbytes for a in plan.assignments) == n
        # only direct may carry a non-aligned share: it takes the remainder
        for a in plan.assignments:
            if a.path.path_id != "direct":
                assert a.nbytes % 256 == 0
        assert plan.assignment_for("direct").nbytes % 256 == 3

    def test_staged_paths_chunked(self, beluga):
        plan = plan_transfer(beluga, 0, 1, 256 * MiB)
        for a in plan.active_assignments:
            if a.path.is_staged:
                assert a.chunks >= 1
            else:
                assert a.chunks == 1

    def test_zero_bytes(self, beluga):
        plan = plan_transfer(beluga, 0, 1, 0)
        assert plan.nbytes == 0
        assert sum(a.nbytes for a in plan.assignments) == 0
        assert plan.predicted_time > 0  # latency only

    def test_small_message_collapses_to_direct(self, beluga):
        plan = plan_transfer(beluga, 0, 1, 4 * KiB)
        assert plan.assignment_for("direct").nbytes == 4 * KiB
        assert plan.num_active_paths == 1

    def test_large_message_multipath_speedup(self, beluga):
        """Model predicts close to the ~2.9x aggregate of 3 GPU paths."""
        planner = PathPlanner(beluga)
        n = 512 * MiB
        multi = planner.plan(0, 1, n, include_host=False)
        direct_only = planner.plan(0, 1, n, max_gpu_staged=0, include_host=False)
        speedup = direct_only.predicted_time / multi.predicted_time
        assert 2.0 < speedup < 3.0

    def test_predict_helpers(self, beluga):
        planner = PathPlanner(beluga)
        t = planner.predict_time(0, 1, 64 * MiB)
        bw = planner.predict_bandwidth(0, 1, 64 * MiB)
        assert bw == pytest.approx(64 * MiB / t)

    def test_negative_size_rejected(self, beluga):
        with pytest.raises(ValueError):
            plan_transfer(beluga, 0, 1, -1)

    def test_describe(self, beluga):
        text = plan_transfer(beluga, 0, 1, 64 * MiB).describe()
        assert "direct" in text and "GB/s" in text

    def test_assignment_for_missing(self, beluga):
        plan = plan_transfer(beluga, 0, 1, 64 * MiB, include_host=False)
        with pytest.raises(KeyError):
            plan.assignment_for("host")


class TestPlannerCache:
    def test_cache_hit(self, beluga):
        planner = PathPlanner(beluga)
        p1 = planner.plan(0, 1, 64 * MiB)
        p2 = planner.plan(0, 1, 64 * MiB)
        assert not p1.from_cache
        assert p2.from_cache
        assert p2.predicted_time == p1.predicted_time
        assert planner.cache.hits == 1

    def test_cache_key_includes_config(self, beluga):
        planner = PathPlanner(beluga)
        planner.plan(0, 1, 64 * MiB, include_host=True)
        p = planner.plan(0, 1, 64 * MiB, include_host=False)
        assert not p.from_cache

    def test_cache_disabled(self, beluga):
        planner = PathPlanner(beluga)
        planner.plan(0, 1, 64 * MiB, use_cache=False)
        p = planner.plan(0, 1, 64 * MiB, use_cache=False)
        assert not p.from_cache


class TestCandidates:
    def test_enumerated_once_per_argument_set(self, beluga):
        planner = PathPlanner(beluga)
        paths = planner.candidates(0, 1, exclude=["host", "gpu:2"])
        assert type(paths) is tuple
        assert paths == tuple(enumerate_paths(beluga, 0, 1, exclude={"gpu:2", "host"}))
        # exclusions key as a set: order and container do not matter
        assert planner.candidates(0, 1, exclude=("gpu:2", "host")) is paths
        assert planner.candidates(0, 1) is not paths
        assert planner.candidates(0, 1, include_host=False, max_gpu_staged=1) == tuple(
            enumerate_paths(beluga, 0, 1, include_host=False, max_gpu_staged=1)
        )

    def test_plans_share_the_memo(self, beluga):
        planner = PathPlanner(beluga)
        first = planner.plan(0, 1, 64 * MiB)
        second = planner.plan(0, 1, 32 * MiB)
        assert [a.path for a in first.assignments] == list(planner.candidates(0, 1))
        assert all(
            a.path is b.path for a, b in zip(first.assignments, second.assignments)
        )

    def test_enumeration_errors_propagate(self, beluga):
        planner = PathPlanner(beluga)
        for _ in range(2):  # errors are never memoised
            with pytest.raises(ValueError, match="differ"):
                planner.candidates(1, 1)
            with pytest.raises(ValueError, match="out of range"):
                planner.candidates(0, 9)
            with pytest.raises(ValueError, match="no paths"):
                planner.candidates(
                    0, 1, exclude=["direct", "gpu:2", "gpu:3", "host"]
                )


class TestSequentialInitiation:
    def test_later_paths_pay_initiation(self, beluga):
        planner = PathPlanner(beluga, sequential_initiation=True)
        plan = planner.plan(0, 1, 64 * MiB)
        inits = [a.params.initiation for a in plan.assignments]
        assert inits[0] == 0.0
        assert all(b >= a for a, b in zip(inits, inits[1:]))
        assert inits[-1] > 0

    def test_toggle_off(self, beluga):
        planner = PathPlanner(beluga, sequential_initiation=False)
        plan = planner.plan(0, 1, 64 * MiB)
        assert all(a.params.initiation == 0.0 for a in plan.assignments)

    def test_initiation_shifts_fractions(self, beluga):
        on = PathPlanner(beluga, sequential_initiation=True).plan(0, 1, 8 * MiB)
        off = PathPlanner(beluga, sequential_initiation=False).plan(0, 1, 8 * MiB)
        # later-scheduled paths get (weakly) less under the correction
        assert on.assignments[-1].theta <= off.assignments[-1].theta + 1e-12


class TestPipeliningToggle:
    def test_pipelining_improves_prediction(self, beluga):
        n = 256 * MiB
        pipe = PathPlanner(beluga, pipelining=True).plan(0, 1, n)
        nopipe = PathPlanner(beluga, pipelining=False).plan(0, 1, n)
        assert pipe.predicted_time < nopipe.predicted_time

    def test_nopipe_single_chunk(self, beluga):
        plan = PathPlanner(beluga, pipelining=False).plan(0, 1, 256 * MiB)
        assert all(a.chunks == 1 for a in plan.assignments)


class TestOtherTopologies:
    def test_pcie_only_all_host(self):
        topo = systems.pcie_only()
        plan = plan_transfer(topo, 0, 1, 64 * MiB)
        assert plan.assignment_for("host").nbytes == 64 * MiB

    def test_mi250_staged_only_pair(self):
        topo = systems.mi250_node()
        plan = plan_transfer(topo, 0, 2, 64 * MiB, include_host=False)
        ids = {a.path.path_id for a in plan.active_assignments}
        assert ids <= {"gpu:1", "gpu:3"}
        assert sum(a.nbytes for a in plan.assignments) == 64 * MiB

    def test_narval_host_share_small(self, narval):
        """Narval's DRAM-throttled host path should carry a tiny share."""
        plan = plan_transfer(narval, 0, 1, 64 * MiB)
        host_theta = plan.assignment_for("host").theta
        direct_theta = plan.assignment_for("direct").theta
        assert host_theta < 0.1
        assert direct_theta > 0.3


class TestNumericalCrossCheck:
    def test_slsqp_matches_grid(self, beluga):
        store = ParameterStore.ground_truth(beluga)
        paths = enumerate_paths(beluga, 0, 1, include_host=False, max_gpu_staged=1)
        params = [store.path_params(p) for p in paths]
        n = 128 * MiB
        exact = solve_exact_fractions(params, n)
        grid = grid_refine(params, n, resolution=200)
        assert exact.time <= grid.time * 1.01

    def test_linearized_close_to_exact_large_n(self, beluga):
        """The φ-linearised plan is within a few % of the exact optimum."""
        store = ParameterStore.ground_truth(beluga)
        planner = PathPlanner(beluga, store)
        paths = enumerate_paths(beluga, 0, 1, include_host=False)
        params = [store.path_params(p) for p in paths]
        n = 256 * MiB
        exact = solve_exact_fractions(params, n)
        plan = planner.plan(0, 1, n, include_host=False)
        # Evaluate the planner's θ with the exact nonlinear time model:
        from repro.core.numerical import exact_path_time

        t_plan = max(
            exact_path_time(p, a.theta, n)
            for p, a in zip(params, plan.assignments)
        )
        assert t_plan <= exact.time * 1.10

    def test_exact_solver_simplex(self, beluga):
        store = ParameterStore.ground_truth(beluga)
        paths = enumerate_paths(beluga, 0, 1)
        params = [store.path_params(p) for p in paths]
        sol = solve_exact_fractions(params, 64 * MiB)
        assert sol.theta.sum() == pytest.approx(1.0)
        assert np.all(sol.theta >= 0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            grid_refine([PathParams(path_id="a", alpha1=0, beta1=1)] * 4, 100)
