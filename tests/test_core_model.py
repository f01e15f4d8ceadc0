"""Tests for the Hockney model, multi-path composition, and optimizer.

These tests check the paper's algebra directly:
* Eq. (8) == Eq. (11) specialised to direct paths;
* equal-time property of the closed-form solution (Theorem 1);
* drop rule for small messages.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hockney import HockneyModel, MultiPathModel, path_time, validate_fractions
from repro.core.optimizer import optimal_fractions, solve_equal_time
from repro.core.params import PathParams
from repro.core.theorem import (
    equal_time_gap,
    exchange_argument_step,
    is_equal_time_optimal,
    linear_times,
    suboptimality_of,
)
from repro.units import MiB, gbps, us


def direct(pid, alpha, beta):
    return PathParams(path_id=pid, alpha1=alpha, beta1=beta)


def staged(pid, a1, b1, eps, a2, b2):
    return PathParams(
        path_id=pid, alpha1=a1, beta1=b1, epsilon=eps, alpha2=a2, beta2=b2
    )


BELUGA_LIKE = [
    direct("direct", 2.5 * us, gbps(46)),
    staged("gpu:2", 2.5 * us, gbps(46), 4 * us, 2.5 * us, gbps(46)),
    staged("gpu:3", 2.5 * us, gbps(46), 4 * us, 2.5 * us, gbps(46)),
    staged("host", 4 * us, gbps(11.5), 7 * us, 4 * us, gbps(11.5)),
]


class TestHockney:
    def test_time_and_bandwidth(self):
        m = HockneyModel(alpha=10 * us, beta=gbps(10))
        assert m.time(0) == 10 * us
        assert m.time(10 * MiB) == pytest.approx(10 * us + 10 * MiB / gbps(10))
        # bandwidth approaches beta for large n
        assert m.bandwidth(1 << 32) == pytest.approx(gbps(10), rel=0.01)

    def test_n_half(self):
        m = HockneyModel(alpha=10 * us, beta=gbps(10))
        n_half = m.n_half()
        assert m.bandwidth(n_half) == pytest.approx(gbps(10) / 2, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            HockneyModel(-1, 1)
        with pytest.raises(ValueError):
            HockneyModel(1, 0)
        with pytest.raises(ValueError):
            HockneyModel(1, 1).time(-5)


class TestPathTime:
    def test_direct_matches_hockney(self):
        p = direct("d", 2 * us, gbps(10))
        assert path_time(p, 1.0, 8 * MiB) == pytest.approx(
            HockneyModel(2 * us, gbps(10)).time(8 * MiB)
        )

    def test_staged_adds_both_links(self):
        p = staged("s", 1 * us, gbps(10), 3 * us, 2 * us, gbps(20))
        n = 8 * MiB
        expected = 1 * us + n / gbps(10) + 3 * us + 2 * us + n / gbps(20)
        assert path_time(p, 1.0, n) == pytest.approx(expected)

    def test_zero_fraction_costs_nothing(self):
        assert path_time(BELUGA_LIKE[1], 0.0, 8 * MiB) == 0.0

    def test_fraction_scales_bandwidth_term_only(self):
        p = direct("d", 2 * us, gbps(10))
        n = 8 * MiB
        t_half = path_time(p, 0.5, n)
        assert t_half == pytest.approx(2 * us + 0.5 * n / gbps(10))

    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            path_time(BELUGA_LIKE[0], 1.5, 100)


class TestValidateFractions:
    def test_valid(self):
        arr = validate_fractions([0.5, 0.25, 0.25])
        assert arr.sum() == pytest.approx(1.0)

    def test_sum_violation(self):
        with pytest.raises(ValueError, match="sum"):
            validate_fractions([0.5, 0.2])

    def test_range_violation(self):
        with pytest.raises(ValueError):
            validate_fractions([1.5, -0.5])


class TestMultiPathModel:
    def test_total_is_max(self):
        m = MultiPathModel(BELUGA_LIKE[:2])
        n = 64 * MiB
        times = m.path_times([0.7, 0.3], n)
        assert m.total_time([0.7, 0.3], n) == pytest.approx(times.max())

    def test_single_path_baseline(self):
        m = MultiPathModel(BELUGA_LIKE)
        n = 64 * MiB
        assert m.single_path_time(0, n) == pytest.approx(
            path_time(BELUGA_LIKE[0], 1.0, n)
        )

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            MultiPathModel([BELUGA_LIKE[0], BELUGA_LIKE[0]])

    def test_mismatched_theta_length(self):
        m = MultiPathModel(BELUGA_LIKE[:2])
        with pytest.raises(ValueError):
            m.total_time([1.0], 100)


class TestSolveEqualTime:
    def test_two_identical_paths_split_evenly(self):
        om = np.array([1 / gbps(10), 1 / gbps(10)])
        de = np.array([2 * us, 2 * us])
        theta, t = solve_equal_time(om, de, 64 * MiB)
        assert theta == pytest.approx([0.5, 0.5])
        assert t == pytest.approx(2 * us + 32 * MiB / gbps(10))

    def test_bandwidth_proportional_for_zero_latency(self):
        om = np.array([1 / gbps(30), 1 / gbps(10)])
        de = np.zeros(2)
        theta, _ = solve_equal_time(om, de, 64 * MiB)
        assert theta == pytest.approx([0.75, 0.25])

    def test_equal_times_achieved(self):
        om = np.array([1 / gbps(46), 2 / gbps(46), 2 / gbps(11.5)])
        de = np.array([2.5 * us, 9 * us, 15 * us])
        n = 256 * MiB
        theta, t_star = solve_equal_time(om, de, n)
        times = theta * n * om + de
        assert np.allclose(times, t_star, rtol=1e-12)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            solve_equal_time(np.array([1.0]), np.array([0.0]), 0)


class TestOptimalFractions:
    def test_simplex_and_equal_time_large_message(self):
        sol = optimal_fractions(BELUGA_LIKE, 256 * MiB)
        assert sol.theta.sum() == pytest.approx(1.0)
        assert np.all(sol.theta >= 0)
        assert all(sol.active)
        assert is_equal_time_optimal(BELUGA_LIKE, sol.theta, 256 * MiB)

    def test_higher_bandwidth_gets_larger_share(self):
        # Direct (46 GB/s single link) vs host (11.5 both links):
        sol = optimal_fractions(BELUGA_LIKE, 256 * MiB)
        assert sol.theta[0] > sol.theta[3]

    def test_small_message_drops_slow_paths(self):
        sol = optimal_fractions(BELUGA_LIKE, 64 * 1024)  # 64 KiB
        # the host path's Delta (15us) dwarfs a 64KiB transfer => dropped
        assert sol.theta[3] == 0.0
        assert not sol.active[3]
        assert sol.theta.sum() == pytest.approx(1.0)

    def test_tiny_message_all_direct(self):
        sol = optimal_fractions(BELUGA_LIKE, 256)
        assert sol.theta[0] == pytest.approx(1.0)
        assert sol.num_active == 1

    def test_direct_protected_from_dropping(self):
        # Make direct terrible: tiny message where its alpha dominates.
        paths = [
            direct("direct", 100 * us, gbps(1)),
            direct("fast", 1 * us, gbps(50)),
        ]
        sol = optimal_fractions(paths, 1024, keep=0)
        assert sol.theta[0] > 0  # kept despite being bad

    def test_keep_none_allows_dropping_any(self):
        paths = [
            direct("slow", 100 * us, gbps(1)),
            direct("fast", 1 * us, gbps(50)),
        ]
        sol = optimal_fractions(paths, 1024, keep=None)
        assert sol.theta[0] == 0.0
        assert sol.theta[1] == pytest.approx(1.0)

    def test_explicit_omega_delta(self):
        sol = optimal_fractions(
            BELUGA_LIKE[:2],
            64 * MiB,
            omegas=[1 / gbps(46), 1 / gbps(46)],
            deltas=[0.0, 0.0],
        )
        assert sol.theta == pytest.approx([0.5, 0.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_fractions([], 100)
        with pytest.raises(ValueError):
            optimal_fractions(BELUGA_LIKE, 0)
        with pytest.raises(ValueError):
            optimal_fractions(BELUGA_LIKE, 100, omegas=[1.0])
        with pytest.raises(ValueError):
            optimal_fractions(BELUGA_LIKE, 100, keep=10)
        n = len(BELUGA_LIKE)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                optimal_fractions(BELUGA_LIKE, 100, omegas=[bad] * n)
            with pytest.raises(ValueError, match="finite"):
                optimal_fractions(BELUGA_LIKE, 100, deltas=[bad] * n)

    def test_describe(self):
        sol = optimal_fractions(BELUGA_LIKE, 64 * MiB)
        text = sol.describe([p.path_id for p in BELUGA_LIKE])
        assert "direct" in text and "θ=" in text


class TestTheorem:
    def test_equal_time_gap_zero_at_optimum(self):
        sol = optimal_fractions(BELUGA_LIKE, 128 * MiB)
        gap = equal_time_gap(
            sol.theta, [p.Omega for p in BELUGA_LIKE],
            [p.Delta for p in BELUGA_LIKE], 128 * MiB,
        )
        assert gap < 1e-9

    def test_unequal_distribution_has_gap(self):
        gap = equal_time_gap(
            [0.97, 0.01, 0.01, 0.01],
            [p.Omega for p in BELUGA_LIKE],
            [p.Delta for p in BELUGA_LIKE],
            128 * MiB,
        )
        assert gap > 0.1

    def test_exchange_argument_improves(self):
        om = [p.Omega for p in BELUGA_LIKE]
        de = [p.Delta for p in BELUGA_LIKE]
        n = 128 * MiB
        theta = np.array([0.9, 0.05, 0.03, 0.02])
        new_theta, old_max, new_max = exchange_argument_step(theta, om, de, n)
        assert new_max < old_max
        assert new_theta.sum() == pytest.approx(1.0)

    def test_exchange_noop_at_optimum(self):
        sol = optimal_fractions(BELUGA_LIKE, 128 * MiB)
        om = [p.Omega for p in BELUGA_LIKE]
        de = [p.Delta for p in BELUGA_LIKE]
        _, old_max, new_max = exchange_argument_step(
            sol.theta, om, de, 128 * MiB
        )
        assert new_max == pytest.approx(old_max, rel=1e-9)

    @given(
        betas=st.lists(
            st.floats(min_value=1.0, max_value=100.0), min_size=2, max_size=5
        ),
        alphas=st.lists(
            st.floats(min_value=0.0, max_value=50.0), min_size=2, max_size=5
        ),
        n_mib=st.integers(min_value=8, max_value=512),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_random_point_beats_closed_form(self, betas, alphas, n_mib, seed):
        """Theorem 1 as a property: T(random θ) >= T(θ*)."""
        p = min(len(betas), len(alphas))
        paths = [
            direct(f"p{i}", alphas[i] * us, gbps(betas[i])) for i in range(p)
        ]
        n = n_mib * MiB
        rng = np.random.default_rng(seed)
        raw = rng.random(p)
        theta = raw / raw.sum()
        assert suboptimality_of(paths, theta, n) >= 1 - 1e-9

    @given(
        n_mib=st.integers(min_value=1, max_value=512),
    )
    @settings(max_examples=30, deadline=None)
    def test_fractions_always_on_simplex(self, n_mib):
        sol = optimal_fractions(BELUGA_LIKE, n_mib * MiB)
        assert sol.theta.sum() == pytest.approx(1.0)
        assert np.all(sol.theta >= 0)
        assert np.all(sol.theta <= 1 + 1e-12)

    def test_linear_times_shape(self):
        times = linear_times([0.5, 0.5], [1.0, 2.0], [0.0, 0.0], 10.0)
        assert times == pytest.approx([5.0, 10.0])


class TestEq8SpecialCase:
    """Eq. (11) with direct-path parameters must reduce to Eq. (8)."""

    def test_equivalence(self):
        paths = [
            direct("a", 2 * us, gbps(40)),
            direct("b", 3 * us, gbps(20)),
            direct("c", 5 * us, gbps(10)),
        ]
        n = 128 * MiB
        # Eq. (8) computed directly:
        betas = np.array([p.beta1 for p in paths])
        alphas = np.array([p.alpha1 for p in paths])
        beta_sum = betas.sum()
        ab_sum = (alphas * betas).sum()
        theta_eq8 = betas / beta_sum * (1 - alphas / n * beta_sum + ab_sum / n)
        # Library (general Eq. 11 path):
        sol = optimal_fractions(paths, n)
        assert sol.theta == pytest.approx(theta_eq8, rel=1e-12)
