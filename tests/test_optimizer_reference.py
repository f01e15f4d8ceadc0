"""The float solve of Eq. (11)/(24) against its numpy reference, bit for bit.

``optimal_fractions`` solves on Python floats.  ``reference_fractions``
below is the numpy solver it replaced, kept here as the oracle: θ, the
active set and T* must come out exactly equal (not approximately) on
drawn inputs and on every input the beluga and narval planners produce.
A later ``sum()``, ``math.fsum`` or reordered expression in the solver
moves some last bit and fails here.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.planner as planner_module
from repro.bench.runner import get_setup
from repro.core.optimizer import optimal_fractions
from repro.core.params import PathParams
from repro.core.planner import PathPlanner
from repro.runtime.load import LoadSnapshot
from repro.topology import systems
from repro.units import KiB, MiB


def _np_solve_equal_time(omegas, deltas, nbytes):
    inv = 1.0 / omegas
    inv_sum = inv.sum()
    delta_sum = (deltas * inv).sum()
    t_star = (nbytes + delta_sum) / inv_sum
    theta = (t_star - deltas) * inv / nbytes
    return theta, float(t_star)


def reference_fractions(paths, nbytes, *, omegas=None, deltas=None, keep=0):
    """The numpy active-set solver, as it stood before the float solve."""
    n = float(nbytes)
    om = np.array(
        [p.Omega for p in paths] if omegas is None else list(omegas), dtype=float
    )
    de = np.array(
        [p.Delta for p in paths] if deltas is None else list(deltas), dtype=float
    )
    active = np.ones(len(paths), dtype=bool)
    theta_full = np.zeros(len(paths))
    t_star = float("inf")
    for _ in range(len(paths)):
        idx = np.flatnonzero(active)
        theta_act, t_star = _np_solve_equal_time(om[idx], de[idx], n)
        if np.all(theta_act >= -1e-12):
            theta_full[:] = 0.0
            theta_full[idx] = np.clip(theta_act, 0.0, 1.0)
            break
        order = np.argsort(theta_act)
        dropped = False
        for j in order:
            if theta_act[j] >= 0:
                break
            if keep is not None and idx[j] == keep:
                continue
            active[idx[j]] = False
            dropped = True
            break
        if not dropped:
            theta_full[:] = 0.0
            theta_full[keep] = 1.0
            only = np.array([keep])
            _, t_star = _np_solve_equal_time(om[only], de[only], n)
            active[:] = False
            active[keep] = True
            break
    else:
        raise RuntimeError("active-set iteration failed to converge")
    s = theta_full.sum()
    if s > 0:
        theta_full = theta_full / s
    return theta_full, tuple(bool(a) for a in active), t_star, om, de


def assert_matches_reference(paths, nbytes, **kwargs):
    try:
        theta, active, t_star, om, de = reference_fractions(paths, nbytes, **kwargs)
    except RuntimeError:
        # keep=None and rounding left even the last path negative
        with pytest.raises(RuntimeError):
            optimal_fractions(paths, nbytes, **kwargs)
        return None
    sol = optimal_fractions(paths, nbytes, **kwargs)
    # tobytes() compares bit patterns, so even a sign of zero must agree
    assert sol.theta.tobytes() == theta.tobytes()
    assert sol.active == active
    assert type(sol.predicted_time) is float
    assert sol.predicted_time == t_star
    assert sol.omegas.tobytes() == om.tobytes()
    assert sol.deltas.tobytes() == de.tobytes()
    return sol


# ----------------------------------------------------------------------
# Drawn inputs
# ----------------------------------------------------------------------
# Each quantity mixes a few fixed values (so paths tie exactly) with free
# draws over a range wide enough to make small messages drop paths.
_alpha = st.one_of(
    st.sampled_from([0.0, 1e-6, 2e-6, 5e-6]),
    st.floats(0.0, 1e-3, allow_nan=False, allow_infinity=False),
)
_beta = st.one_of(
    st.sampled_from([1e9, 12e9, 46e9]),
    st.floats(1e6, 1e12, allow_nan=False, allow_infinity=False),
)
_nbytes = st.one_of(
    st.sampled_from([1, 256, 64 * KiB, 4 * MiB]),
    st.integers(1, 2**36),
    st.floats(0.5, 2.0**36, allow_nan=False, allow_infinity=False),
)


@st.composite
def _path_params(draw, i):
    if draw(st.booleans()):
        return PathParams(
            path_id=f"p{i}", alpha1=draw(_alpha), beta1=draw(_beta),
            initiation=draw(_alpha),
        )
    return PathParams(
        path_id=f"p{i}", alpha1=draw(_alpha), beta1=draw(_beta),
        epsilon=draw(_alpha), alpha2=draw(_alpha), beta2=draw(_beta),
        initiation=draw(_alpha),
    )


@st.composite
def _problems(draw):
    count = draw(st.integers(1, 6))
    paths = [draw(_path_params(i)) for i in range(count)]
    kwargs = {"keep": draw(st.one_of(st.none(), st.integers(0, count - 1)))}
    if draw(st.booleans()):
        omega = st.one_of(
            st.sampled_from([1 / 46e9, 1 / 12e9, 2 / 46e9]),
            st.floats(1e-12, 1e-6, allow_nan=False, allow_infinity=False),
        )
        kwargs["omegas"] = [draw(omega) for _ in range(count)]
        kwargs["deltas"] = [draw(_alpha) for _ in range(count)]
    return paths, draw(_nbytes), kwargs


@settings(max_examples=400, deadline=None)
@given(_problems())
def test_drawn_inputs_match_reference(problem):
    paths, nbytes, kwargs = problem
    assert_matches_reference(paths, nbytes, **kwargs)


def test_ties_drop_the_same_set():
    # Three identical slow paths beside a fast direct one: every drop
    # order leaves the direct path alone, as the reference does.
    direct = PathParams(path_id="direct", alpha1=1e-6, beta1=46e9)
    slow = [
        PathParams(path_id=f"s{i}", alpha1=5e-4, beta1=1e9) for i in range(3)
    ]
    sol = assert_matches_reference([direct, *slow], 64 * KiB)
    assert sol.active == (True, False, False, False)


def test_eight_paths_sum_in_numpy_order():
    # From eight terms numpy sums in strided blocks, not left to right.
    paths = [
        PathParams(path_id=f"p{i}", alpha1=1e-6 * (i % 3), beta1=1e9 * (1 + i / 7))
        for i in range(11)
    ]
    for nbytes in (64 * MiB, 3 * MiB + 1, 512 * MiB):
        assert_matches_reference(paths, nbytes, keep=None)


# ----------------------------------------------------------------------
# Real planner inputs
# ----------------------------------------------------------------------
#: 4 KiB .. 512 MiB: every power of two, plus three unaligned sizes.
SIZES = sorted(
    {2**k for k in range(12, 30)} | {3 * 2**k + 256 for k in (12, 18, 24)}
)


def _loads(topology):
    """Idle, every channel in load bucket 1, 2 or 4, and a 0-4 mix."""
    names = sorted(topology.channels)
    yield None
    for flows in (1, 2, 4):
        yield LoadSnapshot({name: flows for name in names})
    yield LoadSnapshot({name: i % 5 for i, name in enumerate(names)})


@pytest.fixture
def solved(monkeypatch):
    """Path counts of the solves planners run, each checked on the way."""
    seen = []

    def checked(paths, nbytes, **kwargs):
        seen.append(len(paths))
        return assert_matches_reference(paths, nbytes, **kwargs)

    monkeypatch.setattr(planner_module, "optimal_fractions", checked)
    return seen


@pytest.mark.parametrize("system", ["beluga", "narval"])
@pytest.mark.parametrize("sequential_initiation", [True, False])
def test_planner_inputs_match_reference(system, sequential_initiation, solved):
    setup = get_setup(system)
    topo = setup.topology
    gpus = range(topo.num_gpus)
    pairs = [(s, d) for s in gpus for d in gpus if s != d]
    for store in (setup.store, None):  # calibrated, then ground truth
        planner = PathPlanner(topo, store, sequential_initiation=sequential_initiation)
        for (src, dst), include_host, max_gpu_staged, load, nbytes in product(
            pairs, (True, False), (None, 1), list(_loads(topo)), SIZES
        ):
            planner.plan(
                src, dst, nbytes, include_host=include_host,
                max_gpu_staged=max_gpu_staged, load=load, use_cache=False,
            )
    assert len(solved) == 2 * 12 * 4 * 5 * len(SIZES)
    assert set(solved) >= {2, 3, 4}


def test_dgx_planner_inputs_match_reference(solved):
    """Eight candidate paths: the pairwise branch of the sum."""
    topo = systems.dgx_nvswitch()
    planner = PathPlanner(topo)
    for dst in range(1, topo.num_gpus):
        for nbytes in SIZES:
            planner.plan(0, dst, nbytes, use_cache=False)
    assert max(solved) == 8
