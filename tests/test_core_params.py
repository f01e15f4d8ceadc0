"""Tests for PathParams, LinkEstimate, and the ParameterStore."""

import json
import math

import pytest

from repro.core.params import LinkEstimate, ParameterStore, PathParams
from repro.topology import systems
from repro.topology.routing import enumerate_paths
from repro.units import gbps, us


def direct_params(**kw):
    defaults = dict(path_id="direct", alpha1=2 * us, beta1=gbps(46))
    defaults.update(kw)
    return PathParams(**defaults)


def staged_params(**kw):
    defaults = dict(
        path_id="gpu:2",
        alpha1=2 * us,
        beta1=gbps(46),
        epsilon=3 * us,
        alpha2=2 * us,
        beta2=gbps(46),
    )
    defaults.update(kw)
    return PathParams(**defaults)


class TestPathParams:
    def test_direct_delta_omega(self):
        p = direct_params()
        assert p.Delta == pytest.approx(2 * us)
        assert p.Omega == pytest.approx(1 / gbps(46))
        assert not p.is_staged

    def test_staged_delta_omega(self):
        p = staged_params()
        # Delta = a1 + a2 + eps (Table 1)
        assert p.Delta == pytest.approx(7 * us)
        assert p.Omega == pytest.approx(2 / gbps(46))
        assert p.is_staged

    def test_initiation_adds_to_delta(self):
        p = staged_params(initiation=5 * us)
        assert p.Delta == pytest.approx(12 * us)

    def test_bottleneck_detection(self):
        assert staged_params(beta1=gbps(10), beta2=gbps(20)).bottleneck_first
        assert not staged_params(beta1=gbps(20), beta2=gbps(10)).bottleneck_first

    def test_validation(self):
        with pytest.raises(ValueError):
            direct_params(beta1=0)
        with pytest.raises(ValueError):
            direct_params(alpha1=-1)
        with pytest.raises(ValueError):
            PathParams(path_id="x", alpha1=1, beta1=1, alpha2=1)  # missing beta2
        with pytest.raises(ValueError):
            staged_params(epsilon=-1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field", ["alpha1", "beta1", "epsilon", "alpha2", "beta2", "initiation"]
    )
    def test_rejects_non_finite(self, field, bad):
        with pytest.raises(ValueError):
            staged_params(**{field: bad})

    def test_describe(self):
        assert "b2=" in staged_params().describe()
        assert "b2=" not in direct_params().describe()


class TestLinkEstimate:
    def test_valid(self):
        e = LinkEstimate(alpha=1 * us, beta=gbps(10), r_squared=0.99, samples=12)
        assert e.beta == gbps(10)

    def test_invalid(self):
        with pytest.raises(ValueError):
            LinkEstimate(alpha=-1, beta=1)
        with pytest.raises(ValueError):
            LinkEstimate(alpha=1, beta=0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                LinkEstimate(alpha=bad, beta=1)
            with pytest.raises(ValueError):
                LinkEstimate(alpha=1, beta=bad)


class TestParameterStore:
    def test_set_and_get_link(self):
        s = ParameterStore("t")
        s.set_link(("a", "b"), LinkEstimate(1 * us, gbps(5)))
        assert s.link(("a", "b")).beta == gbps(5)
        assert s.has_link(("a", "b"))
        assert not s.has_link(("a",))

    def test_missing_link_raises(self):
        with pytest.raises(KeyError, match="calibrat"):
            ParameterStore().link(("nope",))

    def test_epsilon_and_phi(self):
        s = ParameterStore()
        s.set_epsilon("gpu", 3 * us)
        assert s.epsilon("gpu") == 3 * us
        assert s.epsilon("host") == 0.0
        with pytest.raises(ValueError):
            s.set_epsilon("weird", 1)
        s.set_phi("gpu:2", 0.05)
        assert s.phi("gpu:2") == 0.05
        assert s.phi("other") == s.default_phi
        with pytest.raises(ValueError):
            s.set_phi("x", 0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                s.set_epsilon("gpu", bad)
            with pytest.raises(ValueError):
                s.set_phi("x", bad)
        with pytest.raises(ValueError):
            s.set_epsilon("gpu", -1 * us)

    def test_ground_truth_covers_all_paths(self):
        topo = systems.beluga()
        s = ParameterStore.ground_truth(topo)
        for src, dst in [(0, 1), (2, 3), (1, 0)]:
            for path in enumerate_paths(topo, src, dst):
                for hop in path.hops:
                    assert s.has_link(hop)
        assert s.epsilon("gpu") == topo.sync.gpu
        assert s.epsilon("host") == topo.sync.host

    def test_path_params_direct_and_staged(self):
        topo = systems.beluga()
        s = ParameterStore.ground_truth(topo)
        paths = enumerate_paths(topo, 0, 1)
        direct = s.path_params(paths[0])
        assert not direct.is_staged
        assert direct.beta1 == pytest.approx(gbps(46))
        staged = s.path_params(paths[1])
        assert staged.is_staged
        assert staged.epsilon == topo.sync.gpu
        host = s.path_params(paths[-1])
        assert host.epsilon == topo.sync.host

    def test_json_roundtrip(self):
        topo = systems.narval()
        s = ParameterStore.ground_truth(topo)
        s.set_phi("gpu:2", 0.07)
        s.default_phi = 0.2
        s.launch_overhead = 1 * us
        restored = ParameterStore.from_json(s.to_json())
        assert restored.system == "narval"
        assert restored.phi("gpu:2") == 0.07
        assert restored.default_phi == 0.2
        assert restored.launch_overhead == 1 * us
        hop = topo.direct_hop(0, 1)
        assert restored.link(hop).beta == s.link(hop).beta


def _beluga_payload() -> dict:
    return json.loads(ParameterStore.ground_truth(systems.beluga()).to_json())


def _link_entry(payload: dict, hop: tuple) -> dict:
    return next(e for e in payload["links"] if tuple(e["hop"]) == hop)


class TestNonFiniteParametersRejectedAtLoad:
    """Python's json reads ``NaN`` and ``Infinity``; a parameter file
    holding one used to load silently and change plans (a NaN ε dropped
    both GPU-staged paths; a NaN host α made 1→0, 2→0, 3→0 direct-only;
    an infinite β failed only once a plan ran)."""

    def _load(self, payload: dict) -> ParameterStore:
        return ParameterStore.from_json(json.dumps(payload))

    def test_round_trip_still_loads(self):
        store = self._load(_beluga_payload())
        assert store.epsilon("gpu") == systems.beluga().sync.gpu

    def test_nan_epsilon(self):
        payload = _beluga_payload()
        payload["epsilon"]["gpu"] = math.nan
        with pytest.raises(ValueError, match="epsilon"):
            self._load(payload)

    def test_nan_alpha(self):
        payload = _beluga_payload()
        _link_entry(payload, ("dram:0", "pcie:0:h2d"))["alpha"] = math.nan
        with pytest.raises(ValueError, match="link estimate"):
            self._load(payload)

    def test_infinite_beta(self):
        payload = _beluga_payload()
        _link_entry(payload, ("nvl:0->1",))["beta"] = math.inf
        with pytest.raises(ValueError, match="link estimate"):
            self._load(payload)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-6])
    def test_bad_launch_overhead(self, bad):
        payload = _beluga_payload()
        payload["launch_overhead"] = bad
        with pytest.raises(ValueError, match="launch_overhead"):
            self._load(payload)
