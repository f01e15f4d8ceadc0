"""Tests for topology descriptions and path enumeration."""

import pytest

from repro.sim import Engine
from repro.topology import systems
from repro.topology.links import CATALOG, LinkKind, LinkSpec
from repro.topology.node import TopologyBuilder
from repro.topology.routing import (
    PathKind,
    enumerate_paths,
    gpu_staging_candidates,
    paths_label,
)
from repro.units import gbps, us


class TestLinkSpec:
    def test_bonding_scales_bandwidth_not_latency(self):
        base = CATALOG[LinkKind.NVLINK2]
        bonded = base.bonded(2)
        assert bonded.beta == 2 * base.beta
        assert bonded.alpha == base.alpha

    def test_bonding_validation(self):
        with pytest.raises(ValueError):
            CATALOG[LinkKind.NVLINK2].bonded(0)

    def test_scaled(self):
        base = CATALOG[LinkKind.PCIE3]
        s = base.scaled(bandwidth_factor=0.5, latency_factor=2.0)
        assert s.beta == base.beta / 2
        assert s.alpha == base.alpha * 2

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            LinkSpec(LinkKind.PCIE3, alpha=-1, beta=1)
        with pytest.raises(ValueError):
            LinkSpec(LinkKind.PCIE3, alpha=1, beta=0)


class TestBeluga:
    def test_shape(self):
        topo = systems.beluga()
        assert topo.num_gpus == 4
        assert topo.num_numa == 1
        # full mesh of direct links
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert topo.has_direct(i, j)

    def test_direct_hop_bandwidth(self):
        topo = systems.beluga()
        hop = topo.direct_hop(0, 1)
        assert topo.hop_beta(hop) == pytest.approx(gbps(46.0))

    def test_host_hops_stay_in_numa(self):
        topo = systems.beluga()
        hop1, hop2 = topo.host_hops(0, 1)
        assert "pcie:0:d2h" in hop1 and "dram:0" in hop1
        assert "dram:0" in hop2 and "pcie:1:h2d" in hop2
        assert not any(ch.startswith("upi") for ch in hop1 + hop2)

    def test_no_self_direct(self):
        topo = systems.beluga()
        with pytest.raises(ValueError):
            topo.direct_hop(0, 0)


class TestNarval:
    def test_numa_per_gpu(self):
        topo = systems.narval()
        assert topo.gpu_numa == [0, 1, 2, 3]
        assert topo.num_numa == 4

    def test_host_hops_cross_upi(self):
        topo = systems.narval()
        hop1, hop2 = topo.host_hops(0, 1)
        # staging buffer on sender's NUMA: hop1 local, hop2 crosses UPI
        assert not any(ch.startswith("upi") for ch in hop1)
        assert any(ch.startswith("upi") for ch in hop2)

    def test_receiver_staging_policy(self):
        topo = systems.narval()
        topo.staging_numa_policy = "receiver"
        hop1, hop2 = topo.host_hops(0, 1)
        assert any(ch.startswith("upi") for ch in hop1)
        assert not any(ch.startswith("upi") for ch in hop2)

    def test_direct_faster_than_beluga(self):
        nar, bel = systems.narval(), systems.beluga()
        assert nar.hop_beta(nar.direct_hop(0, 1)) > bel.hop_beta(bel.direct_hop(0, 1))

    def test_host_hop_beta_is_bottleneck(self):
        topo = systems.narval()
        hop1, _ = topo.host_hops(0, 1)
        # min(PCIe4=22, DRAM=19) = 19 GB/s
        assert topo.hop_beta(hop1) == pytest.approx(gbps(19.0))


class TestOtherSystems:
    def test_nvswitch_shares_ports(self):
        topo = systems.dgx_nvswitch(8)
        assert topo.num_gpus == 8
        hop_01 = topo.direct_hop(0, 1)
        hop_02 = topo.direct_hop(0, 2)
        # Same source uplink appears in both pairs' hops.
        assert set(hop_01) & set(hop_02)

    def test_mi250_ring_gaps(self):
        topo = systems.mi250_node()
        assert topo.has_direct(0, 1)
        assert not topo.has_direct(0, 2)

    def test_pcie_only_has_no_direct(self):
        topo = systems.pcie_only()
        assert not topo.has_direct(0, 1)

    def test_custom_mesh(self):
        topo = systems.custom_mesh(6, nvlink_gbps=100, num_numa=2)
        assert topo.num_gpus == 6
        assert topo.num_numa == 2
        assert topo.hop_beta(topo.direct_hop(0, 5)) == pytest.approx(gbps(100))

    def test_by_name(self):
        assert systems.by_name("beluga").name == "beluga"
        with pytest.raises(ValueError):
            systems.by_name("nonexistent")


class TestRouting:
    def test_beluga_four_paths(self):
        topo = systems.beluga()
        paths = enumerate_paths(topo, 0, 1)
        assert [p.path_id for p in paths] == ["direct", "gpu:2", "gpu:3", "host"]
        assert paths[0].kind is PathKind.DIRECT
        assert paths[1].kind is PathKind.GPU_STAGED
        assert paths[-1].kind is PathKind.HOST_STAGED

    def test_hop_counts(self):
        topo = systems.beluga()
        for p in enumerate_paths(topo, 0, 1):
            assert len(p.hops) == (1 if p.kind is PathKind.DIRECT else 2)

    def test_exclusion(self):
        topo = systems.beluga()
        paths = enumerate_paths(topo, 0, 1, exclude=("gpu:2", "host"))
        assert [p.path_id for p in paths] == ["direct", "gpu:3"]

    def test_max_gpu_staged(self):
        topo = systems.beluga()
        paths = enumerate_paths(topo, 0, 1, max_gpu_staged=1, include_host=False)
        assert [p.path_id for p in paths] == ["direct", "gpu:2"]

    def test_no_host(self):
        topo = systems.beluga()
        paths = enumerate_paths(topo, 0, 1, include_host=False)
        assert all(p.kind is not PathKind.HOST_STAGED for p in paths)

    def test_invalid_endpoints(self):
        topo = systems.beluga()
        with pytest.raises(ValueError):
            enumerate_paths(topo, 0, 0)
        with pytest.raises(ValueError):
            enumerate_paths(topo, 0, 9)

    def test_pcie_only_has_host_path_only(self):
        topo = systems.pcie_only()
        paths = enumerate_paths(topo, 0, 1)
        assert [p.path_id for p in paths] == ["host"]

    def test_mi250_nonadjacent_staged_only(self):
        topo = systems.mi250_node()
        paths = enumerate_paths(topo, 0, 2)
        ids = [p.path_id for p in paths]
        assert "direct" not in ids
        assert "gpu:1" in ids and "gpu:3" in ids

    def test_staging_candidates(self):
        topo = systems.beluga()
        assert gpu_staging_candidates(topo, 0, 1) == [2, 3]
        assert gpu_staging_candidates(topo, 2, 3) == [0, 1]

    def test_paths_label(self):
        topo = systems.beluga()
        p4 = enumerate_paths(topo, 0, 1)
        assert paths_label(p4) == "3_GPUs_w_host"
        p3 = enumerate_paths(topo, 0, 1, include_host=False)
        assert paths_label(p3) == "3_GPUs"
        p2 = enumerate_paths(topo, 0, 1, include_host=False, max_gpu_staged=1)
        assert paths_label(p2) == "2_GPUs"
        p1 = enumerate_paths(topo, 0, 1, include_host=False, max_gpu_staged=0)
        assert paths_label(p1) == "direct"

    def test_describe(self):
        topo = systems.beluga()
        desc = enumerate_paths(topo, 0, 1)[1].describe()
        assert "gpu:2" in desc and "=>" in desc


class TestGraphAndFabric:
    def test_graph_connectivity(self):
        topo = systems.beluga()
        pairs = [(i, j) for i in range(topo.num_gpus)
                 for j in range(topo.num_gpus) if i != j]
        assert len(pairs) == 12  # 4*3 directed
        assert all(topo.has_direct(i, j) for i, j in pairs)

    def test_build_fabric_channels(self):
        topo = systems.narval()
        eng = Engine()
        fab = topo.build_fabric(eng)
        assert set(fab.channels) == set(topo.channels)

    def test_fabric_jitter_factory(self):
        topo = systems.beluga()
        eng = Engine()
        seen = []

        def factory(cdef):
            seen.append(cdef.name)
            return None

        topo.build_fabric(eng, jitter_factory=factory)
        assert set(seen) == set(topo.channels)


class TestBuilderValidation:
    def test_missing_pcie_rejected(self):
        b = TopologyBuilder("bad", 2)
        b.add_gpu_link(0, 1, CATALOG[LinkKind.NVLINK2])
        b.add_dram(0, CATALOG[LinkKind.DRAM])
        with pytest.raises(ValueError, match="pcie"):
            b.build()

    def test_missing_dram_rejected(self):
        b = TopologyBuilder("bad", 2)
        b.add_gpu_link(0, 1, CATALOG[LinkKind.NVLINK2])
        for g in range(2):
            b.add_pcie(g, CATALOG[LinkKind.PCIE3])
        with pytest.raises(ValueError, match="DRAM"):
            b.build()

    def test_duplicate_channel_rejected(self):
        b = TopologyBuilder("bad", 2)
        b.add_gpu_link(0, 1, CATALOG[LinkKind.NVLINK2])
        with pytest.raises(ValueError, match="duplicate"):
            b.add_gpu_link(0, 1, CATALOG[LinkKind.NVLINK2])

    def test_single_gpu_rejected(self):
        b = TopologyBuilder("bad", 1)
        with pytest.raises(ValueError):
            b.build()

    def test_sync_overrides(self):
        b = TopologyBuilder("s", 2)
        b.add_gpu_link(0, 1, CATALOG[LinkKind.NVLINK2])
        for g in range(2):
            b.add_pcie(g, CATALOG[LinkKind.PCIE3])
        b.add_dram(0, CATALOG[LinkKind.DRAM])
        b.set_sync(gpu=1 * us, host=2 * us)
        topo = b.build()
        assert topo.sync_epsilon(via_gpu=True) == 1 * us
        assert topo.sync_epsilon(via_gpu=False) == 2 * us
