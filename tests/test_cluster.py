"""Tests for the multi-node multi-rail extension."""

import pytest

from repro.core.contention import max_min_path_rates, usage_matrix
from repro.core.planner import PathPlanner
from repro.gpu.runtime import GPURuntime
from repro.sim import Engine
from repro.topology import systems
from repro.topology.cluster import ClusterTopology
from repro.topology.links import LinkKind, LinkSpec
from repro.ucx.pipeline import PipelineEngine
from repro.units import MiB, gbps, us

RAIL = LinkSpec(LinkKind.PCIE4, alpha=1.5 * us, beta=gbps(12.0))


def simulate(cluster, plan) -> float:
    """Run ``plan`` on the pipeline engine over a fresh cluster fabric;
    returns the completion time."""
    engine = Engine()
    settled = engine.run(
        until=PipelineEngine(GPURuntime(engine, cluster)).execute(plan)
    )
    assert settled.ok and settled.delivered == plan.nbytes
    return engine.now


@pytest.fixture(scope="module")
def cluster():
    return ClusterTopology(
        systems.narval, num_nodes=2, num_rails=2, rail_spec=RAIL
    )


@pytest.fixture(scope="module")
def cluster_planner(cluster):
    return PathPlanner(cluster.nodes[0], cluster.ground_truth_store())


class TestClusterTopology:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterTopology(systems.beluga, num_nodes=1)
        with pytest.raises(ValueError):
            ClusterTopology(systems.beluga, num_rails=0)

    def test_channel_namespace(self, cluster):
        assert "n0:nvl:0->1" in cluster.channels
        assert "n1:rail1:down" in cluster.channels

    def test_rail_paths_enumeration(self, cluster):
        paths = cluster.inter_node_paths(0, 0, 1, 2)
        assert [p.path_id for p in paths] == ["rail:0", "rail:1", "host"]
        rail0 = paths[0]
        assert rail0.hops[0] == (
            "n0:pcie:0:d2h", "n0:rail0:up", "n1:rail0:down", "n1:pcie:2:h2d",
        )

    def test_same_node_rejected(self, cluster):
        with pytest.raises(ValueError):
            cluster.inter_node_paths(0, 0, 0, 1)

    def test_rail_hop_beta_is_wire_bound(self, cluster):
        hop = cluster.rail_hop(0, 0, 1, 0, 0)
        # min(PCIe4 22, rail 12) = 12
        assert cluster.hop_beta(hop) == pytest.approx(gbps(12.0))

    def test_ground_truth_store_covers_paths(self, cluster):
        store = cluster.ground_truth_store()
        for path in cluster.inter_node_paths(0, 3, 1, 1):
            for hop in path.hops:
                assert store.has_link(hop)


class TestMultiRailPlanning:
    def test_rails_split_evenly(self, cluster, cluster_planner):
        paths = cluster.inter_node_paths(0, 0, 1, 0, include_host_staged=False)
        plan = cluster_planner.plan_for_paths(0, 4, 256 * MiB, paths)
        thetas = [a.theta for a in plan.assignments]
        assert thetas[0] == pytest.approx(thetas[1], rel=1e-3)
        assert sum(a.nbytes for a in plan.assignments) == 256 * MiB

    def test_two_rails_beat_one_in_simulation(self, cluster, cluster_planner):
        n = 256 * MiB
        paths = cluster.inter_node_paths(0, 0, 1, 0, include_host_staged=False)

        def run(path_subset):
            return simulate(
                cluster, cluster_planner.plan_for_paths(0, 4, n, path_subset)
            )

        t_one = run(paths[:1])
        t_two = run(paths)
        # Two 12 GB/s rails behind one 22 GB/s PCIe: ~1.8x, not 2x.
        assert 1.5 < t_one / t_two < 2.0

    def test_pcie_caps_the_rail_aggregate(self, cluster):
        """Contention machinery sees the shared source PCIe lanes."""
        paths = cluster.inter_node_paths(0, 0, 1, 0, include_host_staged=False)
        channels, u = usage_matrix(paths)
        caps = [cluster.channels[c].beta for c in channels]
        rates, _ = max_min_path_rates(caps, u)
        assert sum(rates) == pytest.approx(gbps(22.0), rel=1e-6)

    def test_naive_model_overshoots_shared_pcie(self, cluster, cluster_planner):
        """Eq. (8) treats the rails as independent (24 GB/s aggregate); the
        simulator respects the 22 GB/s PCIe — a known, documented limit of
        applying the intra-node model across rails."""
        n = 256 * MiB
        paths = cluster.inter_node_paths(0, 0, 1, 0, include_host_staged=False)
        plan = cluster_planner.plan_for_paths(0, 4, n, paths)
        measured_bw = n / simulate(cluster, plan)
        assert plan.predicted_bandwidth > measured_bw
        assert plan.predicted_bandwidth / measured_bw < 1.15

    def test_host_staged_fallback_plan(self, cluster, cluster_planner):
        """Without GPUDirect the host path is the only route; the plan and
        the pipeline engine both handle the staged 2-hop structure."""
        n = 32 * MiB
        paths = [cluster.inter_node_paths(0, 0, 1, 0)[-1]]
        assert paths[0].path_id == "host"
        plan = cluster_planner.plan_for_paths(0, 4, n, paths)
        assert plan.assignments[0].chunks > 1
        elapsed = simulate(cluster, plan)
        assert elapsed > 0
        assert n / elapsed < gbps(12.0)  # rail-bound, plus staging cost

    def test_runtime_surface(self, cluster):
        """A GPURuntime over the cluster sees every node's GPUs in global
        order, node 0's staging ε and one fabric channel per channel."""
        runtime = GPURuntime(Engine(), cluster)
        assert cluster.num_gpus == 8
        assert [d.numa for d in runtime.devices] == cluster.gpu_numa
        assert cluster.gpu_numa == cluster.nodes[0].gpu_numa * 2
        assert runtime.sync_cost(via_gpu=False) == cluster.nodes[0].sync.host
        assert runtime.sync_cost(via_gpu=True) == cluster.nodes[0].sync.gpu
        assert set(runtime.fabric.channels) == set(cluster.channels)
