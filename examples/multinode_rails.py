#!/usr/bin/env python
"""Multi-node, multi-rail transfers: the model beyond one node.

The paper's future work plans a multi-node extension; as this example
shows, multi-rail striping *is* the multi-path model: each InfiniBand rail
is a "direct path" (one GPUDirect-RDMA cut-through DMA), the non-GPUDirect
bounce through host memory is a "staged path", and Eq. (8) splits the
message across rails in closed form.

The example sweeps rail counts on a 2-node Narval-like cluster and shows
the crossover the model predicts: extra rails help until the source GPU's
PCIe lanes saturate.

Run:  python examples/multinode_rails.py
"""

from repro.core.contention import max_min_path_rates, usage_matrix
from repro.core.planner import PathPlanner
from repro.gpu.runtime import GPURuntime
from repro.sim import Engine
from repro.topology import systems
from repro.topology.cluster import ClusterTopology
from repro.topology.links import LinkKind, LinkSpec
from repro.ucx.pipeline import PipelineEngine
from repro.units import MiB, format_bandwidth, us
from repro.util.tables import Table

RAIL = LinkSpec(LinkKind.PCIE4, alpha=1.5 * us, beta=12e9)  # HDR100-ish


def main() -> None:
    n = 256 * MiB
    table = Table(
        ["rails", "theta_per_rail", "predicted", "simulated", "pcie_capped"],
        title="2-node transfer GPU0@n0 -> GPU0@n1, 256 MiB (rails at 12 GB/s, PCIe4 at 22 GB/s)",
    )
    for rails in (1, 2, 3, 4):
        cluster = ClusterTopology(
            systems.narval, num_nodes=2, num_rails=rails, rail_spec=RAIL
        )
        planner = PathPlanner(cluster.nodes[0], cluster.ground_truth_store())
        paths = cluster.inter_node_paths(0, 0, 1, 0, include_host_staged=False)
        plan = planner.plan_for_paths(0, 4, n, paths)

        engine = Engine()
        pipeline = PipelineEngine(GPURuntime(engine, cluster))
        engine.run(until=pipeline.execute(plan))
        simulated = n / engine.now

        channels, usage = usage_matrix(paths)
        caps = [cluster.channels[c].beta for c in channels]
        rates, saturated = max_min_path_rates(caps, usage)
        pcie_capped = any("pcie" in channels[c] for c in saturated)

        table.add(
            rails=rails,
            theta_per_rail=round(plan.assignments[0].theta, 3),
            predicted=format_bandwidth(plan.predicted_bandwidth),
            simulated=format_bandwidth(simulated),
            pcie_capped=pcie_capped,
        )
    print(table.render())
    print()
    print("Reading: the naive model scales with rail count; the simulator")
    print("(and the contention extension's bottleneck column) shows the")
    print("source PCIe lanes capping the aggregate at ~22 GB/s from rail 2.")


if __name__ == "__main__":
    main()
