"""Multi-node clusters with multi-rail interconnect — paper future work.

The paper's conclusion plans to "extend our model to support ... multi-node
communication".  This module shows the model already covers the multi-rail
inter-node case with *no new math*:

* each InfiniBand rail gives one candidate path between a GPU pair on
  different nodes.  With GPUDirect RDMA a rail transfer is one cut-through
  DMA occupying (source PCIe → rail uplink → rail downlink → destination
  PCIe) concurrently — i.e. a **direct path** in the model's sense, with
  ``α = Σ channel latencies`` and ``β = min channel bandwidth``;
* a host-staged inter-node path (bounce through the sender's DRAM, the
  non-GPUDirect fallback) appears as a **staged path**, exactly like the
  intra-node host path;
* splitting a message across rails is then Eq. (8)/(11) verbatim, and the
  multi-rail crossover (rails help until the GPU's PCIe saturates) falls
  out of the closed form.

The cluster builds one fabric containing every node's intra-node channels
(names prefixed ``n<k>:``) plus per-node, per-rail NIC uplink/downlink
channels through a non-blocking switch.  It numbers GPUs globally (node
``k``'s GPU ``g`` is ``k * gpus_per_node + g``) and offers what a
:class:`~repro.gpu.runtime.GPURuntime` reads from a node, so cluster plans
run on the pipeline engine like intra-node ones::

    PipelineEngine(GPURuntime(engine, cluster)).execute(plan)
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.params import LinkEstimate, ParameterStore
from repro.topology.links import LinkKind, LinkSpec
from repro.topology.node import ChannelDef, NodeTopology
from repro.topology.routing import Hop, PathDescriptor, PathKind
from repro.units import gbps, us

#: HDR100-class rail: 100 Gb/s ≈ 12 GB/s effective per direction.
DEFAULT_RAIL = LinkSpec(LinkKind.PCIE4, alpha=1.5 * us, beta=gbps(12.0))


class ClusterTopology:
    """Several identical nodes joined by ``num_rails`` switched rails."""

    def __init__(
        self,
        node_factory: Callable[[], NodeTopology],
        *,
        num_nodes: int = 2,
        num_rails: int = 2,
        rail_spec: LinkSpec = DEFAULT_RAIL,
        name: str = "cluster",
    ) -> None:
        if num_nodes < 2:
            raise ValueError("a cluster needs at least 2 nodes")
        if num_rails < 1:
            raise ValueError("need at least one rail")
        self.name = name
        self.nodes = [node_factory() for _ in range(num_nodes)]
        self.num_nodes = num_nodes
        self.num_rails = num_rails
        self.rail_spec = rail_spec
        self.gpus_per_node = self.nodes[0].num_gpus
        self.num_gpus = num_nodes * self.gpus_per_node
        #: NUMA domain of each GPU, in global GPU order
        self.gpu_numa = [numa for node in self.nodes for numa in node.gpu_numa]
        self.channels: dict[str, ChannelDef] = {}
        self._build_channels()

    # ------------------------------------------------------------------
    def _build_channels(self) -> None:
        for k, node in enumerate(self.nodes):
            for cdef in node.channels.values():
                name = f"n{k}:{cdef.name}"
                self.channels[name] = ChannelDef(
                    name, cdef.kind, cdef.alpha, cdef.beta
                )
            for r in range(self.num_rails):
                for direction in ("up", "down"):
                    name = f"n{k}:rail{r}:{direction}"
                    self.channels[name] = ChannelDef(
                        name,
                        self.rail_spec.kind,
                        self.rail_spec.alpha,
                        self.rail_spec.beta,
                    )

    # ------------------------------------------------------------------
    def global_gpu(self, node: int, gpu: int) -> int:
        return node * self.gpus_per_node + gpu

    def _prefix(self, node: int, hop: Hop) -> Hop:
        return tuple(f"n{node}:{ch}" for ch in hop)

    def rail_hop(self, src_node: int, src_gpu: int, dst_node: int, dst_gpu: int,
                 rail: int) -> Hop:
        """GPUDirect-RDMA cut-through hop over one rail."""
        src_topo = self.nodes[src_node]
        dst_topo = self.nodes[dst_node]
        return (
            f"n{src_node}:{src_topo._pcie_d2h[src_gpu]}",
            f"n{src_node}:rail{rail}:up",
            f"n{dst_node}:rail{rail}:down",
            f"n{dst_node}:{dst_topo._pcie_h2d[dst_gpu]}",
        )

    def inter_node_paths(
        self,
        src_node: int,
        src_gpu: int,
        dst_node: int,
        dst_gpu: int,
        *,
        include_host_staged: bool = True,
    ) -> list[PathDescriptor]:
        """Candidate paths for a cross-node transfer.

        One direct (cut-through) path per rail, plus optionally the
        host-staged fallback over rail 0 (sender DRAM bounce).
        """
        if src_node == dst_node:
            raise ValueError("use intra-node planning for same-node pairs")
        src = self.global_gpu(src_node, src_gpu)
        dst = self.global_gpu(dst_node, dst_gpu)
        paths = [
            PathDescriptor(
                path_id=f"rail:{r}",
                kind=PathKind.DIRECT,
                src=src,
                dst=dst,
                via=None,
                hops=(self.rail_hop(src_node, src_gpu, dst_node, dst_gpu, r),),
            )
            for r in range(self.num_rails)
        ]
        if include_host_staged:
            src_topo = self.nodes[src_node]
            numa = src_topo.gpu_numa[src_gpu]
            hop1 = self._prefix(src_node, src_topo.d2h_hop(src_gpu, numa))
            # host buffer -> NIC -> remote GPU, over rail 0
            dst_topo = self.nodes[dst_node]
            hop2 = (
                f"n{src_node}:{src_topo._dram[numa]}",
                f"n{src_node}:rail0:up",
                f"n{dst_node}:rail0:down",
                f"n{dst_node}:{dst_topo._pcie_h2d[dst_gpu]}",
            )
            paths.append(
                PathDescriptor(
                    path_id="host",
                    kind=PathKind.HOST_STAGED,
                    src=src,
                    dst=dst,
                    via=None,
                    hops=(hop1, hop2),
                )
            )
        return paths

    # ------------------------------------------------------------------
    def hop_alpha(self, hop: Hop) -> float:
        return sum(self.channels[c].alpha for c in hop)

    def hop_beta(self, hop: Hop) -> float:
        return min(self.channels[c].beta for c in hop)

    def ground_truth_store(self) -> ParameterStore:
        """Nominal-parameter store covering all inter-node hops."""
        store = ParameterStore(system=self.name)
        store.set_epsilon("host", self.nodes[0].sync.host)
        store.set_epsilon("gpu", self.nodes[0].sync.gpu)
        for sn in range(self.num_nodes):
            for dn in range(self.num_nodes):
                if sn == dn:
                    continue
                for sg in range(self.gpus_per_node):
                    for dg in range(self.gpus_per_node):
                        for path in self.inter_node_paths(sn, sg, dn, dg):
                            for hop in path.hops:
                                if not store.has_link(hop):
                                    store.set_link(
                                        hop,
                                        LinkEstimate(
                                            alpha=self.hop_alpha(hop),
                                            beta=self.hop_beta(hop),
                                        ),
                                    )
        return store

    def sync_epsilon(self, via_gpu: bool) -> float:
        """ε of a staging sync (node 0's; the nodes are identical)."""
        return self.nodes[0].sync_epsilon(via_gpu)

    #: One fabric channel per cluster channel (same construction as a node's).
    build_fabric = NodeTopology.build_fabric


__all__ = ["ClusterTopology", "DEFAULT_RAIL"]
