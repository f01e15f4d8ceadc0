"""Ready-made node topologies.

* :func:`beluga` and :func:`narval` are the paper's two evaluation
  platforms (§5.1);
* :func:`dgx_nvswitch` and :func:`mi250_node` cover the future-work
  section's NVSwitch and AMD targets;
* :func:`pcie_only` is a degenerate system with no NVLink (TCCL-style
  PCIe cluster node) used in tests and examples;
* :func:`custom_mesh` builds parameterised all-to-all nodes for sweeps.

Bandwidths are effective per-direction values; see
:mod:`repro.topology.links` for the catalogue and sources.
"""

from __future__ import annotations

from itertools import combinations

from repro.topology.links import CATALOG, LinkKind, LinkSpec
from repro.topology.node import NodeTopology, TopologyBuilder
from repro.units import gbps, us


def beluga() -> NodeTopology:
    """Beluga GPU node: 4×V100, 2×NVLink2 per GPU pair, PCIe gen3.

    All four GPUs sit in one NUMA domain (paper §5.1), so the host-staged
    path never crosses a socket link.  The DRAM channel models the staging
    bandwidth available to GPU bounce buffers and is shared by both
    directions and both hops of every host-staged transfer.
    """
    nvl = CATALOG[LinkKind.NVLINK2].bonded(2)  # 2 sub-links per pair
    pcie = CATALOG[LinkKind.PCIE3]
    # Staging bandwidth usable by GPU bounce buffers through one root
    # complex: enough for one direction's two pipelined hops (~23 GB/s of
    # PCIe traffic), but not for both directions at once — which is what
    # makes host staging counter-productive in BIBW (Observation 5).
    dram = LinkSpec(LinkKind.DRAM, alpha=0.5 * us, beta=gbps(24.0), full_duplex=False)

    b = TopologyBuilder("beluga", num_gpus=4)
    b.set_gpu_numa([0, 0, 0, 0])
    for i, j in combinations(range(4), 2):
        b.add_gpu_link(i, j, nvl)
    for g in range(4):
        b.add_pcie(g, pcie)
    b.add_dram(0, dram)
    b.set_sync(gpu=4.0 * us, host=7.0 * us)
    return b.build()


def narval() -> NodeTopology:
    """Narval GPU node: 4×A100 full mesh, 4×NVLink3 per pair, PCIe gen4.

    Each GPU lives in its own NUMA domain with a single memory channel
    (paper Fig. 3), so host-staged transfers cross an inter-socket link
    ("UPI or equivalent") *and* squeeze through a narrow per-NUMA DRAM
    channel — the reason Observation 3 reports higher host-staged error
    on this system.
    """
    nvl = CATALOG[LinkKind.NVLINK3].bonded(4)  # 4 sub-links per pair
    pcie = CATALOG[LinkKind.PCIE4]
    # One DDR4 channel per NUMA domain: ~25.6 GB/s peak, ~19 effective,
    # shared across directions and across the two hops of staging.
    dram = LinkSpec(LinkKind.DRAM, alpha=0.8 * us, beta=gbps(19.0), full_duplex=False)
    upi = CATALOG[LinkKind.UPI]

    b = TopologyBuilder("narval", num_gpus=4)
    b.set_gpu_numa([0, 1, 2, 3])
    for i, j in combinations(range(4), 2):
        b.add_gpu_link(i, j, nvl)
    for g in range(4):
        b.add_pcie(g, pcie)
        b.add_dram(g, dram)
    for a, c in combinations(range(4), 2):
        b.add_upi(a, c, upi)
    b.set_sync(gpu=3.0 * us, host=8.0 * us)
    return b.build()


def dgx_nvswitch(num_gpus: int = 8) -> NodeTopology:
    """NVSwitch-based DGX-A100-like node (paper future work).

    Every GPU has one switch uplink/downlink port pair; a GPU↔GPU copy
    occupies the source's uplink and the destination's downlink.  Staged
    paths therefore *share switch ports* with the direct path — multi-path
    gains are much smaller, which is why the paper defers this system.
    """
    if num_gpus < 2:
        raise ValueError("num_gpus must be >= 2")
    port = CATALOG[LinkKind.NVSWITCH]
    pcie = CATALOG[LinkKind.PCIE4]
    dram = LinkSpec(LinkKind.DRAM, alpha=0.6 * us, beta=gbps(60.0), full_duplex=False)

    b = TopologyBuilder("dgx_nvswitch", num_gpus=num_gpus)
    b.set_gpu_numa([g * 2 // num_gpus for g in range(num_gpus)])
    ports = {}
    for g in range(num_gpus):
        ports[g] = b.add_switch_port(f"nvsw:{g}", port)
    for i, j in combinations(range(num_gpus), 2):
        up_i, down_i = ports[i]
        up_j, down_j = ports[j]
        b.add_shared_gpu_link(i, j, (up_i, down_j), (up_j, down_i))
    for g in range(num_gpus):
        b.add_pcie(g, pcie)
    b.add_dram(0, dram)
    b.add_dram(1, dram)
    b.add_upi(0, 1, CATALOG[LinkKind.UPI])
    b.set_sync(gpu=3.0 * us, host=7.0 * us)
    return b.build()


def mi250_node() -> NodeTopology:
    """AMD MI250-like node: 4 GPUs on an xGMI ring (paper future work).

    The ring means non-adjacent pairs have *no* direct link: the planner
    must rely purely on staged paths for them, exercising the model's
    staged-only regime.
    """
    xgmi = CATALOG[LinkKind.XGMI2].bonded(2)
    pcie = CATALOG[LinkKind.PCIE4]
    dram = LinkSpec(LinkKind.DRAM, alpha=0.6 * us, beta=gbps(30.0), full_duplex=False)

    b = TopologyBuilder("mi250_node", num_gpus=4)
    b.set_gpu_numa([0, 0, 1, 1])
    ring = [(0, 1), (1, 2), (2, 3), (3, 0)]
    for i, j in ring:
        b.add_gpu_link(i, j, xgmi)
    for g in range(4):
        b.add_pcie(g, pcie)
    b.add_dram(0, dram)
    b.add_dram(1, dram)
    b.add_upi(0, 1, CATALOG[LinkKind.UPI])
    b.set_sync(gpu=3.5 * us, host=7.0 * us)
    return b.build()


def pcie_only(num_gpus: int = 4) -> NodeTopology:
    """A node with no GPU-GPU links at all: everything is host-staged.

    Degenerate case used in tests: the only path between any pair is the
    host-staged one, so the planner must return θ_host = 1.
    """
    pcie = CATALOG[LinkKind.PCIE3]
    dram = LinkSpec(LinkKind.DRAM, alpha=0.5 * us, beta=gbps(40.0), full_duplex=False)
    b = TopologyBuilder("pcie_only", num_gpus=num_gpus)
    b.set_gpu_numa([0] * num_gpus)
    for g in range(num_gpus):
        b.add_pcie(g, pcie)
    b.add_dram(0, dram)
    b.set_sync(gpu=4.0 * us, host=7.0 * us)
    return b.build()


def custom_mesh(
    num_gpus: int,
    *,
    nvlink_gbps: float = 46.0,
    pcie_gbps: float = 11.5,
    dram_gbps: float = 36.0,
    num_numa: int = 1,
    name: str = "custom_mesh",
) -> NodeTopology:
    """A parameterised all-to-all node for model sweeps and examples, with
    the catalog's NVLink2 and PCIe3 latencies (α = 2.5 µs and 4 µs)."""
    nvl = LinkSpec(LinkKind.NVLINK2, alpha=2.5 * us, beta=gbps(nvlink_gbps))
    pcie = LinkSpec(LinkKind.PCIE3, alpha=4.0 * us, beta=gbps(pcie_gbps))
    dram = LinkSpec(LinkKind.DRAM, alpha=0.5 * us, beta=gbps(dram_gbps), full_duplex=False)

    b = TopologyBuilder(name, num_gpus=num_gpus)
    b.auto_numa(num_numa)
    for i, j in combinations(range(num_gpus), 2):
        b.add_gpu_link(i, j, nvl)
    for g in range(num_gpus):
        b.add_pcie(g, pcie)
    for numa in sorted(set(b.gpu_numa)):
        b.add_dram(numa, dram)
    for a, c in combinations(sorted(set(b.gpu_numa)), 2):
        b.add_upi(a, c, CATALOG[LinkKind.UPI])
    return b.build()


#: Registry used by the CLI and the benchmark harness.
SYSTEMS = {
    "beluga": beluga,
    "narval": narval,
    "dgx_nvswitch": dgx_nvswitch,
    "mi250_node": mi250_node,
    "pcie_only": pcie_only,
}


def by_name(name: str) -> NodeTopology:
    try:
        return SYSTEMS[name]()
    except KeyError:
        raise ValueError(
            f"unknown system {name!r}; available: {sorted(SYSTEMS)}"
        ) from None


__all__ = [
    "beluga",
    "narval",
    "dgx_nvswitch",
    "mi250_node",
    "pcie_only",
    "custom_mesh",
    "SYSTEMS",
    "by_name",
]
