"""Link technology catalogue.

Per-direction *effective* (measured, not theoretical) bandwidths and
startup latencies for the interconnect generations that appear in the
paper's two platforms and its future-work section.  Values follow published
micro-benchmark numbers for the respective hardware:

* NVLink2 (V100): 25 GB/s per sub-link per direction, ~23 GB/s effective;
  Beluga bonds 2 sub-links per GPU pair.
* NVLink3 (A100): 25 GB/s per sub-link, Narval bonds 4 per pair.
* PCIe gen3 x16: 16 GB/s theoretical, ~11.5 GB/s effective for GPU DMA.
* PCIe gen4 x16: 32 GB/s theoretical, ~22 GB/s effective.
* UPI (Xeon socket link): ~28 GB/s effective per direction.
* Infinity Fabric / xGMI-2 (MI200-class): ~37 GB/s effective per link.

The catalogue is a starting point — topologies scale or override these when
a platform's measured numbers differ.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.units import gbps, us


class LinkKind(enum.Enum):
    NVLINK2 = "nvlink2"
    NVLINK3 = "nvlink3"
    NVLINK4 = "nvlink4"
    NVSWITCH = "nvswitch"
    PCIE3 = "pcie3"
    PCIE4 = "pcie4"
    PCIE5 = "pcie5"
    UPI = "upi"
    XGMI2 = "xgmi2"
    DRAM = "dram"


@dataclass(frozen=True)
class LinkSpec:
    """Per-direction effective parameters of one link technology instance.

    ``alpha`` is the startup latency a single transfer pays on this link;
    ``beta`` the asymptotic effective bandwidth in bytes/second per
    direction.  ``full_duplex`` links get one simulated channel per
    direction; shared media (DRAM staging bandwidth) get a single channel
    both directions contend on.
    """

    kind: LinkKind
    alpha: float
    beta: float
    full_duplex: bool = True

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.beta <= 0:
            raise ValueError("beta must be > 0")

    def bonded(self, nlinks: int) -> "LinkSpec":
        """Aggregate ``nlinks`` parallel sub-links (bandwidth scales,
        startup latency does not)."""
        if nlinks < 1:
            raise ValueError("nlinks must be >= 1")
        return replace(self, beta=self.beta * nlinks)

    def scaled(self, bandwidth_factor: float = 1.0, latency_factor: float = 1.0) -> "LinkSpec":
        """Derate or boost a catalogue entry to match platform measurements."""
        if bandwidth_factor <= 0 or latency_factor < 0:
            raise ValueError("factors must be positive")
        return replace(
            self, beta=self.beta * bandwidth_factor, alpha=self.alpha * latency_factor
        )


#: Effective per-direction parameters for a single link instance.
CATALOG: dict[LinkKind, LinkSpec] = {
    LinkKind.NVLINK2: LinkSpec(LinkKind.NVLINK2, alpha=2.5 * us, beta=gbps(23.0)),
    LinkKind.NVLINK3: LinkSpec(LinkKind.NVLINK3, alpha=2.0 * us, beta=gbps(23.0)),
    LinkKind.NVLINK4: LinkSpec(LinkKind.NVLINK4, alpha=1.8 * us, beta=gbps(45.0)),
    LinkKind.NVSWITCH: LinkSpec(LinkKind.NVSWITCH, alpha=2.2 * us, beta=gbps(230.0)),
    LinkKind.PCIE3: LinkSpec(LinkKind.PCIE3, alpha=4.0 * us, beta=gbps(11.5)),
    LinkKind.PCIE4: LinkSpec(LinkKind.PCIE4, alpha=3.5 * us, beta=gbps(22.0)),
    LinkKind.PCIE5: LinkSpec(LinkKind.PCIE5, alpha=3.0 * us, beta=gbps(44.0)),
    LinkKind.UPI: LinkSpec(LinkKind.UPI, alpha=1.2 * us, beta=gbps(28.0)),
    LinkKind.XGMI2: LinkSpec(LinkKind.XGMI2, alpha=2.8 * us, beta=gbps(37.0)),
    # DRAM: staging-pool bandwidth usable by GPU bounce buffers, *shared*
    # across directions and across the read+write of staging.
    LinkKind.DRAM: LinkSpec(
        LinkKind.DRAM, alpha=0.5 * us, beta=gbps(36.0), full_duplex=False
    ),
}


__all__ = ["LinkKind", "LinkSpec", "CATALOG"]
