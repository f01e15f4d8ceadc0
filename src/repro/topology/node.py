"""Node topology: devices, NUMA domains and physical channels.

A :class:`NodeTopology` is a *description* (no simulation state).  It knows

* which GPU pairs have direct links and which channels a copy between any
  two endpoints occupies (including PCIe + DRAM + UPI for host staging);
* the synchronization overhead ``epsilon`` charged at each staging device
  (paper Table 1);
* how to instantiate a :class:`repro.sim.fabric.Fabric` with one channel per
  physical resource.

Use :class:`TopologyBuilder` (or the ready-made systems in
:mod:`repro.topology.systems`) to construct instances.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.sim.engine import Engine
from repro.sim.fabric import Fabric
from repro.sim.trace import Tracer
from repro.topology.links import LinkKind, LinkSpec
from repro.topology.routing import Hop
from repro.units import us


@dataclass(frozen=True)
class ChannelDef:
    """One physical resource to be simulated as a fabric channel."""

    name: str
    kind: LinkKind
    alpha: float
    beta: float


@dataclass
class SyncOverheads:
    """Per-staging-device synchronization cost (the model's epsilon).

    These are the costs of the event/stream synchronization inserted between
    the two hops of a staged transfer (paper §3.4 step 2).
    """

    gpu: float = 3.0 * us
    host: float = 6.0 * us


class NodeTopology:
    """Immutable description of one multi-GPU node."""

    def __init__(
        self,
        name: str,
        num_gpus: int,
        gpu_numa: list[int],
        channels: dict[str, ChannelDef],
        direct_links: dict[tuple[int, int], Hop],
        pcie_d2h: dict[int, str],
        pcie_h2d: dict[int, str],
        dram: dict[int, str],
        upi: dict[tuple[int, int], str],
        sync: SyncOverheads,
        staging_numa_policy: str = "sender",
    ) -> None:
        if num_gpus < 2:
            raise ValueError("a node needs at least 2 GPUs")
        if len(gpu_numa) != num_gpus:
            raise ValueError("gpu_numa must have one entry per GPU")
        if staging_numa_policy not in ("sender", "receiver"):
            raise ValueError("staging_numa_policy must be 'sender' or 'receiver'")
        self.name = name
        self.num_gpus = num_gpus
        self.gpu_numa = list(gpu_numa)
        self.num_numa = max(gpu_numa) + 1
        self.channels = dict(channels)
        self._direct = dict(direct_links)
        self._pcie_d2h = dict(pcie_d2h)
        self._pcie_h2d = dict(pcie_h2d)
        self._dram = dict(dram)
        self._upi = dict(upi)
        self.sync = sync
        self.staging_numa_policy = staging_numa_policy
        self._validate()

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        for (i, j), hop in self._direct.items():
            for ch in hop:
                if ch not in self.channels:
                    raise ValueError(f"direct link {i}->{j} uses unknown channel {ch}")
        for table, label in (
            (self._pcie_d2h, "pcie_d2h"),
            (self._pcie_h2d, "pcie_h2d"),
        ):
            for gpu in range(self.num_gpus):
                if gpu not in table:
                    raise ValueError(f"GPU {gpu} missing {label} channel")
                if table[gpu] not in self.channels:
                    raise ValueError(f"{label}[{gpu}] unknown channel {table[gpu]}")
        for numa in set(self.gpu_numa):
            if numa not in self._dram:
                raise ValueError(f"NUMA {numa} has no DRAM channel")

    # ------------------------------------------------------------------
    # Link queries
    # ------------------------------------------------------------------
    def has_direct(self, src: int, dst: int) -> bool:
        return (src, dst) in self._direct

    def direct_hop(self, src: int, dst: int) -> Hop:
        try:
            return self._direct[(src, dst)]
        except KeyError:
            raise ValueError(f"no direct link between GPU {src} and GPU {dst}") from None

    def staging_numa(self, src: int, dst: int) -> int:
        gpu = src if self.staging_numa_policy == "sender" else dst
        return self.gpu_numa[gpu]

    def _upi_path(self, numa_from: int, numa_to: int) -> tuple[str, ...]:
        """UPI channels crossed between two NUMA domains (direct link or none)."""
        if numa_from == numa_to:
            return ()
        key = (numa_from, numa_to)
        if key in self._upi:
            return (self._upi[key],)
        raise ValueError(f"no UPI link from NUMA {numa_from} to NUMA {numa_to}")

    def d2h_hop(self, gpu: int, numa: int) -> Hop:
        """Channels occupied by a GPU→host copy into a buffer on ``numa``."""
        return (
            self._pcie_d2h[gpu],
            *self._upi_path(self.gpu_numa[gpu], numa),
            self._dram[numa],
        )

    def h2d_hop(self, gpu: int, numa: int) -> Hop:
        """Channels occupied by a host→GPU copy from a buffer on ``numa``."""
        return (
            self._dram[numa],
            *self._upi_path(numa, self.gpu_numa[gpu]),
            self._pcie_h2d[gpu],
        )

    def host_hops(self, src: int, dst: int) -> tuple[Hop, Hop]:
        """The two hops of the host-staged path (src→DRAM, DRAM→dst)."""
        numa = self.staging_numa(src, dst)
        return self.d2h_hop(src, numa), self.h2d_hop(dst, numa)

    # ------------------------------------------------------------------
    # Ground-truth hop parameters (capacity view; sharing is the fabric's job)
    # ------------------------------------------------------------------
    def hop_alpha(self, hop: Hop) -> float:
        return sum(self.channels[c].alpha for c in hop)

    def hop_beta(self, hop: Hop) -> float:
        return min(self.channels[c].beta for c in hop)

    def sync_epsilon(self, via_gpu: bool) -> float:
        return self.sync.gpu if via_gpu else self.sync.host

    # ------------------------------------------------------------------
    def build_fabric(
        self,
        engine: Engine,
        *,
        tracer: Tracer | None = None,
        jitter_factory: Callable[[ChannelDef], Callable[[int], float] | None]
        | None = None,
    ) -> Fabric:
        """Instantiate a fabric with one channel per physical resource.

        ``jitter_factory`` may return a per-channel jitter model (or None);
        it receives the :class:`ChannelDef` so noise can differ by link kind.
        """
        fabric = Fabric(engine, tracer=tracer)
        for cdef in self.channels.values():
            jitter = jitter_factory(cdef) if jitter_factory is not None else None
            fabric.add_channel(cdef.name, cdef.alpha, cdef.beta, jitter=jitter)
        return fabric

    # ------------------------------------------------------------------
    def describe(self) -> str:
        lines = [f"NodeTopology {self.name!r}: {self.num_gpus} GPUs, "
                 f"{self.num_numa} NUMA domain(s)"]
        for (i, j) in sorted(self._direct):
            hop = self._direct[(i, j)]
            lines.append(
                f"  GPU{i}->GPU{j}: {'+'.join(hop)} "
                f"(beta={self.hop_beta(hop) / 1e9:.1f}GB/s)"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<NodeTopology {self.name} gpus={self.num_gpus}>"


class TopologyBuilder:
    """Fluent builder for :class:`NodeTopology`.

    >>> b = TopologyBuilder("demo", num_gpus=2)
    >>> b.auto_numa(1)
    >>> b.add_gpu_link(0, 1, spec)       # doctest: +SKIP
    >>> topo = b.build()                  # doctest: +SKIP
    """

    def __init__(self, name: str, num_gpus: int) -> None:
        self.name = name
        self.num_gpus = num_gpus
        self.gpu_numa: list[int] = [0] * num_gpus
        self.channels: dict[str, ChannelDef] = {}
        self.direct: dict[tuple[int, int], Hop] = {}
        self.pcie_d2h: dict[int, str] = {}
        self.pcie_h2d: dict[int, str] = {}
        self.dram: dict[int, str] = {}
        self.upi: dict[tuple[int, int], str] = {}
        self.sync = SyncOverheads()
        self.staging_numa_policy = "sender"

    def _channel(self, name: str, kind: LinkKind, alpha: float, beta: float) -> str:
        if name in self.channels:
            raise ValueError(f"duplicate channel {name}")
        self.channels[name] = ChannelDef(name, kind, alpha, beta)
        return name

    def auto_numa(self, num_numa: int) -> "TopologyBuilder":
        """Distribute GPUs round-robin-block over ``num_numa`` domains."""
        per = max(1, self.num_gpus // num_numa)
        self.gpu_numa = [min(g // per, num_numa - 1) for g in range(self.num_gpus)]
        return self

    def set_gpu_numa(self, mapping: list[int]) -> "TopologyBuilder":
        if len(mapping) != self.num_gpus:
            raise ValueError("mapping length mismatch")
        self.gpu_numa = list(mapping)
        return self

    def add_gpu_link(self, a: int, b: int, spec: LinkSpec) -> "TopologyBuilder":
        """Add a direct GPU↔GPU link (one channel per direction)."""
        fwd = self._channel(f"nvl:{a}->{b}", spec.kind, spec.alpha, spec.beta)
        rev = self._channel(f"nvl:{b}->{a}", spec.kind, spec.alpha, spec.beta)
        self.direct[(a, b)] = (fwd,)
        self.direct[(b, a)] = (rev,)
        return self

    def add_shared_gpu_link(
        self, a: int, b: int, channel_names: Hop, reverse_names: Hop
    ) -> "TopologyBuilder":
        """Route a GPU pair over already-created channels (NVSwitch ports)."""
        for ch in (*channel_names, *reverse_names):
            if ch not in self.channels:
                raise ValueError(f"unknown channel {ch}")
        self.direct[(a, b)] = tuple(channel_names)
        self.direct[(b, a)] = tuple(reverse_names)
        return self

    def add_switch_port(
        self, label: str, spec: LinkSpec
    ) -> tuple[str, str]:
        """Create a pair of per-direction switch-port channels; returns names."""
        up = self._channel(f"{label}:up", spec.kind, spec.alpha, spec.beta)
        down = self._channel(f"{label}:down", spec.kind, spec.alpha, spec.beta)
        return up, down

    def add_pcie(self, gpu: int, spec: LinkSpec) -> "TopologyBuilder":
        d2h = self._channel(f"pcie:{gpu}:d2h", spec.kind, spec.alpha, spec.beta)
        h2d = self._channel(f"pcie:{gpu}:h2d", spec.kind, spec.alpha, spec.beta)
        self.pcie_d2h[gpu] = d2h
        self.pcie_h2d[gpu] = h2d
        return self

    def add_dram(self, numa: int, spec: LinkSpec) -> "TopologyBuilder":
        """One *shared* staging-bandwidth channel per NUMA domain."""
        self.dram[numa] = self._channel(f"dram:{numa}", spec.kind, spec.alpha, spec.beta)
        return self

    def add_upi(self, numa_a: int, numa_b: int, spec: LinkSpec) -> "TopologyBuilder":
        fwd = self._channel(f"upi:{numa_a}->{numa_b}", spec.kind, spec.alpha, spec.beta)
        rev = self._channel(f"upi:{numa_b}->{numa_a}", spec.kind, spec.alpha, spec.beta)
        self.upi[(numa_a, numa_b)] = fwd
        self.upi[(numa_b, numa_a)] = rev
        return self

    def set_sync(self, gpu: float | None = None, host: float | None = None) -> "TopologyBuilder":
        if gpu is not None:
            self.sync.gpu = gpu
        if host is not None:
            self.sync.host = host
        return self

    def build(self) -> NodeTopology:
        return NodeTopology(
            name=self.name,
            num_gpus=self.num_gpus,
            gpu_numa=self.gpu_numa,
            channels=self.channels,
            direct_links=self.direct,
            pcie_d2h=self.pcie_d2h,
            pcie_h2d=self.pcie_h2d,
            dram=self.dram,
            upi=self.upi,
            sync=self.sync,
            staging_numa_policy=self.staging_numa_policy,
        )


__all__ = ["NodeTopology", "TopologyBuilder", "ChannelDef", "SyncOverheads"]
