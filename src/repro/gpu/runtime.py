"""The per-node GPU runtime: devices, streams, and copy primitives.

:class:`GPURuntime` binds a :class:`~repro.topology.node.NodeTopology` to a
live :class:`~repro.sim.fabric.Fabric` and exposes the CUDA-ish operations
the transport layer needs:

* create and destroy streams on devices;
* enqueue async copies along a topology hop (direct peer copy, d2h, h2d):
  a copy is a stream op record that calls ``fabric.copy`` when it reaches
  the head of its stream and completes with the fabric's
  :class:`~repro.sim.fabric.TransferResult` (no engine process per copy);
* per-device sync overhead constants (the model's ε);
* an IPC handle cache shared by the node's "processes".
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.gpu.errors import InvalidDevice
from repro.gpu.event import GpuEvent
from repro.gpu.ipc import IpcHandleCache
from repro.gpu.stream import Stream
from repro.sim.engine import Engine, Event
from repro.sim.fabric import Fabric
from repro.sim.trace import Tracer
from repro.topology.node import NodeTopology
from repro.topology.routing import Hop


@dataclass
class Device:
    """One simulated GPU."""

    device_id: int
    numa: int
    streams: list[Stream] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Device {self.device_id} numa={self.numa}>"


class GPURuntime:
    """Devices + fabric for one node."""

    def __init__(
        self,
        engine: Engine,
        topology: NodeTopology,
        *,
        tracer: Tracer | None = None,
        jitter_factory: Callable | None = None,
        ipc_open_cost: float | None = None,
    ) -> None:
        self.engine = engine
        self.topology = topology
        self.tracer = tracer
        self.fabric: Fabric = topology.build_fabric(
            engine, tracer=tracer, jitter_factory=jitter_factory
        )
        self.devices = [
            Device(device_id=g, numa=topology.gpu_numa[g])
            for g in range(topology.num_gpus)
        ]
        kwargs = {} if ipc_open_cost is None else {"open_cost": ipc_open_cost}
        self.ipc = IpcHandleCache(engine, **kwargs)
        self._stream_count = 0
        # run-level counters (always on: one int add per enqueued copy)
        self.copies_issued = 0
        self.copy_bytes_requested = 0

    # ------------------------------------------------------------------
    def device(self, device_id: int) -> Device:
        if not 0 <= device_id < len(self.devices):
            raise InvalidDevice(f"device {device_id} out of range")
        return self.devices[device_id]

    def create_stream(self, device_id: int, name: str = "") -> Stream:
        dev = self.device(device_id)
        self._stream_count += 1
        stream = Stream(
            self.engine,
            device_id,
            name or f"dev{device_id}/s{self._stream_count}",
        )
        dev.streams.append(stream)
        return stream

    def destroy_stream(self, stream: Stream) -> None:
        """Destroy ``stream`` and drop it from its device.

        Later enqueues on it raise; ops already queued still run (or fail)
        to completion.
        """
        stream.destroy()
        self.devices[stream.device_id].streams.remove(stream)

    def create_event(self, name: str = "") -> GpuEvent:
        return GpuEvent(self.engine, name)

    # ------------------------------------------------------------------
    # Copies
    # ------------------------------------------------------------------
    def copy_on_hop_async(
        self,
        hop: Hop,
        nbytes: int,
        stream: Stream,
        *,
        tag: str = "",
        flows: list | None = None,
    ) -> Event:
        """Enqueue a DMA copy along a topology hop on ``stream``.

        With ``flows`` given, the copy's fabric flow event is appended to
        it when the op starts, so a deadline watchdog can abort exactly
        the flows its path issued.
        """
        self.copies_issued += 1
        self.copy_bytes_requested += nbytes
        if flows is None:
            return stream.push(lambda: self.fabric.copy(hop, nbytes, tag=tag))

        def start() -> Event:
            flow = self.fabric.copy(hop, nbytes, tag=tag)
            flows.append(flow)
            return flow

        return stream.push(start)

    def peer_copy_async(
        self, src: int, dst: int, nbytes: int, stream: Stream, *, tag: str = ""
    ) -> Event:
        """cudaMemcpyPeerAsync over the direct link."""
        hop = self.topology.direct_hop(src, dst)
        return self.copy_on_hop_async(hop, nbytes, stream, tag=tag or f"p2p:{src}->{dst}")

    def d2h_copy_async(
        self, gpu: int, numa: int, nbytes: int, stream: Stream, *, tag: str = ""
    ) -> Event:
        hop = self.topology.d2h_hop(gpu, numa)
        return self.copy_on_hop_async(hop, nbytes, stream, tag=tag or f"d2h:{gpu}")

    def h2d_copy_async(
        self, gpu: int, numa: int, nbytes: int, stream: Stream, *, tag: str = ""
    ) -> Event:
        hop = self.topology.h2d_hop(gpu, numa)
        return self.copy_on_hop_async(hop, nbytes, stream, tag=tag or f"h2d:{gpu}")

    # ------------------------------------------------------------------
    def sync_cost(self, *, via_gpu: bool) -> float:
        """ε: cost of the staging-point synchronization (paper Table 1)."""
        return self.topology.sync_epsilon(via_gpu=via_gpu)

    def open_ipc(self, owner: int, peer: int) -> Event:
        """Ensure the peer mapping exists (cached cudaIpcOpenMemHandle)."""
        self.device(owner)
        self.device(peer)
        return self.ipc.open(owner, peer)

    def synchronize_all(self) -> Event:
        """Barrier over every stream on every device."""
        tails = [
            s.synchronize() for dev in self.devices for s in dev.streams
        ]
        return self.engine.all_of(tails)

    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """Structured run statistics, pulled by a metrics collector."""
        return {
            "copies_issued": self.copies_issued,
            "copy_bytes_requested": self.copy_bytes_requested,
            "streams_created": self._stream_count,
            "streams_per_device": {
                d.device_id: len(d.streams) for d in self.devices
            },
            "ipc_cache": self.ipc.cache.stats(),
        }


__all__ = ["GPURuntime", "Device"]
