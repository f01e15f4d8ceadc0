"""The per-node GPU runtime: devices, streams, and copy primitives.

:class:`GPURuntime` binds a :class:`~repro.topology.node.NodeTopology` to a
live :class:`~repro.sim.fabric.Fabric` and exposes the CUDA-ish operations
the transport layer needs:

* create and destroy streams on devices;
* enqueue async copies along a topology hop (direct peer copy, d2h, h2d):
  a copy is a stream op record that calls ``fabric.copy`` when it reaches
  the head of its stream and completes with the fabric's
  :class:`~repro.sim.fabric.TransferResult` (no engine process per copy);
* enqueue a staged copy, the §3.4 chunk loop over two hops, as one op on
  each of its two streams;
* per-device sync overhead constants (the model's ε);
* an IPC handle cache shared by the node's "processes".
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.gpu.errors import InvalidDevice
from repro.gpu.event import GpuEvent
from repro.gpu.ipc import IpcHandleCache
from repro.gpu.stream import _RESUMES, Stream
from repro.sim.engine import Engine, Event
from repro.sim.fabric import Fabric
from repro.sim.trace import Tracer
from repro.topology.node import NodeTopology
from repro.topology.routing import Hop


class _StagedCopy:
    """One staged copy's chunk loop, run as one op on each of two streams.

    Stream ``a``'s op copies the chunks' first hops back to back, each
    from the completion callback of the one before.  Stream ``b``'s op
    takes the chunks in turn: once a chunk's first hop has landed it runs
    the ε sync (a bare engine timer), then copies the chunk's second hop.
    Every copy and every timer starts at the instant, and in the order,
    that separate per-chunk ops (a copy on ``a``; a wait, a delay and a
    copy on ``b``) would start it:

    * when a first hop that is not the last one lands, the ε timer of a
      ``b`` waiting for that chunk is scheduled before the next first hop
      starts;
    * the last first hop completes ``a``'s op through
      :meth:`Stream._resume`, and a ``b`` waiting for the last chunk is
      released by a callback on that op's event.

    Errors stay sticky.  A copy that fails, or whose start raises, fails
    its stream's op with that exception and poisons the stream; ``b``
    fails with ``a``'s exception once it reaches a chunk whose first hop
    did not land, at once if ``a``'s op failed without running.
    """

    __slots__ = (
        "runtime", "hop1", "hop2", "sizes", "a", "b", "epsilon", "tag",
        "h1_suffixes", "h2_suffixes", "flows", "a_done", "arrived", "chunk",
        "waiting", "finals",
    )

    def __init__(
        self, runtime, hop1, hop2, sizes, a, b, epsilon, tag,
        h1_suffixes, h2_suffixes, flows,
    ) -> None:
        self.runtime = runtime
        self.hop1 = hop1
        self.hop2 = hop2
        self.sizes = sizes
        self.a = a
        self.b = b
        self.epsilon = epsilon
        self.tag = tag
        self.h1_suffixes = h1_suffixes
        self.h2_suffixes = h2_suffixes
        self.flows = flows
        self.a_done = runtime.engine.event()  # a's op event
        self.arrived = 0  # chunks whose first hop has landed
        self.chunk = 0  # the chunk b is on
        self.waiting = False  # b waits for its chunk's first hop
        self.finals: list[Event] = []  # second-hop copies that landed

    def _copy(self, hop, c: int, suffixes, landed) -> None:
        # fabric.copy is looked up per copy: a layer tracer may wrap it
        flow = self.runtime.fabric.copy(
            hop, self.sizes[c], tag=self.tag + suffixes[c]
        )
        if self.flows is not None:
            self.flows.append(flow)
        flow.add_callback(landed)

    # -- stream a: the first hops -----------------------------------------
    def first_hops(self) -> object:
        """``a``'s op: start chunk 0's first hop."""
        self._copy(self.hop1, 0, self.h1_suffixes, self._arrived)
        return _RESUMES

    def _arrived(self, flow: Event) -> None:
        c = self.arrived
        failed = flow._exception is not None
        if not failed:
            self.arrived = c + 1
        if c + 1 == len(self.sizes):
            self.a._resume(flow)  # completes a's op: see _first_hops_done
            return
        if self.waiting:  # b waits for chunk c
            self.waiting = False
            if failed:
                self.b._resume(flow)
            else:
                self._sync()
        if failed:
            self.a._resume(flow)
            return
        try:
            self._copy(self.hop1, c + 1, self.h1_suffixes, self._arrived)
        except Exception as exc:  # noqa: BLE001 - poisons the stream
            self.a._fail(exc)

    def _first_hops_done(self, done: Event) -> None:
        """``a``'s op completed or failed: release a ``b`` still waiting."""
        if self.waiting:
            self.waiting = False
            if done._exception is not None:
                self.b._resume(done)
            else:
                self._sync()

    # -- stream b: the ε syncs and the second hops --------------------------
    def forward(self) -> object:
        """``b``'s op: take chunk 0."""
        if not self.a_done.triggered:
            self.a_done.add_callback(self._first_hops_done)
        return self._next_chunk()

    def _next_chunk(self) -> object:
        """Sync ``b``'s chunk once its first hop has landed.

        Returns ``_RESUMES``, or ``a``'s failed op event when the chunk's
        first hop will never land.
        """
        if self.chunk < self.arrived:
            self._sync()
            return _RESUMES
        if self.a_done.triggered:
            return self.a_done
        self.waiting = True
        return _RESUMES

    def _sync(self) -> None:
        engine = self.runtime.engine
        engine.schedule_fn(engine.now + self.epsilon, self._synced, None)

    def _synced(self, _arg) -> None:
        try:
            self._copy(self.hop2, self.chunk, self.h2_suffixes, self._delivered)
        except Exception as exc:  # noqa: BLE001 - poisons the stream
            self.b._fail(exc)

    def _delivered(self, flow: Event) -> None:
        b = self.b
        if flow._exception is not None:
            b._resume(flow)
            return
        self.finals.append(flow)
        c = self.chunk = self.chunk + 1
        if c == len(self.sizes):
            b._resume(flow)
            return
        nxt = self._next_chunk()
        if nxt is not _RESUMES:
            b._resume(nxt)


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
        self.ipc = IpcHandleCache(engine)
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

    def staged_copy_async(
        self,
        hop1: Hop,
        hop2: Hop,
        chunk_sizes: Sequence[int],
        stream1: Stream,
        stream2: Stream,
        epsilon: float,
        *,
        tag: str,
        suffixes: tuple[Sequence[str], Sequence[str]],
        flows: list | None = None,
    ) -> tuple[Event, list[Event]]:
        """Enqueue a staged copy (§3.4): each chunk over ``hop1`` on
        ``stream1``, then, on ``stream2``, the ε sync once it has landed
        and the chunk over ``hop2``.  Chunk ``c``'s copies are tagged
        ``tag + suffixes[0][c]`` and ``tag + suffixes[1][c]``.

        The loop is one op on each stream, and each stream moves on to the
        next chunk from a copy's completion callback, so consecutive
        chunks' hops overlap (Eq. 13).  Returns ``stream2``'s op event,
        which completes with the last chunk's second hop, and the list the
        landed second-hop copy events are appended to, in chunk order.
        With ``flows`` given, each copy's fabric event is appended to it
        when the copy starts.
        """
        if not chunk_sizes:
            raise ValueError("a staged copy needs at least one chunk")
        if epsilon < 0:
            raise ValueError("negative delay")
        self.copies_issued += 2 * len(chunk_sizes)
        self.copy_bytes_requested += 2 * sum(chunk_sizes)
        run = _StagedCopy(
            self, hop1, hop2, chunk_sizes, stream1, stream2, epsilon, tag,
            suffixes[0], suffixes[1], flows,
        )
        stream1.push(run.first_hops, run.a_done)
        return stream2.push(run.forward), run.finals

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
