"""Simulated CUDA-like runtime.

Provides the semantics the paper's pipeline engine relies on, on top of the
discrete-event fabric:

* :class:`~repro.gpu.runtime.GPURuntime` — devices + fabric for one node,
  and async copies mapped onto fabric channels;
* :class:`~repro.gpu.stream.Stream` — FIFO in-order execution queues,
  run from completion callbacks (no process per op);
* :class:`~repro.gpu.event.GpuEvent` — record / wait cross-stream sync;
* :class:`~repro.gpu.ipc.IpcHandleCache` — CUDA-IPC handle open costs with
  caching (mirrors UCX cuda_ipc's handle-translation cache).
"""

from repro.gpu.errors import GpuError, InvalidDevice, StreamError
from repro.gpu.event import GpuEvent
from repro.gpu.ipc import IpcHandleCache
from repro.gpu.runtime import Device, GPURuntime
from repro.gpu.stream import Stream

__all__ = [
    "GPURuntime",
    "Device",
    "Stream",
    "GpuEvent",
    "IpcHandleCache",
    "GpuError",
    "InvalidDevice",
    "StreamError",
]
