"""GPU events: record-on-stream / wait semantics (cudaEvent analogue)."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.gpu.errors import StreamError
from repro.sim.engine import Engine, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.stream import Stream


class GpuEvent:
    """A one-shot marker recorded into a stream's FIFO.

    Semantics follow CUDA: ``record`` enqueues the marker; the event
    "occurs" when all work enqueued before it on that stream has finished.
    Other streams ``wait_event`` on it; host code (simulated processes)
    yield :meth:`wait`.
    """

    def __init__(self, engine: Engine, name: str = "") -> None:
        self.engine = engine
        self.name = name
        self._occurred: Event | None = None
        self.record_time: float | None = None
        self.complete_time: float | None = None

    @property
    def recorded(self) -> bool:
        return self._occurred is not None

    @property
    def occurred(self) -> bool:
        return self._occurred is not None and self._occurred.triggered

    def record(self, stream: "Stream") -> "GpuEvent":
        """Enqueue this event marker on ``stream`` (re-record allowed only
        before the previous recording occurred is an error, like CUDA's
        undefined behaviour — we reject it).

        The marker is an instant op whose completion event is the
        occurrence itself: the stream succeeds it once the work ahead has
        drained.  On a poisoned stream it fails the occurrence with the
        stream's error, so cross-stream waiters fail instead of hanging.
        """
        if self._occurred is not None and not self._occurred.triggered:
            raise StreamError(f"event {self.name!r} re-recorded while pending")
        self._occurred = self.engine.event()
        self.record_time = self.engine.now
        stream.push(self._mark, self._occurred)
        return self

    def _mark(self) -> None:
        self.complete_time = self.engine.now

    def wait(self) -> Event:
        """Sim event that triggers when this GPU event occurs."""
        if self._occurred is None:
            raise StreamError(f"event {self.name!r} waited on before record")
        return self._occurred

    def elapsed_since(self, earlier: "GpuEvent") -> float:
        """Seconds between two completed events (cudaEventElapsedTime)."""
        if self.complete_time is None or earlier.complete_time is None:
            raise StreamError("elapsed_since requires both events completed")
        return self.complete_time - earlier.complete_time


__all__ = ["GpuEvent"]
