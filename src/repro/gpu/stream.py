"""In-order GPU streams (cudaStream analogue), run by completion callbacks.

A stream is a FIFO of op records: op *i+1* starts only after op *i*
finished, while different streams progress concurrently — the ordering
contract the multi-path pipeline engine builds on (one stream per path,
chunks in order within a path).  No engine process runs an op: the head
op starts from the completion callback of the op ahead of it (see
:meth:`Stream.push`).  The op kinds are copies
(``GPURuntime.copy_on_hop_async``), the two halves of a staged copy
(``GPURuntime.staged_copy_async``), :meth:`Stream.delay`,
:meth:`Stream.wait_event` and ``GpuEvent.record``.  A delay is a bare
engine timer whose callback completes the op: no
:class:`~repro.sim.engine.Timeout` is built.  Errors are sticky, loosely
like CUDA's: an op that fails, or whose start raises, fails its event and
every later op with the same exception.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable

from repro.gpu.errors import StreamError
from repro.sim.engine import Engine, Event

#: Returned by an op's ``start()`` when the op completes itself by calling
#: :meth:`Stream._resume` (a delay's timer callback and a staged copy do).
_RESUMES = object()


class Stream:
    """An in-order execution queue bound to a device."""

    def __init__(self, engine: Engine, device_id: int, name: str = "") -> None:
        self.engine = engine
        self.device_id = device_id
        self.name = name or f"stream(dev{device_id})"
        # (start, done) of every op not yet completed; the head is in flight
        # while the stream is busy.
        self._ops: deque[tuple[Callable[[], Event | None], Event]] = deque()
        self._busy = False
        self._error: BaseException | None = None
        self._tail: Event | None = None
        self._destroyed = False

    # ------------------------------------------------------------------
    def push(
        self, start: Callable[[], Event | None], done: Event | None = None
    ) -> Event:
        """Append an op; returns its completion event (``done`` if given).

        ``start()`` runs once every op ahead of it has completed, inside
        the last one's completion callback.  It returns the event the op
        completes with (its value becomes the op's), ``None`` for an op
        that completes at once, or ``_RESUMES`` for an op that calls
        :meth:`_resume` itself; the queue drains in a loop, so a run of
        instant ops does not recurse.
        """
        if self._destroyed:
            raise StreamError(f"{self.name}: enqueue after destroy")
        if done is None:
            done = self.engine.event()
        self._tail = done
        self._ops.append((start, done))
        if not self._busy:
            self._busy = True
            self._drain()
        return done

    def _drain(self) -> None:
        """Start head ops until one is in flight or the queue is empty."""
        ops = self._ops
        while ops:
            start, done = ops[0]
            inner = None
            if self._error is None:
                try:
                    inner = start()
                except Exception as exc:  # noqa: BLE001 - poisons the stream
                    self._error = exc
                else:
                    if inner is _RESUMES:
                        return
                    if inner is not None and not inner.triggered:
                        inner.add_callback(self._resume)
                        return
            ops.popleft()
            self._complete(done, inner)
        self._busy = False

    def _resume(self, inner: Event | None) -> None:
        """Complete the in-flight head op with ``inner`` (None: no value).

        When nothing is queued behind it the stream goes idle before the
        op's completion callbacks run, so an op they push starts inside
        the push, in order with the work they start on other streams.
        """
        ops = self._ops
        done = ops.popleft()[1]
        if ops:
            self._complete(done, inner)
            self._drain()
        else:
            self._busy = False
            self._complete(done, inner)

    def _fail(self, exc: BaseException) -> None:
        """Poison the stream with ``exc`` and fail the in-flight head op
        with it: the op's work, started from a completion callback, raised."""
        self._error = exc
        self._resume(None)

    def _complete(self, done: Event, inner: Event | None) -> None:
        if inner is not None and inner._exception is not None:
            self._error = inner._exception
        if self._error is not None:
            done.fail(self._error)
        else:
            done.succeed(None if inner is None else inner._value)

    # ------------------------------------------------------------------
    def _timer(self, seconds: float) -> object:
        """Start the head op's fixed cost: a timer that resumes the stream."""
        engine = self.engine
        engine.schedule_fn(engine.now + seconds, self._resume, None)
        return _RESUMES

    def delay(self, seconds: float) -> Event:
        """Enqueue a fixed-cost operation (sync overheads, kernel stubs)."""
        if seconds < 0:
            raise ValueError("negative delay")
        return self.push(lambda: self._timer(seconds))

    def wait_event(self, gpu_event) -> Event:
        """Enqueue a dependency: later ops wait until ``gpu_event`` occurs."""
        target = gpu_event.wait()
        return self.push(lambda: target)

    def synchronize(self) -> Event:
        """Sim event that triggers once all currently enqueued work drains."""
        if self._tail is None or self._tail.triggered:
            ev = self.engine.event()
            ev.succeed(None)
            return ev
        return self._tail

    @property
    def idle(self) -> bool:
        return self._tail is None or self._tail.triggered

    def destroy(self) -> None:
        self._destroyed = True

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Stream {self.name} queued={len(self._ops)}>"


__all__ = ["Stream"]
