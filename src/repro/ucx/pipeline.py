"""The multi-path pipeline engine (paper Fig. 2a Step 5, and [35]).

Executes a :class:`~repro.core.planner.TransferPlan` on the simulated GPU
runtime.  Per path:

* **direct** — one peer copy on the path's source-side stream;
* **staged** — the three-step chunk loop of §3.4: copy chunk to the staging
  device on stream A, synchronize (ε, modelled as a fixed-cost stream op),
  forward on stream B.  Stream A immediately proceeds to the next chunk's
  first hop, so the two hops of consecutive chunks overlap — the pipelining
  the model's Eq. (13) describes.

Streams are pooled per (src, dst, path) so back-to-back transfers (OSU
windowed loops) reuse queues exactly like the real engine reuses its CUDA
streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.planner import PathAssignment, TransferPlan
from repro.core.transfer_graph import compile_plan
from repro.gpu.errors import LinkFailure, TransferTimeout
from repro.gpu.runtime import GPURuntime
from repro.gpu.stream import Stream
from repro.sim.engine import Engine, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.transfer_graph import CompiledPath, TransferGraph

#: Precomputed flight-span kind strings for the common fan-outs, so the
#: traced hot path never builds an f-string (plans rarely exceed a handful
#: of paths; chunk counts are capped by TransportConfig.max_chunks).
_KIND_CACHE_PATHS = 8
_KIND_CACHE_CHUNKS = 32
_PATH_KINDS = tuple(f"pipeline.path[{i}]" for i in range(_KIND_CACHE_PATHS))
_CHUNK_KINDS = tuple(
    tuple(
        f"pipeline.path[{i}].chunk[{j}]" for j in range(_KIND_CACHE_CHUNKS)
    )
    for i in range(_KIND_CACHE_PATHS)
)


def _path_kind(path_index: int) -> str:
    if path_index < _KIND_CACHE_PATHS:
        return _PATH_KINDS[path_index]
    return f"pipeline.path[{path_index}]"


#: Memoised chunk schedules, keyed ``(nbytes, k)``.  The split is pure and
#: recomputed per path per transfer on the hot path; repeated traffic hits
#: a handful of shapes.  Bounded so adversarial size streams cannot grow it;
#: on overflow new shapes are computed without being cached.
_CHUNK_MEMO: dict[tuple[int, int], list[int]] = {}
_CHUNK_MEMO_CAP = 4096


@dataclass(frozen=True)
class PathExecution:
    """Per-path accounting returned by the engine."""

    path_id: str
    nbytes: int
    chunks: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class _PathProgress:
    """Observer attached to a path's copies: destination-delivered bytes
    plus the timestamp at which the path's process failed (if it did)."""

    delivered: int = 0
    failed_at: float | None = None


@dataclass(frozen=True)
class PathFault:
    """One failed/timed-out path of a settled execution."""

    path_id: str
    nbytes: int  # bytes the plan assigned to this path
    delivered: int  # bytes confirmed delivered at the destination
    start: float
    end: float  # time the path's process failed
    error: BaseException

    @property
    def missing(self) -> int:
        return self.nbytes - self.delivered


@dataclass(frozen=True)
class SettledExecution:
    """Outcome of :meth:`PipelineEngine.execute`: every path ran to
    completion or to a typed failure."""

    executions: tuple[PathExecution, ...] = ()
    faults: tuple[PathFault, ...] = field(default_factory=tuple)

    @property
    def delivered(self) -> int:
        return sum(e.nbytes for e in self.executions) + sum(
            f.delivered for f in self.faults
        )

    @property
    def ok(self) -> bool:
        return not self.faults


class PipelineEngine:
    """Executes transfer plans over the GPU runtime."""

    def __init__(self, runtime: GPURuntime, *, flight=None) -> None:
        self.runtime = runtime
        self.engine: Engine = runtime.engine
        self.flight = flight  # FlightRecorder, wired by the context
        self._stream_pool: dict[tuple, Stream] = {}
        self.transfers_executed = 0
        self.transfers_replayed = 0
        self.paths_executed = 0
        self.chunks_executed = 0
        self.paths_failed = 0
        self.watchdog_timeouts = 0
        self.streams_reset = 0

    # ------------------------------------------------------------------
    def _stream(self, key: tuple, device: int) -> Stream:
        stream = self._stream_pool.get(key)
        if stream is None:
            stream = self.runtime.create_stream(device, name=f"pipe:{key}")
            self._stream_pool[key] = stream
        return stream

    # ------------------------------------------------------------------
    def execute(
        self,
        plan: TransferPlan,
        *,
        tag: str = "",
        deadline_factor: float | None = None,
        trace: tuple[int, int] = (-1, -1),
        graph: "TransferGraph | None" = None,
    ) -> Event:
        """Run all paths of ``plan`` concurrently and *settle* every one.

        The returned process waits for each path to either complete or fail
        with a typed error (:class:`~repro.gpu.errors.LinkFailure` /
        :class:`~repro.gpu.errors.TransferTimeout`) and succeeds with a
        :class:`SettledExecution` carrying both outcomes (completion = the
        slowest path, Eq. 4); the recovery layer needs every path's
        delivered-byte count to replan the remainder.  With
        ``deadline_factor`` set, each path gets a watchdog that aborts its
        in-flight copies once ``predicted T_i x factor`` elapses.
        Non-transfer errors propagate unchanged.

        ``trace`` is the flight-recorder identity (``trace_id, parent_sid``)
        the per-path spans attach under.  ``graph`` replays a cached
        compiled schedule; without one the plan is compiled one-shot, which
        bypasses the :class:`~repro.core.transfer_graph.GraphCache`, so
        ``transfers_replayed`` counts cached replays only.
        """
        return self.engine.process(
            self._settled_proc(plan, tag, deadline_factor, trace, graph),
            name=f"settle:{tag or f'{plan.src}->{plan.dst}'}",
        )

    #: Former name of :meth:`execute`; ``benchmarks/e2e/layertrace.py``
    #: looks up both names when it instruments a pipeline.
    execute_settled = execute

    def _settled_proc(
        self,
        plan: TransferPlan,
        tag: str,
        deadline_factor: float | None,
        trace: tuple[int, int] = (-1, -1),
        graph: "TransferGraph | None" = None,
    ):
        active = plan.active_assignments
        if not active:
            return SettledExecution()
        self.transfers_executed += 1
        if graph is None:
            compiled = compile_plan(plan, self)
        else:
            self.transfers_replayed += 1
            compiled = graph.paths
        t0 = self.engine.now
        entries: list[tuple[PathAssignment, Event, _PathProgress]] = []
        for i, a in enumerate(active):
            progress = _PathProgress()
            proc = self.engine.process(
                self._run_path(
                    compiled[i], tag, progress, trace=trace, path_index=i
                ),
                name=f"path:{a.path.path_id}",
            )
            proc.add_callback(
                lambda ev, p=progress: (
                    None if ev.ok else setattr(p, "failed_at", self.engine.now)
                )
            )
            entries.append((a, proc, progress))
        if deadline_factor is not None:
            for a, proc, _ in entries:
                self.engine.process(
                    self._watchdog(
                        proc, a, tag, self._path_deadline(plan, a, deadline_factor)
                    ),
                    name=f"watchdog:{a.path.path_id}",
                )
        execs: list[PathExecution] = []
        faults: list[PathFault] = []
        for a, proc, progress in entries:
            try:
                execs.append((yield proc))
            except (LinkFailure, TransferTimeout) as exc:
                self.paths_failed += 1
                self.reset_path_streams(plan.src, plan.dst, a.path.path_id)
                failed_at = (
                    progress.failed_at
                    if progress.failed_at is not None
                    else self.engine.now
                )
                faults.append(
                    PathFault(
                        path_id=a.path.path_id,
                        nbytes=a.nbytes,
                        delivered=progress.delivered,
                        start=t0,
                        end=failed_at,
                        error=exc,
                    )
                )
        return SettledExecution(tuple(execs), tuple(faults))

    # ------------------------------------------------------------------
    @staticmethod
    def _path_deadline(
        plan: TransferPlan, a: PathAssignment, factor: float
    ) -> float:
        """Watchdog deadline: the model's own per-path prediction
        (Eq. 4's T_i = theta_i·n·Ω_i + Δ_i) scaled by the slack factor."""
        predicted = a.theta * plan.nbytes * a.effective.omega + a.effective.delta
        return factor * max(predicted, 1e-6)

    def _watchdog(self, proc: Event, a: PathAssignment, tag: str, deadline: float):
        """Abort a path's in-flight fabric flows once its deadline passes.

        The kill is delivered *through the fabric* (flows fail, streams
        poison, the path process raises) so the unwind path is the same one
        hard link failures take.  A path stuck outside the fabric for a
        moment (e.g. in the ε sync delay) is re-checked a bounded number of
        times rather than force-killed.
        """
        label = f"{tag}/{a.path.path_id}" if tag else a.path.path_id
        prefix = f"{label}:"
        expiry = self.engine.timeout(deadline)
        try:
            idx, _ = yield self.engine.any_of([proc, expiry])
        except (LinkFailure, TransferTimeout):
            self.engine.cancel(expiry)
            return  # the path already failed on its own; nothing to abort
        if idx == 0:
            self.engine.cancel(expiry)
            return  # path completed within its deadline
        self.watchdog_timeouts += 1
        fabric = self.runtime.fabric
        recheck = max(deadline * 0.25, 1e-6)
        for _ in range(64):
            if proc.triggered:
                return
            fabric.fail_flows_matching(
                lambda f: f.tag.startswith(prefix),
                lambda f: TransferTimeout(a.path.path_id, deadline),
            )
            if proc.triggered:
                return
            yield self.engine.timeout(recheck)

    # ------------------------------------------------------------------
    def leaked_streams(self) -> list[tuple[tuple, str]]:
        """Pooled streams unusable for future work (sanitizer check).

        At quiescence every pooled stream should be alive and idle: a
        destroyed stream still pooled would raise on the next enqueue, a
        poisoned one (failed tail — sticky error never cleaned up by
        :meth:`reset_path_streams`) would fail it instantly, and a busy one
        means work outlived the run.  Returns ``(pool_key, reason)`` pairs.
        """
        leaked: list[tuple[tuple, str]] = []
        for key, stream in self._stream_pool.items():
            tail = stream._tail
            if stream._destroyed:
                leaked.append((key, "destroyed"))
            elif tail is not None and tail.triggered and not tail.ok:
                leaked.append((key, "poisoned"))
            elif not stream.idle:
                leaked.append((key, "busy"))
        return leaked

    # ------------------------------------------------------------------
    def reset_path_streams(self, src: int, dst: int, path_id: str) -> int:
        """Drop and destroy a path's pooled streams after a failure.

        Stream errors are sticky (CUDA-style: a failed op poisons every
        later op on the queue), so a retry reusing the pooled stream would
        fail instantly.  Dropping the pool entries gives the next execution
        fresh queues; destroying the dropped streams takes them off their
        devices too.  Returns the number of streams dropped.
        """
        dropped = 0
        for role in ("direct", "h1", "h2"):
            stream = self._stream_pool.pop((src, dst, path_id, role), None)
            if stream is not None:
                self.runtime.destroy_stream(stream)
                dropped += 1
        self.streams_reset += dropped
        return dropped

    # ------------------------------------------------------------------
    def _run_path(
        self,
        compiled: "CompiledPath",
        tag: str,
        progress: _PathProgress,
        *,
        trace: tuple[int, int] = (-1, -1),
        path_index: int = 0,
    ):
        a = compiled.assignment
        start = self.engine.now
        label = f"{tag}/{a.path.path_id}" if tag else a.path.path_id
        # The path's flight span is recorded in one shot when the path
        # resolves (both endpoints are known by then), with chunk markers
        # batched under it — the traced hot path opens nothing up front.
        flight = self.flight
        trace_id, parent = trace
        traced = flight is not None and flight.enabled and trace_id >= 0
        finals: list = []
        try:
            if not a.path.is_staged:
                stream = self._stream(
                    compiled.stream_keys[0], compiled.stream_devices[0]
                )
                done = self.runtime.copy_on_hop_async(
                    a.path.hops[0], a.nbytes, stream, tag=f"{label}:direct"
                )
                done.add_callback(
                    lambda ev, p=progress, n=a.nbytes: (
                        setattr(p, "delivered", p.delivered + n) if ev.ok else None
                    )
                )
                yield done
                return self._path_done(
                    a, start, 1, trace if traced else None, path_index, finals
                )

            # Staged path: three-step chunk loop over two streams, driven
            # by the compiled schedule (tags are ``label + suffix``).
            hop1, hop2 = a.path.hops
            s1 = self._stream(compiled.stream_keys[0], compiled.stream_devices[0])
            s2 = self._stream(compiled.stream_keys[1], compiled.stream_devices[1])
            epsilon = compiled.epsilon
            chunks = compiled.chunk_sizes
            for c, chunk_bytes in enumerate(chunks):
                # Step 1: source -> staging location.
                self.runtime.copy_on_hop_async(
                    hop1, chunk_bytes, s1, tag=label + compiled.h1_suffixes[c]
                )
                arrived = self.runtime.create_event(label + compiled.event_suffixes[c])
                arrived.record(s1)
                # Step 2: synchronization point on the staging device.
                s2.wait_event(arrived)
                s2.delay(epsilon)
                # Step 3: staging location -> destination.
                final = self.runtime.copy_on_hop_async(
                    hop2, chunk_bytes, s2, tag=label + compiled.h2_suffixes[c]
                )
                final.add_callback(
                    lambda ev, p=progress, n=chunk_bytes: (
                        setattr(p, "delivered", p.delivered + n) if ev.ok else None
                    )
                )
                finals.append(final)
            yield finals[-1]
            return self._path_done(
                a, start, len(chunks), trace if traced else None, path_index,
                finals,
            )
        except BaseException:
            if traced:
                # The faulted path still gets its span (ok=False) with its
                # planned split, and the markers of chunks that landed
                # before it died, so the trace shows how far the path got.
                cached = (
                    _CHUNK_KINDS[path_index]
                    if path_index < _KIND_CACHE_PATHS
                    else ()
                )
                kinds: list = []
                landed: list = []
                for j, ev in enumerate(finals):
                    if ev.ok:
                        kinds.append(
                            cached[j]
                            if j < len(cached)
                            else f"pipeline.path[{path_index}].chunk[{j}]"
                        )
                        landed.append(ev)
                flight.record_path(
                    _path_kind(path_index),
                    trace_id,
                    parent,
                    start,
                    self.engine.now,
                    {
                        "path": a.path.path_id,
                        "nbytes": a.nbytes,
                        "chunks": len(compiled.chunk_sizes) or 1,
                        "theta": a.theta,
                        "ok": False,
                    },
                    kinds,
                    landed,
                )
            raise

    def _path_done(
        self,
        a: PathAssignment,
        start: float,
        chunks: int,
        trace: tuple[int, int] | None = None,
        path_index: int = 0,
        finals: list = (),
    ) -> PathExecution:
        """Close out one path: accounting plus an optional trace span."""
        end = self.engine.now
        self.paths_executed += 1
        self.chunks_executed += chunks
        if trace is not None:
            # One-shot span + chunk markers in a single journal append.
            # Every final-hop event is ok here (a faulted path takes the
            # except path), and its TransferResult value carries the
            # chunk's destination-delivery time, so the recorder extracts
            # timestamps lazily at materialisation.
            trace_id, parent = trace
            n = len(finals)
            cached = (
                _CHUNK_KINDS[path_index]
                if path_index < _KIND_CACHE_PATHS
                else ()
            )
            self.flight.record_path(
                _path_kind(path_index),
                trace_id,
                parent,
                start,
                end,
                {
                    "path": a.path.path_id,
                    "nbytes": a.nbytes,
                    "chunks": chunks,
                    "theta": a.theta,
                },
                cached[:n] if n <= len(cached) else tuple(
                    f"pipeline.path[{path_index}].chunk[{j}]" for j in range(n)
                ),
                finals,
            )
        return PathExecution(
            path_id=a.path.path_id,
            nbytes=a.nbytes,
            chunks=chunks,
            start=start,
            end=end,
        )

    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """Structured run statistics, pulled by a metrics collector."""
        return {
            "transfers_executed": self.transfers_executed,
            "transfers_replayed": self.transfers_replayed,
            "paths_executed": self.paths_executed,
            "chunks_executed": self.chunks_executed,
            "paths_failed": self.paths_failed,
            "watchdog_timeouts": self.watchdog_timeouts,
            "streams_reset": self.streams_reset,
            "stream_pool_size": len(self._stream_pool),
        }

    # ------------------------------------------------------------------
    @staticmethod
    def _chunk_sizes(nbytes: int, k: int) -> list[int]:
        """Split ``nbytes`` into ``k`` near-equal positive chunks (memoised).

        Zero-byte requests never reach path execution (the planner's
        ``active_assignments`` filters empty shares), so an empty or
        zero-byte chunk list has no meaning here and is rejected.
        """
        if nbytes <= 0:
            raise ValueError(f"cannot chunk a {nbytes}-byte transfer")
        key = (nbytes, k)
        sizes = _CHUNK_MEMO.get(key)
        if sizes is None:
            k = max(1, min(k, nbytes))
            base, rem = divmod(nbytes, k)
            sizes = [base + (1 if i < rem else 0) for i in range(k)]
            if len(_CHUNK_MEMO) < _CHUNK_MEMO_CAP:
                _CHUNK_MEMO[key] = sizes
        return sizes


__all__ = [
    "PipelineEngine",
    "PathExecution",
    "PathFault",
    "SettledExecution",
]
