"""The multi-path pipeline engine (paper Fig. 2a Step 5, and [35]).

Executes a :class:`~repro.core.planner.TransferPlan` on the simulated GPU
runtime.  Per path:

* **direct** — one peer copy on the path's source-side stream;
* **staged** — the three-step chunk loop of §3.4 as one
  :meth:`~repro.gpu.runtime.GPURuntime.staged_copy_async` op per stream:
  copy chunk to the staging device on stream A, synchronize (ε, once the
  chunk has arrived), forward on stream B.  Stream A immediately proceeds
  to the next chunk's first hop, so the two hops of consecutive chunks
  overlap — the pipelining the model's Eq. (13) describes.

Streams are pooled per (src, dst, path) so back-to-back transfers (OSU
windowed loops) reuse queues exactly like the real engine reuses its CUDA
streams.

No engine process runs a path.  :meth:`PipelineEngine.execute` issues
every path's copies onto its streams when it is called, from the compiled
schedule, and registers one completion callback per path on the path's
last op.  A :class:`_Settlement` takes the outcomes in path-index order
and succeeds the returned event once the slowest path has landed (Eq. 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.planner import PathAssignment, TransferPlan
from repro.core.transfer_graph import compile_plan
from repro.gpu.errors import LinkFailure, TransferTimeout
from repro.gpu.runtime import GPURuntime
from repro.gpu.stream import Stream
from repro.obs.tracing import PATH_FAILED_KEYS, PATH_KEYS
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


def _chunk_kinds(path_index: int, n: int) -> tuple[str, ...]:
    """Span kinds of a path's first ``n`` chunk markers."""
    if path_index < _KIND_CACHE_PATHS and n <= _KIND_CACHE_CHUNKS:
        return _CHUNK_KINDS[path_index][:n]
    return tuple(f"pipeline.path[{path_index}].chunk[{j}]" for j in range(n))


@dataclass(frozen=True)
class PathExecution:
    """Per-path accounting returned by the engine."""

    path_id: str
    nbytes: int
    chunks: int
    start: float
    end: float


@dataclass(frozen=True)
class PathFault:
    """One failed/timed-out path of a settled execution."""

    path_id: str
    nbytes: int  # bytes the plan assigned to this path
    delivered: int  # bytes of the final-hop copies that landed
    start: float
    end: float  # time the path failed
    error: BaseException


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


class _Settlement:
    """The outcomes of one execution's paths, taken in path-index order.

    Path ``i``'s outcome is taken once it and every earlier path have
    resolved, at the latest of those times: a fault then counts in
    ``paths_failed``, drops the path's streams and joins the result.  A
    non-transfer error fails the execution with that exception.  From
    then on the outcomes are not taken, but every path that resolves with
    an error, or already has, drops its poisoned streams all the same.
    """

    __slots__ = (
        "pipeline", "src", "dst", "paths", "start", "done", "outcomes",
        "taken", "executions", "faults",
    )

    def __init__(
        self,
        pipeline: "PipelineEngine",
        plan: TransferPlan,
        paths: "tuple[CompiledPath, ...]",
    ) -> None:
        self.pipeline = pipeline
        self.src = plan.src
        self.dst = plan.dst
        self.paths = paths
        self.start = pipeline.engine.now
        self.done = pipeline.engine.event()
        #: per path: None until it resolves, then its PathExecution,
        #: PathFault or non-transfer exception
        self.outcomes: list = [None] * len(paths)
        self.taken = 0  # outcomes handled so far; past the end once failed
        self.executions: list[PathExecution] = []
        self.faults: list[PathFault] = []

    def _drop_if_failed(self, index: int) -> None:
        """Drop path ``index``'s streams if it resolved with an error."""
        outcome = self.outcomes[index]
        if outcome is not None and type(outcome) is not PathExecution:
            path_id = self.paths[index].assignment.path.path_id
            self.pipeline.reset_path_streams(self.src, self.dst, path_id)

    def resolve(self, index: int, outcome) -> None:
        outcomes = self.outcomes
        outcomes[index] = outcome
        n = len(outcomes)
        i = self.taken
        if i > n:  # the execution has failed
            self._drop_if_failed(index)
            return
        while i < n and outcomes[i] is not None:
            outcome = outcomes[i]
            i += 1
            if type(outcome) is PathExecution:
                self.executions.append(outcome)
            elif type(outcome) is PathFault:
                self.pipeline.paths_failed += 1
                self.pipeline.reset_path_streams(self.src, self.dst, outcome.path_id)
                self.faults.append(outcome)
            else:
                self.taken = n + 1
                for j in range(i - 1, n):
                    self._drop_if_failed(j)
                self.done.fail(outcome)
                return
        self.taken = i
        if i == n:
            self.done.succeed(
                SettledExecution(tuple(self.executions), tuple(self.faults))
            )


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

        Every path's copies are issued now.  The returned event succeeds
        once each path has completed or failed with a typed error
        (:class:`~repro.gpu.errors.LinkFailure` /
        :class:`~repro.gpu.errors.TransferTimeout`), with a
        :class:`SettledExecution` carrying both outcomes (completion = the
        slowest path, Eq. 4); the recovery layer needs every path's
        delivered-byte count to replan the remainder.  With
        ``deadline_factor`` set, each path gets a watchdog that aborts its
        in-flight copies once ``predicted T_i x factor`` elapses.  A
        non-transfer error fails the event with that same exception.

        ``trace`` is the flight-recorder identity (``trace_id, parent_sid``)
        the per-path spans attach under.  ``graph`` replays a cached
        compiled schedule; without one the plan is compiled one-shot, which
        bypasses the :class:`~repro.core.transfer_graph.GraphCache`, so
        ``transfers_replayed`` counts cached replays only.
        """
        if not plan.active_assignments:
            return self.engine.event().succeed(SettledExecution())
        self.transfers_executed += 1
        if graph is None:
            compiled = compile_plan(plan, self)
        else:
            self.transfers_replayed += 1
            compiled = graph.paths
        flight = self.flight
        if flight is None or not flight.enabled or trace[0] < 0:
            trace = None
        settlement = _Settlement(self, plan, compiled)
        for i, path in enumerate(compiled):
            flows = None if deadline_factor is None else []
            last = self._issue(path, tag, i, settlement, trace, flows)
            if flows is not None:
                a = path.assignment
                self._watch(
                    last, flows, a.path.path_id,
                    self._path_deadline(plan, a, deadline_factor),
                )
        return settlement.done

    #: Former name of :meth:`execute`; ``benchmarks/e2e/layertrace.py``
    #: looks up both names when it instruments a pipeline.
    execute_settled = execute

    def _issue(
        self,
        compiled: "CompiledPath",
        tag: str,
        index: int,
        settlement: _Settlement,
        trace: tuple[int, int] | None,
        flows: list | None,
    ) -> Event:
        """Enqueue one path's copies; returns its last op event, whose
        completion callback settles the path."""
        a = compiled.assignment
        label = f"{tag}/{a.path.path_id}" if tag else a.path.path_id
        keys, devices = compiled.stream_keys, compiled.stream_devices
        if not a.path.is_staged:
            stream = self._stream(keys[0], devices[0])
            last = self.runtime.copy_on_hop_async(
                a.path.hops[0], a.nbytes, stream, tag=f"{label}:direct", flows=flows
            )
            landed = ()
        else:
            # Staged path: the compiled chunk schedule as one op per
            # stream (tags are ``label + suffix``).
            hop1, hop2 = a.path.hops
            last, landed = self.runtime.staged_copy_async(
                hop1, hop2, compiled.chunk_sizes,
                self._stream(keys[0], devices[0]),
                self._stream(keys[1], devices[1]),
                compiled.epsilon,
                tag=label,
                suffixes=(compiled.h1_suffixes, compiled.h2_suffixes),
                flows=flows,
            )
        last.add_callback(
            lambda ev: self._path_resolved(
                ev, compiled, landed, index, settlement, trace
            )
        )
        return last

    def _path_resolved(
        self,
        last: Event,
        compiled: "CompiledPath",
        landed,
        index: int,
        settlement: _Settlement,
        trace: tuple[int, int] | None,
    ) -> None:
        """Close out one path when its last op resolves: accounting, its
        flight span, and its outcome handed to the settlement.  ``landed``
        holds the final-hop chunk copies that landed, a prefix of the
        schedule (none for a direct path)."""
        a = compiled.assignment
        start, end = settlement.start, self.engine.now
        error = last._exception
        chunks = len(compiled.chunk_sizes) or 1
        if trace is not None:
            # One-shot span + chunk markers in a single journal append.  A
            # faulted path still gets its span (ok=False) with its planned
            # split and the markers of the chunks that landed.  Each landed
            # final's TransferResult value carries the chunk's
            # destination-delivery time, so the recorder extracts
            # timestamps lazily at materialisation.
            if error is None:
                attrs = (PATH_KEYS, a.path.path_id, a.nbytes, chunks, a.theta)
            else:
                attrs = (
                    PATH_FAILED_KEYS, a.path.path_id, a.nbytes, chunks, a.theta,
                    False,
                )
            self.flight.record_path(
                _path_kind(index), trace[0], trace[1], start, end, attrs,
                _chunk_kinds(index, len(landed)), landed,
            )
        if error is None:
            self.paths_executed += 1
            self.chunks_executed += chunks
            outcome = PathExecution(a.path.path_id, a.nbytes, chunks, start, end)
        elif isinstance(error, (LinkFailure, TransferTimeout)):
            delivered = sum(compiled.chunk_sizes[: len(landed)])
            outcome = PathFault(
                a.path.path_id, a.nbytes, delivered, start, end, error
            )
        else:
            outcome = error
        settlement.resolve(index, outcome)

    # ------------------------------------------------------------------
    @staticmethod
    def _path_deadline(
        plan: TransferPlan, a: PathAssignment, factor: float
    ) -> float:
        """Watchdog deadline: the model's own per-path prediction
        (Eq. 4's T_i = theta_i·n·Ω_i + Δ_i) scaled by the slack factor."""
        predicted = a.theta * plan.nbytes * a.effective.omega + a.effective.delta
        return factor * max(predicted, 1e-6)

    def _watch(
        self, last: Event, flows: list, path_id: str, deadline: float
    ) -> None:
        """Arm a path's deadline watchdog: an engine timer at ``now +
        deadline`` that aborts the fabric flows the path has issued.

        ``flows`` holds the fabric events of the copies the path has
        started, so the kill reaches this path's flows and no other put's.
        It is delivered *through the fabric* (flows fail, streams poison,
        the last op fails), so the unwind is the one hard link failures
        take.  While ``last`` stays pending (a path stuck in its ε sync)
        the timer re-arms every ``max(deadline / 4, 1 µs)`` and kills
        again, at most 64 times, after which one last re-check does
        nothing.  A callback on ``last`` cancels the timer when the op
        resolves, whatever its outcome.
        """
        engine = self.engine
        kills = 0

        def expired(_arg) -> None:
            nonlocal kills, timer
            if kills == 64:
                return
            if not kills:
                self.watchdog_timeouts += 1
            kills += 1
            issued = set(flows)
            self.runtime.fabric.fail_flows_matching(
                lambda f: f.event in issued,
                lambda f: TransferTimeout(path_id, deadline),
            )
            if not last.triggered:
                timer = engine.schedule_fn(
                    engine.now + max(deadline * 0.25, 1e-6), expired
                )

        timer = engine.schedule_fn(engine.now + deadline, expired)
        last.add_callback(lambda _last: engine.cancel_handle(timer))

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
        """Split ``nbytes`` into ``k`` near-equal positive chunks.

        Only :func:`~repro.core.transfer_graph.compile_plan` calls this: a
        compiled graph freezes the schedule, so a replay never splits again.
        Zero-byte requests never reach path execution (the planner's
        ``active_assignments`` filters empty shares), so an empty or
        zero-byte chunk list has no meaning here and is rejected.
        """
        if nbytes <= 0:
            raise ValueError(f"cannot chunk a {nbytes}-byte transfer")
        k = max(1, min(k, nbytes))
        base, rem = divmod(nbytes, k)
        return [base + (1 if i < rem else 0) for i in range(k)]


__all__ = [
    "PipelineEngine",
    "PathExecution",
    "PathFault",
    "SettledExecution",
]
