"""The cuda_ipc transport module (paper Fig. 2a, Steps 3–4).

Every GPU-to-GPU transfer lands here.  The module

* charges the per-request software overhead and opens (cached) IPC handles;
* picks the protocol: **eager** below the rendezvous threshold — a single
  copy on the best single path — or **rendezvous** with a handshake;
* for rendezvous transfers, obtains the path configuration from one of
  three sources matching the paper's evaluated configurations: the runtime
  model (*dynamic*), a fixed offline distribution (*static*), or the single
  direct path (*baseline*);
* hands the configuration to the pipeline engine (Step 5);
* recovers from path faults: a :class:`RecoveryPolicy` decides each retry,
  and replans go through the same path-selection ladder
  (:meth:`CudaIpcModule.plan_avoiding`) as first plans and admission.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.chunking import effective_params
from repro.core.planner import PathAssignment, PathPlanner, TransferPlan
from repro.gpu.errors import PathUnavailable, TransferTimeout
from repro.obs.tracing import PLAN_KEYS, PLAN_LOAD_KEYS
from repro.sim.engine import Event
from repro.units import us

if TYPE_CHECKING:  # pragma: no cover
    from repro.ucx.context import UCXContext

#: First recovery backoff (DESIGN.md §5d); doubles per retry.
RETRY_BACKOFF = 25 * us


@dataclass(frozen=True, slots=True)
class PutResult:
    """Completion record of a one-sided PUT."""

    src: int
    dst: int
    nbytes: int
    protocol: str  # "eager" | "rndv"
    mode: str  # "dynamic" | "static" | "single"
    start: float
    end: float
    #: Replans forced by path failures/timeouts (0 on the happy path).
    retries: int = 0
    #: Bytes that had to be re-routed over surviving paths.
    rerouted_bytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def bandwidth(self) -> float:
        """Mean bandwidth; defined as 0.0 for zero-byte and zero-duration
        transfers (a 0-byte put completes in pure overhead time)."""
        return self.nbytes / self.duration if self.duration > 0 else 0.0


class RecoveryPolicy:
    """One put's retry decisions (DESIGN.md §5d, §5h).

    The put loop runs each plan to a settled outcome; after a round with
    path faults it makes one :meth:`after_faults` call, then
    :meth:`replan`.  The policy holds everything those answers depend on —
    retries taken, the paths that failed, the bytes rerouted, the retry
    budget's one host-staging fallback and the collective-backoff
    registration — and builds the put's typed failure in one place
    (:meth:`failure`).
    """

    def __init__(
        self, module: "CudaIpcModule", src: int, dst: int, nbytes: int,
        label: str, deadline_at: float | None,
    ) -> None:
        self.module = module
        self.src, self.dst, self.nbytes, self.label = src, dst, nbytes, label
        self.deadline_at = deadline_at
        budget = module.context.transfers.retry_budget
        self.budget = budget if budget.enabled else None
        self.retries = self.rerouted = 0
        self.failed: set[str] = set()
        self._fallback_used = self._backing_off = False

    def after_faults(self, faults, remaining: int) -> float | None:
        """Mark a faulted round's paths failed and decide the retry.

        Returns the backoff to sleep before :meth:`replan`, or ``None``
        when every byte landed despite the late error.  Raises the typed
        failure when the put cannot retry: retries exhausted, deadline
        gone (checked before a retry is counted or a token taken), or the
        retry budget dry after its one fallback.
        """
        module = self.module
        ctx = module.context
        self.failed.update(f.path_id for f in faults)
        module.path_failovers += len(faults)
        timeouts = sum(isinstance(f.error, TransferTimeout) for f in faults)
        module.path_timeouts += timeouts
        module.path_link_failures += len(faults) - timeouts
        if remaining <= 0:
            return None
        if self.retries >= ctx.config.max_path_retries:
            raise self.failure(remaining, f"undeliverable after {self.retries} retries")
        now = ctx.engine.now
        left = math.inf
        if self.deadline_at is not None:
            # Deadline-aware backoff: never sleep past the remaining time,
            # and fail before spending a retry or a token once it is gone.
            left = self.deadline_at - now
            if left <= 0:
                module.deadline_timeouts += 1
                raise self.failure(
                    remaining,
                    f"deadline t={self.deadline_at:.6g}s exhausted during recovery",
                    timeout=True,
                )
        self.retries += 1
        module.retries_total += 1
        backoff = RETRY_BACKOFF * (2 ** (self.retries - 1))
        budget = self.budget
        if budget is not None:
            if budget.try_consume((self.src, self.dst), now):
                # Collective backoff: scale by how many transfers are
                # concurrently in recovery (a lone retry keeps the classic
                # schedule; a storm of N spreads over ~N windows).
                backoff *= budget.begin_backoff()
                self._backing_off = True
            elif self._fallback_used:
                # Budget dry and the fallback already ran: fail fast
                # instead of burning more backoff on a dead pair.
                raise self.failure(remaining, "retry budget exhausted")
            else:
                # One unmetered host-staging fallback replan, no backoff:
                # the replan's ladder already prefers host staging once
                # GPU paths have failed.
                self._fallback_used = True
                backoff = 0.0
                module.budget_fallbacks += 1
        return min(backoff, left)

    def replan(self, remaining: int, trace_id: int, retry_sid: int) -> TransferPlan:
        """Plan the missing bytes over the paths still believed alive.

        Avoids failed + quarantined paths, then quarantined ones only,
        then neither; host staging is admitted even with ``include_host``
        off (graceful degradation beats an exclusion preference), but
        ``exclude_paths`` stay excluded.
        Paths retried despite an earlier failure are forgiven, so a later
        fault on them counts as fresh.  With no candidate at all the
        retry round closes unsuccessfully and the put fails.
        """
        if self._backing_off:  # the backoff sleep before this replan is over
            self.budget.end_backoff()
            self._backing_off = False
        module = self.module
        ctx = module.context
        quarantined = set(ctx.health.excluded(self.src, self.dst, now=ctx.engine.now))
        try:
            plan = module._make_plan(
                self.src, self.dst, remaining, "replan", trace_id, retry_sid,
                load=module._load_snapshot(),
                avoid=(quarantined | self.failed, quarantined),
            )
        except ValueError:
            ctx.flight.finish(retry_sid, ok=False)
            raise self.failure(remaining, "no candidate path left") from None
        self.failed -= {a.path.path_id for a in plan.assignments}
        self.rerouted += remaining
        module.rerouted_bytes += remaining
        return plan

    def failure(
        self, remaining: int, reason: str, *, timeout: bool = False
    ) -> Exception:
        """The put's typed failure, counted once in ``puts_failed``:
        :class:`TransferTimeout` when the deadline ran out, otherwise
        :class:`PathUnavailable` naming the failed paths."""
        self.module.puts_failed += 1
        failed = tuple(sorted(self.failed))
        message = (
            f"put {self.label!r}: {reason} ({remaining} of {self.nbytes} "
            f"bytes undelivered; failed paths: {', '.join(failed)})"
        )
        if timeout:
            return TransferTimeout(
                f"put:{self.src}->{self.dst}", self.deadline_at, message=message
            )
        return PathUnavailable(self.src, self.dst, message, failed=failed)


class CudaIpcModule:
    """Routes transfers through the planner and pipeline engine."""

    def __init__(self, context: "UCXContext") -> None:
        self.context = context
        self.puts_issued = 0
        self.puts_completed = 0
        self.bytes_put = 0
        self.protocol_counts = {"eager": 0, "rndv": 0}
        self.mode_counts = {"dynamic": 0, "static": 0, "single": 0}
        # Recovery accounting (see DESIGN.md §5d)
        self.puts_recovered = 0
        self.puts_failed = 0
        self.path_failovers = 0
        self.retries_total = 0
        self.rerouted_bytes = 0
        self.path_timeouts = 0  # faulted paths killed by the watchdog
        self.path_link_failures = 0  # faulted paths lost to a link failure
        self.deadline_timeouts = 0  # puts whose deadline ran out in recovery
        self.budget_fallbacks = 0  # unmetered replans on a dry retry budget
        # One process name per pair, shared by all its puts' processes.
        self._put_names: dict[tuple[int, int], str] = {}

    # ------------------------------------------------------------------
    def start_put(
        self,
        src: int,
        dst: int,
        nbytes: int,
        *,
        tag: str = "",
        trace: tuple[int, int] = (-1, -1),
        deadline_at: float | None = None,
    ) -> Event:
        """Start one admitted PUT; returns the process event (value:
        :class:`PutResult`).

        This is the :class:`~repro.runtime.TransferManager`'s dispatch
        target; application code calls ``UCXContext.put``, which admits the
        transfer first.  ``trace`` is the flight-recorder identity
        (``trace_id, root_sid``) the manager minted at admission; the
        manager also settles it.  ``deadline_at`` is the absolute
        completion bound the recovery loop honours (backoff sleeps are
        capped at the remaining budget).
        """
        self.puts_issued += 1
        trace_id, root_sid = trace
        name = self._put_names.get((src, dst))
        if name is None:
            name = self._put_names[src, dst] = f"put:{src}->{dst}"
        return self.context.engine.process(
            self._put_proc(
                src, dst, nbytes, tag, self.puts_issued, trace_id, root_sid,
                deadline_at=deadline_at,
            ),
            name=name,
        )

    def _put_proc(
        self, src: int, dst: int, nbytes: int, tag: str, seq: int,
        trace_id: int, root_sid: int, deadline_at: float | None,
    ):
        ctx = self.context
        cfg = ctx.config
        engine = ctx.engine
        flight = ctx.flight
        tracing = flight.enabled and trace_id >= 0
        start = engine.now
        # The label prefixes the put's fabric copy tags.
        label = tag or f"put{seq}"

        if nbytes == 0:
            # Zero-byte PUT: a transport-level no-op.  Completes at the
            # current time with no planning, pipeline work, or chunk lists
            # (the chunker rejects 0-byte splits); bandwidth is 0.0.
            self.puts_completed += 1
            self.protocol_counts["eager"] += 1
            self.mode_counts["single"] += 1
            return PutResult(
                src=src,
                dst=dst,
                nbytes=0,
                protocol="eager",
                mode="single",
                start=start,
                end=start,
            )

        # Per-request software cost + (cached) IPC handle translation.
        yield engine.timeout(cfg.request_overhead)
        yield ctx.runtime.open_ipc(src, dst)

        eager = nbytes < cfg.rndv_threshold
        if eager:
            yield engine.timeout(cfg.eager_overhead)
            mode = "single"
            protocol = "eager"
        else:
            yield engine.timeout(cfg.rndv_overhead)  # RTS/CTS handshake
            protocol = "rndv"
            if not cfg.multipath:
                mode = "single"
            elif cfg.static_shares:
                mode = "static"
            else:
                mode = "dynamic"
        # Overload coupling: the manager's governor may request a cheaper
        # plan (the degrade level joins the plan/graph cache keys; inert at
        # the default level 0), and its retry budget meters recovery.
        manager = ctx.transfers
        plan, graph = self._acquire_plan(
            src, dst, nbytes, mode, trace_id, root_sid,
            degrade=manager.governor.degrade_level,
        )

        # Plan -> execute -> settle.  Each round runs the current plan to a
        # settled outcome; after a faulted round the RecoveryPolicy decides
        # whether the missing bytes are replanned over surviving paths.
        health = ctx.health
        # The service's load tracker: each execution round registers its
        # plan's per-channel footprint so other transfers planning while
        # this one moves bytes see the fabric as loaded.  Acquired *after*
        # planning (a transfer never derates against itself), released as
        # soon as the round settles (recovery replans against current load).
        tracker = manager.load
        recovery = RecoveryPolicy(self, src, dst, nbytes, label, deadline_at)
        exec_start = engine.now
        delivered = 0
        current = plan
        attempt_label = label
        # Flight-span state: round 0's path spans parent to the trace root;
        # each retry round's parent to its open recovery.retry[k] span.
        exec_parent = root_sid
        retry_sid = -1
        while True:
            hold = tracker.acquire(current)
            try:
                settled = yield ctx.pipeline.execute(
                    current,
                    tag=attempt_label,
                    deadline_factor=cfg.deadline_factor,
                    trace=(trace_id, exec_parent),
                    graph=graph,
                )
            finally:
                tracker.release(hold)
            execs, faults = settled.executions, settled.faults
            delivered += sum(e.nbytes for e in execs)
            delivered += sum(f.delivered for f in faults)
            if retry_sid >= 0:
                # the retry's story (backoff + replan + re-execution)
                # ends when its execution round settles
                flight.finish(retry_sid, faults=len(faults))
                retry_sid = -1
            now = engine.now
            for e in execs:
                health.record_success(src, dst, e.path_id, now=now)
            for f in faults:
                health.record_failure(src, dst, f.path_id, now=now)
            if not faults:
                break
            # The recovery replans below compile one-shot, outside the
            # cache; the graph stays cached, as stale as its plan (§5g).
            graph = None
            remaining = nbytes - delivered
            backoff = recovery.after_faults(faults, remaining)
            if backoff is None:
                break  # every byte landed despite the late error
            if tracing:
                retry_sid = exec_parent = flight.begin(
                    f"recovery.retry[{recovery.retries}]",
                    trace_id,
                    parent=root_sid,
                    attrs={
                        "failed_paths": sorted(recovery.failed),
                        "backoff": backoff,
                        "rerouted_bytes": remaining,
                    },
                )
            if backoff > 0:
                yield engine.timeout(backoff)
            current = recovery.replan(remaining, trace_id, retry_sid)
            attempt_label = f"{label}:r{recovery.retries}"

        end = engine.now
        self.puts_completed += 1
        self.bytes_put += nbytes
        self.protocol_counts[protocol] += 1
        self.mode_counts[mode] += 1
        retries = recovery.retries
        if retries > 0:
            self.puts_recovered += 1
        # Closed-loop feedback: only dynamic rndv plans carry a real model
        # prediction (single/static use placeholder times), the prediction
        # covers the pipeline execution interval only, and fault-lengthened
        # intervals would poison the recalibrator — recovered puts are
        # excluded.
        obs = ctx.obs
        if (
            obs is not None
            and mode == "dynamic" and protocol == "rndv" and retries == 0
        ):
            obs.feedback(plan, end - exec_start, now=end)
        return PutResult(
            src=src, dst=dst, nbytes=nbytes, protocol=protocol, mode=mode,
            start=start, end=end, retries=retries,
            rerouted_bytes=recovery.rerouted,
        )

    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """Structured run statistics, pulled by a metrics collector."""
        return {
            "puts_issued": self.puts_issued,
            "puts_completed": self.puts_completed,
            "bytes_put": self.bytes_put,
            "protocols": dict(self.protocol_counts),
            "modes": dict(self.mode_counts),
            "recovery": {
                "puts_recovered": self.puts_recovered,
                "puts_failed": self.puts_failed,
                "path_failovers": self.path_failovers,
                "retries": self.retries_total,
                "rerouted_bytes": self.rerouted_bytes,
                "timeouts": self.path_timeouts,
                "link_failures": self.path_link_failures,
                "deadline_timeouts": self.deadline_timeouts,
                "budget_fallbacks": self.budget_fallbacks,
            },
        }

    # ------------------------------------------------------------------
    def _load_snapshot(self):
        """Current-load snapshot for planning, or None (contention-blind).

        Only consulted when ``contention_aware`` is on; the snapshot is
        taken at plan time, so the recovery loop's replans automatically
        price the fabric as it is *now*, not as it was at submission.
        """
        if not self.context.config.contention_aware:
            return None
        return self.context.transfers.load.snapshot()

    def plan_avoiding(
        self, src: int, dst: int, nbytes: int,
        avoid: Iterable[Iterable[str]] = (), *,
        include_host: bool | None = None, load=None,
        use_cache: bool = True, degrade: int = 0,
    ) -> TransferPlan:
        """Algorithm 1 over the configured paths minus the first ``avoid``
        set that still leaves a candidate — the one path-selection ladder.

        Every path choice a put makes comes through here: the first
        dynamic plan avoids the quarantined paths, a recovery replan
        avoids failed + quarantined paths and then quarantined ones, and
        deadline admission avoids the unhealthy ones — so admission
        prices the plan dispatch would run.  When no ``avoid`` set leaves
        a candidate, the configured set alone is planned (a quarantined
        path is still a better bet than failing outright); ``ValueError``
        only when even that set is empty.  ``include_host`` overrides the
        configured host-staging setting.  Exclusions are part of the
        planner's cache key, so narrowing never serves a stale plan.
        """
        cfg = self.context.config
        if include_host is None:
            include_host = cfg.include_host
        for extra in (*avoid, ()):
            try:
                return self.context.planner.plan(
                    src, dst, nbytes, include_host=include_host,
                    max_gpu_staged=cfg.max_gpu_staged,
                    exclude=set(cfg.exclude_paths).union(extra),
                    use_cache=use_cache, load=load, degrade=degrade,
                )
            except ValueError:
                if not extra:  # the configured set itself is empty
                    raise

    def _acquire_plan(
        self, src: int, dst: int, nbytes: int, mode: str,
        trace_id: int, parent_sid: int, degrade: int,
    ):
        """Resolve the transfer's plan and its compiled graph.

        Returns ``(plan, graph)``: a graph-cache hit replays the cached
        :class:`~repro.core.transfer_graph.TransferGraph`, a miss plans cold
        and compiles (and caches) a fresh one.  ``degrade`` is the overload
        ladder level; it joins both cache keys, so a degraded graph never
        replays for a healthy submit.

        The load snapshot and the health query are taken exactly ONCE here
        and threaded into the cold plan: :meth:`PathHealthRegistry.excluded`
        has a probe side effect (quarantined -> probing when the probe is
        due), so a second query would see the path as PROBING (excluded)
        instead of probing it.
        """
        ctx = self.context
        graphs = ctx.graphs
        tracing = ctx.flight.enabled and trace_id >= 0
        wall0 = time.perf_counter() if tracing else 0.0
        load = None
        quarantined: tuple[str, ...] = ()
        if mode == "dynamic":
            load = self._load_snapshot()
            quarantined = ctx.health.excluded(src, dst, now=ctx.engine.now)
        load_key: tuple = ()
        if load is not None and not load.is_idle:
            load_key = load.bucket_key()
        key = graphs.key_for(
            src, dst, nbytes, mode,
            load_key=load_key, excluded=quarantined, degrade=degrade,
        )
        graph = graphs.get(key)
        if graph is not None:
            plan = graph.plan
            if tracing:
                self._record_plan(
                    "plan.graph_hit", trace_id, parent_sid, mode, plan,
                    time.perf_counter() - wall0, load,
                )
            return plan, graph
        plan = self._make_plan(
            src, dst, nbytes, mode, trace_id, parent_sid,
            load=load, avoid=(quarantined,), degrade=degrade,
        )
        graph = graphs.compile_and_store(key, plan, ctx.pipeline)
        return plan, graph

    def _make_plan(
        self, src: int, dst: int, nbytes: int, mode: str,
        trace_id: int, parent_sid: int, *,
        load=None, avoid: tuple = (), degrade: int = 0,
    ) -> TransferPlan:
        """Obtain the mode's plan, recording a flight ``plan`` span.

        ``mode`` is the put's (single/static/dynamic) or ``"replan"``, a
        recovery plan of the missing bytes: it admits host staging and
        bypasses the plan cache (one-shot, no cache pollution).  Planning
        is synchronous — zero simulated time — so the span is an
        instantaneous marker whose real cost lives in ``wall_time_s``.
        """
        tracing = self.context.flight.enabled and trace_id >= 0
        wall0 = time.perf_counter() if tracing else 0.0
        if mode == "single":
            plan = self._single_path_plan(src, dst, nbytes)
        elif mode == "static":
            plan = self._static_plan(src, dst, nbytes)
        elif mode == "replan":
            plan = self.plan_avoiding(
                src, dst, nbytes, avoid,
                include_host=True, load=load, use_cache=False,
            )
        else:
            plan = self.plan_avoiding(
                src, dst, nbytes, avoid, load=load, degrade=degrade
            )
        if tracing:
            self._record_plan(
                "plan.cache_hit" if plan.from_cache else "plan",
                trace_id, parent_sid, mode, plan, time.perf_counter() - wall0,
                load,
            )
        return plan

    def _record_plan(
        self, kind: str, trace_id: int, parent_sid: int, mode: str,
        plan: TransferPlan, wall: float, load,
    ) -> None:
        """Record one ``plan*`` flight span, the put's decision record.

        Its ``wall`` cost feeds the ``planning`` stage aggregate.  A plan
        priced against a load snapshot also carries ``load_bucket``, the
        worst bucketed hop load its active paths were derated by (0 when
        the fabric was idle).  The per-path split (θ, bytes, chunks) lives
        on the ``pipeline.path[i]`` spans under the same parent.
        """
        values = (mode, plan.num_active_paths, plan.predicted_time, wall)
        if load is None:
            attrs = (PLAN_KEYS, *values)
        else:
            attrs = (
                PLAN_LOAD_KEYS, *values, PathPlanner._plan_load_bucket(plan, load)
            )
        self.context.flight.record(
            kind, trace_id, parent_sid, attrs=attrs, stage_value=wall,
        )

    # ------------------------------------------------------------------
    def _assignment(self, path, nbytes: int, theta: float, chunks: int) -> PathAssignment:
        params = self.context.planner.store.path_params(path)
        return PathAssignment(
            path=path,
            params=params,
            effective=effective_params(params, None),
            theta=theta,
            nbytes=nbytes,
            chunks=chunks,
        )

    def _single_path_plan(self, src: int, dst: int, nbytes: int) -> TransferPlan:
        # Canonical order puts direct first when it exists; degenerate
        # systems fall back to the first available (host-staged on
        # PCIe-only nodes).
        best = self.context.planner.candidates(src, dst)[0]
        a = self._assignment(best, nbytes, 1.0, 1)
        return TransferPlan(
            src=src,
            dst=dst,
            nbytes=nbytes,
            assignments=(a,),
            predicted_time=max(a.params.alpha1, 1e-12),
        )

    def _static_plan(self, src: int, dst: int, nbytes: int) -> TransferPlan:
        cfg = self.context.config
        paths = self.context.planner.candidates(
            src, dst, include_host=cfg.include_host,
            max_gpu_staged=cfg.max_gpu_staged, exclude=cfg.exclude_paths,
        )
        # Static shares are tuned offline on one reference pair; apply them
        # to any pair by *role*: "direct" -> the direct path, "gpu:*" ->
        # the i-th GPU-staged candidate of this pair, "host" -> host.
        by_kind = {p.path_id: p for p in paths if p.via is None}
        gpu_staged = iter([p for p in paths if p.via is not None])
        resolved = []
        for share in cfg.static_shares:
            if share.path_id.startswith("gpu:"):
                path = next(gpu_staged, None)
                if path is None:
                    raise KeyError(
                        f"static share {share.path_id!r} has no staged "
                        f"candidate left for pair ({src}, {dst})"
                    )
            elif share.path_id in by_kind:
                path = by_kind[share.path_id]
            else:
                raise KeyError(
                    f"static share references unavailable path {share.path_id!r} "
                    f"for pair ({src}, {dst})"
                )
            resolved.append((path, share))
        assignments = []
        assigned = 0
        for i, (path, share) in enumerate(resolved):
            is_last = i == len(resolved) - 1
            nb = nbytes - assigned if is_last else int(share.fraction * nbytes)
            assigned += nb
            assignments.append(
                self._assignment(path, nb, share.fraction, share.chunks)
            )
        return TransferPlan(
            src=src,
            dst=dst,
            nbytes=nbytes,
            assignments=tuple(assignments),
            predicted_time=max(a.params.alpha1 for a in assignments),
        )


__all__ = ["CudaIpcModule", "PutResult", "RecoveryPolicy"]
