"""The cuda_ipc transport module (paper Fig. 2a, Steps 3–4).

Every GPU-to-GPU transfer lands here.  The module

* charges the per-request software overhead and opens (cached) IPC handles;
* picks the protocol: **eager** below the rendezvous threshold — a single
  copy on the best single path — or **rendezvous** with a handshake;
* for rendezvous transfers, obtains the path configuration from one of
  three sources matching the paper's evaluated configurations: the runtime
  model (*dynamic*), a fixed offline distribution (*static*), or the single
  direct path (*baseline*);
* hands the configuration to the pipeline engine (Step 5).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.chunking import effective_params
from repro.core.planner import PathAssignment, TransferPlan
from repro.gpu.errors import PathUnavailable, TransferTimeout
from repro.sim.engine import Event
from repro.topology.routing import enumerate_paths
from repro.units import us

if TYPE_CHECKING:  # pragma: no cover
    from repro.ucx.context import UCXContext

#: First recovery backoff (DESIGN.md §5d); doubles per retry.
RETRY_BACKOFF = 25 * us


@dataclass(frozen=True)
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
        return self.context.engine.process(
            self._put_proc(
                src, dst, nbytes, tag, self.puts_issued, trace_id, root_sid,
                deadline_at=deadline_at,
            ),
            name=f"put:{src}->{dst}",
        )

    def _put_proc(
        self,
        src: int,
        dst: int,
        nbytes: int,
        tag: str,
        seq: int,
        trace_id: int = -1,
        root_sid: int = -1,
        deadline_at: float | None = None,
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
        if cfg.request_overhead > 0:
            yield engine.timeout(cfg.request_overhead)
        yield ctx.runtime.open_ipc(src, dst)

        eager = nbytes < cfg.rndv_threshold
        if eager:
            if cfg.eager_overhead > 0:
                yield engine.timeout(cfg.eager_overhead)
            mode = "single"
            protocol = "eager"
        else:
            if cfg.rndv_overhead > 0:
                yield engine.timeout(cfg.rndv_overhead)  # RTS/CTS handshake
            protocol = "rndv"
            if not cfg.multipath:
                mode = "single"
            elif cfg.static_shares:
                mode = "static"
            else:
                mode = "dynamic"
        # Overload coupling: the manager's governor may request a cheaper
        # plan (degrade level joins the plan/graph cache keys), and its
        # retry budget meters the recovery loop below.  Both are inert at
        # the defaults (degrade 0, budget disabled).
        manager = ctx.transfers
        degrade = manager.degrade_level
        budget = manager.retry_budget
        if not budget.enabled:
            budget = None
        plan, graph = self._acquire_plan(
            src, dst, nbytes, mode, trace_id, root_sid, degrade=degrade
        )

        # ------------------------------------------------------------------
        # Execute, recovering from path failures/timeouts: each round runs
        # the current plan to a settled outcome; failed paths' missing bytes
        # are replanned over the surviving paths (at most max_path_retries
        # rounds, with exponential backoff — a flapping link needs the
        # pause to settle).
        # ------------------------------------------------------------------
        health = ctx.health
        obs = ctx.obs
        # The service's load tracker: each execution round registers its
        # plan's per-channel footprint so other transfers planning while
        # this one moves bytes see the fabric as loaded.  Acquired *after*
        # planning (a transfer never derates against itself), released as
        # soon as the round settles (recovery replans against current load).
        tracker = manager.load
        budget_fallback_used = False
        exec_start = engine.now
        retries = 0
        delivered = 0
        rerouted = 0
        failed_paths: set[str] = set()
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
            if tracing and retry_sid >= 0:
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
            if graph is not None:
                # The schedule just proved wrong for the fabric as it is:
                # drop it so the next same-shape put compiles fresh.  The
                # recovery replans below compile one-shot, outside the cache.
                ctx.graphs.discard(graph.key)
                graph = None
            failed_paths.update(f.path_id for f in faults)
            self.path_failovers += len(faults)
            if obs is not None:
                m = obs.metrics
                for f in faults:
                    if isinstance(f.error, TransferTimeout):
                        m.counter("recovery.timeouts").inc()
                    else:
                        m.counter("recovery.link_failures").inc()
            remaining = nbytes - delivered
            if remaining <= 0:
                break  # every byte landed despite the late error
            if retries >= cfg.max_path_retries:
                self.puts_failed += 1
                raise PathUnavailable(
                    src,
                    dst,
                    failed=tuple(sorted(failed_paths)),
                    message=(
                        f"put {label!r}: {remaining} of {nbytes} bytes "
                        f"undeliverable after {retries} retries "
                        f"(failed paths: {', '.join(sorted(failed_paths))})"
                    ),
                )
            retries += 1
            self.retries_total += 1
            backoff = RETRY_BACKOFF * (2 ** (retries - 1))
            budget_scale = 0  # >0 once registered for collective backoff
            if budget is not None:
                if budget.try_consume((src, dst), engine.now):
                    # Collective backoff: scale by how many transfers are
                    # concurrently in recovery (a lone retry keeps the
                    # classic schedule; a storm of N spreads over ~N windows).
                    budget_scale = budget.begin_backoff()
                    backoff *= budget_scale
                else:
                    if budget_fallback_used:
                        # Budget dry and the fallback already ran: fail fast
                        # instead of burning more backoff on a dead pair.
                        self.puts_failed += 1
                        raise PathUnavailable(
                            src,
                            dst,
                            failed=tuple(sorted(failed_paths)),
                            message=(
                                f"put {label!r}: retry budget exhausted with "
                                f"{remaining} of {nbytes} bytes undelivered "
                                f"(failed paths: {', '.join(sorted(failed_paths))})"
                            ),
                        )
                    # One unmetered host-staging fallback replan, no backoff:
                    # the widened-exclusion ladder in _replan already prefers
                    # host staging once GPU paths have failed.
                    budget_fallback_used = True
                    backoff = 0.0
                    if obs is not None:
                        obs.metrics.counter("overload.budget_fallbacks").inc()
            if deadline_at is not None:
                # Deadline-aware backoff: never sleep past the remaining
                # budget, and fail immediately once it is gone.
                remaining_t = deadline_at - engine.now
                if remaining_t <= 0:
                    self.puts_failed += 1
                    if obs is not None:
                        obs.metrics.counter("deadline.recovery_timeouts").inc()
                    if budget_scale:
                        budget.end_backoff()
                    raise TransferTimeout(
                        f"put:{src}->{dst}",
                        deadline_at,
                        message=(
                            f"put {label!r}: deadline t={deadline_at:.6g}s "
                            f"exhausted during recovery ({remaining} of "
                            f"{nbytes} bytes undelivered)"
                        ),
                    )
                backoff = min(backoff, remaining_t)
            if tracing:
                retry_sid = flight.begin(
                    f"recovery.retry[{retries}]",
                    trace_id,
                    parent=root_sid,
                    attrs={
                        "failed_paths": sorted(failed_paths),
                        "backoff": backoff,
                        "rerouted_bytes": remaining,
                    },
                )
                exec_parent = retry_sid
            if backoff > 0:
                yield engine.timeout(backoff)
            if budget_scale:
                budget.end_backoff()
            if tracing:
                wall0 = time.perf_counter()
                flight.active_trace = trace_id
            try:
                current = self._replan(src, dst, remaining, failed_paths)
            finally:
                if tracing:
                    flight.active_trace = -1
            if tracing:
                wall = time.perf_counter() - wall0
                flight.record(
                    "plan",
                    trace_id,
                    parent=retry_sid,
                    attrs={
                        "mode": "replan",
                        "paths": 0 if current is None else current.num_active_paths,
                        "wall_time_s": wall,
                    },
                    stage_value=wall,
                )
            if current is None:
                if retry_sid >= 0:
                    flight.finish(retry_sid, ok=False)
                self.puts_failed += 1
                raise PathUnavailable(
                    src, dst, failed=tuple(sorted(failed_paths))
                )
            rerouted += remaining
            self.rerouted_bytes += remaining
            attempt_label = f"{label}:r{retries}"

        end = engine.now
        self.puts_completed += 1
        self.bytes_put += nbytes
        self.protocol_counts[protocol] += 1
        self.mode_counts[mode] += 1
        if retries > 0:
            self.puts_recovered += 1
        if obs is not None:
            obs.metrics.histogram("cuda_ipc.put_nbytes").observe(nbytes)
            # Closed-loop feedback: only dynamic rndv plans carry a real
            # model prediction (single/static use placeholder times), the
            # prediction covers the pipeline execution interval only, and
            # fault-lengthened intervals would poison the recalibrator —
            # recovered puts are excluded.
            if mode == "dynamic" and protocol == "rndv" and retries == 0:
                obs.feedback(plan, end - exec_start, now=end)
        return PutResult(
            src=src,
            dst=dst,
            nbytes=nbytes,
            protocol=protocol,
            mode=mode,
            start=start,
            end=end,
            retries=retries,
            rerouted_bytes=rerouted,
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

    def _acquire_plan(
        self,
        src: int,
        dst: int,
        nbytes: int,
        mode: str,
        trace_id: int = -1,
        parent_sid: int = -1,
        degrade: int = 0,
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
        flight = ctx.flight
        tracing = flight.enabled and trace_id >= 0
        obs = ctx.obs
        wall0 = time.perf_counter() if (tracing or obs is not None) else 0.0
        load = None
        quarantined: tuple[str, ...] = ()
        health = ctx.health
        if mode == "dynamic":
            load = self._load_snapshot()
            quarantined = health.excluded(src, dst, now=ctx.engine.now)
        load_key: tuple = ()
        if load is not None and not load.is_idle:
            load_key = load.bucket_key()
        epoch = health.epoch
        key = graphs.key_for(
            src, dst, nbytes, mode,
            load_key=load_key, health_epoch=epoch, excluded=quarantined,
            degrade=degrade,
        )
        graph = graphs.get(key)
        if graph is not None:
            plan = graph.plan
            wall = time.perf_counter() - wall0 if (tracing or obs is not None) else 0.0
            if tracing:
                flight.record(
                    "plan.graph_hit",
                    trace_id,
                    parent_sid,
                    attrs={
                        "mode": mode,
                        "paths": plan.num_active_paths,
                        "predicted": plan.predicted_time,
                        "wall_time_s": wall,
                    },
                    stage_value=wall,
                )
            if obs is not None:
                from repro.core.planner import PathPlanner

                obs.decisions.log_plan(
                    plan,
                    cache_hit=True,
                    wall_time_s=wall,
                    load_bucket=PathPlanner._plan_load_bucket(plan, load),
                    trace_id=trace_id if tracing else -1,
                    graph=True,
                )
                # a graph hit is a plan served from cache (the graph embeds
                # it): keep the planner's serving counters truthful
                m = obs.metrics
                m.counter("planner.plans").inc()
                m.counter("planner.cache_hits").inc()
                m.counter("planner.graph_hits").inc()
            return plan, graph
        plan = self._make_plan(
            src, dst, nbytes, mode, trace_id, parent_sid,
            load=load, quarantined=quarantined, degrade=degrade,
        )
        graph = graphs.compile_and_store(key, plan, ctx.pipeline, health_epoch=epoch)
        return plan, graph

    def _make_plan(
        self,
        src: int,
        dst: int,
        nbytes: int,
        mode: str,
        trace_id: int,
        parent_sid: int,
        *,
        load,
        quarantined: tuple[str, ...],
        degrade: int,
    ) -> TransferPlan:
        """Obtain the mode's plan, recording a flight ``plan`` span.

        Planning is synchronous — zero simulated time — so the span is an
        instantaneous marker whose real cost lives in ``wall_time_s`` (and
        feeds the ``planning`` stage histogram).  ``flight.active_trace``
        is set only across this call, which never yields, so interleaved
        put processes cannot observe each other's trace id.
        """
        flight = self.context.flight
        tracing = flight.enabled and trace_id >= 0
        if tracing:
            wall0 = time.perf_counter()
            flight.active_trace = trace_id
        try:
            if mode == "single":
                plan = self._single_path_plan(src, dst, nbytes)
            elif mode == "static":
                plan = self._static_plan(src, dst, nbytes)
            else:
                plan = self._dynamic_plan(
                    src, dst, nbytes, load=load, quarantined=quarantined,
                    degrade=degrade,
                )
        finally:
            if tracing:
                flight.active_trace = -1
        if tracing:
            wall = time.perf_counter() - wall0
            flight.record(
                "plan.cache_hit" if plan.from_cache else "plan",
                trace_id,
                parent_sid,
                attrs={
                    "mode": mode,
                    "paths": plan.num_active_paths,
                    "predicted": plan.predicted_time,
                    "wall_time_s": wall,
                },
                stage_value=wall,
            )
        return plan

    def _dynamic_plan(
        self,
        src: int,
        dst: int,
        nbytes: int,
        *,
        load,
        quarantined: tuple[str, ...],
        degrade: int,
    ) -> TransferPlan:
        """Planner invocation with quarantined paths excluded.

        Exclusions are part of the planner's cache key, so health-driven
        narrowing never serves a stale cached plan.  If quarantining left
        no candidate, fall back to the configured set — a quarantined path
        is still a better bet than failing outright.  ``load`` and
        ``quarantined`` are the one-shot queries of :meth:`_acquire_plan`.
        """
        ctx = self.context
        cfg = ctx.config
        exclude = cfg.exclude_paths
        if quarantined:
            merged = tuple(sorted(set(exclude) | set(quarantined)))
            try:
                return ctx.planner.plan(
                    src,
                    dst,
                    nbytes,
                    include_host=cfg.include_host,
                    max_gpu_staged=cfg.max_gpu_staged,
                    exclude=merged,
                    load=load,
                    degrade=degrade,
                )
            except ValueError:
                pass  # everything quarantined: use the configured set
        return ctx.planner.plan(
            src,
            dst,
            nbytes,
            include_host=cfg.include_host,
            max_gpu_staged=cfg.max_gpu_staged,
            exclude=exclude,
            load=load,
            degrade=degrade,
        )

    def _replan(
        self, src: int, dst: int, remaining: int, failed_paths: set[str]
    ) -> TransferPlan | None:
        """Plan the missing bytes over paths that are still believed alive.

        Recovery widens the candidate set to include host staging even when
        the config disabled it (graceful degradation beats an exclusion
        preference), but config-excluded paths stay excluded.  If failures
        plus quarantines rule out everything, the per-put failure memory is
        forgiven and the full set retried — a flapping link may be back up.
        Returns ``None`` only when no candidate path exists at all.
        """
        ctx = self.context
        cfg = ctx.config
        base = set(cfg.exclude_paths)
        base |= set(ctx.health.excluded(src, dst, now=ctx.engine.now))
        for exclude in (base | failed_paths, base, set(cfg.exclude_paths)):
            try:
                paths = enumerate_paths(
                    ctx.topology,
                    src,
                    dst,
                    include_host=True,
                    max_gpu_staged=cfg.max_gpu_staged,
                    exclude=tuple(sorted(exclude)),
                )
            except ValueError:
                continue
            # Paths we are about to retry despite an earlier failure are
            # forgiven, so a later fault on them counts as fresh.
            failed_paths -= {p.path_id for p in paths}
            return ctx.planner.plan_for_paths(
                src, dst, remaining, paths, load=self._load_snapshot()
            )
        return None

    # ------------------------------------------------------------------
    def _paths(self, src: int, dst: int, *, single: bool = False):
        cfg = self.context.config
        if single:
            # Prefer the direct path; degenerate systems fall back to the
            # first available (host-staged on PCIe-only nodes).
            return enumerate_paths(
                self.context.topology, src, dst, include_host=True
            )
        return enumerate_paths(
            self.context.topology,
            src,
            dst,
            include_host=cfg.include_host,
            max_gpu_staged=cfg.max_gpu_staged,
            exclude=cfg.exclude_paths,
        )

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
        paths = self._paths(src, dst, single=True)
        best = paths[0]  # canonical order puts direct first when it exists
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
        paths = self._paths(src, dst)
        # Static shares are tuned offline on one reference pair; apply them
        # to any pair by *role*: "direct" -> the direct path, "gpu:*" ->
        # the i-th GPU-staged candidate of this pair, "host" -> host.
        by_kind = {p.path_id: p for p in paths if p.via is None}
        gpu_staged = [p for p in paths if p.via is not None]
        resolved = []
        staged_cursor = 0
        for share in cfg.static_shares:
            if share.path_id.startswith("gpu:"):
                if staged_cursor >= len(gpu_staged):
                    raise KeyError(
                        f"static share {share.path_id!r} has no staged "
                        f"candidate left for pair ({src}, {dst})"
                    )
                resolved.append((gpu_staged[staged_cursor], share))
                staged_cursor += 1
            elif share.path_id in by_kind:
                resolved.append((by_kind[share.path_id], share))
            else:
                raise KeyError(
                    f"static share references unavailable path {share.path_id!r} "
                    f"for pair ({src}, {dst})"
                )
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


__all__ = ["CudaIpcModule", "PutResult"]
