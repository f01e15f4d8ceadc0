"""Compiled transfer graphs: CUDA-Graphs-style replay of planner decisions.

The planner cache made plan *lookup* nearly free, but every put still
rebuilt its execution machinery from scratch — path resolution, chunk
splitting, stream/event key construction, per-path closures — even when
the (pair, size, load, health) shape was identical to the previous
thousand transfers.  The follow-up work by the paper's group
("Multi-Path Transfers with CUDA Graphs") amortises exactly this cost by
capturing the chunk pipeline once and replaying it per transfer.

This module mirrors that design in the simulator:

* :class:`CompiledPath` — one path's frozen execution schedule: the
  resolved :class:`~repro.core.planner.PathAssignment`, the pooled-stream
  keys, the chunk byte schedule, the precomputed ε sync cost, and the
  per-chunk tag suffixes (labels are ``tag``-dependent, so only their
  invariant parts can be frozen; execution concatenates
  ``label + suffix``).
* :class:`TransferGraph` — a whole plan compiled: the immutable
  :class:`~repro.core.planner.TransferPlan` plus one
  :class:`CompiledPath` per active assignment, stamped with the
  path-health epoch it was compiled under.
* :class:`GraphCache` — an LRU of graphs keyed by
  ``(src, dst, nbytes, mode, load-bucket, health-epoch, exclusions,
  degrade-level)``.  Exact ``nbytes`` is the "size bucket": chunk schedules
  and byte shares are size-exact, and replay must be bit-identical, so
  two sizes can never share a graph.

Invalidation rides the same signals as the plan cache:

* **drift refits** — :meth:`PathPlanner.refresh_params` forwards to
  :meth:`GraphCache.invalidate_hops` (recalibrated (α̂, β̂) make every
  embedded schedule stale);
* **quarantine** — :meth:`PathPlanner.invalidate_path` forwards to
  :meth:`GraphCache.invalidate_path`;
* **load buckets** — the bucketed load snapshot joins the key, so a
  bucket change misses and compiles a fresh graph (the old one stays
  for when load returns to its bucket, exactly like the plan cache);
* **health epoch** — every circuit-breaker transition bumps the
  registry's epoch, which joins the key: a graph compiled under an old
  epoch is unreachable and falls off the LRU.

A compiled schedule is the pipeline's only execution form: cache misses
compile and store, recovery replans and direct ``PipelineEngine.execute``
callers compile one-shot (bypassing the cache).  The resulting timelines
(tracer records, clock, byte accounting) are pinned bit-exactly by the
golden digests in ``tests/golden/timelines.json``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.planner import PathAssignment, TransferPlan
from repro.util.cache import LRUCache

if TYPE_CHECKING:  # pragma: no cover
    from repro.ucx.pipeline import PipelineEngine


@dataclass(frozen=True)
class CompiledPath:
    """One path's frozen execution schedule (see module docstring)."""

    assignment: PathAssignment
    #: Pooled-stream keys, resolved per replay (streams are dropped after
    #: faults, so binding Stream objects would replay poisoned queues).
    stream_keys: tuple[tuple, ...]
    #: Devices the streams live on, parallel to ``stream_keys``.
    stream_devices: tuple[int, ...]
    #: Chunk byte schedule (empty for direct paths).
    chunk_sizes: tuple[int, ...]
    #: Precomputed staging sync cost (0.0 for direct paths).
    epsilon: float = 0.0
    #: Per-chunk copy-tag suffixes, appended to the path's label.
    h1_suffixes: tuple[str, ...] = ()
    h2_suffixes: tuple[str, ...] = ()


@dataclass
class TransferGraph:
    """A compiled planner decision, replayable per transfer."""

    key: tuple
    plan: TransferPlan
    paths: tuple[CompiledPath, ...]
    health_epoch: int
    compile_wall_s: float
    replays: int = 0

    @property
    def amortized_setup_s(self) -> float:
        """Compile cost spread over every execution the graph served."""
        return self.compile_wall_s / (1 + self.replays)


def compile_plan(
    plan: TransferPlan, pipeline: "PipelineEngine"
) -> tuple[CompiledPath, ...]:
    """Freeze a plan's per-path execution schedules.

    Everything the pipeline needs to issue a path that does not depend on
    the transfer's tag is resolved here once: stream-pool keys, chunk byte
    splits, the ε sync cost, and the invariant suffix of every per-chunk
    copy tag.
    """
    compiled = []
    for a in plan.active_assignments:
        if not a.path.is_staged:
            compiled.append(
                CompiledPath(
                    assignment=a,
                    stream_keys=((plan.src, plan.dst, a.path.path_id, "direct"),),
                    stream_devices=(plan.src,),
                    chunk_sizes=(),
                )
            )
            continue
        stage_dev = a.path.via if a.path.via is not None else plan.src
        chunks = pipeline._chunk_sizes(a.nbytes, a.chunks)
        n = len(chunks)
        compiled.append(
            CompiledPath(
                assignment=a,
                stream_keys=(
                    (plan.src, plan.dst, a.path.path_id, "h1"),
                    (plan.src, plan.dst, a.path.path_id, "h2"),
                ),
                stream_devices=(plan.src, stage_dev),
                chunk_sizes=tuple(chunks),
                epsilon=pipeline.runtime.sync_cost(via_gpu=a.path.via is not None),
                h1_suffixes=tuple(f":h1:{c}" for c in range(n)),
                h2_suffixes=tuple(f":h2:{c}" for c in range(n)),
            )
        )
    return tuple(compiled)


class GraphCache:
    """LRU of compiled transfer graphs plus its invalidation surface."""

    def __init__(self, *, capacity: int = 256) -> None:
        # One cache per context, and a context's config is fixed: every
        # graph in it was shaped by the same knobs, so they stay out of
        # the key.
        self.cache: LRUCache[tuple, TransferGraph] = LRUCache(capacity)
        self.compiles = 0
        self.replays = 0
        self.compile_wall_s = 0.0
        self.recovery_invalidations = 0

    # ------------------------------------------------------------------
    def key_for(
        self,
        src: int,
        dst: int,
        nbytes: int,
        mode: str,
        *,
        load_key: tuple = (),
        health_epoch: int = 0,
        excluded: tuple[str, ...] = (),
        degrade: int = 0,
    ) -> tuple:
        """The graph cache key (see module docstring for the semantics).

        ``degrade`` is the overload-degradation level the plan was built
        at (DESIGN.md §5h): degraded graphs must never replay for healthy
        submits (and vice versa), so the level joins the key.
        """
        return (
            src, dst, int(nbytes), mode, load_key, health_epoch, excluded, degrade
        )

    def get(self, key: tuple) -> TransferGraph | None:
        graph = self.cache.get(key)
        if graph is not None:
            graph.replays += 1
            self.replays += 1
        return graph

    def compile_and_store(
        self,
        key: tuple,
        plan: TransferPlan,
        pipeline: "PipelineEngine",
        *,
        health_epoch: int = 0,
    ) -> TransferGraph:
        """Compile ``plan`` and cache the graph under ``key``."""
        wall0 = time.perf_counter()
        paths = compile_plan(plan, pipeline)
        wall = time.perf_counter() - wall0
        graph = TransferGraph(
            key=key,
            plan=plan,
            paths=paths,
            health_epoch=health_epoch,
            compile_wall_s=wall,
        )
        self.compiles += 1
        self.compile_wall_s += wall
        self.cache.put(key, graph)
        return graph

    # ------------------------------------------------------------------
    # Invalidation (same signals as the plan cache)
    # ------------------------------------------------------------------
    def invalidate_all(self) -> int:
        """Drop every graph (full drift refit)."""
        return self.cache.invalidate(lambda key, graph: True)

    def invalidate_hops(self, hops) -> int:
        """Drop graphs whose plan crosses any of ``hops`` (drift refit).

        ``None`` means a full refit: everything goes.
        """
        if hops is None:
            return self.invalidate_all()
        hopset = {tuple(h) for h in hops}
        if not hopset:
            return 0
        return self.cache.invalidate(
            lambda key, graph: any(
                tuple(h) in hopset
                for a in graph.plan.assignments
                for h in a.path.hops
            )
        )

    def invalidate_path(self, src: int, dst: int, path_id: str) -> int:
        """Drop a pair's graphs routing bytes over ``path_id`` (quarantine)."""
        return self.cache.invalidate(
            lambda key, graph: graph.plan.src == src
            and graph.plan.dst == dst
            and any(
                a.path.path_id == path_id and a.nbytes > 0
                for a in graph.plan.assignments
            )
        )

    def discard(self, key: tuple) -> int:
        """Drop one graph (a recovery replan proved its schedule wrong)."""
        dropped = self.cache.invalidate(lambda k, graph: k == key)
        self.recovery_invalidations += dropped
        return dropped

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.cache)

    def stats(self) -> dict:
        """Structured counters, pulled by the ``transfer_graph`` collector."""
        entries = list(self.cache._data.values())
        return {
            **self.cache.stats(),
            "compiles": self.compiles,
            "replays": self.replays,
            "compile_wall_s": self.compile_wall_s,
            "recovery_invalidations": self.recovery_invalidations,
            "live_replays": sum(g.replays for g in entries),
        }

    def report_rows(self) -> list[dict]:
        """Per-graph rows for ``cli graphs``: hit counts and amortised cost."""
        rows = []
        for graph in self.cache._data.values():
            plan = graph.plan
            rows.append({
                "src": plan.src,
                "dst": plan.dst,
                "nbytes": plan.nbytes,
                "mode": graph.key[3],
                "paths": plan.num_active_paths,
                "chunks": sum(len(p.chunk_sizes) or 1 for p in graph.paths),
                "replays": graph.replays,
                "compile_us": graph.compile_wall_s * 1e6,
                "amortized_us": graph.amortized_setup_s * 1e6,
            })
        rows.sort(key=lambda r: -r["replays"])
        return rows


__all__ = [
    "CompiledPath",
    "TransferGraph",
    "GraphCache",
    "compile_plan",
]
