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
  :class:`CompiledPath` per active assignment.
* :class:`GraphCache` — an LRU of graphs keyed by
  ``(src, dst, nbytes, mode, load-bucket, exclusions, degrade-level)``.
  Exact ``nbytes`` is the "size bucket": chunk schedules and byte shares
  are size-exact, and replay must be bit-identical, so two sizes can never
  share a graph.

A graph is stale exactly when its plan is.  The plan is a pure function
of the key and the calibrated parameter store: a dynamic plan is
Algorithm 1 over the configured paths minus the key's exclusions, at its
load bucket and degrade level, and single and static plans read only the
config and the store.  So only the planner's two invalidation signals
can make one stale, and each drops the affected plans and graphs with
one predicate (:meth:`GraphCache.invalidate`):

* **drift refits** — :meth:`PathPlanner.refresh_params` (recalibrated
  (α̂, β̂) make every plan crossing the refit hops stale);
* **quarantine** — :meth:`PathPlanner.invalidate_path` (plans routing
  bytes over the path).

A load-bucket change misses and compiles a fresh graph (the old one stays
for when load returns to its bucket, exactly like the plan cache).  Other
health transitions change nothing a plan reads: a suspect path is still
planned over, and a quarantined or probing one enters the key through the
exclusions.  A faulted round does not drop its graph either; only its
recovery replans compile one-shot.

A compiled schedule is the pipeline's only execution form: cache misses
compile and store, recovery replans and direct ``PipelineEngine.execute``
callers compile one-shot (bypassing the cache).  The resulting timelines
(tracer records, clock, byte accounting) are pinned bit-exactly by the
golden digests in ``tests/golden/timelines.json``.
"""

from __future__ import annotations

import time
from collections.abc import Callable
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

    # ------------------------------------------------------------------
    def key_for(
        self,
        src: int,
        dst: int,
        nbytes: int,
        mode: str,
        *,
        load_key: tuple = (),
        excluded: tuple[str, ...] = (),
        degrade: int = 0,
    ) -> tuple:
        """The graph cache key (see module docstring for the semantics).

        ``degrade`` is the overload-degradation level the plan was built
        at (DESIGN.md §5h): degraded graphs must never replay for healthy
        submits (and vice versa), so the level joins the key.
        """
        return (src, dst, int(nbytes), mode, load_key, excluded, degrade)

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
    ) -> TransferGraph:
        """Compile ``plan`` and cache the graph under ``key``."""
        wall0 = time.perf_counter()
        paths = compile_plan(plan, pipeline)
        wall = time.perf_counter() - wall0
        graph = TransferGraph(key=key, plan=plan, paths=paths, compile_wall_s=wall)
        self.compiles += 1
        self.compile_wall_s += wall
        self.cache.put(key, graph)
        return graph

    def invalidate(self, stale: Callable[[TransferPlan], bool]) -> int:
        """Drop every graph whose plan ``stale`` marks; returns the count.

        The planner calls this with the predicate it drops its own cached
        plans by, so a graph never outlives the plan it froze.
        """
        return self.cache.invalidate(lambda key, graph: stale(graph.plan))

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
