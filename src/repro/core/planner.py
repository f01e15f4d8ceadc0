"""Algorithm 1: the runtime path-configuration planner.

Given (src, dst, message size, candidate paths) the planner

1. checks the configuration cache (Lines 4–6);
2. resolves each path's calibrated link parameters (Lines 7–15);
3. computes the pipelined effective Ω_i, Δ_i with the φ linearisation and
   the sequential-initiation correction of Line 18 (Lines 16–21);
4. solves the equal-time system for θ* (Lines 22–26);
5. converts fractions into aligned byte shares, gives the rounding
   leftover to the direct path (Lines 27–29), and caches the result.

The computation is O(paths) per miss and O(1) per hit, which is what makes
the <0.1 % runtime-overhead claim of §5 hold (see the planner-overhead
bench).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.core.chunking import (
    EffectiveParams,
    effective_params,
    fit_phi_for_sizes,
    linear_chunks,
    phi_at,
)
from repro.core.optimizer import optimal_fractions
from repro.core.params import ParameterStore, PathParams
from repro.topology.node import NodeTopology
from repro.topology.routing import PathDescriptor, PathKind, enumerate_paths
from repro.units import MiB
from repro.util.cache import LRUCache

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.load import LoadSnapshot

#: Message-size window used to fit φ when no calibrated value exists.
DEFAULT_PHI_SIZES = tuple(int(2**i * MiB) for i in range(1, 10))  # 2MiB..512MiB


@dataclass(frozen=True)
class PathAssignment:
    """One path's share of a planned transfer."""

    path: PathDescriptor
    params: PathParams
    effective: EffectiveParams
    theta: float
    nbytes: int
    chunks: int

    def describe(self) -> str:
        return (
            f"{self.path.path_id}: theta={self.theta:.4f} "
            f"bytes={self.nbytes} chunks={self.chunks}"
        )


@dataclass(frozen=True)
class TransferPlan:
    """The planner's output: byte shares and chunk counts per path."""

    src: int
    dst: int
    nbytes: int
    assignments: tuple[PathAssignment, ...]
    predicted_time: float
    from_cache: bool = False

    @property
    def predicted_bandwidth(self) -> float:
        return self.nbytes / self.predicted_time if self.predicted_time > 0 else 0.0

    # cached: plans are frozen and these are walked once per execution
    # round plus once per recorded plan span (cached_property writes the
    # instance __dict__ directly, which frozen dataclasses permit)
    @cached_property
    def active_assignments(self) -> tuple[PathAssignment, ...]:
        return tuple(a for a in self.assignments if a.nbytes > 0)

    @cached_property
    def num_active_paths(self) -> int:
        return len(self.active_assignments)

    def assignment_for(self, path_id: str) -> PathAssignment:
        for a in self.assignments:
            if a.path.path_id == path_id:
                return a
        raise KeyError(path_id)

    def theta_vector(self) -> np.ndarray:
        return np.array([a.theta for a in self.assignments])

    def describe(self) -> str:
        lines = [
            f"TransferPlan GPU{self.src}->GPU{self.dst} n={self.nbytes} "
            f"T*={self.predicted_time * 1e6:.1f}us "
            f"BW*={self.predicted_bandwidth / 1e9:.1f}GB/s"
        ]
        lines += [f"  {a.describe()}" for a in self.assignments]
        return "\n".join(lines)


class PathPlanner:
    """Algorithm 1 with configuration cache.

    Parameters
    ----------
    topology:
        The node description (used for path enumeration and ε fallbacks).
    store:
        Calibrated parameters (Fig. 2a Step 1/2).  Defaults to the
        topology's ground-truth parameters.
    pipelining:
        Use the φ-linearised pipelined reductions of Eq. (22) for staged
        paths; ``False`` falls back to the non-pipelined Eq. (11)
        (the no-pipelining ablation).
    sequential_initiation:
        Apply the Line-18 correction: path *i*'s Δ accumulates the launch
        latencies of the paths scheduled before it.
    alignment:
        Byte shares are rounded down to this multiple (GPU copies want
        aligned buffers); the remainder goes to the direct path.
    max_chunks:
        Upper bound on per-path chunk counts (pipeline queue depth).
    phi_mode:
        How the topology constants φ of Eq. (19) are obtained:
        ``"per-size"`` (default) anchors φ at the current message size —
        the paper's ``c·f(n)`` form, exact at the anchor point;
        ``"calibrated"`` uses a single global constant per path (from the
        parameter store, or a window fit) — the cheaper variant used as an
        ablation.
    """

    def __init__(
        self,
        topology: NodeTopology,
        store: ParameterStore | None = None,
        *,
        pipelining: bool = True,
        sequential_initiation: bool = True,
        cache_capacity: int = 512,
        alignment: int = 256,
        max_chunks: int = 64,
        phi_sizes: Sequence[int] = DEFAULT_PHI_SIZES,
        phi_mode: str = "per-size",
    ) -> None:
        if phi_mode not in ("per-size", "calibrated"):
            raise ValueError("phi_mode must be 'per-size' or 'calibrated'")
        if alignment < 1:
            raise ValueError("alignment must be >= 1")
        if max_chunks < 1:
            raise ValueError("max_chunks must be >= 1")
        self.topology = topology
        self.store = store if store is not None else ParameterStore.ground_truth(topology)
        self.pipelining = pipelining
        self.sequential_initiation = sequential_initiation
        self.alignment = alignment
        self.max_chunks = max_chunks
        self.phi_sizes = tuple(phi_sizes)
        self.phi_mode = phi_mode
        self.cache: LRUCache = LRUCache(cache_capacity)
        self._phi_cache: dict[str, float] = {}
        self._candidates: dict[tuple, tuple[PathDescriptor, ...]] = {}
        #: Optional GraphCache of compiled transfer graphs.  Graphs embed
        #: resolved plans, so every plan-cache invalidation below drops
        #: them by the same predicate — a graph never outlives its plan.
        self.graphs = None

    # ------------------------------------------------------------------
    def plan(
        self,
        src: int,
        dst: int,
        nbytes: int,
        *,
        include_host: bool = True,
        max_gpu_staged: int | None = None,
        exclude: Iterable[str] = (),
        use_cache: bool = True,
        load: "LoadSnapshot | None" = None,
        degrade: int = 0,
    ) -> TransferPlan:
        """Plan a transfer over all (non-excluded) available paths.

        ``load`` is an optional per-channel in-flight snapshot (from the
        :class:`~repro.runtime.load.LoadTracker`); when given, every hop's β
        is derated by ``1/(1 + load)`` with the *bucketed* flow count of the
        hop's busiest channel, and the bucketed form joins the cache key —
        equal buckets produce identical plans, so caching stays sound.  An
        idle snapshot keys (and plans) identically to ``load=None``.

        ``degrade`` requests a *cheaper* plan under overload (DESIGN.md
        §5h): level 1 caps the candidate set at two paths (direct first)
        and quarters the chunk budget, level 2 collapses to a single path
        with one chunk.  The level joins the cache key, so degraded and
        full plans coexist in the cache.
        """
        exclude = tuple(sorted(exclude))
        degrade = max(0, min(int(degrade), 2))
        if load is not None and load.is_idle:
            load = None
        load_key = () if load is None else load.bucket_key()
        key = (
            src, dst, int(nbytes), include_host, max_gpu_staged, exclude,
            load_key, degrade,
        )
        if use_cache:
            cached = self.cache.get(key)
            if cached is not None:
                return TransferPlan(
                    src=cached.src,
                    dst=cached.dst,
                    nbytes=cached.nbytes,
                    assignments=cached.assignments,
                    predicted_time=cached.predicted_time,
                    from_cache=True,
                )
        paths = self.candidates(
            src, dst, include_host=include_host,
            max_gpu_staged=max_gpu_staged, exclude=exclude,
        )
        if degrade:
            paths = self._degrade_paths(paths, degrade)
        plan = self.plan_for_paths(
            src, dst, nbytes, paths, load=load,
            max_chunks=self._degraded_max_chunks(degrade),
        )
        if use_cache:
            self.cache.put(key, plan)
        return plan

    def candidates(
        self,
        src: int,
        dst: int,
        *,
        include_host: bool = True,
        max_gpu_staged: int | None = None,
        exclude: Iterable[str] = (),
    ) -> tuple[PathDescriptor, ...]:
        """The pair's candidate paths in canonical order, enumerated once.

        Enumeration reads only the topology, which is fixed at
        construction, so the memo never needs invalidating; it hands out
        tuples, so no caller can mutate a shared list.  It holds at most
        pairs × (``include_host``, ``max_gpu_staged``, exclusion set)
        entries.  :func:`~repro.topology.routing.enumerate_paths`'s
        ``ValueError`` (src == dst, an unknown GPU, no candidate left)
        propagates and is not memoised.
        """
        key = (src, dst, include_host, max_gpu_staged, tuple(sorted(exclude)))
        paths = self._candidates.get(key)
        if paths is None:
            paths = self._candidates[key] = tuple(
                enumerate_paths(
                    self.topology, src, dst, include_host=include_host,
                    max_gpu_staged=max_gpu_staged, exclude=key[-1],
                )
            )
        return paths

    @staticmethod
    def _plan_load_bucket(plan: TransferPlan, load: "LoadSnapshot") -> int:
        """Worst bucketed hop load the plan was derated against (0 = idle)."""
        return max(
            (
                load.hop_load(hop)
                for a in plan.active_assignments
                for hop in a.path.hops
            ),
            default=0,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _degrade_paths(
        paths: Sequence[PathDescriptor], degrade: int
    ) -> list[PathDescriptor]:
        """Degradation ladder over the candidate set (direct path first)."""
        direct = [p for p in paths if p.kind is PathKind.DIRECT]
        rest = [p for p in paths if p.kind is not PathKind.DIRECT]
        ordered = direct + rest
        limit = 1 if degrade >= 2 else 2
        return ordered[:limit]

    def _degraded_max_chunks(self, degrade: int) -> int | None:
        """Chunk-budget cap per degrade level (None = planner default)."""
        if degrade <= 0:
            return None
        if degrade == 1:
            return max(1, self.max_chunks // 4)
        return 1

    # ------------------------------------------------------------------
    def plan_for_paths(
        self,
        src: int,
        dst: int,
        nbytes: int,
        paths: Sequence[PathDescriptor],
        *,
        load: "LoadSnapshot | None" = None,
        max_chunks: int | None = None,
    ) -> TransferPlan:
        """Algorithm 1 body for an explicit candidate-path list.

        With ``load`` given, per-hop bandwidths are derated by
        ``β/(1 + load)`` before θ* is solved (see :meth:`plan`).
        ``max_chunks`` overrides the planner-wide chunk budget (used by
        the overload degradation ladder).
        """
        if nbytes < 0:
            raise ValueError("negative message size")
        if not paths:
            raise ValueError("at least one path required")
        chunk_budget = max_chunks if max_chunks is not None else self.max_chunks
        if load is not None and load.is_idle:
            load = None
        if nbytes == 0:
            zero = [
                PathAssignment(
                    path=p,
                    params=self._params_for(p, 0.0),
                    effective=effective_params(self._params_for(p, 0.0), None),
                    theta=1.0 if i == 0 else 0.0,
                    nbytes=0,
                    chunks=1,
                )
                for i, p in enumerate(paths)
            ]
            first = zero[0].params
            return TransferPlan(
                src=src, dst=dst, nbytes=0, assignments=tuple(zero),
                predicted_time=first.alpha1,
            )

        # Lines 7-21: per-path parameters and effective reductions, with the
        # sequential-initiation accumulation of Line 18.
        params_list: list[PathParams] = []
        effectives: list[EffectiveParams] = []
        accumulated = 0.0
        theta_ref = 1.0 / len(paths)
        for p in paths:
            params = self._params_for(p, accumulated, load)
            params_list.append(params)
            phi = (
                self._phi_for(params, nbytes, theta_ref)
                if (self.pipelining and p.is_staged)
                else None
            )
            effectives.append(effective_params(params, phi))
            if self.sequential_initiation:
                launch = (
                    self.store.launch_overhead
                    if self.store.launch_overhead > 0
                    else params.alpha1
                )
                accumulated += launch

        # Lines 22-26: equal-time fractions.
        keep = next(
            (i for i, p in enumerate(paths) if p.kind is PathKind.DIRECT), None
        )
        solution = optimal_fractions(
            params_list,
            nbytes,
            omegas=[e.omega for e in effectives],
            deltas=[e.delta for e in effectives],
            keep=keep,
        )

        # Lines 27-29: byte shares, aligned, leftover to the direct path.
        thetas = solution.theta.tolist()
        shares = [
            int(theta * nbytes) // self.alignment * self.alignment
            for theta in thetas
        ]
        leftover = nbytes - sum(shares)
        sink = keep if keep is not None else thetas.index(max(thetas))
        shares[sink] += leftover

        assignments = []
        for p, params, eff, share in zip(paths, params_list, effectives, shares):
            theta = share / nbytes
            if p.is_staged and share > 0 and self.pipelining:
                phi = (
                    eff.phi
                    if eff.phi is not None
                    else self._phi_for(params, nbytes, theta)
                )
                chunks = linear_chunks(
                    params, theta, nbytes, phi, max_chunks=chunk_budget,
                )
            else:
                chunks = 1
            assignments.append(
                PathAssignment(
                    path=p,
                    params=params,
                    effective=eff,
                    theta=theta,
                    nbytes=share,
                    chunks=chunks,
                )
            )
        # Predicted time re-evaluated at the *rounded* shares:
        predicted = max(
            a.theta * nbytes * a.effective.omega + a.effective.delta
            for a in assignments
            if a.nbytes > 0
        )
        return TransferPlan(
            src=src,
            dst=dst,
            nbytes=nbytes,
            assignments=tuple(assignments),
            predicted_time=float(predicted),
        )

    # ------------------------------------------------------------------
    def refresh_params(self, hops: Iterable[tuple] | None = None) -> int:
        """Pick up in-place parameter-store changes (online recalibration).

        Cached plans embed resolved :class:`PathParams`, so a store update
        alone is invisible until the affected entries are dropped.  With
        ``hops`` given, only plans whose assignments cross one of those
        hops are invalidated (the drift controller refits per hop); with
        ``None`` everything goes.  The φ memo is cleared either way —
        φ derives from (α̂, β̂, ε̂).  Returns the number of plans dropped.
        """
        self._phi_cache.clear()
        if hops is None:
            return self._invalidate(lambda plan: True)
        hopset = {tuple(h) for h in hops}
        if not hopset:
            return 0
        return self._invalidate(
            lambda plan: any(
                tuple(h) in hopset
                for a in plan.assignments
                for h in a.path.hops
            )
        )

    # ------------------------------------------------------------------
    def invalidate_path(self, src: int, dst: int, path_id: str) -> int:
        """Drop cached plans for a pair that route bytes over ``path_id``.

        Called when the path-health registry quarantines a path: cached
        plans embedding it would keep steering bytes onto a dead link even
        though new planning excludes it (exclusions are part of the cache
        key, so only *stale* entries need dropping).  Returns the number of
        plans invalidated.
        """
        return self._invalidate(
            lambda plan: plan.src == src
            and plan.dst == dst
            and any(
                a.path.path_id == path_id and a.nbytes > 0
                for a in plan.assignments
            )
        )

    def _invalidate(self, stale: Callable[[TransferPlan], bool]) -> int:
        """Drop the cached plans ``stale`` marks, and the compiled graphs
        that froze such a plan; returns the number of plans dropped."""
        if self.graphs is not None:
            self.graphs.invalidate(stale)
        return self.cache.invalidate(lambda key, plan: stale(plan))

    # ------------------------------------------------------------------
    def predict_time(self, src: int, dst: int, nbytes: int, **kwargs) -> float:
        """Model-predicted completion time of the optimal configuration."""
        return self.plan(src, dst, nbytes, **kwargs).predicted_time

    def predict_bandwidth(self, src: int, dst: int, nbytes: int, **kwargs) -> float:
        return self.plan(src, dst, nbytes, **kwargs).predicted_bandwidth

    # ------------------------------------------------------------------
    def _params_for(
        self,
        path: PathDescriptor,
        initiation: float,
        load: "LoadSnapshot | None" = None,
    ) -> PathParams:
        params = self.store.path_params(path, initiation=initiation)
        if load is not None:
            params = self._derate_for_load(params, path, load)
        return params

    @staticmethod
    def _derate_for_load(
        params: PathParams, path: PathDescriptor, load: "LoadSnapshot"
    ) -> PathParams:
        """β/(1 + load) contention derate, per hop, with bucketed loads.

        ``load`` counts *other* in-flight flows (the caller acquires its own
        hold only after planning), so an uncontended hop keeps its idle β.
        Under max-min fair sharing of one saturated channel the derate is
        exact; elsewhere it is a first-order correction (DESIGN.md §5e).
        """
        first = load.hop_load(path.hops[0])
        changes: dict[str, float] = {}
        if first > 0:
            changes["beta1"] = params.beta1 / (1.0 + first)
        if len(path.hops) > 1:
            second = load.hop_load(path.hops[1])
            if second > 0:
                changes["beta2"] = params.beta2 / (1.0 + second)
        if not changes:
            return params
        return replace(params, **changes)

    def _phi_for(
        self, params: PathParams, nbytes: int, theta_ref: float
    ) -> float:
        """φ per the configured mode (see class docstring)."""
        if self.phi_mode == "per-size":
            return phi_at(params, theta_ref, nbytes)
        cached = self._phi_cache.get(params.path_id)
        if cached is not None:
            return cached
        if params.path_id in self.store._phi:  # calibrated value wins
            phi = self.store.phi(params.path_id)
        else:
            phi = fit_phi_for_sizes(params, self.phi_sizes)
        self._phi_cache[params.path_id] = phi
        return phi


def plan_transfer(
    topology: NodeTopology,
    src: int,
    dst: int,
    nbytes: int,
    *,
    store: ParameterStore | None = None,
    **kwargs,
) -> TransferPlan:
    """One-shot convenience wrapper around :class:`PathPlanner`."""
    planner = PathPlanner(topology, store)
    return planner.plan(src, dst, nbytes, **kwargs)


__all__ = ["PathPlanner", "TransferPlan", "PathAssignment", "plan_transfer"]
