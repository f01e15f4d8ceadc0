"""Contention-aware (MaxRate-style) model extension — paper future work.

The closed-form model of §3 assumes each candidate path owns its links.
That breaks on NVSwitch systems (every pair shares the same per-GPU switch
ports) and on the host path (both hops cross the same DRAM channel).  The
paper's conclusion names *MaxRate* as the intended fix.

:class:`ContentionAwareModel` implements the natural max-min variant:

* each path *i* is described by its per-channel usage ``u[i][c]`` — how many
  bytes channel *c* carries per byte sent on the path (2 when both hops of
  a staged path cross the same channel);
* steady-state path rates are computed by **progressive filling**: all path
  rates grow together until some channel saturates
  (``Σ_i u[i][c]·r_i = β_c``), paths crossing saturated channels freeze,
  repeat — the same fluid allocation the simulator's fabric converges to;
* fractions are rate-proportional (``θ_i = r_i / Σ r_j``) and the predicted
  time adds the per-path fixed costs Δ of the base model.

Because the usage matrix comes straight from the topology's hop channel
sets, the extension needs no new calibration inputs.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.params import ParameterStore
from repro.topology.node import NodeTopology
from repro.topology.routing import PathDescriptor, enumerate_paths


@dataclass(frozen=True)
class ContentionSolution:
    """Steady-state allocation over shared channels."""

    path_ids: tuple[str, ...]
    rates: np.ndarray  # bytes/second per path
    theta: np.ndarray
    aggregate_bandwidth: float
    bottlenecks: tuple[str, ...]  # channels saturated at the optimum

    def describe(self) -> str:
        parts = [
            f"{pid}: r={rate / 1e9:.1f}GB/s θ={t:.3f}"
            for pid, rate, t in zip(self.path_ids, self.rates, self.theta)
        ]
        return (
            f"aggregate={self.aggregate_bandwidth / 1e9:.1f}GB/s "
            f"bottlenecks={list(self.bottlenecks)}  " + "  ".join(parts)
        )


def usage_matrix(
    paths: Sequence[PathDescriptor],
) -> tuple[list[str], np.ndarray]:
    """(channel names, u[i][c]) for the given candidate paths."""
    channels: list[str] = []
    index: dict[str, int] = {}
    rows = []
    for p in paths:
        counts: dict[str, int] = {}
        for hop in p.hops:
            for ch in hop:
                counts[ch] = counts.get(ch, 0) + 1
        rows.append(counts)
        for ch in counts:
            if ch not in index:
                index[ch] = len(channels)
                channels.append(ch)
    u = np.zeros((len(paths), len(channels)))
    for i, counts in enumerate(rows):
        for ch, k in counts.items():
            u[i, index[ch]] = k
    return channels, u


def max_min_path_rates(
    capacities: Sequence[float], usage: np.ndarray
) -> tuple[np.ndarray, list[int]]:
    """Progressive filling over paths with usage coefficients.

    Returns per-path rates and the indices of saturated channels.
    """
    caps = np.asarray(capacities, dtype=float)
    n_paths, n_channels = usage.shape
    if caps.size != n_channels:
        raise ValueError("capacity/usage shape mismatch")
    rates = np.zeros(n_paths)
    remaining = caps.copy()
    unfrozen = np.ones(n_paths, dtype=bool)
    saturated: list[int] = []
    for _ in range(n_paths):
        if not unfrozen.any():
            break
        demand = usage[unfrozen].sum(axis=0)  # per-channel load per unit rate
        with np.errstate(divide="ignore", invalid="ignore"):
            headroom = np.where(
                demand > 0,
                np.divide(remaining, demand, out=np.full_like(remaining, np.inf),
                          where=demand > 0),
                np.inf,
            )
        increment = headroom.min()
        if not np.isfinite(increment):
            break
        rates[unfrozen] += increment
        remaining -= demand * increment
        tight = np.flatnonzero(
            (demand > 0) & (remaining <= 1e-9 * np.maximum(caps, 1.0))
        )
        saturated.extend(int(c) for c in tight if int(c) not in saturated)
        for c in tight:
            unfrozen &= usage[:, c] == 0
    return rates, saturated


class ContentionAwareModel:
    """MaxRate-style multi-path model over shared channels, with the
    topology's ground-truth parameters."""

    def __init__(self, topology: NodeTopology) -> None:
        self.topology = topology
        self.store = ParameterStore.ground_truth(topology)

    def solve(
        self,
        src: int,
        dst: int,
        *,
        include_host: bool = True,
        max_gpu_staged: int | None = None,
        min_theta: float = 1e-3,
    ) -> ContentionSolution:
        """Steady-state rates/fractions for the pair's candidate paths."""
        paths = enumerate_paths(
            self.topology,
            src,
            dst,
            include_host=include_host,
            max_gpu_staged=max_gpu_staged,
        )
        channels, u = usage_matrix(paths)
        caps = [self.topology.channels[c].beta for c in channels]
        rates, saturated = max_min_path_rates(caps, u)
        total = float(rates.sum())
        theta = rates / total if total > 0 else np.full(len(paths), 1 / len(paths))
        # Paths whose fair share is negligible are dropped outright.
        theta = np.where(theta < min_theta, 0.0, theta)
        s = theta.sum()
        if s > 0:
            theta = theta / s
        return ContentionSolution(
            path_ids=tuple(p.path_id for p in paths),
            rates=rates,
            theta=theta,
            aggregate_bandwidth=total,
            bottlenecks=tuple(channels[c] for c in saturated),
        )

    def predict_time(
        self,
        src: int,
        dst: int,
        nbytes: int,
        **solve_kwargs,
    ) -> float:
        """n / aggregate rate, plus the slowest active path's fixed costs."""
        if nbytes <= 0:
            raise ValueError("nbytes must be > 0")
        sol = self.solve(src, dst, **solve_kwargs)
        paths = enumerate_paths(
            self.topology,
            src,
            dst,
            include_host=solve_kwargs.get("include_host", True),
            max_gpu_staged=solve_kwargs.get("max_gpu_staged"),
        )
        deltas = [
            self.store.path_params(p).Delta
            for p, t in zip(paths, sol.theta)
            if t > 0
        ]
        active_rate = float(
            sum(r for r, t in zip(sol.rates, sol.theta) if t > 0)
        )
        if active_rate <= 0:
            raise RuntimeError("no usable path capacity")
        return nbytes / active_rate + (max(deltas) if deltas else 0.0)

    def predict_bandwidth(self, src: int, dst: int, nbytes: int, **kw) -> float:
        return nbytes / self.predict_time(src, dst, nbytes, **kw)

    def multipath_worthwhile(self, src: int, dst: int, **kw) -> bool:
        """Does splitting beat the best single path by more than 10 %?

        On NVSwitch-style topologies the shared ports make the answer "no"
        — the check the naive model cannot make.
        """
        sol = self.solve(src, dst, **kw)
        paths = enumerate_paths(
            self.topology, src, dst,
            include_host=kw.get("include_host", True),
            max_gpu_staged=kw.get("max_gpu_staged"),
        )
        best_single = 0.0
        for p in paths:
            single_channels, u = usage_matrix([p])
            caps = [self.topology.channels[c].beta for c in single_channels]
            rate, _ = max_min_path_rates(caps, u)
            best_single = max(best_single, float(rate[0]))
        return sol.aggregate_bandwidth > 1.1 * best_single


def concurrent_pattern_rates(
    topology: NodeTopology,
    pairs: Sequence[tuple[int, int]],
    *,
    include_host: bool = False,
    max_gpu_staged: int | None = None,
) -> dict[tuple[int, int], float]:
    """Steady-state per-message rates when several pairs transfer at once.

    Used by the collective model: a collective step is a set of concurrent
    (src, dst) exchanges whose multi-path configurations *share links*
    (message A's staged detour rides the link that message B would also
    like to use).  All candidate paths of all messages enter one max-min
    fill; a message's rate is the sum of its paths' rates.

    Single-path patterns on a full mesh come out at the direct-link rate;
    multi-path patterns gain only as much as genuinely idle links allow —
    the reason collective speedups (Fig. 7) sit far below the isolated P2P
    2.9x.
    """
    all_paths: list[PathDescriptor] = []
    owners: list[int] = []
    for m, (src, dst) in enumerate(pairs):
        for p in enumerate_paths(
            topology,
            src,
            dst,
            include_host=include_host,
            max_gpu_staged=max_gpu_staged,
        ):
            all_paths.append(p)
            owners.append(m)
    channels, u = usage_matrix(all_paths)
    caps = [topology.channels[c].beta for c in channels]
    rates, _ = max_min_path_rates(caps, u)
    out: dict[tuple[int, int], float] = {tuple(p): 0.0 for p in pairs}
    for rate, owner in zip(rates, owners):
        key = tuple(pairs[owner])
        out[key] += float(rate)
    return out


__all__ = [
    "ContentionAwareModel",
    "ContentionSolution",
    "usage_matrix",
    "max_min_path_rates",
    "concurrent_pattern_rates",
]
