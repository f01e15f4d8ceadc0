"""Model parameters: per-path (α, β, ε) and their Ω/Δ reductions.

The paper's Table 1 notation maps onto :class:`PathParams`:

=============  =======================================================
``alpha1``     α_i — startup latency of the (first) link
``beta1``      β_i — bandwidth of the (first) link
``epsilon``    ε_i — synchronization overhead at the staging device
``alpha2``     α'_i — startup latency of the second link (staged only)
``beta2``      β'_i — bandwidth of the second link (staged only)
``Delta``      Δ_i = α_i + α'_i + ε_i
``Omega``      Ω_i = 1/β_i + 1/β'_i
=============  =======================================================

A :class:`ParameterStore` holds calibrated per-hop estimates (Step 1 of the
paper's Fig. 2a) keyed by the hop's channel tuple, plus per-staging-kind ε̂
and the topology constants φ̂.  The planner reads paths' parameters from the
store; ground-truth fallbacks built directly from a topology are provided
for tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.topology.node import NodeTopology
    from repro.topology.routing import PathDescriptor

# The checks below are chained comparisons with ``_INF``.  Any comparison
# with NaN is False, so each one rejects NaN and ±inf as well as values out
# of range (Python's json module reads ``NaN`` and ``Infinity``).
_INF = math.inf


@dataclass(frozen=True, slots=True)
class PathParams:
    """Hockney parameters of one candidate path (direct or staged)."""

    path_id: str
    alpha1: float
    beta1: float
    epsilon: float = 0.0
    alpha2: float | None = None
    beta2: float | None = None
    initiation: float = 0.0  # extra latency from sequentially scheduled paths

    def __post_init__(self) -> None:
        if not (0 <= self.alpha1 < _INF and 0 < self.beta1 < _INF):
            raise ValueError(f"{self.path_id}: invalid first-link parameters")
        if (self.alpha2 is None) != (self.beta2 is None):
            raise ValueError(f"{self.path_id}: staged paths need both alpha2 and beta2")
        if self.alpha2 is not None and not (
            0 <= self.alpha2 < _INF and 0 < self.beta2 < _INF
        ):
            raise ValueError(f"{self.path_id}: invalid second-link parameters")
        if not (0 <= self.epsilon < _INF and 0 <= self.initiation < _INF):
            raise ValueError(f"{self.path_id}: negative or non-finite overhead")

    # ------------------------------------------------------------------
    @property
    def is_staged(self) -> bool:
        return self.alpha2 is not None

    @property
    def Delta(self) -> float:
        """Δ_i = α_i + α'_i + ε_i (plus sequential-initiation correction)."""
        extra = (self.alpha2 + self.epsilon) if self.is_staged else 0.0
        return self.alpha1 + extra + self.initiation

    @property
    def Omega(self) -> float:
        """Ω_i = 1/β_i + 1/β'_i (1/β_i for direct paths)."""
        out = 1.0 / self.beta1
        if self.is_staged:
            out += 1.0 / self.beta2
        return out

    @property
    def bottleneck_first(self) -> bool:
        """True when the first link is the slower one (Eq. 13 case 1)."""
        if not self.is_staged:
            return True
        return self.beta1 < self.beta2

    def describe(self) -> str:
        base = (
            f"{self.path_id}: a1={self.alpha1 * 1e6:.2f}us "
            f"b1={self.beta1 / 1e9:.1f}GB/s"
        )
        if self.is_staged:
            base += (
                f" eps={self.epsilon * 1e6:.2f}us a2={self.alpha2 * 1e6:.2f}us "
                f"b2={self.beta2 / 1e9:.1f}GB/s"
            )
        return base


@dataclass(frozen=True)
class LinkEstimate:
    """Calibrated Hockney parameters of one hop (α̂, β̂) with fit metadata."""

    alpha: float
    beta: float
    r_squared: float = 1.0
    samples: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.alpha < _INF and 0 < self.beta < _INF):
            raise ValueError("invalid link estimate")


class ParameterStore:
    """Per-topology calibrated model parameters (paper Fig. 2a, Step 1).

    Keys are hop channel tuples; values are :class:`LinkEstimate`.  ε̂ is
    stored per staging kind ("gpu" / "host"), and the topology constants φ̂
    per path id (falling back to a global default).
    """

    def __init__(self, system: str = "") -> None:
        self.system = system
        self._links: dict[tuple[str, ...], LinkEstimate] = {}
        self._epsilon: dict[str, float] = {}
        self._phi: dict[str, float] = {}
        self.default_phi: float = 0.1
        self.launch_overhead: float = 0.0

    # ------------------------------------------------------------------
    def set_link(self, hop: tuple[str, ...], estimate: LinkEstimate) -> None:
        self._links[tuple(hop)] = estimate

    def link(self, hop: tuple[str, ...]) -> LinkEstimate:
        try:
            return self._links[tuple(hop)]
        except KeyError:
            raise KeyError(
                f"no calibrated estimate for hop {hop}; run calibration first"
            ) from None

    def has_link(self, hop: tuple[str, ...]) -> bool:
        return tuple(hop) in self._links

    def set_epsilon(self, staging_kind: str, value: float) -> None:
        if staging_kind not in ("gpu", "host"):
            raise ValueError("staging_kind must be 'gpu' or 'host'")
        if not 0 <= value < _INF:
            raise ValueError("epsilon must be finite and >= 0")
        self._epsilon[staging_kind] = float(value)

    def epsilon(self, staging_kind: str) -> float:
        return self._epsilon.get(staging_kind, 0.0)

    def set_phi(self, path_id: str, value: float) -> None:
        if not 0 < value < _INF:
            raise ValueError("phi must be finite and > 0")
        self._phi[path_id] = float(value)

    def phi(self, path_id: str) -> float:
        return self._phi.get(path_id, self.default_phi)

    # ------------------------------------------------------------------
    def path_params(
        self, path: "PathDescriptor", *, initiation: float = 0.0
    ) -> PathParams:
        """Assemble :class:`PathParams` for a candidate path.

        ``initiation`` is the sequential-initiation latency of the paths
        launched before this one (Algorithm 1, Line 18).
        """
        first = self.link(path.hops[0])
        if len(path.hops) == 1:
            return PathParams(
                path_id=path.path_id,
                alpha1=first.alpha,
                beta1=first.beta,
                initiation=initiation,
            )
        second = self.link(path.hops[1])
        staging_kind = "gpu" if path.via is not None else "host"
        return PathParams(
            path_id=path.path_id,
            alpha1=first.alpha,
            beta1=first.beta,
            epsilon=self.epsilon(staging_kind),
            alpha2=second.alpha,
            beta2=second.beta,
            initiation=initiation,
        )

    # ------------------------------------------------------------------
    # Persistence (the paper stores extracted parameters on each node)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        payload = {
            "system": self.system,
            "default_phi": self.default_phi,
            "launch_overhead": self.launch_overhead,
            "links": [
                {
                    "hop": list(hop),
                    "alpha": est.alpha,
                    "beta": est.beta,
                    "r_squared": est.r_squared,
                    "samples": est.samples,
                }
                for hop, est in sorted(self._links.items())
            ],
            "epsilon": self._epsilon,
            "phi": self._phi,
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ParameterStore":
        payload = json.loads(text)
        store = cls(system=payload.get("system", ""))
        store.default_phi = payload.get("default_phi", 0.1)
        store.launch_overhead = payload.get("launch_overhead", 0.0)
        if not 0 <= store.launch_overhead < _INF:
            raise ValueError("launch_overhead must be finite and >= 0")
        for entry in payload.get("links", []):
            store.set_link(
                tuple(entry["hop"]),
                LinkEstimate(
                    alpha=entry["alpha"],
                    beta=entry["beta"],
                    r_squared=entry.get("r_squared", 1.0),
                    samples=entry.get("samples", 0),
                ),
            )
        for kind, value in payload.get("epsilon", {}).items():
            store.set_epsilon(kind, value)
        for path_id, value in payload.get("phi", {}).items():
            store.set_phi(path_id, value)
        return store

    # ------------------------------------------------------------------
    @classmethod
    def ground_truth(cls, topo: "NodeTopology") -> "ParameterStore":
        """A store built from the topology's nominal parameters.

        Uses hop capacity (min channel β, summed α) — i.e. what a perfect
        calibration of an unloaded system would measure, ignoring sharing.
        Convenient for unit tests; experiments use real calibration.
        """
        from repro.topology.routing import enumerate_paths

        store = cls(system=topo.name)
        store.set_epsilon("gpu", topo.sync.gpu)
        store.set_epsilon("host", topo.sync.host)
        for src in range(topo.num_gpus):
            for dst in range(topo.num_gpus):
                if src == dst:
                    continue
                for path in enumerate_paths(topo, src, dst, include_host=True):
                    for hop in path.hops:
                        if not store.has_link(hop):
                            store.set_link(
                                hop,
                                LinkEstimate(
                                    alpha=topo.hop_alpha(hop),
                                    beta=topo.hop_beta(hop),
                                ),
                            )
        return store


__all__ = ["PathParams", "LinkEstimate", "ParameterStore"]
