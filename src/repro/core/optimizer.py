"""Closed-form optimal message fractions θ* (paper §3.2–3.3).

For paths with effective linear times ``T_i = θ_i n Ω_i + Δ_i`` (Eq. 21 —
this covers direct paths, non-pipelined staged paths, and φ-linearised
pipelined paths), the optimum equalises all path times (Theorem 1), giving
Eq. (11)/(24)::

    θ_i = 1/(Ω_i Σ_j 1/Ω_j) · (1 − Δ_i/n Σ_j 1/Ω_j + 1/n Σ_j Δ_j/Ω_j)

For small messages this closed form can produce **negative** fractions —
the fixed costs Δ_i of a slow path exceed its useful contribution.  The
paper notes that "any path, except the direct one, may be excluded as a
result of the optimization"; :func:`optimal_fractions` implements that by
iteratively dropping the path with the most negative fraction and
re-solving (a water-filling active-set step that terminates in ≤ p rounds).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.params import PathParams


@dataclass(frozen=True)
class FractionSolution:
    """Result of the fraction optimisation.

    ``theta`` is aligned with the *input* path list; dropped paths carry 0.
    ``predicted_time`` is the equalised per-path time T* (Eq. 4 optimum)
    under the linear model used for the solve.
    """

    theta: np.ndarray
    active: tuple[bool, ...]
    predicted_time: float
    omegas: np.ndarray
    deltas: np.ndarray

    @property
    def num_active(self) -> int:
        return int(sum(self.active))

    def describe(self, path_ids: Sequence[str] | None = None) -> str:
        names = path_ids or [f"path{i}" for i in range(self.theta.size)]
        parts = [
            f"{name}: θ={t:.4f}{'' if a else ' (dropped)'}"
            for name, t, a in zip(names, self.theta, self.active)
        ]
        return (
            f"T*={self.predicted_time * 1e6:.1f}us  " + "  ".join(parts)
        )


def solve_equal_time(
    omegas: np.ndarray, deltas: np.ndarray, nbytes: float
) -> tuple[np.ndarray, float]:
    """Solve Eq. (11)/(24) for the given Ω, Δ vectors (no clamping).

    Returns ``(theta, T*)`` where ``T* = (n + Σ Δ_j/Ω_j) / Σ 1/Ω_j`` is the
    equalised completion time.  Fractions may be negative for small n.
    """
    if nbytes <= 0:
        raise ValueError("message size must be > 0")
    inv = 1.0 / omegas
    inv_sum = inv.sum()
    delta_sum = (deltas * inv).sum()
    t_star = (nbytes + delta_sum) / inv_sum
    theta = (t_star - deltas) * inv / nbytes
    return theta, float(t_star)


def optimal_fractions(
    paths: Sequence[PathParams],
    nbytes: float,
    *,
    omegas: Sequence[float] | None = None,
    deltas: Sequence[float] | None = None,
    keep: int | None = 0,
) -> FractionSolution:
    """Optimal fractions for the given paths and message size.

    By default Ω/Δ come from the paths' non-pipelined reductions
    (``PathParams.Omega`` / ``.Delta``, Eq. 11); the planner passes
    pipelined effective values (Eq. 22) explicitly via ``omegas``/
    ``deltas``.

    ``keep`` protects a path index from being dropped (the direct path, by
    paper convention); pass ``None`` to allow dropping any path.
    """
    if not paths:
        raise ValueError("at least one path required")
    n = float(nbytes)
    if n <= 0:
        raise ValueError("message size must be > 0")
    om = np.array(
        [p.Omega for p in paths] if omegas is None else list(omegas), dtype=float
    )
    de = np.array(
        [p.Delta for p in paths] if deltas is None else list(deltas), dtype=float
    )
    if om.size != len(paths) or de.size != len(paths):
        raise ValueError("omegas/deltas must align with paths")
    if np.any(om <= 0) or np.any(de < 0):
        raise ValueError("Omega must be > 0 and Delta >= 0")
    if keep is not None and not 0 <= keep < len(paths):
        raise ValueError(f"keep index {keep} out of range")

    active = np.ones(len(paths), dtype=bool)
    theta_full = np.zeros(len(paths))
    t_star = float("inf")
    for _ in range(len(paths)):
        idx = np.flatnonzero(active)
        theta_act, t_star = solve_equal_time(om[idx], de[idx], n)
        if np.all(theta_act >= -1e-12):
            theta_full[:] = 0.0
            theta_full[idx] = np.clip(theta_act, 0.0, 1.0)
            break
        # Drop the most negative path (excluding the protected one).
        order = np.argsort(theta_act)
        dropped = False
        for j in order:
            if theta_act[j] >= 0:
                break
            if keep is not None and idx[j] == keep:
                continue
            active[idx[j]] = False
            dropped = True
            break
        if not dropped:
            # Only the protected path is negative — give it everything else's
            # leftover by falling back to the protected path alone.
            theta_full[:] = 0.0
            theta_full[keep] = 1.0
            only = np.array([keep])
            _, t_star = solve_equal_time(om[only], de[only], n)
            active[:] = False
            active[keep] = True
            break
    else:  # pragma: no cover - loop always breaks
        raise RuntimeError("active-set iteration failed to converge")

    # Normalise away rounding noise.
    s = theta_full.sum()
    if s > 0:
        theta_full = theta_full / s
    return FractionSolution(
        theta=theta_full,
        active=tuple(bool(a) for a in active),
        predicted_time=t_star,
        omegas=om,
        deltas=de,
    )


__all__ = [
    "FractionSolution",
    "optimal_fractions",
    "solve_equal_time",
]
