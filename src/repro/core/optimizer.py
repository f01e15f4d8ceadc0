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

The solve runs on Python floats: a node has at most a handful of paths,
and arrays that small never repay their set-up (DESIGN.md §5c).  Every
step keeps the operation and operand order of the array form it replaced,
so the floats are the same bit for bit: sums run in ``ndarray.sum``'s
order (:func:`_sum`; built-in ``sum()`` compensates on Python ≥ 3.12), and
which negative path is dropped first cannot change the final active set.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.params import PathParams

_INF = float("inf")


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


def _sum(values: Sequence[float]) -> float:
    """Σ values in ``ndarray.sum``'s order (numpy's pairwise summation).

    Below eight terms that is one loop, left to right from 0.0; from eight
    on, eight strided partial sums combined pairwise, then the remainder.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    part = list(values[:8])
    whole = n - n % 8
    for i in range(8, whole, 8):
        for j in range(8):
            part[j] += values[i + j]
    total = ((part[0] + part[1]) + (part[2] + part[3])) + (
        (part[4] + part[5]) + (part[6] + part[7])
    )
    for v in values[whole:]:
        total += v
    return total


def _equal_time(
    omegas: Sequence[float], deltas: Sequence[float], n: float
) -> tuple[list[float], float]:
    """Eq. (11)/(24) over floats: ``(theta, T*)``, fractions unclamped."""
    inv = [1.0 / o for o in omegas]
    t_star = (n + _sum([d * v for d, v in zip(deltas, inv)])) / _sum(inv)
    return [(t_star - d) * v / n for d, v in zip(deltas, inv)], t_star


def solve_equal_time(
    omegas: np.ndarray, deltas: np.ndarray, nbytes: float
) -> tuple[np.ndarray, float]:
    """Solve Eq. (11)/(24) for the given Ω, Δ vectors (no clamping).

    Returns ``(theta, T*)`` where ``T* = (n + Σ Δ_j/Ω_j) / Σ 1/Ω_j`` is the
    equalised completion time.  Fractions may be negative for small n.
    """
    if nbytes <= 0:
        raise ValueError("message size must be > 0")
    theta, t_star = _equal_time(
        np.asarray(omegas, dtype=float).tolist(),
        np.asarray(deltas, dtype=float).tolist(),
        float(nbytes),
    )
    return np.array(theta), t_star


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
    count = len(paths)
    om = [p.Omega for p in paths] if omegas is None else [float(o) for o in omegas]
    de = [p.Delta for p in paths] if deltas is None else [float(d) for d in deltas]
    if len(om) != count or len(de) != count:
        raise ValueError("omegas/deltas must align with paths")
    for o, d in zip(om, de):
        # chained comparisons are False for NaN, so NaN fails here too
        if not (0.0 < o < _INF and 0.0 <= d < _INF):
            raise ValueError("Omega must be > 0 and Delta >= 0, both finite")
    if keep is not None and not 0 <= keep < count:
        raise ValueError(f"keep index {keep} out of range")

    idx = list(range(count))  # the active paths, in path order
    for _ in range(count):
        theta, t_star = _equal_time([om[i] for i in idx], [de[i] for i in idx], n)
        if all(t >= -1e-12 for t in theta):
            theta = [min(max(t, 0.0), 1.0) for t in theta]
            break
        # Drop the most negative path (excluding the protected one); ties
        # go to the lower index.  Any order drops the same set: a fraction
        # is negative exactly when its Δ exceeds T*, and a drop only
        # lowers T*.
        drop = min(
            (j for j, t in enumerate(theta) if t < 0 and idx[j] != keep),
            key=theta.__getitem__,
            default=None,
        )
        if drop is None:
            # Only the protected path is negative — give it everything else's
            # leftover by falling back to the protected path alone.
            idx, theta = [keep], [1.0]
            _, t_star = _equal_time([om[keep]], [de[keep]], n)
            break
        del idx[drop]
    else:  # keep=None, and rounding left even the last path negative
        raise RuntimeError("active-set iteration failed to converge")

    theta_full = [0.0] * count
    for i, t in zip(idx, theta):
        theta_full[i] = t
    # Normalise away rounding noise.
    s = _sum(theta_full)
    if s > 0:
        theta_full = [t / s for t in theta_full]
    return FractionSolution(
        theta=np.array(theta_full),
        active=tuple(i in idx for i in range(count)),
        predicted_time=t_star,
        omegas=np.array(om),
        deltas=np.array(de),
    )


__all__ = [
    "FractionSolution",
    "optimal_fractions",
    "solve_equal_time",
]
