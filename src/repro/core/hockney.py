"""Hockney's linear model and its multi-path composition (paper §3.1).

* :class:`HockneyModel` — the classical ``T = α + n/β`` (Eq. 1);
* :func:`path_time` — time for a fraction θ of the message on one path,
  covering direct and staged paths (Eq. 2);
* :class:`MultiPathModel` — the parallel composition ``T = max_i T_i``
  (Eq. 4) for a given fraction vector, with simplex validation (Eq. 3).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.params import PathParams

_SIMPLEX_TOL = 1e-9


class HockneyModel:
    """The classical latency-bandwidth model, Eq. (1)."""

    def __init__(self, alpha: float, beta: float) -> None:
        if alpha < 0 or beta <= 0:
            raise ValueError("invalid Hockney parameters")
        self.alpha = float(alpha)
        self.beta = float(beta)

    def time(self, nbytes: float) -> float:
        """Predicted transfer time for ``nbytes``."""
        if nbytes < 0:
            raise ValueError("negative message size")
        return self.alpha + nbytes / self.beta

    def bandwidth(self, nbytes: float) -> float:
        """Effective bandwidth n/T(n) — approaches β for large n."""
        t = self.time(nbytes)
        return nbytes / t if t > 0 else 0.0

    def n_half(self) -> float:
        """Message size achieving half the asymptotic bandwidth."""
        return self.alpha * self.beta

    def __repr__(self) -> str:  # pragma: no cover
        return f"HockneyModel(alpha={self.alpha:.2e}, beta={self.beta:.3e})"


def path_time(params: PathParams, theta: float, nbytes: float) -> float:
    """Time for fraction ``theta`` of an ``nbytes`` message on one path.

    Implements Eq. (2): ``T_i = α_i + θ_i n/β_i + ε_i + α'_i + θ_i n/β'_i``
    for staged paths; the ε/α'/β' terms vanish for direct paths.  A path
    carrying θ = 0 costs nothing (it is simply not initiated).
    """
    if not 0 <= theta <= 1 + _SIMPLEX_TOL:
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    if nbytes < 0:
        raise ValueError("negative message size")
    if theta == 0:
        return 0.0
    t = params.initiation + params.alpha1 + theta * nbytes / params.beta1
    if params.is_staged:
        t += params.epsilon + params.alpha2 + theta * nbytes / params.beta2
    return t


def validate_fractions(theta: Sequence[float]) -> np.ndarray:
    """Check Eq. (3): θ_i ∈ [0, 1] and Σθ_i = 1. Returns the array."""
    arr = np.asarray(theta, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("theta must be a non-empty 1-D vector")
    if np.any(arr < -_SIMPLEX_TOL) or np.any(arr > 1 + _SIMPLEX_TOL):
        raise ValueError(f"fractions out of [0, 1]: {arr}")
    if abs(arr.sum() - 1.0) > 1e-6:
        raise ValueError(f"fractions must sum to 1, got {arr.sum()}")
    return np.clip(arr, 0.0, 1.0)


class MultiPathModel:
    """The multi-path composition T = max_i T_i (Eq. 4)."""

    def __init__(self, paths: Sequence[PathParams]) -> None:
        if not paths:
            raise ValueError("at least one path required")
        ids = [p.path_id for p in paths]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate path ids: {ids}")
        self.paths = list(paths)

    def path_times(self, theta: Sequence[float], nbytes: float) -> np.ndarray:
        arr = validate_fractions(theta)
        if arr.size != len(self.paths):
            raise ValueError(
                f"{arr.size} fractions for {len(self.paths)} paths"
            )
        return np.array(
            [path_time(p, t, nbytes) for p, t in zip(self.paths, arr)]
        )

    def total_time(self, theta: Sequence[float], nbytes: float) -> float:
        """Eq. (4): the completion time is the slowest path's time."""
        return float(self.path_times(theta, nbytes).max())

    def single_path_time(self, index: int, nbytes: float) -> float:
        """Time when the whole message uses one path (the baseline)."""
        theta = np.zeros(len(self.paths))
        theta[index] = 1.0
        return self.total_time(theta, nbytes)

    def __repr__(self) -> str:  # pragma: no cover
        return f"MultiPathModel({[p.path_id for p in self.paths]})"


__all__ = ["HockneyModel", "MultiPathModel", "path_time", "validate_fractions"]
