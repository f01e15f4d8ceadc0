"""The φ linearisation of optimal chunk counts — paper §3.4, Eqs. 19–22.

The exact optimal chunk count ``k* = sqrt(x)`` with ``x = θn/(αβ')``
(Case 1) makes the path time non-linear in θ, so the equal-time system has
no closed form.  The paper replaces ``k*`` with a *linear* approximation
``k ≈ φ·x`` using topology-specific constants φ (details omitted there "for
brevity").

We implement the natural construction consistent with the paper's
``c·f(n)`` description: φ is the least-squares fit of ``sqrt(x)`` by
``φ·x`` over the operating range of ``x`` the topology produces for the
message-size window of interest,

    φ* = argmin_φ Σ (φ x − sqrt(x))²  =  Σ x^{3/2} / Σ x²,

which equals ``1/sqrt(x_ref)`` for a single reference point — i.e. anchoring
the linearisation at a representative message size.  Substituting ``k = φx``
into Eq. (13) gives the linear form of Eq. (20)–(22)::

    Case 1 (β < β'): Ω = 1/β + φ¹/β',  Δ = ε + α' + α/φ¹
    Case 2 (β ≥ β'): Ω = φ²/β + 1/β',  Δ = α + (ε + α')/φ²

which the equal-time optimiser consumes directly.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.params import PathParams
from repro.core.pipeline_model import optimal_chunks_exact


def chunking_ratio(params: PathParams, theta: float, nbytes: float) -> float:
    """The dimensionless x with k* = sqrt(x) (argument of Eqs. 14/15)."""
    share = theta * nbytes
    if params.beta1 < params.beta2:
        return share / (params.alpha1 * params.beta2)
    return share / (params.beta1 * (params.epsilon + params.alpha2))


def phi_at(params: PathParams, theta: float, nbytes: float) -> float:
    """Per-size topology constant: φ(n) = 1/sqrt(x(θ_ref·n)).

    The paper describes the constants as having the form ``c·f(n)`` — a
    per-message-size linearisation.  Anchoring φ at the current message
    size makes the linear chunk count ``k = φx`` agree with the exact
    optimum ``sqrt(x)`` at the anchor point, while keeping the path time
    linear in θ so the equal-time system still has the closed form of
    Eq. (24).
    """
    x = chunking_ratio(params, theta, nbytes)
    if x <= 1.0:
        # Sub-one chunk counts collapse to k = 1 (no pipelining benefit);
        # φ = 1 keeps Δ bounded by the raw startup costs.
        return 1.0
    return 1.0 / math.sqrt(x)


def fit_phi(x_values: Sequence[float]) -> float:
    """Least-squares fit of sqrt(x) ≈ φ·x over the sampled x range."""
    x = np.asarray(x_values, dtype=float)
    if x.size == 0 or np.any(x <= 0):
        raise ValueError("x samples must be positive and non-empty")
    return float((x ** 1.5).sum() / (x ** 2).sum())


def fit_phi_for_sizes(params: PathParams, sizes: Sequence[float]) -> float:
    """Topology constant φ for one staged path over a message-size window.

    The chunking ratios are taken at θ = 0.25, a representative fraction
    for a staged path to carry (the paper's Fig. 4 shows staged paths
    carrying 15–35 %); the fit is insensitive to it because x enters both
    sides.
    """
    xs = [chunking_ratio(params, 0.25, float(n)) for n in sizes]
    xs = [x for x in xs if x > 0]
    if not xs:
        raise ValueError("no positive chunking ratios in the size window")
    return fit_phi(xs)


def linear_chunks(
    params: PathParams, theta: float, nbytes: float, phi: float, *,
    max_chunks: int = 4096,
) -> int:
    """Eq. (19): the φ-linearised chunk count, clamped to [1, max_chunks]."""
    if phi <= 0:
        raise ValueError("phi must be > 0")
    x = chunking_ratio(params, theta, nbytes)
    return int(min(max_chunks, max(1, round(phi * x))))


@dataclass(frozen=True, slots=True)
class EffectiveParams:
    """The linearised (Ω, Δ) of one path — Eq. (22) for staged paths."""

    path_id: str
    omega: float
    delta: float
    phi: float | None  # None for direct paths
    case1: bool | None  # which branch of Eq. (22); None for direct


def effective_params(
    params: PathParams, phi: float | None = None
) -> EffectiveParams:
    """Reduce a path to linear (Ω, Δ) under the pipelining model.

    Direct paths keep their plain Hockney reduction (Ω = 1/β, Δ = α).
    Staged paths use Eq. (22) with the given φ; ``phi=None`` on a staged
    path falls back to the *non-pipelined* reduction of Eq. (11) (used by
    the no-pipelining ablation).
    """
    if not params.is_staged:
        return EffectiveParams(
            path_id=params.path_id,
            omega=1.0 / params.beta1,
            delta=params.alpha1 + params.initiation,
            phi=None,
            case1=None,
        )
    if phi is None:
        return EffectiveParams(
            path_id=params.path_id,
            omega=params.Omega,
            delta=params.Delta,
            phi=None,
            case1=None,
        )
    if phi <= 0:
        raise ValueError("phi must be > 0")
    if params.beta1 < params.beta2:  # Case 1
        omega = 1.0 / params.beta1 + phi / params.beta2
        delta = params.epsilon + params.alpha2 + params.alpha1 / phi
        case1 = True
    else:  # Case 2
        omega = phi / params.beta1 + 1.0 / params.beta2
        delta = params.alpha1 + (params.epsilon + params.alpha2) / phi
        case1 = False
    return EffectiveParams(
        path_id=params.path_id,
        omega=omega,
        delta=delta + params.initiation,
        phi=phi,
        case1=case1,
    )


def linearization_error(
    params: PathParams,
    theta: float,
    nbytes: float,
    phi: float,
) -> float:
    """Relative error of the φ-linearised chunk count vs the exact optimum.

    Used by the ablation bench to quantify what the closed-form runtime
    planner gives up against the numerical solver.
    """
    exact = optimal_chunks_exact(params, theta, nbytes)
    approx = phi * chunking_ratio(params, theta, nbytes)
    if exact <= 0:
        return 0.0
    return abs(approx - exact) / exact


__all__ = [
    "chunking_ratio",
    "phi_at",
    "fit_phi",
    "fit_phi_for_sizes",
    "linear_chunks",
    "EffectiveParams",
    "effective_params",
    "linearization_error",
]
