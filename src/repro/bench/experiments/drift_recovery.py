"""DRIFT — closed-loop recovery from an injected channel degradation.

The paper's ≤6 % prediction-error claim is validated offline; this
experiment asks what happens *after* calibration, when one link's
behaviour shifts under a running workload.  One NVLink channel's
effective bandwidth is degraded by a configurable fraction (a
:class:`~repro.sim.noise.LinearDrift` ramp, modelling DVFS / thermal
throttling) mid-run, and the same put stream is executed twice:

* **closed loop** (``autotune=True``) — the drift controller detects the
  divergence, refits the affected hop's (α̂, β̂) from live trace records,
  and invalidates the stale cached plans;
* **open loop** — pure telemetry: Algorithm 1's cache keeps serving the
  pre-drift configuration and the model keeps predicting with stale β̂.

The contrast is the point: closed-loop tail error returns near the
offline bound, open-loop error stays at the level the degradation
implies.  Calibration and recalibration both only ever *measure* — the
injected ground truth is never read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.baselines import dynamic_config
from repro.bench.env import BenchEnvironment, default_jitter_factory
from repro.bench.runner import SystemSetup, get_setup
from repro.core.params import ParameterStore
from repro.sim.noise import ComposedJitter, LinearDrift
from repro.units import MiB


@dataclass(frozen=True)
class ScenarioResult:
    """One loop variant's outcome."""

    label: str  # "closed" | "open"
    abs_errors: tuple[float, ...]  # per put, in issue order
    tail_error: float  # mean |error| over the last recovery_window puts
    drift_events: int
    hops_refit: int
    plans_invalidated: int
    summary: dict


@dataclass(frozen=True)
class DriftRecoveryResult:
    """Closed vs open loop under the same injected degradation."""

    system: str
    nbytes: int
    degrade: float
    channel: str
    total_puts: int
    warmup_puts: int
    ramp_puts: int
    recovery_window: int
    closed: ScenarioResult
    open: ScenarioResult

    @property
    def recovered(self) -> bool:
        """Did the closed loop land below the open loop's tail error?"""
        return self.closed.tail_error < self.open.tail_error


def _run_scenario(
    setup: SystemSetup,
    *,
    label: str,
    autotune: bool,
    nbytes: int,
    total_puts: int,
    warmup_puts: int,
    ramp_puts: int,
    degrade: float,
    channel: str,
    recovery_window: int,
    src: int,
    dst: int,
):
    # The closed loop mutates its parameter store; clone per scenario so
    # the memoised setup (and the sibling scenario) stay pristine.
    store = ParameterStore.from_json(setup.store.to_json())
    base = default_jitter_factory(setup.jitter_seed, setup.jitter_sigma)
    factor = 1.0 / (1.0 - degrade)

    def jitter_factory(cdef):
        model = base(cdef)
        if cdef.name == channel:
            return ComposedJitter(
                model, LinearDrift(factor, start=warmup_puts, ramp=ramp_puts)
            )
        return model

    env = BenchEnvironment(
        topology=setup.topology,
        config=dynamic_config(),
        store=store,
        jitter_factory=jitter_factory,
        observe=True,
        autotune=autotune,
    )
    engine, ctx, _comm = env.fresh()

    def workload():
        for i in range(total_puts):
            yield ctx.put(src, dst, nbytes, tag=f"drift{i}")

    engine.process(workload(), name="drift-workload")
    engine.run()

    obs = ctx.obs
    abs_errors = tuple(r.abs_error for r in obs.errors.records)
    tail = (
        float(np.mean(abs_errors[-recovery_window:])) if abs_errors else 0.0
    )
    drift = obs.drift.summary() if obs.drift is not None else {}
    return ctx, ScenarioResult(
        label=label,
        abs_errors=abs_errors,
        tail_error=tail,
        drift_events=drift.get("events", 0),
        hops_refit=drift.get("hops_refit", 0),
        plans_invalidated=drift.get("plans_invalidated", 0),
        summary=obs.errors.summary(),
    )


def run_drift_recovery(
    system: str = "beluga",
    *,
    nbytes: int = 64 * MiB,
    total_puts: int = 80,
    warmup_puts: int = 20,
    ramp_puts: int = 10,
    degrade: float = 0.30,
    recovery_window: int = 16,
    src: int = 0,
    dst: int = 1,
    keep_contexts: bool = False,
) -> DriftRecoveryResult:
    """Run the drift scenario closed- and open-loop and compare.

    The degraded channel is the first of the pair's direct hop — the path
    carrying the largest θ share, so staleness hurts most.
    With ``keep_contexts`` the two live contexts are attached to the
    result as ``_contexts`` (closed, open) for report/CLI consumers.
    """
    if not 0.0 < degrade < 1.0:
        raise ValueError("degrade must be in (0, 1)")
    setup = get_setup(system)
    channel = setup.topology.direct_hop(src, dst)[0]
    kwargs = dict(
        nbytes=nbytes,
        total_puts=total_puts,
        warmup_puts=warmup_puts,
        ramp_puts=ramp_puts,
        degrade=degrade,
        channel=channel,
        recovery_window=recovery_window,
        src=src,
        dst=dst,
    )
    closed_ctx, closed = _run_scenario(
        setup, label="closed", autotune=True, **kwargs
    )
    open_ctx, open_ = _run_scenario(
        setup, label="open", autotune=False, **kwargs
    )
    result = DriftRecoveryResult(
        system=system,
        nbytes=nbytes,
        degrade=degrade,
        channel=channel,
        total_puts=total_puts,
        warmup_puts=warmup_puts,
        ramp_puts=ramp_puts,
        recovery_window=recovery_window,
        closed=closed,
        open=open_,
    )
    if keep_contexts:
        object.__setattr__(result, "_contexts", (closed_ctx, open_ctx))
    return result


__all__ = ["run_drift_recovery", "DriftRecoveryResult", "ScenarioResult"]
