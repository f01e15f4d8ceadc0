"""Benchmark environment: reproducible (engine, context, communicator)
bundles.

Every measurement point runs in a **fresh** simulation so that one point's
residual state (stream pools, in-flight flows) cannot leak into another —
the simulated analogue of separate mpirun invocations.  IPC/plan caches are
re-warmed by the warmup iterations each OSU loop performs, exactly like the
real benchmarks.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.params import ParameterStore
from repro.obs import Observability
from repro.sim.noise import ComposedJitter, LognormalJitter, SizeDependentEfficiency
from repro.topology.links import LinkKind
from repro.topology.node import ChannelDef
from repro.util.rng import spawn_rng
from repro.mpi.comm import Communicator
from repro.sim.engine import Engine
from repro.sim.trace import Tracer
from repro.topology.node import NodeTopology
from repro.ucx.context import UCXContext
from repro.ucx.tuning import TransportConfig

#: Per-system GPU reduction throughput (elementwise kernels are
#: memory-bound; ~1/3 of HBM bandwidth).  Used by collective benchmarks.
REDUCE_BANDWIDTH = {
    "beluga": 250e9,  # V100, 900 GB/s HBM2
    "narval": 450e9,  # A100, 1555 GB/s HBM2e
}
DEFAULT_REDUCE_BANDWIDTH = 250e9


#: Per-link-kind protocol-efficiency knees: the message size below which a
#: link's effective bandwidth visibly sags (protocol/DMA-setup overheads
#: beyond the fixed alpha).  This is the main driver of the model's
#: small-message over-estimation (paper Observation 4).
EFFICIENCY_KNEES = {
    LinkKind.NVLINK2: 192 * 1024,
    LinkKind.NVLINK3: 256 * 1024,
    LinkKind.NVLINK4: 256 * 1024,
    LinkKind.NVSWITCH: 256 * 1024,
    LinkKind.PCIE3: 384 * 1024,
    LinkKind.PCIE4: 384 * 1024,
    LinkKind.PCIE5: 384 * 1024,
    LinkKind.UPI: 128 * 1024,
    LinkKind.XGMI2: 256 * 1024,
    LinkKind.DRAM: 64 * 1024,
}


def default_jitter_factory(seed: int | None = 0, sigma: float = 0.01):
    """Realistic deterministic noise per channel.

    Combines the size-dependent efficiency ramp (systematic — causes
    Observation 4) with mild lognormal run-to-run scatter (sigma ≈ 1 %).
    Pass ``sigma=0`` for the purely systematic variant used in tests.
    """

    def factory(cdef: ChannelDef):
        knee = EFFICIENCY_KNEES.get(cdef.kind, 256 * 1024)
        systematic = SizeDependentEfficiency(knee)
        if sigma <= 0:
            return systematic
        rng = spawn_rng(seed, "jitter", cdef.name)
        return ComposedJitter(systematic, LognormalJitter(rng, sigma))

    return factory


@dataclass
class BenchEnvironment:
    """Everything needed to spin up one measurement."""

    topology: NodeTopology
    config: TransportConfig = field(default_factory=TransportConfig)
    store: ParameterStore | None = None
    jitter_factory: Callable | None = None
    trace: bool = False
    #: Attach an :class:`~repro.obs.Observability` bundle (pull metrics
    #: and the prediction-error tracker) to every fresh context.  Implies
    #: tracing, so the Chrome-trace export covers fabric copies too.
    observe: bool = False
    #: Enable the closed loop (drift detection + online recalibration) on
    #: top of ``observe``; has no effect unless ``observe`` is set too.
    autotune: bool = False

    def with_config(self, config: TransportConfig) -> "BenchEnvironment":
        return BenchEnvironment(
            topology=self.topology,
            config=config,
            store=self.store,
            jitter_factory=self.jitter_factory,
            trace=self.trace,
            observe=self.observe,
            autotune=self.autotune,
        )

    def fresh(self, size: int | None = None):
        """New (engine, context, communicator[, tracer]) for one run.

        The created context stays reachable as :attr:`last_context`, so
        callers of measurement loops that build their own fresh context
        (``osu_bw`` et al.) can read metrics/traces after the run.
        """
        engine = Engine()
        tracer = Tracer() if (self.trace or self.observe) else None
        obs = Observability(autotune=self.autotune) if self.observe else None
        context = UCXContext(
            engine,
            self.topology,
            config=self.config,
            store=self.store,
            tracer=tracer,
            jitter_factory=self.jitter_factory,
            obs=obs,
        )
        comm = Communicator(
            context,
            size=size,
            reduce_bandwidth=REDUCE_BANDWIDTH.get(
                self.topology.name, DEFAULT_REDUCE_BANDWIDTH
            ),
        )
        self._last_context = context
        return engine, context, comm

    @property
    def last_context(self) -> UCXContext | None:
        """The most recently created context (None before any ``fresh``)."""
        return getattr(self, "_last_context", None)


__all__ = ["BenchEnvironment", "REDUCE_BANDWIDTH", "DEFAULT_REDUCE_BANDWIDTH"]
