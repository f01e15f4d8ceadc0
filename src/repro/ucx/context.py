"""The UCX context: ties topology, runtime, planner, and pipeline together.

Fig. 2a, Step 2: at startup the context takes the calibrated model (the
``store``; the topology's ground truth when none is given) and wires the
cuda_ipc module to the planner and pipeline engine.  It is the only layer
that holds an :class:`~repro.obs.Observability` bundle: it registers the
components' pull collectors and wires the closed loop.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.params import ParameterStore
from repro.core.path_health import PathHealthRegistry
from repro.core.planner import PathPlanner
from repro.core.transfer_graph import GraphCache
from repro.gpu.runtime import GPURuntime
from repro.obs import DriftController, Observability
from repro.obs.tracing import FlightRecorder
from repro.runtime import TransferManager
from repro.sim.engine import Engine
from repro.sim.trace import Tracer
from repro.topology.node import NodeTopology
from repro.ucx.cuda_ipc import CudaIpcModule
from repro.ucx.endpoint import Endpoint
from repro.ucx.pipeline import PipelineEngine
from repro.ucx.tuning import TransportConfig


class UCXContext:
    """One node's transport state."""

    def __init__(
        self,
        engine: Engine,
        topology: NodeTopology,
        *,
        config: TransportConfig | None = None,
        store: ParameterStore | None = None,
        tracer: Tracer | None = None,
        jitter_factory: Callable | None = None,
        ipc_open_cost: float | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.engine = engine
        self.topology = topology
        self.config = config if config is not None else TransportConfig()
        self.tracer = tracer
        self.obs = obs
        self.runtime = GPURuntime(
            engine,
            topology,
            tracer=tracer,
            jitter_factory=jitter_factory,
            ipc_open_cost=ipc_open_cost,
        )
        self.store = store if store is not None else ParameterStore.ground_truth(topology)
        # The flight recorder is always constructed (a disabled one costs a
        # single branch per span site) and on by default (``flight.enabled``
        # is its switch); it is created before the planner/pipeline so
        # every layer can record into it.
        self.flight = FlightRecorder(engine)
        self.planner = PathPlanner(
            topology,
            self.store,
            pipelining=self.config.pipelining,
            sequential_initiation=self.config.sequential_initiation,
            max_chunks=self.config.max_chunks,
        )
        self.pipeline = PipelineEngine(self.runtime, flight=self.flight)
        # Compiled transfer graphs (DESIGN.md §5g): replayed by cuda_ipc,
        # invalidated through the planner (refresh_params/invalidate_path
        # forward to it) so a graph never outlives the plan it froze.
        self.graphs = GraphCache()
        self.planner.graphs = self.graphs
        # Path circuit breakers: quarantined paths are excluded from
        # planning and their cached plans dropped (see cuda_ipc recovery).
        self.health = PathHealthRegistry(on_quarantine=self._on_quarantine)
        self.cuda_ipc = CudaIpcModule(self)
        # The transfer service: every put (direct, endpoint, MPI, bench)
        # is admitted here.
        self.transfers = TransferManager(self)
        self._endpoints: dict[tuple[int, int], Endpoint] = {}
        if obs is not None:
            if obs.autotune and tracer is not None and obs.drift is None:
                # Close the loop: predictions vs observed times feed a
                # drift detector that refits (α̂, β̂) from live traces and
                # invalidates the stale cached plans.  Shares the bundle's
                # error tracker so telemetry covers every sample.
                obs.drift = DriftController(
                    self.planner, tracer, tracker=obs.errors
                )
            self._register_collectors(obs)

    def _on_quarantine(self, src: int, dst: int, path_id: str) -> None:
        """Health demoted a path: purge cached plans still routing over it."""
        self.planner.invalidate_path(src, dst, path_id)

    def _register_collectors(self, obs: Observability) -> None:
        """Wire every component's pull-stats into the metrics registry."""
        m = obs.metrics
        m.register_collector("engine", self.engine.stats_snapshot)
        m.register_collector("fabric", self.runtime.fabric.stats_snapshot)
        m.register_collector("gpu", self.runtime.stats_snapshot)
        m.register_collector("pipeline", lambda: self.pipeline.stats_snapshot())
        m.register_collector("cuda_ipc", lambda: self.cuda_ipc.stats_snapshot())
        m.register_collector(
            "planner", lambda: {"cache": self.planner.cache.stats()}
        )
        m.register_collector("transfer_graph", lambda: self.graphs.stats())
        m.register_collector("model_error", obs.errors.summary)
        m.register_collector("path_health", self.health.snapshot)
        m.register_collector(
            "transfer_manager", lambda: self.transfers.stats_snapshot()
        )
        m.register_collector("tracing", lambda: self.flight.summary())
        if obs.drift is not None:
            m.register_collector("drift", obs.drift.summary)

    # ------------------------------------------------------------------
    def endpoint(self, src: int, dst: int) -> Endpoint:
        """Get (or create) the endpoint for a device pair."""
        key = (src, dst)
        ep = self._endpoints.get(key)
        if ep is None:
            ep = Endpoint(self, src, dst)
            self._endpoints[key] = ep
        return ep

    def put(
        self,
        src: int,
        dst: int,
        nbytes: int,
        *,
        tag: str = "",
        deadline: float | None = None,
        timeout: float | None = None,
    ):
        """Submit a transfer to the service (value: PutResult).

        ``deadline`` is an absolute engine time, ``timeout`` is relative to
        now; at most one may be given (both default off).
        """
        return self.transfers.submit(
            src, dst, nbytes, tag=tag, deadline=deadline, timeout=timeout
        )


__all__ = ["UCXContext"]
